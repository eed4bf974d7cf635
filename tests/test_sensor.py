import numpy as np
import pytest

from contactshape import (
    ElastomerParams,
    InvalidArgumentError,
    InvalidReadingError,
    TaxelReading,
    delta_c_from_thickness,
    load_readings,
    reading_to_displacement,
    readings_to_displacements,
    save_readings,
    thickness_from_reading,
)
from contactshape.sensor import VACUUM_PERMITTIVITY

# forward model at h_c = 1.5 mm with the default constants
DELTA_C_AT_1P5MM = 7.378489844000001e-14


def test_params_defaults():
    p = ElastomerParams()
    assert p.young_modulus == 2.1e5
    assert p.poisson_ratio == 0.5
    assert p.nominal_thickness == 2e-3


def test_capacitance_scale_uses_the_vacuum_permittivity_constant():
    p = ElastomerParams(permittivity_relative=2.5, taxel_area=3e-5)
    assert p.capacitance_scale == VACUUM_PERMITTIVITY * 2.5 * 3e-5
    with pytest.raises(TypeError):
        ElastomerParams(permittivity_vacuum=8.85e-12)


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        ElastomerParams(young_modulus=0.0)
    with pytest.raises(InvalidArgumentError):
        ElastomerParams(poisson_ratio=0.6)
    with pytest.raises(InvalidArgumentError):
        ElastomerParams(nominal_thickness=-1e-3)
    with pytest.raises(InvalidArgumentError):
        ElastomerParams(taxel_area=0.0)


@pytest.mark.parametrize(
    "name",
    ["young_modulus", "poisson_ratio", "nominal_thickness", "permittivity_relative",
     "taxel_area"],
)
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), "2e-3", None])
def test_params_must_be_finite_numbers(name, bad):
    with pytest.raises(InvalidArgumentError, match=name):
        ElastomerParams(**{name: bad})


@pytest.mark.parametrize(
    "name",
    ["young_modulus", "poisson_ratio", "nominal_thickness", "permittivity_relative",
     "taxel_area"],
)
@pytest.mark.parametrize("bad", [True, False])
def test_params_refuse_booleans(name, bad):
    with pytest.raises(InvalidArgumentError, match=name):
        ElastomerParams(**{name: bad})


def test_forward_model_spot_value(params):
    assert delta_c_from_thickness(1.5e-3, params) == pytest.approx(
        DELTA_C_AT_1P5MM, rel=1e-12
    )


def test_forward_model_domain(params):
    with pytest.raises(InvalidArgumentError):
        delta_c_from_thickness(0.0, params)
    with pytest.raises(InvalidArgumentError):
        delta_c_from_thickness(2.5e-3, params)


def test_inversion_round_trip(params):
    """h_c -> delta_C -> h_c is the identity over the physical range."""
    rng = np.random.default_rng(11)
    for h_c in rng.uniform(0.05e-3, 2e-3, size=200):
        dc = delta_c_from_thickness(h_c, params)
        back = thickness_from_reading(TaxelReading(0, dc), params)
        assert back == pytest.approx(h_c, rel=1e-12)


def test_zero_reading_is_rest_state(params):
    r = TaxelReading(0, 0.0)
    assert thickness_from_reading(r, params) == params.nominal_thickness
    assert reading_to_displacement(r, params) == 0.0


def test_displacement_monotone_in_delta_c(params):
    """More capacitance change means more compression."""
    dcs = np.logspace(-16, -12, 30)
    disps = [reading_to_displacement(TaxelReading(0, dc), params) for dc in dcs]
    assert all(d2 > d1 for d1, d2 in zip(disps, disps[1:]))
    assert all(0.0 < d < params.nominal_thickness for d in disps)


def test_negative_reading_rejected():
    with pytest.raises(InvalidReadingError):
        TaxelReading(0, -1e-15)
    with pytest.raises(InvalidReadingError):
        TaxelReading(0, float("nan"))
    with pytest.raises(InvalidArgumentError):
        TaxelReading(-1, 1e-15)


def test_readings_file_roundtrip(tmp_path):
    rs = [TaxelReading(0, 1.5e-14, 0.25), TaxelReading(3, 0.0), TaxelReading(7, 2e-13, 1.0)]
    path = tmp_path / "r.csv"
    save_readings(rs, path)
    back = load_readings(path)
    assert back == rs


def test_readings_file_tolerant_clamp(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("taxel_index,delta_c_F,timestamp_s\n0,-3e-15,\n1,2e-15,\n")
    with pytest.raises(InvalidReadingError):
        load_readings(path)
    rs = load_readings(path, tolerant=True)
    assert rs[0].delta_c == 0.0
    assert rs[1].delta_c == 2e-15


def test_readings_file_errors(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("wrong header\n")
    with pytest.raises(InvalidArgumentError):
        load_readings(path)
    path.write_text("taxel_index,delta_c_F,timestamp_s\n0\n")
    with pytest.raises(InvalidArgumentError):
        load_readings(path)


@pytest.mark.parametrize(
    "record, error",
    [("0,-1e-15,", InvalidReadingError), ("-1,1e-15,", InvalidArgumentError)],
)
def test_a_bad_reading_names_its_file_and_record(tmp_path, record, error):
    path = tmp_path / "r.csv"
    path.write_text("taxel_index,delta_c_F,timestamp_s\n1,2e-15,\n%s\n" % record)
    with pytest.raises(error, match=r"^readings file .*r\.csv: record '%s': " % record) as exc:
        load_readings(path)
    assert type(exc.value) is error


def test_readings_to_displacements(params):
    rs = [TaxelReading(2, DELTA_C_AT_1P5MM), TaxelReading(0, 0.0)]
    out = readings_to_displacements(rs, 4, params)
    assert out.shape == (4,)
    assert out[0] == 0.0 and out[1] == 0.0 and out[3] == 0.0
    assert out[2] == pytest.approx(0.5e-3, rel=1e-9)
    with pytest.raises(InvalidArgumentError):
        readings_to_displacements([TaxelReading(5, 0.0)], 4, params)
    with pytest.raises(InvalidArgumentError):
        readings_to_displacements([TaxelReading(1, 0.0), TaxelReading(1, 0.0)], 4, params)


def test_readings_to_displacements_is_per_reading_bitwise():
    """The vectorized conversion runs the same IEEE operations in the same
    order as ``reading_to_displacement``, so it rounds the same."""
    rng = np.random.default_rng(5)
    for params in (ElastomerParams(), ElastomerParams(nominal_thickness=3.7e-3, taxel_area=2e-5)):
        n = 300
        taxels = rng.permutation(n)[:250]
        dcs = np.concatenate([[0.0, 5e-324, 1e-30, 1e-9], 10.0 ** rng.uniform(-18, -11, 246)])
        rs = [TaxelReading(int(i), float(v)) for i, v in zip(taxels, dcs)]
        out = readings_to_displacements(iter(rs), n, params)
        want = np.zeros(n)
        for r in rs:
            want[r.taxel_index] = reading_to_displacement(r, params)
        assert out.tobytes() == want.tobytes()
    assert readings_to_displacements([], 3, ElastomerParams()).tobytes() == np.zeros(3).tobytes()


def test_readings_to_displacements_reports_the_first_bad_reading(params):
    rs = [TaxelReading(1, 0.0), TaxelReading(7, 0.0), TaxelReading(1, 0.0), TaxelReading(7, 0.0)]
    with pytest.raises(InvalidArgumentError, match=r"^reading for taxel 7 but grid has 4 taxels$"):
        readings_to_displacements(rs, 4, params)
    with pytest.raises(InvalidArgumentError, match=r"^duplicate reading for taxel 1$"):
        readings_to_displacements(rs, 8, params)
    rs = [TaxelReading(2, 0.0), TaxelReading(2, 0.0), TaxelReading(9, 0.0)]
    with pytest.raises(InvalidArgumentError, match=r"^duplicate reading for taxel 2$"):
        readings_to_displacements(rs, 4, params)


def test_readings_to_displacements_rejects_an_index_past_intp(params):
    huge = 10**20  # does not fit a C long
    with pytest.raises(InvalidArgumentError, match=r"^reading for taxel %d but grid has 4 taxels$" % huge):
        readings_to_displacements([TaxelReading(1, 0.0), TaxelReading(huge, 0.0)], 4, params)
    rs = [TaxelReading(1, 0.0), TaxelReading(1, 0.0), TaxelReading(huge, 0.0)]
    with pytest.raises(InvalidArgumentError, match=r"^duplicate reading for taxel 1$"):
        readings_to_displacements(rs, 4, params)


def first_bad_reading(keys, n_taxels):
    """The message for the first index out of range or seen before, or None."""
    seen = set()
    for k in keys:
        if k >= n_taxels:
            return "reading for taxel %d but grid has %d taxels" % (k, n_taxels)
        if k in seen:
            return "duplicate reading for taxel %d" % k
        seen.add(k)
    return None


def test_the_index_check_agrees_with_a_full_scan(params):
    rng = np.random.default_rng(13)
    n = 40
    outcomes = set()
    for trial in range(300):
        m = int(rng.integers(0, n + 5))
        keys = [int(k) for k in rng.permutation(n + 3)[:m]]  # a few out of range
        if trial % 3 == 1 and m > 1:  # repeat one index
            keys[int(rng.integers(1, m))] = keys[int(rng.integers(0, m - 1))]
        if trial % 7 == 2 and m:
            keys[int(rng.integers(0, m))] = 10**20
        rs = [TaxelReading(k, 1e-13) for k in keys]
        want = first_bad_reading(keys, n)
        outcomes.add(want.split()[0] if want else None)
        if want is None:
            out = readings_to_displacements(rs, n, params)
            assert np.count_nonzero(out) == m
        else:
            with pytest.raises(InvalidArgumentError) as exc:
                readings_to_displacements(rs, n, params)
            assert str(exc.value) == want
    assert outcomes == {None, "reading", "duplicate"}
