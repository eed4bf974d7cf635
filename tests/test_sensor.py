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

# forward model at h_c = 1.5 mm with the default constants
DELTA_C_AT_1P5MM = 7.378489844000001e-14


def test_params_defaults():
    p = ElastomerParams()
    assert p.young_modulus == 2.1e5
    assert p.poisson_ratio == 0.5
    assert p.nominal_thickness == 2e-3


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
    ["young_modulus", "poisson_ratio", "nominal_thickness", "permittivity_vacuum",
     "permittivity_relative", "taxel_area"],
)
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), "2e-3", None])
def test_params_must_be_finite_numbers(name, bad):
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
