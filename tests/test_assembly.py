import numpy as np
import pytest

from contactshape import (
    ElastomerParams,
    InvalidArgumentError,
    UnsupportedModelError,
    apply_forward,
    apply_inverse,
    assemble,
    bc_resolved_block,
    bc_resolved_zz,
    build_regular_grid,
    load_matrix,
    love_effective_column,
    precompute_inverse,
    save_matrix,
)
from contactshape.assembly import counters, matrix_key, reset_counters


@pytest.fixture
def small_grids():
    tract = build_regular_grid((0.0, 0.0), 3, 3, 2e-3, 2e-3)
    disp = build_regular_grid((0.0, 0.0), 3, 3, 2e-3, 2e-3, kind="displacement")
    return tract, disp


def test_bc_normal_entries_match_kernel(small_grids, params):
    tract, disp = small_grids
    mat = assemble("bc", tract, disp, params)
    assert mat.entries.shape == (9, 9)
    h = params.nominal_thickness
    for k in (0, 4, 7):
        for l in (1, 4, 8):
            ck, cl = disp.cells[k], tract.cells[l]
            want = bc_resolved_zz(
                ck.x - cl.x, ck.y - cl.y, cl.area, h, params.young_modulus
            )
            assert mat.entries[k, l] == want


def test_bc_full_entries_match_kernel(small_grids, params):
    tract, disp = small_grids
    mat = assemble("bc", tract, disp, params, normal_only=False)
    assert mat.entries.shape == (27, 27)
    h = params.nominal_thickness
    ck, cl = disp.cells[2], tract.cells[5]
    want = bc_resolved_block(ck.x - cl.x, ck.y - cl.y, cl.area, h, params.young_modulus)
    np.testing.assert_array_equal(mat.entries[6:9, 15:18], want)


def test_love_normal_entries_match_column(small_grids, params):
    tract, disp = small_grids
    mat = assemble("love", tract, disp, params)
    h = params.nominal_thickness
    for k in (0, 5):
        for l in (3, 8):
            ck, cl = disp.cells[k], tract.cells[l]
            want = love_effective_column(
                (ck.x - cl.x, ck.y - cl.y), (cl.a, cl.b), h, params
            )[2]
            assert mat.entries[k, l] == pytest.approx(want, rel=1e-15)


def test_love_full_z_rows_equal_normal_only(small_grids, params):
    """normal_only assembly must be bitwise the z rows of the full one."""
    tract, disp = small_grids
    full = assemble("love", tract, disp, params, normal_only=False)
    zz = assemble("love", tract, disp, params, normal_only=True)
    assert full.entries.shape == (27, 9)
    np.testing.assert_array_equal(full.entries[2::3, :], zz.entries)


def test_matrix_symmetry_same_grid(small_grids, params):
    tract, disp = small_grids
    for model in ("bc", "love"):
        m = assemble(model, tract, disp, params).entries
        np.testing.assert_allclose(m, m.T, rtol=1e-12)


def test_assembly_counter_and_timing(small_grids, params):
    tract, disp = small_grids
    reset_counters()
    mat = assemble("bc", tract, disp, params)
    assert counters()["assemblies"] == 1
    assert mat.assembly_seconds > 0.0
    precompute_inverse(mat)
    assert counters()["factorizations"] == 1


def test_validation_errors(small_grids, params):
    tract, disp = small_grids
    with pytest.raises(UnsupportedModelError):
        assemble("hertz", tract, disp, params)
    with pytest.raises(InvalidArgumentError):
        assemble("bc", tract, disp, params, psi_mode="smooth")
    compressible = ElastomerParams(poisson_ratio=0.3)
    with pytest.raises(UnsupportedModelError):
        assemble("bc", tract, disp, compressible)
    assemble("love", tract, disp, compressible)


def test_inverse_round_trip(small_grids, params):
    tract, disp = small_grids
    rng = np.random.default_rng(31)
    for model in ("bc", "love"):
        mat = assemble(model, tract, disp, params)
        op = precompute_inverse(mat)
        assert op.rank == 9
        assert len(op.singular_values) == 9
        q = rng.uniform(0.0, 2.0, size=9)
        d = apply_forward(mat, q)
        back = apply_inverse(op, d)
        np.testing.assert_allclose(back, q, rtol=1e-8, atol=1e-12)


def test_apply_shape_guards(small_grids, params):
    tract, disp = small_grids
    mat = assemble("bc", tract, disp, params)
    op = precompute_inverse(mat)
    with pytest.raises(InvalidArgumentError):
        apply_forward(mat, np.ones(8))
    with pytest.raises(InvalidArgumentError):
        apply_inverse(op, np.ones(10))


def test_matrix_key_sensitivity(small_grids, params):
    tract, disp = small_grids
    base = matrix_key("bc", tract, disp, params, True, "const")
    assert base == matrix_key("bc", tract, disp, params, True, "const")
    keys = {
        base,
        matrix_key("love", tract, disp, params, True, "const"),
        matrix_key("bc", tract, disp, params, False, "const"),
        matrix_key("bc", tract, disp, params, True, "exact"),
        matrix_key("bc", tract, disp, ElastomerParams(young_modulus=2.1e5 * (1 + 1e-15)), True, "const"),
    }
    assert len(keys) == 5


def test_cache_round_trip(small_grids, params, tmp_path):
    tract, disp = small_grids
    mat = assemble("love", tract, disp, params)
    assert load_matrix(tmp_path, "love", tract, disp, params) is None
    key = save_matrix(mat, tmp_path)
    back = load_matrix(tmp_path, "love", tract, disp, params)
    assert back is not None
    np.testing.assert_array_equal(back.entries, mat.entries)
    assert (tmp_path / (key + ".npy")).exists()
    # a different request misses
    assert load_matrix(tmp_path, "bc", tract, disp, params) is None


def test_cache_corruption_is_a_miss(small_grids, params, tmp_path, caplog):
    tract, disp = small_grids
    mat = assemble("love", tract, disp, params)
    key = save_matrix(mat, tmp_path)
    (tmp_path / (key + ".npy")).write_bytes(b"not numpy data")
    with caplog.at_level("WARNING"):
        assert load_matrix(tmp_path, "love", tract, disp, params) is None
    assert any("re-assembling" in r.message for r in caplog.records)
