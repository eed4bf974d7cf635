import os
import sys
import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest

from contactshape import (
    ElastomerParams,
    InvalidArgumentError,
    UnsupportedModelError,
    apply_forward,
    apply_inverse,
    assemble,
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
                ck[0] - cl[0], ck[1] - cl[1], 4.0 * cl[2] * cl[3], h, params.young_modulus
            )
            assert mat.entries[k, l] == want


def test_love_normal_entries_match_column(small_grids, params):
    tract, disp = small_grids
    mat = assemble("love", tract, disp, params)
    h = params.nominal_thickness
    for k in (0, 5):
        for l in (3, 8):
            ck, cl = disp.cells[k], tract.cells[l]
            want = love_effective_column(
                (ck[0] - cl[0], ck[1] - cl[1]), (cl[2], cl[3]), h, params
            )[2]
            assert mat.entries[k, l] == pytest.approx(want, rel=1e-15)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_apply_rejects_non_finite_vectors(small_grids, params, bad):
    tract, disp = small_grids
    mat = assemble("bc", tract, disp, params)
    op = precompute_inverse(mat)
    v = np.ones(9)
    v[4] = bad
    with pytest.raises(InvalidArgumentError, match="finite"):
        apply_forward(mat, v)
    with pytest.raises(InvalidArgumentError, match="finite"):
        apply_inverse(op, v)


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


def test_matrix_keys_are_pinned(small_grids, params):
    """Keys name cache entries on disk: a change to them orphans every
    entry saved before it."""
    tract, disp = small_grids
    assert matrix_key("bc", tract, disp, params, True, "const") == (
        "d33c05015b40221e85d5cc747db49685c6b1263d228ab6c17e353f5fe62ae7a8"
    )
    assert matrix_key("love", tract, disp, params, True, "const") == (
        "318fced53ee9151e3e495538337c73000aa9e1852892d5a656efa83b849953a6"
    )


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
    for suffix, content in [
        (".npy", b"not numpy data"),
        (".npy", b""),  # what a reader sees the moment a plain write opens the file
        (".npy", b"\x93NUMPY\x01\x00v\x00{'descr': '<f8', 'fortran_order': False, 'shape': (9, 9), }"),
        (".json", b"[1]"),
        (".json", b"{"),
    ]:
        key = save_matrix(mat, tmp_path)
        (tmp_path / (key + suffix)).write_bytes(content)
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert load_matrix(tmp_path, "love", tract, disp, params) is None, (suffix, content)
        assert any("re-assembling" in r.message for r in caplog.records), (suffix, content)


def test_interrupted_save_leaves_no_entry(small_grids, params, tmp_path, monkeypatch):
    tract, disp = small_grids
    mat = assemble("love", tract, disp, params)

    def dying_save(file, arr):
        # a path is opened the way numpy opens one
        opened = open(file, "wb") if isinstance(file, (str, os.PathLike)) else nullcontext(file)
        with opened as fh:
            fh.write(b"\x93NUMPY")
        raise OSError("no space left on device")

    monkeypatch.setattr(np, "save", dying_save)
    with pytest.raises(OSError):
        save_matrix(mat, tmp_path)
    assert list(tmp_path.iterdir()) == []
    assert load_matrix(tmp_path, "love", tract, disp, params) is None


def test_concurrent_save_and_load(small_grids, params, tmp_path):
    """A reader racing a writer that keeps re-saving the same entry sees
    the whole matrix or a miss, never a partial file."""
    tract, disp = small_grids
    mat = assemble("love", tract, disp, params)
    save_matrix(mat, tmp_path)
    stop = threading.Event()
    errors = []

    def writer():
        try:
            while not stop.is_set():
                save_matrix(mat, tmp_path)
        except Exception as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    thread = threading.Thread(target=writer)
    thread.start()
    try:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            try:
                back = load_matrix(tmp_path, "love", tract, disp, params)
            except Exception as exc:  # any exception that escapes is the fault
                errors.append(exc)
                break
            if back is not None and not np.array_equal(back.entries, mat.entries):
                errors.append("partial entries")
                break
    finally:
        stop.set()
        thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert errors == []
