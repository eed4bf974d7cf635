import gc
import hashlib
import io
import json
import os
import sys
import threading
import time
import tracemalloc
import weakref
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
    grid_from_taxel_layout,
    load_inverse,
    load_matrix,
    love_effective_column,
    love_effective_zz,
    precompute_inverse,
    save_inverse,
    save_matrix,
)
from contactshape import assembly
from contactshape.assembly import BLOCK_PAIRS, counters, inverse_key, matrix_key, reset_counters


@pytest.fixture
def small_grids():
    tract = build_regular_grid((0.0, 0.0), 3, 3, 2e-3, 2e-3)
    disp = build_regular_grid((0.0, 0.0), 3, 3, 2e-3, 2e-3, kind="displacement")
    return tract, disp


def test_bc_normal_entries_match_kernel(small_grids, params):
    """bc columns are per unit pressure: the per-unit-force kernel times
    the traction cell's area."""
    tract, disp = small_grids
    mat = assemble("bc", tract, disp, params)
    assert mat.entries.shape == (9, 9)
    h = params.nominal_thickness
    for k in (0, 4, 7):
        for l in (1, 4, 8):
            ck, cl = disp.cells[k], tract.cells[l]
            area = 4.0 * cl[2] * cl[3]
            want = area * bc_resolved_zz(
                ck[0] - cl[0], ck[1] - cl[1], area, h, params.young_modulus
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


def _jittered_layout(kind):
    """63 taxels on a 9 x 7 lattice, each moved by up to 0.3 mm."""
    rng = np.random.default_rng(17)
    lattice = np.array([(i * 2.5e-3, j * 2.1e-3) for i in range(9) for j in range(7)])
    return grid_from_taxel_layout(lattice + rng.uniform(-3e-4, 3e-4, lattice.shape), 2e-6, kind)


# (traction grid, displacement grid): pair counts that are not a multiple
# of BLOCK_PAIRS, over rows shorter and longer than a block
BLOCK_EDGE_LAYOUTS = {
    "anisotropic shifted lattices": lambda: (
        build_regular_grid((-3.1e-3, 1.7e-3), 37, 23, 1.3e-3, 0.9e-3),
        build_regular_grid((4e-4, -2.2e-3), 11, 7, 2.1e-3, 1.6e-3, kind="displacement"),
    ),
    "rows longer than a block": lambda: (
        build_regular_grid((0.0, 0.0), 41, 29, 1.1e-3, 1.7e-3),
        build_regular_grid((2e-3, 3e-3), 3, 1, 5e-3, 5e-3, kind="displacement"),
    ),
    "jittered taxel layout": lambda: (_jittered_layout("traction"), _jittered_layout("displacement")),
}


@pytest.mark.parametrize("layout", sorted(BLOCK_EDGE_LAYOUTS))
@pytest.mark.parametrize("model, mode", [("love", "const"), ("bc", "const"), ("bc", "exact")])
def test_block_edges_match_the_public_kernels_bitwise(layout, model, mode, params):
    """The first and last pair of every block of BLOCK_PAIRS pairs, taken
    in row-major order, equal the public scalar function for that pair."""
    tract, disp = BLOCK_EDGE_LAYOUTS[layout]()
    entries = assemble(model, tract, disp, params, psi_mode=mode).entries
    n = entries.size
    assert n % BLOCK_PAIRS and n > 2 * BLOCK_PAIRS
    h, E = params.nominal_thickness, params.young_modulus
    for start in range(0, n, BLOCK_PAIRS):
        for i in (start, min(start + BLOCK_PAIRS, n) - 1):
            k, l = divmod(i, len(tract))
            xk, yk, _, _ = disp.cells[k]
            x, y, a, b = tract.cells[l]
            if model == "love":
                want = love_effective_zz(xk - x, yk - y, a, b, h, E, params.poisson_ratio)
            else:
                area = 4.0 * a * b
                want = area * bc_resolved_zz(xk - x, yk - y, area, h, E, mode)
            assert entries.flat[i] == want, (i, k, l)


@pytest.mark.parametrize("model", ["bc", "love"])
def test_assembly_holds_one_block_beyond_the_matrix(model, params):
    """Assembly's memory beyond the matrix is one block's temporaries,
    whatever the grid sizes: evaluating all 360,000 pairs here at once
    would hold tens of MiB more."""
    tract = build_regular_grid((0.0, 0.0), 30, 30, 1e-3, 1e-3)
    disp = build_regular_grid((5e-4, 5e-4), 20, 20, 1.5e-3, 1.5e-3, kind="displacement")
    tracemalloc.start()
    try:
        entries = assemble(model, tract, disp, params).entries
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= entries.nbytes + 4 * 2**20


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


def test_psi_mode_applies_to_bc_only(small_grids, params, tmp_path):
    """love has no spread-load resolution for psi to choose: "exact" would
    only cache a second copy of the "const" matrix under another key."""
    tract, disp = small_grids
    with pytest.raises(InvalidArgumentError, match="bc model only"):
        assemble("love", tract, disp, params, psi_mode="exact")
    with pytest.raises(InvalidArgumentError, match="bc model only"):
        load_matrix(tmp_path, "love", tract, disp, params, psi_mode="exact")


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
        "58221d6e70b21bc8b93905f3e158b12632de60421323cb2a1386f6c690433f86"
    )
    assert matrix_key("love", tract, disp, params, True, "const") == (
        "318fced53ee9151e3e495538337c73000aa9e1852892d5a656efa83b849953a6"
    )


def fresh_key(model, tract, disp, params, normal_only, psi_mode):
    """The matrix key hashed afresh, with no memo in the way."""
    h = hashlib.sha256()
    h.update(model.encode())
    h.update(b"\x01" if normal_only else b"\x00")
    h.update(psi_mode.encode())
    if model == "bc":
        h.update(b"per unit pressure")
    for g in (tract, disp):
        h.update(g.kind.encode())
        h.update(g.cells.tobytes())
    h.update(np.array([params.young_modulus, params.poisson_ratio, params.nominal_thickness]).tobytes())
    return h.hexdigest()


def test_matrix_key_memo_is_exact(small_grids, params):
    """Grids are memoized by identity and material constants by their
    bytes: equal grids and signed zeros get the keys a fresh hash gives."""
    tract, disp = small_grids
    twin = build_regular_grid((0.0, 0.0), 3, 3, 2e-3, 2e-3)
    assert twin is not tract and twin.cells.tobytes() == tract.cells.tobytes()
    for t in (tract, twin, tract, twin):
        for model in ("bc", "love"):
            assert matrix_key(model, t, disp, params, True, "const") == fresh_key(
                model, t, disp, params, True, "const"
            )
    keys = set()
    for nu in (0.0, -0.0, 0.0, -0.0):
        soft = ElastomerParams(poisson_ratio=nu)
        key = matrix_key("love", tract, disp, soft, True, "const")
        assert key == fresh_key("love", tract, disp, soft, True, "const")
        keys.add(key)
    assert len(keys) == 2
    matrix_key("bc", tract, disp, params, True, "const")  # held, and then:
    with pytest.raises(UnsupportedModelError):
        matrix_key("hertz", tract, disp, params, True, "const")
    with pytest.raises(InvalidArgumentError):
        matrix_key("bc", tract, disp, params, True, "smooth")
    with pytest.raises(InvalidArgumentError, match="bc model only"):
        matrix_key("love", tract, disp, params, True, "exact")
    with pytest.raises(UnsupportedModelError):
        matrix_key("bc", tract, disp, ElastomerParams(poisson_ratio=0.3), True, "const")


def test_matrix_key_memo_is_bounded(params):
    """Past the memo's size, the grids it held are let go."""
    first = build_regular_grid((0.0, 0.0), 2, 2, 1e-3, 1e-3)
    disp = first.retag("displacement")
    matrix_key("love", first, disp, params, True, "const")
    first_ref, disp_ref = weakref.ref(first), weakref.ref(disp)
    del first, disp
    for k in range(assembly._digest.cache_info().maxsize):
        g = build_regular_grid((k * 1e-3, 0.0), 2, 2, 1e-3, 1e-3)
        matrix_key("love", g, g.retag("displacement"), params, True, "const")
    gc.collect()
    assert first_ref() is None and disp_ref() is None


def test_matrix_key_memo_under_threads(params):
    """More threads than cores key more grids than the memo holds, so
    lookups, insertions and evictions interleave; every key stays exact."""
    grids = [build_regular_grid((k * 1e-3, 0.0), 3, 2, 1e-3, 1e-3) for k in range(40)]
    want = [fresh_key("love", g, g, params, True, "const") for g in grids]
    got = [[None] * len(grids) for _ in range(8)]

    def work(row):
        for _ in range(20):
            for i in np.random.default_rng(row).permutation(len(grids)):
                got[row][i] = matrix_key("love", grids[i], grids[i], params, True, "const")

    threads = [threading.Thread(target=work, args=(row,)) for row in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [want] * 8


def test_per_unit_force_bc_entry_is_a_miss(small_grids, params, tmp_path):
    """An entry saved under the key bc had while its columns were per unit
    force is re-assembled, never read as per unit pressure."""
    tract, disp = small_grids
    old_key = "d33c05015b40221e85d5cc747db49685c6b1263d228ab6c17e353f5fe62ae7a8"
    per_force = assemble("bc", tract, disp, params).entries / tract.areas()
    np.save(tmp_path / (old_key + ".npy"), per_force)
    assert load_matrix(tmp_path, "bc", tract, disp, params) is None


def test_cache_round_trip(small_grids, params, tmp_path):
    tract, disp = small_grids
    mat = assemble("love", tract, disp, params)
    assert load_matrix(tmp_path, "love", tract, disp, params) is None
    key = save_matrix(mat, tmp_path)
    back = load_matrix(tmp_path, "love", tract, disp, params)
    assert back is not None
    np.testing.assert_array_equal(back.entries, mat.entries)
    # the entry is one plain NumPy file of C
    assert [p.name for p in tmp_path.iterdir()] == [key + ".npy"]
    assert np.load(tmp_path / (key + ".npy")).tobytes() == mat.entries.tobytes()
    # a different request misses
    assert load_matrix(tmp_path, "bc", tract, disp, params) is None


def npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def test_cache_corruption_is_a_miss(small_grids, params, tmp_path, caplog):
    tract, disp = small_grids
    mat = assemble("love", tract, disp, params)
    for content in [
        b"not numpy data",
        b"",  # what a reader sees the moment a plain write opens the file
        b"\x93NUMPY\x01\x00v\x00{'descr': '<f8', 'fortran_order': False, 'shape': (9, 9), }",
        npy_bytes(np.ones((9, 4))),  # a whole entry of another shape
        npy_bytes(np.ones((9, 9), dtype=np.int64)),
        npy_bytes(mat.entries.astype(np.float32)),
        npy_bytes(np.where(np.eye(9) > 0, np.nan, mat.entries)),  # well-formed, but NaN
        npy_bytes(np.where(np.eye(9) > 0, np.inf, mat.entries)),
    ]:
        key = save_matrix(mat, tmp_path)
        (tmp_path / (key + ".npy")).write_bytes(content)
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert load_matrix(tmp_path, "love", tract, disp, params) is None, content[:20]
        assert any("re-assembling" in r.message for r in caplog.records), content[:20]


def test_cache_with_json_headers_still_hits(small_grids, params, tmp_path):
    """A cache whose .npy entries each have a JSON header beside them, as
    it was once written, hits bitwise; the header is not read."""
    tract, disp = small_grids
    for model in ("bc", "love"):
        mat = assemble(model, tract, disp, params)
        key = matrix_key(model, tract, disp, params, True, "const")
        (tmp_path / (key + ".npy")).write_bytes(npy_bytes(mat.entries))
        header = {"key": key, "model": model, "psi_mode": "const", "shape": [9, 9]}
        (tmp_path / (key + ".json")).write_text(json.dumps(header, indent=1))
        back = load_matrix(tmp_path, model, tract, disp, params)
        assert back.entries.tobytes() == mat.entries.tobytes()


def dying_save(file, arr):
    # a path is opened the way numpy opens one
    opened = open(file, "wb") if isinstance(file, (str, os.PathLike)) else nullcontext(file)
    with opened as fh:
        fh.write(b"\x93NUMPY")
    raise OSError("no space left on device")


def test_interrupted_save_leaves_no_entry(small_grids, params, tmp_path, monkeypatch):
    tract, disp = small_grids
    mat = assemble("love", tract, disp, params)
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


def test_inverse_cache_round_trip(small_grids, params, tmp_path):
    tract, disp = small_grids
    for model in ("bc", "love"):
        mat = assemble(model, tract, disp, params)
        op = precompute_inverse(mat)
        assert load_inverse(tmp_path, mat) is None
        key = save_inverse(op, mat, tmp_path)
        assert key == inverse_key(mat) != matrix_key(model, tract, disp, params, True, "const")
        assert [p.name for p in tmp_path.glob(key + "*")] == [key + ".pinv"]
        reset_counters()
        back = load_inverse(tmp_path, mat)
        assert counters()["factorizations"] == 0
        assert back.rank == op.rank == 9
        assert back.pinv.tobytes() == op.pinv.tobytes()
        assert back.singular_values.tobytes() == op.singular_values.tobytes()
    # a different matrix misses
    other = assemble("bc", tract, disp, params, psi_mode="exact")
    assert load_inverse(tmp_path, other) is None


def test_inverse_key_follows_the_cutoff(small_grids, params, monkeypatch):
    tract, disp = small_grids
    mat = assemble("bc", tract, disp, params)
    base = inverse_key(mat)
    assert base == inverse_key(assemble("bc", tract, disp, params))
    assert base != inverse_key(assemble("love", tract, disp, params))
    monkeypatch.setattr(assembly, "DEFAULT_SVD_RTOL", 1e-6)
    assert inverse_key(mat) != base


def test_inverse_rank_is_recomputed_on_load(small_grids, params, tmp_path, monkeypatch):
    """A stored inverse carries its singular values; its rank comes from
    them by the one cutoff rule, not from the file."""
    tract, disp = small_grids
    mat = assemble("bc", tract, disp, params)
    op = precompute_inverse(mat)
    s = op.singular_values
    monkeypatch.setattr(assembly, "DEFAULT_SVD_RTOL", 0.5 * (s[3] + s[4]) / s[0])
    save_inverse(assembly.InverseOperator(op.pinv, 9, s), mat, tmp_path)
    assert load_inverse(tmp_path, mat).rank == precompute_inverse(mat).rank == 4


def test_inverse_cache_corruption_is_a_miss(small_grids, params, tmp_path, caplog):
    tract, disp = small_grids
    mat = assemble("love", tract, disp, params)
    op = precompute_inverse(mat)
    key = save_inverse(op, mat, tmp_path)
    whole = (tmp_path / (key + ".pinv")).read_bytes()
    wrong_shape = assemble("love", tract, build_regular_grid((0.0, 0.0), 2, 2, 2e-3, 2e-3), params)
    other = save_inverse(precompute_inverse(wrong_shape), wrong_shape, tmp_path / "other")
    for content in [
        b"",  # what a reader sees the moment a plain write opens the file
        b"not numpy data",
        b"PK\x03\x04 not a zip archive",
        whole[:200],  # header and part of the pseudo-inverse
        whole[: 128 + 9 * 9 * 8],  # the pseudo-inverse without the singular values
        whole[:-8],  # one singular value short
        (tmp_path / "other" / (other + ".pinv")).read_bytes(),  # a whole entry of another shape
        npy_bytes(np.full_like(op.pinv, np.nan)) + npy_bytes(op.singular_values),
        npy_bytes(op.pinv) + npy_bytes(np.full_like(op.singular_values, np.inf)),
    ]:
        (tmp_path / (key + ".pinv")).write_bytes(content)
        caplog.clear()
        with caplog.at_level("WARNING"):
            assert load_inverse(tmp_path, mat) is None, content[:20]
        assert any("re-factorizing" in r.message for r in caplog.records), content[:20]


def test_interrupted_save_inverse_leaves_no_entry(small_grids, params, tmp_path, monkeypatch):
    tract, disp = small_grids
    mat = assemble("love", tract, disp, params)
    op = precompute_inverse(mat)
    monkeypatch.setattr(np, "save", dying_save)
    with pytest.raises(OSError):
        save_inverse(op, mat, tmp_path)
    assert list(tmp_path.iterdir()) == []
    assert load_inverse(tmp_path, mat) is None


def test_zip_like_matrix_entry_is_a_miss(small_grids, params, tmp_path, caplog):
    """np.load opens bytes that begin like a zip archive as one."""
    tract, disp = small_grids
    key = save_matrix(assemble("love", tract, disp, params), tmp_path)
    (tmp_path / (key + ".npy")).write_bytes(b"PK\x03\x04 not a zip archive")
    with caplog.at_level("WARNING"):
        assert load_matrix(tmp_path, "love", tract, disp, params) is None
    assert any("re-assembling" in r.message for r in caplog.records)
