"""The memory tier in front of the disk cache: what it holds, what a hit
skips, and that a hit changes no result bit."""

from collections import OrderedDict

import numpy as np
import pytest

from contactshape import (
    IndenterSpec,
    InvalidArgumentError,
    apply_forward,
    assemble,
    assembly,
    build_regular_grid,
    forward_solve,
    nnls_solve,
    pipeline,
    reconstruct,
    solvers,
    synth_contact,
)
from contactshape.assembly import counters, reset_counters
from contactshape.pipeline import MemoryTier, memory_tier


@pytest.fixture
def pad():
    tract = build_regular_grid((0.0, 0.0), 6, 6, 2e-3, 2e-3)
    return tract, tract.retag("displacement")


def _frame(model, pad, params):
    tract, disp = pad
    q_true = synth_contact(IndenterSpec("hemisphere", 9e-3, (6e-3, 6e-3), 1.8), tract)
    d = apply_forward(assemble(model, tract, disp, params), q_true)
    return d + 1e-3 * np.max(d) * np.random.default_rng(5).standard_normal(len(d))


def _bits(report):
    return (
        report.tractions.values.tobytes(),
        report.reconstructed_displacements.tobytes(),
        report.residual_norm,
        report.rank,
        report.iterations,
        report.active_set_size,
    )


def _refuse_disk(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a memory hit read the disk cache")

    for name in ("load_matrix", "load_inverse", "save_matrix", "save_inverse"):
        monkeypatch.setattr(assembly, name, refuse)


@pytest.mark.parametrize("model", ["bc", "love"])
@pytest.mark.parametrize("constraint", ["free", "nonneg"])
def test_cold_disk_and_memory_results_are_bitwise_equal(
    pad, params, tmp_path, monkeypatch, model, constraint
):
    tract, disp = pad
    d = _frame(model, pad, params)

    def solve():
        return reconstruct(d, model, tract, disp, params, constraint, cache_dir=tmp_path)

    want = reconstruct(d, model, tract, disp, params, constraint)
    cold = solve()
    assert cold.matrix_source == "assembled"
    memory_tier.clear()
    warm = solve()
    assert warm.matrix_source == "cache"
    reset_counters()
    with monkeypatch.context() as m:
        _refuse_disk(m)
        held = solve()
    assert counters() == {"assemblies": 0, "factorizations": 0}
    assert held.matrix_source == "memory"
    assert held.inverse_source == "memory"
    assert set(held.timings_ms) == {"matrix_load_ms", "inverse_load_ms", "online_ms"}
    for got in (cold, warm, held):
        assert _bits(got) == _bits(want)
    if constraint == "nonneg":
        assert want.free_set_solver == held.free_set_solver == "schur"
        assert want.kkt_tolerance == held.kkt_tolerance


def test_a_memory_hit_leaves_another_cache_dir_untouched(pad, params, tmp_path, monkeypatch):
    tract, disp = pad
    d = _frame("love", pad, params)
    first = reconstruct(d, "love", tract, disp, params, cache_dir=tmp_path / "a")
    other = tmp_path / "b"
    with monkeypatch.context() as m:
        _refuse_disk(m)
        again = reconstruct(d, "love", tract, disp, params, cache_dir=other)
        out = forward_solve(first.tractions, "love", disp, params, cache_dir=other)
    assert (again.matrix_source, again.inverse_source) == ("memory", "memory")
    assert _bits(again) == _bits(first)
    np.testing.assert_array_equal(out.values, again.reconstructed_displacements)
    assert not other.exists()


def test_without_a_cache_dir_nothing_is_held(pad, params):
    tract, disp = pad
    d = _frame("bc", pad, params)
    reset_counters()
    for constraint in ("free", "nonneg", "free"):
        report = reconstruct(d, "bc", tract, disp, params, constraint)
        assert report.matrix_source == "assembled"
    forward_solve(report.tractions, "bc", disp, params)
    assert counters() == {"assemblies": 4, "factorizations": 2}
    assert len(memory_tier) == 0 and memory_tier.nbytes == 0


def test_held_state_is_read_only(pad, params, tmp_path):
    tract, disp = pad
    d = _frame("bc", pad, params)
    for constraint in ("free", "nonneg"):
        reconstruct(d, "bc", tract, disp, params, constraint, cache_dir=tmp_path)
    key = assembly.matrix_key("bc", tract, disp, params, True, "const")
    mat = memory_tier.get(key, "matrix")
    op = memory_tier.get(key, "inverse")
    system = memory_tier.get(key, "nnls")
    held = [mat.entries, op.pinv, op.singular_values, system.matrix, system.inverse_gram]
    assert not any(a.flags.writeable for a in held)
    assert system.matrix is mat.entries  # one C, not a copy of it
    H = np.linalg.inv(mat.entries.T @ mat.entries)
    assert system.inverse_gram.tobytes() == H.tobytes()
    assert len(memory_tier) == 3
    assert memory_tier.nbytes == sum(a.nbytes for a in held)
    with pytest.raises(ValueError):
        mat.entries[0, 0] = 1.0


class _Entry:
    def __init__(self, nbytes):
        self.values = np.zeros(nbytes // 8)


def test_lru_evicts_the_least_recently_used_entry():
    tier = MemoryTier(max_bytes=3000)
    for key in "abc":
        tier.put(key, "matrix", _Entry(800))
    assert tier.nbytes == 2400
    assert tier.get("a", "matrix") is not None  # now b is the oldest
    tier.put("d", "matrix", _Entry(800))
    assert tier.get("b", "matrix") is None
    assert all(tier.get(k, "matrix") is not None for k in "acd")
    assert tier.nbytes == 2400 <= tier.max_bytes
    tier.put("e", "inverse", _Entry(2000))  # evicts a and c, the two oldest
    assert [k for k in "acd" if tier.get(k, "matrix") is not None] == ["d"]
    assert tier.nbytes == 2800 <= tier.max_bytes and len(tier) == 2


def test_an_entry_over_the_bound_is_not_held():
    tier = MemoryTier(max_bytes=1000)
    tier.put("a", "matrix", _Entry(800))
    big = _Entry(1008)
    tier.put("b", "matrix", big)
    assert tier.get("b", "matrix") is None and big.values.flags.writeable
    assert tier.get("a", "matrix") is not None and tier.nbytes == 800


def test_replacing_an_entry_counts_its_bytes_once():
    tier = MemoryTier(max_bytes=1000)
    tier.put("a", "nnls", _Entry(400))
    tier.put("a", "nnls", _Entry(600))
    assert tier.nbytes == 600 and len(tier) == 1
    tier.clear()
    assert tier.nbytes == 0 and len(tier) == 0


def test_every_use_of_the_entries_holds_the_lock():
    """Threads may share a tier: each read or change of its entries, and
    so of the byte count beside them, happens under its lock."""
    tier = MemoryTier(max_bytes=2000)
    lock = tier._lock

    class Guarded(OrderedDict):
        def __getattribute__(self, name):
            assert lock.locked(), "entries.%s used without the lock" % name
            return super().__getattribute__(name)

        def __setitem__(self, key, value):
            assert lock.locked(), "an entry set without the lock"
            super().__setitem__(key, value)

    tier._entries = Guarded()
    for key in "abcd":  # the fourth put evicts
        tier.put(key, "matrix", _Entry(800))
        assert tier.get(key, "matrix") is not None
    tier.put("d", "matrix", _Entry(400))
    assert tier.get("a", "matrix") is None and tier.nbytes == 1200
    tier.clear()
    assert len(tier) == 0


def test_a_pipeline_stream_stays_within_the_bound(pad, params, tmp_path, monkeypatch):
    """With room for about one matrix, a stream over three sensing grids
    keeps evicting, and every frame still gives the uncached result."""
    tract, disp = pad
    size = 36 * 36 * 8
    monkeypatch.setattr(pipeline, "memory_tier", MemoryTier(max_bytes=size + size // 2))
    q = synth_contact(IndenterSpec("cylinder", 7e-3, (5e-3, 7e-3), 1.2), tract)
    grids = [build_regular_grid((x, 0.0), 6, 6, 2e-3, 2e-3, "displacement") for x in (0.0, 1e-4, 2e-4)]
    for _ in range(2):
        for g in grids:
            got = forward_solve(q, "bc", g, params, cache_dir=tmp_path)
            np.testing.assert_array_equal(got.values, forward_solve(q, "bc", g, params).values)
            assert pipeline.memory_tier.nbytes <= pipeline.memory_tier.max_bytes
            assert len(pipeline.memory_tier) == 1
    assert len(list(tmp_path.glob("*.npy"))) == 3


def test_nnls_system_is_formed_from_its_matrix_only(params):
    g = build_regular_grid((0.0, 0.0), 5, 5, 2e-3, 2e-3)
    C = assemble("bc", g, g.retag("displacement"), params).entries
    d = C @ np.linspace(-1.0, 1.0, 25) * 1e4
    system = solvers.NnlsSystem(C)
    assert system.matrix is not C and C.flags.writeable  # a writeable C is copied
    assert not system.matrix.flags.writeable and not system.inverse_gram.flags.writeable
    assert system.inverse_gram.tobytes() == np.linalg.inv(C.T @ C).tobytes()
    assert set(vars(system)) == {"matrix", "inverse_gram"}  # G is not kept
    want, got = nnls_solve(C, d), nnls_solve(system, d)
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.iterations, got.residual, got.kkt_tolerance, got.free_set_solver) == (
        want.iterations, want.residual, want.kkt_tolerance, "schur")
    held = solvers.NnlsSystem(system.matrix)
    assert held.matrix is system.matrix  # a read-only C is not
    wide = solvers.NnlsSystem(C[:10])
    assert wide.inverse_gram is None
    assert nnls_solve(wide, d[:10]).free_set_solver == "lawson-hanson"
    with pytest.raises(InvalidArgumentError):
        solvers.NnlsSystem(np.full((2, 2), np.nan))
    with pytest.raises(InvalidArgumentError):
        nnls_solve(system, d[:5])
