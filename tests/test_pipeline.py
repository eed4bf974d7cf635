import hashlib
import io
import time

import numpy as np
import pytest

from contactshape import (
    FieldVector,
    IndenterSpec,
    InvalidArgumentError,
    apply_forward,
    assemble,
    benchmark,
    build_regular_grid,
    compare_models,
    forward_solve,
    love_effective_column,
    nnls_solve,
    reconstruct,
    resample,
    synth_contact,
)
from contactshape import assembly, pipeline, solvers
from contactshape.assembly import counters, reset_counters
from contactshape.pipeline import ModelComparison


@pytest.fixture
def pad():
    tract = build_regular_grid((0.0, 0.0), 6, 6, 2e-3, 2e-3)
    disp = tract.retag("displacement")
    return tract, disp


def test_indenter_validation():
    IndenterSpec("hemisphere", 8e-3, (0.0, 0.0), 1.5)
    with pytest.raises(InvalidArgumentError):
        IndenterSpec("cone", 8e-3, (0.0, 0.0), 1.5)
    with pytest.raises(InvalidArgumentError):
        IndenterSpec("hemisphere", 0.0, (0.0, 0.0), 1.5)
    with pytest.raises(InvalidArgumentError):
        IndenterSpec("hemisphere", 8e-3, (0.0, 0.0), 3.5)
    with pytest.raises(InvalidArgumentError):
        IndenterSpec("hemisphere", 8e-3, (0.0, 0.0), 0.0)


def test_synth_total_force_and_profile(pad):
    tract, _ = pad
    spec = IndenterSpec("hemisphere", 9e-3, (6e-3, 6e-3), 1.8)
    q = synth_contact(spec, tract)
    total = float(np.sum(q.values * tract.areas()))
    assert total == pytest.approx(1.8, rel=1e-12)
    centers = tract.centers()
    r = np.hypot(centers[:, 0] - 6e-3, centers[:, 1] - 6e-3)
    assert np.all(q.values[r > 4.5e-3] == 0.0)
    inner = q.values[np.argmin(r)]
    rim = q.values[(r < 4.5e-3) & (r > 3e-3)]
    assert inner > np.max(rim)


def test_synth_cylinder_uniform(pad):
    tract, _ = pad
    q = synth_contact(IndenterSpec("cylinder", 9e-3, (6e-3, 6e-3), 1.0), tract)
    vals = q.values[q.values > 0]
    assert len(vals) > 2
    assert np.all(vals == vals[0])


def test_synth_rim_only_falls_back_to_uniform():
    tract = build_regular_grid((0.0, 0.0), 2, 1, 2e-3, 2e-3)
    # centers sit at x = 1 mm and 3 mm; a 2 mm probe at their midpoint
    # touches both centers exactly on its rim where the dome is zero
    spec = IndenterSpec("hemisphere", 2e-3, (2e-3, 1e-3), 0.5)
    q = synth_contact(spec, tract)
    assert np.all(q.values > 0)
    assert float(np.sum(q.values * tract.areas())) == pytest.approx(0.5, rel=1e-12)


def test_synth_empty_footprint_raises(pad):
    tract, _ = pad
    with pytest.raises(InvalidArgumentError):
        synth_contact(IndenterSpec("hemisphere", 0.5e-3, (0.0, 0.0), 1.0), tract)


def test_reconstruct_free_recovers_synthetic_load(pad, params):
    tract, disp = pad
    q_true = synth_contact(IndenterSpec("hemisphere", 9e-3, (6e-3, 6e-3), 1.8), tract)
    for model in ("bc", "love"):
        mat = assemble(model, tract, disp, params)
        d = apply_forward(mat, q_true)
        report = reconstruct(d, model, tract, disp, params)
        np.testing.assert_allclose(report.tractions.values, q_true.values, rtol=1e-7, atol=1e-3)
        assert report.residual_norm < 1e-12
        assert report.rank == 36
        assert report.model == model and report.constraint_mode == "free"
        for key in ("assembly_ms", "inversion_ms", "online_ms"):
            assert report.timings_ms[key] >= 0.0


def test_reconstruct_nonneg_never_negative(pad, params):
    tract, disp = pad
    q_true = synth_contact(IndenterSpec("cylinder", 7e-3, (5e-3, 7e-3), 1.2), tract)
    mat = assemble("love", tract, disp, params)
    d = apply_forward(mat, q_true)
    rng = np.random.default_rng(71)
    noisy = d + rng.normal(scale=1e-7 * np.max(np.abs(d)), size=d.shape)
    free = reconstruct(noisy, "love", tract, disp, params)
    pinned = reconstruct(noisy, "love", tract, disp, params, constraint="nonneg")
    assert np.any(free.tractions.values < 0.0)
    assert np.all(pinned.tractions.values >= 0.0)
    assert pinned.converged
    assert pinned.constraint_mode == "nonneg"
    assert pinned.rank is None and pinned.as_dict()["rank"] is None  # NNLS computes no rank
    # both explain the data to a comparable degree
    assert pinned.residual_norm <= 10 * free.residual_norm + 1e-9


def test_reconstruct_guards(pad, params):
    tract, disp = pad
    with pytest.raises(InvalidArgumentError):
        reconstruct(np.zeros(36), "bc", tract, disp, params, constraint="clamped")
    with pytest.raises(InvalidArgumentError):
        reconstruct(np.zeros(35), "bc", tract, disp, params)


@pytest.mark.parametrize("bad", [np.zeros(5), np.zeros((6, 6)), np.float64(0.0), np.full(36, np.nan)])
def test_bad_displacements_are_refused_before_assembly(pad, params, tmp_path, bad):
    tract, disp = pad
    reset_counters()
    with pytest.raises(InvalidArgumentError):
        reconstruct(bad, "bc", tract, disp, params, cache_dir=tmp_path)
    assert counters()["assemblies"] == 0
    assert list(tmp_path.iterdir()) == []


def test_reconstruct_report_dict(pad, params):
    tract, disp = pad
    report = reconstruct(np.zeros(36), "bc", tract, disp, params)
    d = report.as_dict()
    assert d["model"] == "bc"
    assert set(d) == {
        "model", "constraint_mode", "psi_mode", "rank",
        "residual_norm", "converged", "iterations", "free_set_solver",
        "kkt_tolerance", "active_set_size", "singular_value_range",
        "matrix_source", "inverse_source", "timings_ms",
    }
    assert d["matrix_source"] == "assembled" and d["inverse_source"] == "factorized"
    assert d["iterations"] is None and d["free_set_solver"] is None
    assert d["kkt_tolerance"] is None and d["active_set_size"] is None
    assert set(d["timings_ms"]) == {"assembly_ms", "inversion_ms", "online_ms"}
    s = pipeline.assembly.precompute_inverse(assemble("bc", tract, disp, params)).singular_values
    assert d["rank"] == len(s)
    assert d["singular_value_range"] == (s[-1], s[0]) and 0.0 < s[-1] < s[0]


def test_nonneg_report_says_what_the_solver_did(pad, params):
    tract, disp = pad
    q_true = synth_contact(IndenterSpec("hemisphere", 6e-3, (5e-3, 5e-3), 1.0), tract)
    d = apply_forward(assemble("bc", tract, disp, params), q_true)
    # noise makes the unconstrained solution negative on some cells, so
    # the solve has to pivot
    d = d + 1e-3 * np.max(d) * np.random.default_rng(3).standard_normal(len(d))
    report = reconstruct(d, "bc", tract, disp, params, constraint="nonneg")
    res = nnls_solve(assemble("bc", tract, disp, params).entries, d)
    assert report.converged and report.iterations == res.iterations > 1
    assert report.free_set_solver == res.free_set_solver == "schur"
    fields = report.as_dict()
    assert (fields["iterations"], fields["free_set_solver"]) == (res.iterations, "schur")
    assert fields["singular_value_range"] is None


def test_reconstruct_uses_cache(pad, params, tmp_path):
    tract, disp = pad
    d = np.zeros(36)
    reset_counters()
    reconstruct(d, "bc", tract, disp, params, cache_dir=tmp_path)
    assert counters()["assemblies"] == 1
    reconstruct(d, "bc", tract, disp, params, cache_dir=tmp_path)
    assert counters()["assemblies"] == 1
    assert len(list(tmp_path.glob("*.npy"))) == 1


@pytest.mark.parametrize("model", ["bc", "love"])
def test_warm_reconstruct_is_uncached_bitwise(pad, params, tmp_path, model):
    tract, disp = pad
    q_true = synth_contact(IndenterSpec("hemisphere", 9e-3, (6e-3, 6e-3), 1.8), tract)
    d = apply_forward(assemble(model, tract, disp, params), q_true)
    want = reconstruct(d, model, tract, disp, params)
    pipeline.memory_tier.clear()
    reset_counters()
    cold = reconstruct(d, model, tract, disp, params, cache_dir=tmp_path)
    assert counters() == {"assemblies": 1, "factorizations": 1}
    assert (cold.matrix_source, cold.inverse_source) == ("assembled", "factorized")
    assert set(cold.timings_ms) == {"assembly_ms", "inversion_ms", "online_ms"}
    assert len(list(tmp_path.glob("*.pinv"))) == 1
    reset_counters()
    held = reconstruct(d, model, tract, disp, params, cache_dir=tmp_path)
    assert counters() == {"assemblies": 0, "factorizations": 0}
    assert (held.matrix_source, held.inverse_source) == ("memory", "memory")
    assert set(held.timings_ms) == {"matrix_load_ms", "inverse_load_ms", "online_ms"}
    pipeline.memory_tier.clear()  # as in a new process: the disk cache serves
    warm = reconstruct(d, model, tract, disp, params, cache_dir=tmp_path)
    assert counters() == {"assemblies": 0, "factorizations": 0}
    assert (warm.matrix_source, warm.inverse_source) == ("cache", "cache")
    assert set(warm.timings_ms) == {"matrix_load_ms", "inverse_load_ms", "online_ms"}
    for got in (cold, held, warm):
        assert got.tractions.values.tobytes() == want.tractions.values.tobytes()
        assert got.reconstructed_displacements.tobytes() == want.reconstructed_displacements.tobytes()
        assert got.residual_norm == want.residual_norm
        assert got.rank == want.rank == 36


def test_a_warm_frame_hashes_nothing(pad, params, tmp_path, monkeypatch):
    """Matrix keys are memoized: once a stream's first frame has keyed
    its matrices, a frame and its resample compute no sha256."""
    tract, disp = pad
    display = build_regular_grid((0.0, 0.0), 9, 9, 4e-3 / 3, 4e-3 / 3, kind="displacement")
    calls = []
    sha256 = hashlib.sha256

    def counting(*args):
        calls.append(args)
        return sha256(*args)

    monkeypatch.setattr(assembly.hashlib, "sha256", counting)
    d = np.linspace(0.0, 1e-5, 36)
    for warm in (False, True):
        calls.clear()
        rep = reconstruct(d, "love", tract, disp, params, cache_dir=tmp_path)
        resample(rep, display, params, cache_dir=tmp_path)
        assert (len(calls) == 0) == warm


def test_nonneg_reconstruction_is_the_solvers_fit(pad, params, tmp_path):
    """On ``nonneg`` the report takes C q from the solve, bit for bit."""
    tract, disp = pad
    mat = assemble("bc", tract, disp, params)
    rng = np.random.default_rng(3)
    d = mat.entries @ rng.uniform(0.0, 50.0, 36) + 1e-7 * rng.standard_normal(36)
    for cache_dir in (None, tmp_path, tmp_path):
        rep = reconstruct(d, "bc", tract, disp, params, constraint="nonneg", cache_dir=cache_dir)
        recon = mat.entries @ rep.tractions.values
        assert rep.reconstructed_displacements.tobytes() == recon.tobytes()
        assert rep.residual_norm == float(np.linalg.norm(recon - d))


def npy_bytes(*arrays):
    buf = io.BytesIO()
    for a in arrays:
        np.save(buf, a)
    return buf.getvalue()


def with_value(a, index, value):
    a = a.copy()
    a[index] = value
    return a


def test_damaged_inverse_entry_is_refactorized(pad, params, tmp_path, caplog):
    tract, disp = pad
    d = np.full(36, 1e-6)
    want = reconstruct(d, "love", tract, disp, params, cache_dir=tmp_path)
    (entry,) = tmp_path.glob("*.pinv")
    whole = entry.read_bytes()
    buf = io.BytesIO(whole)
    pinv, s = np.load(buf), np.load(buf)
    # well-formed entries that hold a NaN or an inf
    non_finite = [
        npy_bytes(with_value(pinv, (3, 5), np.inf), s),
        npy_bytes(with_value(pinv, (0, 0), np.nan), s),
        npy_bytes(pinv, with_value(s, -1, np.nan)),
        npy_bytes(pinv, with_value(s, 0, np.inf)),
    ]
    for content in [b"", whole[:1000], b"garbage"] + non_finite:
        entry.write_bytes(content)
        pipeline.memory_tier.clear()  # so the damaged entry is read
        reset_counters()
        caplog.clear()
        with caplog.at_level("WARNING"):
            got = reconstruct(d, "love", tract, disp, params, cache_dir=tmp_path)
        assert any("re-factorizing" in r.message for r in caplog.records)
        assert counters()["factorizations"] == 1 and got.inverse_source == "factorized"
        assert got.tractions.values.tobytes() == want.tractions.values.tobytes()
        # the re-factorized operator replaced the damaged entry
        pipeline.memory_tier.clear()
        reset_counters()
        assert reconstruct(d, "love", tract, disp, params, cache_dir=tmp_path).inverse_source == "cache"
        assert counters()["factorizations"] == 0


@pytest.mark.parametrize("constraint", ["free", "nonneg"])
def test_damaged_matrix_entry_is_reassembled(pad, params, tmp_path, caplog, constraint):
    tract, disp = pad
    d = np.full(36, 1e-6)
    want = reconstruct(d, "love", tract, disp, params, constraint=constraint)
    pipeline.memory_tier.clear()
    reconstruct(d, "love", tract, disp, params, constraint=constraint, cache_dir=tmp_path)
    (entry,) = tmp_path.glob("*.npy")
    C = np.load(entry)
    for bad in (np.nan, np.inf, -np.inf):
        entry.write_bytes(npy_bytes(with_value(C, (2, 7), bad)))
        pipeline.memory_tier.clear()  # so the damaged entry is read
        reset_counters()
        caplog.clear()
        with caplog.at_level("WARNING"):
            got = reconstruct(
                d, "love", tract, disp, params, constraint=constraint, cache_dir=tmp_path
            )
        assert any("re-assembling" in r.message for r in caplog.records)
        assert counters()["assemblies"] == 1 and got.matrix_source == "assembled"
        assert got.tractions.values.tobytes() == want.tractions.values.tobytes()
        assert got.residual_norm == want.residual_norm
        # the re-assembled matrix replaced the damaged entry
        assert np.load(entry).tobytes() == C.tobytes()


def test_nonneg_neither_reads_nor_writes_an_inverse(pad, params, tmp_path):
    tract, disp = pad
    d = np.full(36, 1e-6)
    reset_counters()
    report = reconstruct(d, "bc", tract, disp, params, constraint="nonneg", cache_dir=tmp_path)
    assert (report.matrix_source, report.inverse_source) == ("assembled", "factorized")
    assert set(report.timings_ms) == {"assembly_ms", "inversion_ms", "online_ms"}
    assert counters()["factorizations"] == 0
    assert list(tmp_path.glob("*.pinv")) == []
    # a stored inverse is left unread
    reconstruct(d, "bc", tract, disp, params, cache_dir=tmp_path)
    (entry,) = tmp_path.glob("*.pinv")
    entry.write_bytes(b"garbage")
    pipeline.memory_tier.clear()  # so C comes from the disk cache beside it
    again = reconstruct(d, "bc", tract, disp, params, constraint="nonneg", cache_dir=tmp_path)
    # the NNLS system is formed again, never read from the disk
    assert (again.matrix_source, again.inverse_source) == ("cache", "factorized")
    assert entry.read_bytes() == b"garbage"


def test_nonneg_times_forming_its_system_apart_from_the_solve(pad, params, tmp_path, monkeypatch):
    """Forming the ``NnlsSystem`` is reported as ``inversion_ms``, and
    ``online_ms`` is the solve alone, with a cache dir or without."""
    tract, disp = pad
    d = np.full(36, 1e-6)

    class SlowSystem(solvers.NnlsSystem):
        def __init__(self, C):
            time.sleep(0.05)
            super().__init__(C)

    monkeypatch.setattr(solvers, "NnlsSystem", SlowSystem)
    for cache_dir in (None, tmp_path):
        pipeline.memory_tier.clear()
        cold = reconstruct(d, "bc", tract, disp, params, constraint="nonneg", cache_dir=cache_dir)
        assert cold.inverse_source == "factorized"
        assert cold.timings_ms["inversion_ms"] >= 50.0
        assert cold.timings_ms["online_ms"] < 50.0
    held = reconstruct(d, "bc", tract, disp, params, constraint="nonneg", cache_dir=tmp_path)
    assert held.inverse_source == "memory"
    assert held.timings_ms["inverse_load_ms"] < 50.0


def test_resample_is_forward_solve(pad, params):
    tract, disp = pad
    q_true = synth_contact(IndenterSpec("hemisphere", 9e-3, (6e-3, 6e-3), 1.8), tract)
    mat = assemble("love", tract, disp, params)
    report = reconstruct(apply_forward(mat, q_true), "love", tract, disp, params)
    coarse = build_regular_grid((0.0, 0.0), 4, 4, 3e-3, 3e-3, kind="displacement")
    out = resample(report, coarse, params)
    mat2 = assemble("love", tract, coarse, params)
    np.testing.assert_allclose(out.values, apply_forward(mat2, report.tractions.values), rtol=1e-12)
    assert out.grid is coarse


def test_forward_solve_is_resample_bitwise(pad, params, tmp_path):
    tract, disp = pad
    q_true = synth_contact(IndenterSpec("cylinder", 7e-3, (5e-3, 7e-3), 1.2), tract)
    report = reconstruct(apply_forward(assemble("bc", tract, disp, params), q_true), "bc", tract, disp, params)
    coarse = build_regular_grid((1e-3, 0.0), 4, 3, 3e-3, 3e-3, kind="displacement")
    want = resample(report, coarse, params).values
    for cache_dir in (None, tmp_path, tmp_path):  # uncached, cold cache, warm cache
        got = forward_solve(report.tractions, "bc", coarse, params, cache_dir=cache_dir)
        assert got.grid is coarse
        np.testing.assert_array_equal(got.values, want)


def test_compare_models_profiles(params):
    cmp = compare_models(1e5, (5e-4, 2e-4), params, n_samples=40, x_max=3e-3)
    assert len(cmp.x) == 41  # even counts are bumped to keep x = 0
    assert cmp.x[20] == 0.0
    assert set(cmp.bc_uz) == {"const", "exact"}
    # all profiles peak at the center and stay positive there
    for which in ("love", "const", "exact"):
        assert cmp.peak(which) > 0.0
        assert cmp.peak_location(which) == 0.0
    # the spread-load profile is even in x
    np.testing.assert_allclose(cmp.love_uz, cmp.love_uz[::-1], rtol=1e-10)
    # the love profile is the z entry of the effective column, bit for bit
    want = [
        love_effective_column((x, 0.0), (5e-4, 2e-4), params.nominal_thickness, params)[2] * 1e5
        for x in cmp.x
    ]
    np.testing.assert_array_equal(cmp.love_uz, want)


def test_compare_models_guards(params):
    with pytest.raises(InvalidArgumentError):
        compare_models(1e5, (0.0, 2e-4), params)
    with pytest.raises(InvalidArgumentError):
        compare_models(1e5, (5e-4, 2e-4), params, n_samples=2)
    for pressure, extents, x_max in [
        (np.nan, (5e-4, 2e-4), None),
        (-np.inf, (5e-4, 2e-4), None),
        (1e5, (np.inf, 2e-4), None),
        (1e5, (5e-4, np.nan), None),
        (1e5, (5e-4, 2e-4), np.inf),
        (1e5, (5e-4, 2e-4), np.nan),
        (1e5, (5e-4, 2e-4), 0.0),
    ]:
        with pytest.raises(InvalidArgumentError):
            compare_models(pressure, extents, params, n_samples=3, x_max=x_max)


def test_peak_location_plateau_reports_innermost():
    x = np.linspace(-2.0, 2.0, 9)
    flat = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.2, 0.0])
    cmp = ModelComparison(x, flat, {"const": flat})
    assert cmp.peak_location("love") == 0.0


def test_benchmark_smoke(params):
    res = benchmark(sizes=(4, 16), params=params)
    assert res.sizes == (4, 16)
    for m in ("bc", "love"):
        assert len(res.times[m]) == 2
        assert all(t > 0 for t in res.times[m])
        assert m in res.exponents
    assert len(res.ratios) == 2
    lines = res.summary_lines()
    assert any("exponent" in ln for ln in lines)


def test_benchmark_guards(params):
    with pytest.raises(InvalidArgumentError):
        benchmark(sizes=(5,), params=params)
    with pytest.raises(InvalidArgumentError):
        benchmark(sizes=(4,), repetitions=0, params=params)
    for models in ((), ("bc", "bc")):
        with pytest.raises(InvalidArgumentError, match="each model once"):
            benchmark(models=models, sizes=(4, 16), params=params)


@pytest.mark.parametrize("sizes", [(25,), (25, 25), (-4, 4), (4, 5), (0, 4)])
def test_benchmark_needs_two_distinct_perfect_squares(params, sizes):
    with pytest.raises(InvalidArgumentError):
        benchmark(models=("bc",), sizes=sizes, params=params)


def test_non_finite_vectors_are_rejected(pad, params):
    tract, disp = pad
    d = np.full(len(disp), 1e-5)
    d[3] = np.nan
    with pytest.raises(InvalidArgumentError, match="finite"):
        reconstruct(d, "bc", tract, disp, params, constraint="free")
    q = np.ones(len(tract))
    q[0] = np.inf
    with pytest.raises(InvalidArgumentError, match="finite"):
        forward_solve(FieldVector(q, tract), "bc", disp, params)
