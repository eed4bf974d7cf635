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
    reconstruct,
    resample,
    synth_contact,
)
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
    # a laxer rating admits a bigger push
    IndenterSpec("hemisphere", 8e-3, (0.0, 0.0), 3.5, max_force=10.0)


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


def test_reconstruct_report_dict(pad, params):
    tract, disp = pad
    report = reconstruct(np.zeros(36), "bc", tract, disp, params)
    d = report.as_dict()
    assert d["model"] == "bc"
    assert set(d) == {
        "model", "constraint_mode", "psi_mode", "rank",
        "residual_norm", "converged", "timings_ms",
    }


def test_reconstruct_uses_cache(pad, params, tmp_path):
    tract, disp = pad
    d = np.zeros(36)
    reset_counters()
    reconstruct(d, "bc", tract, disp, params, cache_dir=tmp_path)
    assert counters()["assemblies"] == 1
    reconstruct(d, "bc", tract, disp, params, cache_dir=tmp_path)
    assert counters()["assemblies"] == 1
    assert len(list(tmp_path.glob("*.npy"))) == 1


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


def test_peak_location_plateau_reports_innermost():
    x = np.linspace(-2.0, 2.0, 9)
    flat = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.2, 0.0])
    cmp = ModelComparison(x, flat, {"const": flat}, 1.0, (1.0, 1.0))
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


@pytest.mark.parametrize("sizes", [(25,), (25, 25), (-4, 4)])
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
