"""Acceptance gate: one test per numbered criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines alongside the test names.  Criterion 7 checks the worst-case FME
row count for 100 rows and 100 variables, 4 * 25**200 = 1.549e280, in
two halves: its digit count (7a) and its leading digits (7b).  The older
1.6e280 figure came from rounding log10 of the value, 280.190, to 280.2.
"""
import itertools
import math
import time

import numpy as np
import pytest

from contactshape import (
    ElastomerParams,
    IndenterSpec,
    InequalitySystem,
    apply_forward,
    apply_inverse,
    assemble,
    bc_effective_block,
    bc_resolved_block,
    benchmark,
    build_regular_grid,
    compare_models,
    fme_eliminate_all,
    fme_feasible,
    fme_worst_case_count,
    love_displacement,
    love_potential_oracle,
    nnls_solve,
    precompute_inverse,
    reconstruct,
    resample,
    synth_contact,
)
from contactshape.love import _integrate_cell

E = 2.1e5


def _verdict(num, ok, detail):
    print("criterion %02d: %s  [%s]" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %02d failed: %s" % (num, detail)


def test_criterion_01_identity_round_trip(params):
    grid = build_regular_grid((0.0, 0.0), 10, 10, 2e-3, 2e-3)
    disp = grid.retag("displacement")
    rng = np.random.default_rng(1)
    s = rng.uniform(0.2e-4, 1e-4, size=100)
    worst = {}
    times = {}
    for model in ("bc", "love"):
        t0 = time.perf_counter()
        mat = assemble(model, grid, disp, params)
        op = precompute_inverse(mat)
        s_back = apply_forward(mat, apply_inverse(op, s))
        times[model] = time.perf_counter() - t0
        worst[model] = float(np.max(np.abs(s_back - s) / np.abs(s)))
    ok = all(w < 1e-8 for w in worst.values()) and all(t < 1.0 for t in times.values())
    _verdict(
        1,
        ok,
        "bc rel %.2e in %.2fs, love rel %.2e in %.2fs"
        % (worst["bc"], times["bc"], worst["love"], times["love"]),
    )


def test_criterion_02_love_vs_quadrature(params):
    a, b = 5e-3, 2e-3
    p = 1e5
    nu = params.poisson_ratio
    xs = (0.0, 2.5e-3, 5e-3, 7e-3, 11e-3)
    ys = (0.0, 1e-3, 2e-3, 3e-3, 5e-3)
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for x in xs:
        for y in ys:
            ref = (1 - nu * nu) / (math.pi * E) * love_potential_oracle(
                p, (a, b), (x, y, 0.0), "V", rel_tol=1e-9
            )
            got = love_displacement(p, (a, b), (x, y, 0.0), params)[2]
            worst = max(worst, abs(got - ref) / abs(ref))
            count += 1
    z = params.nominal_thickness
    for x in xs:
        for y in ys:
            vint, _ = _integrate_cell(
                lambda xx, yy: 1.0 / math.sqrt((xx - x) ** 2 + (yy - y) ** 2 + z * z),
                a, b, x, y, 1e-9,
            )
            dvdz, _ = _integrate_cell(
                lambda xx, yy: -z / ((xx - x) ** 2 + (yy - y) ** 2 + z * z) ** 1.5,
                a, b, x, y, 1e-9,
            )
            ref = (1 - nu * nu) / (math.pi * E) * p * vint - (1 + nu) * z / (
                2 * math.pi * E
            ) * p * dvdz
            got = love_displacement(p, (a, b), (x, y, z), params)[2]
            worst = max(worst, abs(got - ref) / abs(ref))
            count += 1
    dt = time.perf_counter() - t0
    ok = count == 50 and worst < 1e-6 and dt < 30.0
    _verdict(2, ok, "%d points, worst rel %.2e, %.1fs" % (count, worst, dt))


def test_criterion_03_bc_singularity_handling():
    inf = math.inf
    blk = bc_effective_block(0.0, 0.0, 2e-3, E)
    pattern_ok = np.array_equal(
        blk, np.array([[inf, inf, 0.0], [inf, inf, 0.0], [0.0, 0.0, inf]])
    )
    rng = np.random.default_rng(2)
    n = 100000
    xs = rng.uniform(-0.01, 0.01, n)
    ys = rng.uniform(-0.01, 0.01, n)
    # force the singular point and the axes into the sweep
    xs[:10000] = 0.0
    ys[5000:15000] = 0.0
    xs[15000:16000] = 0.0
    ys[15000:16000] = 0.0
    bad = 0
    for i in range(n):
        mode = "exact" if i % 2 else "const"
        if not np.all(np.isfinite(bc_resolved_block(xs[i], ys[i], 4e-8, 2e-3, E, mode))):
            bad += 1
    ok = pattern_ok and bad == 0
    _verdict(3, ok, "sentinel pattern %s, %d/%d non-finite" % (pattern_ok, bad, n))


def test_criterion_04_love_no_singularities(params):
    a, b = 5e-3, 2e-3
    h = params.nominal_thickness
    rng = np.random.default_rng(3)
    n = 100000
    xs = rng.uniform(-3 * a, 3 * a, n)
    ys = rng.uniform(-3 * b, 3 * b, n)
    zs = rng.uniform(0.0, 2 * h, n)
    # snap blocks of points onto edges, corners and the special depths
    xs[:20000] = np.where(rng.random(20000) < 0.5, a, -a)
    ys[10000:30000] = np.where(rng.random(20000) < 0.5, b, -b)
    zs[30000:40000] = 0.0
    zs[40000:50000] = h
    bad = 0
    for i in range(n):
        u = love_displacement(1e5, (a, b), (xs[i], ys[i], zs[i]), params)
        if not (math.isfinite(u[0]) and math.isfinite(u[1]) and math.isfinite(u[2])):
            bad += 1
    _verdict(4, bad == 0, "%d/%d evaluations non-finite" % (bad, n))


def test_criterion_05_comparison_magnitude(params):
    cmp_ = compare_models(1e5, (5e-4, 2e-4), params)
    peaks = {
        "love": cmp_.peak("love"),
        "const": cmp_.peak("const"),
        "exact": cmp_.peak("exact"),
    }
    locs = {w: cmp_.peak_location(w) for w in peaks}
    ok = all(1e-5 < p < 2e-4 for p in peaks.values()) and all(
        x == 0.0 for x in locs.values()
    )
    _verdict(
        5,
        ok,
        "peaks " + ", ".join("%s %.3e@x=%g" % (w, peaks[w], locs[w]) for w in peaks),
    )


def _brute_force_nnls_residual(C, d):
    best = float(np.linalg.norm(d))  # empty active set
    n = C.shape[1]
    for r in range(1, n + 1):
        for cols in itertools.combinations(range(n), r):
            sol, *_ = np.linalg.lstsq(C[:, cols], d, rcond=None)
            if np.all(sol >= -1e-10):
                x = np.zeros(n)
                x[list(cols)] = np.maximum(sol, 0.0)
                best = min(best, float(np.linalg.norm(C @ x - d)))
    return best


def test_criterion_06_nnls_matches_enumeration():
    rng = np.random.default_rng(4)
    worst = 0.0
    all_nonneg = True
    all_converged = True
    for _ in range(200):
        C = rng.normal(size=(6, 6))
        d = rng.normal(size=6)
        res = nnls_solve(C, d)
        ref = _brute_force_nnls_residual(C, d)
        worst = max(worst, abs(res.residual - ref))
        all_nonneg &= bool(np.all(res.x >= 0.0))
        all_converged &= res.converged
    ok = worst < 1e-8 and all_nonneg and all_converged
    _verdict(
        6,
        ok,
        "worst residual gap %.2e, nonneg %s, converged %s"
        % (worst, all_nonneg, all_converged),
    )


def test_criterion_07a_fme_blowup_digit_count():
    v = fme_worst_case_count(100, 100)
    ok = isinstance(v, int) and len(str(v)) == 281
    _verdict(7, ok, "4*25^200 has %d decimal digits" % len(str(v)))


def test_criterion_07b_fme_blowup_leading_digits():
    # The exact count is 4 * 25**200 = 1.549e280.  The older 1.6e280 figure
    # came from rounding log10 of the value, 280.190, to 280.2 (10**280.2 is
    # about 1.58e280), not from the value itself.  The target digits are
    # derived from logarithms, apart from the integer arithmetic under test,
    # and truncated (not rounded) to four digits; with 7a's digit count
    # they pin the value.
    log10_v = math.log10(4) + 200 * math.log10(25)
    target = str(int(10 ** (log10_v - math.floor(log10_v)) * 1000))
    v = fme_worst_case_count(100, 100)
    lead = str(v)[: len(target)]
    _verdict(7, lead == target, "leading digits are %r, target %r" % (lead, target))


def _grid_scan_feasible(A, b):
    """Half-integer (x, y) grid with an exact integer z-interval test."""
    A = np.asarray(A, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    k = np.arange(-40, 41, dtype=np.int64)  # x = k/2
    x2, y2 = (v.ravel() for v in np.meshgrid(k, k, indexing="ij"))
    ok = np.ones(x2.shape, dtype=bool)
    lo = np.full(x2.shape, np.iinfo(np.int64).min // 4, dtype=np.int64)
    hi = np.full(x2.shape, np.iinfo(np.int64).max // 4, dtype=np.int64)
    for (a1, a2, a3), bb in zip(A, b):
        s = a1 * x2 + a2 * y2
        if a3 == 0:
            ok &= s >= 2 * bb
        elif a3 > 0:  # w = 12 z; 12/(2 a3) stays integral for |a3| <= 3
            lo = np.maximum(lo, (2 * bb - s) * (12 // (2 * a3)))
        else:
            hi = np.minimum(hi, (2 * bb - s) * (12 // (2 * a3)))
    return bool(np.any(ok & (lo <= hi)))


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _candidate_points_feasible(A, b, box=10**6):
    """Exact completion of the grid scan: a nonempty region boxed at
    +-box has a corner where three constraint planes meet, so checking
    every such intersection point (integer Cramer arithmetic) decides
    feasibility without any sampling gaps."""
    rows = [tuple(int(v) for v in r) + (int(bb),) for r, bb in zip(A, b)]
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        rows.append((*e, -box))
        e[i] = -1
        rows.append((*e, -box))
    for trip in itertools.combinations(rows, 3):
        m = [r[:3] for r in trip]
        rhs = [r[3] for r in trip]
        det = _det3(m)
        if det == 0:
            continue
        xs = []
        for c in range(3):
            mc = [list(r) for r in m]
            for r, v in zip(mc, rhs):
                r[c] = v
            xs.append(_det3(mc))
        if all(
            (r[0] * xs[0] + r[1] * xs[1] + r[2] * xs[2] - r[3] * det) * (1 if det > 0 else -1) >= 0
            for r in rows
        ):
            return True
    return False


def test_criterion_08_fme_equivalence():
    rng = np.random.default_rng(73)
    mismatches = 0
    feasible_count = 0
    for _ in range(500):
        nrows = int(rng.integers(4, 7))
        A = rng.integers(-3, 4, size=(nrows, 3))
        b = rng.integers(-5, 6, size=nrows)
        oracle = _grid_scan_feasible(A, b) or _candidate_points_feasible(A, b)
        sysm = InequalitySystem.from_arrays(A, b)
        got = fme_feasible(fme_eliminate_all(sysm)[0])
        feasible_count += got
        if got != oracle:
            mismatches += 1
    _verdict(
        8,
        mismatches == 0,
        "%d/500 mismatches (%d feasible)" % (mismatches, feasible_count),
    )


@pytest.mark.slow
def test_criterion_09_quadratic_scaling(params):
    t0 = time.perf_counter()
    res = benchmark(sizes=(25, 100, 400, 1600), repetitions=3, params=params)
    dt = time.perf_counter() - t0
    exp_ok = all(abs(res.exponents[m] - 2.0) <= 0.3 for m in ("bc", "love"))
    ratio_ok = all(r > 1.0 for r in res.ratios)
    ok = exp_ok and ratio_ok and dt < 300.0
    _verdict(
        9,
        ok,
        "exponents bc %.2f love %.2f, ratios %s, %.0fs"
        % (
            res.exponents["bc"],
            res.exponents["love"],
            "/".join("%.1f" % r for r in res.ratios),
            dt,
        ),
    )


def test_criterion_10_resampling_fidelity(params):
    fine = build_regular_grid((0.0, 0.0), 12, 12, 2e-3, 2e-3)
    fine_disp = fine.retag("displacement")
    coarse_disp = build_regular_grid((0.0, 0.0), 8, 8, 3e-3, 3e-3, kind="displacement")
    q_true = synth_contact(
        IndenterSpec("hemisphere", 12e-3, (12e-3, 12e-3), 1.8), fine
    )
    sensed = apply_forward(assemble("love", fine, fine_disp, params), q_true)
    truth8 = apply_forward(assemble("love", fine, coarse_disp, params), q_true)
    errors = {}
    love8 = None
    for model in ("love", "bc"):
        report = reconstruct(sensed, model, fine, fine_disp, params)
        out = resample(report, coarse_disp, params)
        errors[model] = float(
            np.linalg.norm(out.values - truth8) / np.linalg.norm(truth8)
        )
        if model == "love":
            love8 = out.values
    peak_change = abs(float(np.max(sensed)) - float(np.max(love8)))
    ok = peak_change < 1e-4 and errors["bc"] > errors["love"]
    _verdict(
        10,
        ok,
        "peak change %.4f mm, field error love %.2e vs bc %.2e"
        % (1e3 * peak_change, errors["love"], errors["bc"]),
    )
