import warnings

import numpy as np
import pytest
import scipy.optimize

from contactshape import (
    ElastomerParams,
    IndenterSpec,
    InvalidArgumentError,
    assemble,
    build_regular_grid,
    nnls_solve,
    solvers,
    synth_contact,
)


def test_nnls_identity_clips_negatives():
    d = np.array([3.0, -2.0, 0.5, -0.1])
    res = nnls_solve(np.eye(4), d)
    assert res.converged
    np.testing.assert_array_equal(res.x, np.maximum(d, 0.0))
    assert res.residual == pytest.approx(np.hypot(2.0, 0.1), rel=1e-14)


def test_an_all_zero_frame_needs_no_pivoting():
    for C, solver, iterations in ((np.eye(3) + 0.1, "schur", 1), (np.ones((2, 3)), "lawson-hanson", 0)):
        res = nnls_solve(C, np.zeros(len(C)))
        assert (res.free_set_solver, res.iterations, res.converged) == (solver, iterations, True)
        np.testing.assert_array_equal(res.x, np.zeros(3))
        assert res.residual == 0.0


def test_nnls_recovers_nonnegative_truth():
    rng = np.random.default_rng(41)
    for _ in range(30):
        C = rng.normal(size=(10, 6))
        x_true = np.where(rng.random(6) < 0.4, 0.0, rng.uniform(0.1, 2.0, 6))
        res = nnls_solve(C, C @ x_true)
        assert res.converged
        np.testing.assert_allclose(res.x, x_true, rtol=1e-8, atol=1e-10)
        assert res.residual < 1e-9


def test_nnls_output_never_negative():
    rng = np.random.default_rng(43)
    for _ in range(50):
        C = rng.normal(size=(8, 8))
        res = nnls_solve(C, rng.normal(size=8))
        assert np.all(res.x >= 0.0)


def test_nnls_matches_reference_solver():
    rng = np.random.default_rng(47)
    for _ in range(40):
        C = rng.normal(size=(9, 7))
        d = rng.normal(size=9)
        res = nnls_solve(C, d)
        _, rnorm = scipy.optimize.nnls(C, d)
        assert res.residual == pytest.approx(rnorm, rel=1e-9, abs=1e-12)


def test_nnls_handles_correlated_columns():
    rng = np.random.default_rng(53)
    base = rng.normal(size=(12, 1))
    C = np.hstack([base + 0.01 * rng.normal(size=(12, 1)) for _ in range(6)])
    d = rng.normal(size=12)
    res = nnls_solve(C, d)
    assert np.all(res.x >= 0.0)
    _, rnorm = scipy.optimize.nnls(C, d)
    assert res.residual <= rnorm * (1 + 1e-8) + 1e-12


def test_nnls_iteration_cap_reports_nonconvergence(monkeypatch):
    rng = np.random.default_rng(59)
    C = rng.normal(size=(6, 6))
    d = rng.normal(size=6)
    with monkeypatch.context() as m:
        m.setattr(solvers, "NNLS_MAX_ITERATIONS", 1)
        res = nnls_solve(C, d)
    assert res.iterations == 1
    assert not res.converged
    assert np.all(res.x >= 0.0)
    # with breathing room the same problem converges
    assert nnls_solve(C, d).converged


def test_lawson_hanson_at_the_cap_returns_its_last_iterate():
    rng = np.random.default_rng(71)
    C = rng.normal(size=(6, 12))
    d = rng.normal(size=6)
    ctd = C.T @ d
    tol = solvers.NNLS_KKT_RTOL * np.max(np.abs(ctd))
    residuals = [np.linalg.norm(d)]
    for limit in range(1, 6):
        x, fit, residual, iterations, converged = solvers._lawson_hanson(C, d, ctd, tol, limit)
        assert iterations == limit and not converged
        assert np.all(x >= 0.0) and residual == np.linalg.norm(C @ x - d)
        assert fit.tobytes() == (C @ x).tobytes()
        residuals.append(residual)
    # no iterate raises the residual, so the last one is the best
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))
    res = nnls_solve(C, d)
    assert res.converged and res.free_set_solver == "lawson-hanson" and res.iterations > 5


def test_schur_steps_at_the_cap_return_the_lowest_residual_iterate():
    # correlated columns: the residuals of iterates 1 and 2 exceed ||d||,
    # and iterate 4's exceeds iterate 3's, so the last is not the best
    rng = np.random.default_rng(23)
    C = rng.normal(size=(10, 8)) + rng.normal(size=(10, 1))
    d = rng.normal(size=10)
    system = solvers.NnlsSystem(C)
    ctd = C.T @ d
    tol = solvers.NNLS_KKT_RTOL * np.max(np.abs(ctd))
    res = nnls_solve(system, d)
    assert res.converged and res.free_set_solver == "schur" and res.iterations == 6
    residuals = [np.linalg.norm(d)]
    for limit in range(1, res.iterations):
        x, fit, residual, iterations, converged = solvers._block_pivoting(
            system, d, ctd, tol, limit)
        assert iterations == limit and not converged
        assert residual == np.linalg.norm(C @ np.maximum(x, 0.0) - d)
        assert fit.tobytes() == (C @ np.maximum(x, 0.0)).tobytes()
        residuals.append(residual)
    # from ||d|| (x = 0) on, a higher limit never returns a higher residual
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))


def _noisy_frames(C, tract, specs, rng):
    """C q plus Gaussian noise of 1e-3 of each frame's peak, one row per probe."""
    d = np.array([C @ (synth_contact(s, tract).values * tract.areas()) for s in specs])
    return d + 1e-3 * np.max(np.abs(d), axis=1, keepdims=True) * rng.standard_normal(d.shape)


def _with_lawson_hanson(monkeypatch, C, d):
    """``nnls_solve`` with no inverse held, so that Lawson-Hanson runs."""
    with monkeypatch.context() as m:
        m.setattr(solvers, "_held_inverse", lambda C: None)
        return nnls_solve(C, d)


def _assert_paths_agree(monkeypatch, C, d):
    schur = nnls_solve(C, d)
    ref = _with_lawson_hanson(monkeypatch, C, d)
    assert schur.free_set_solver == "schur" and ref.free_set_solver == "lawson-hanson"
    assert schur.converged and ref.converged
    np.testing.assert_array_equal(schur.x > 0.0, ref.x > 0.0)
    assert np.linalg.norm(schur.x - ref.x) <= 1e-12 * np.linalg.norm(ref.x)


@pytest.mark.slow
def test_schur_matches_lawson_hanson_on_a_skin(monkeypatch):
    # a 24x24 bc skin under press-and-slide probe frames with 0.1 % noise
    tract = build_regular_grid((-23e-3, -23e-3), 24, 24, 2e-3, 2e-3)
    C = assemble("bc", tract, tract.retag("displacement"), ElastomerParams()).entries
    rng = np.random.default_rng(11)
    specs = [
        IndenterSpec(shape, 9e-3, (cx, -4e-3), force)
        for shape, cx, force in (
            ("hemisphere", -6e-3, 0.6), ("hemisphere", -6e-3, 1.8), ("hemisphere", -2e-3, 1.8),
            ("cylinder", 3e-3, 1.2), ("cylinder", 7e-3, 2.4),
        )
    ]
    for d in _noisy_frames(C, tract, specs, rng):
        _assert_paths_agree(monkeypatch, C, d)


def test_schur_steps_solve_the_least_squares_on_their_support():
    # the 24x24 bc skin again, checked against lstsq on the columns the
    # solution keeps positive and against the KKT certificate
    tract = build_regular_grid((-23e-3, -23e-3), 24, 24, 2e-3, 2e-3)
    C = assemble("bc", tract, tract.retag("displacement"), ElastomerParams()).entries
    system = solvers.NnlsSystem(C)
    rng = np.random.default_rng(13)
    specs = [IndenterSpec(shape, 8e-3, (cx, 3e-3), force)
             for shape, cx, force in (("hemisphere", -5e-3, 0.9), ("cylinder", 0.0, 1.5),
                                      ("hemisphere", 6e-3, 2.2))]
    for d in _noisy_frames(C, tract, specs, rng):
        res = nnls_solve(system, d)
        assert res.free_set_solver == "schur" and res.converged
        supp = res.x > 0.0
        ref = np.zeros_like(res.x)
        ref[supp] = np.linalg.lstsq(C[:, supp], d, rcond=None)[0]
        assert np.linalg.norm(res.x - ref) <= 1e-12 * np.linalg.norm(ref)
        g = C.T @ (C @ res.x - d)
        assert res.kkt_tolerance == solvers.NNLS_KKT_RTOL * np.max(np.abs(C.T @ d))
        assert np.all(g >= -res.kkt_tolerance) and np.all(np.abs(g[supp]) <= res.kkt_tolerance)


def _assert_kkt(C, d, res):
    """The KKT certificate: the gradient C^T (C x - d) is at least
    -tol everywhere and within tol of zero where x is positive."""
    g = C.T @ (C @ res.x - d)
    assert np.all(g >= -res.kkt_tolerance)
    assert np.all(np.abs(g[res.x > 0.0]) <= res.kkt_tolerance)


def _recording_steps(monkeypatch, dtypes=None):
    """Record (active cells, CG steps) of every Schur step; 0 steps is
    exact.  The dtype of the matrix each step read goes to ``dtypes``."""
    steps = []
    schur_step = solvers._schur_step

    def record(H, x_u, free, cg_steps):
        steps.append((int(np.count_nonzero(~free)), cg_steps))
        if dtypes is not None:
            dtypes.append(H.dtype)
        return schur_step(H, x_u, free, cg_steps)

    monkeypatch.setattr(solvers, "_schur_step", record)
    return steps


def _skin_frames():
    """C of the 24x24 bc skin and the eight noisy frames of the tests above."""
    tract = build_regular_grid((-23e-3, -23e-3), 24, 24, 2e-3, 2e-3)
    C = assemble("bc", tract, tract.retag("displacement"), ElastomerParams()).entries
    frames = []
    for seed, diameter, cy, probes in (
        (11, 9e-3, -4e-3, (("hemisphere", -6e-3, 0.6), ("hemisphere", -6e-3, 1.8),
                           ("hemisphere", -2e-3, 1.8), ("cylinder", 3e-3, 1.2),
                           ("cylinder", 7e-3, 2.4))),
        (13, 8e-3, 3e-3, (("hemisphere", -5e-3, 0.9), ("cylinder", 0.0, 1.5),
                          ("hemisphere", 6e-3, 2.2))),
    ):
        specs = [IndenterSpec(shape, diameter, (cx, cy), force) for shape, cx, force in probes]
        frames.extend(_noisy_frames(C, tract, specs, np.random.default_rng(seed)))
    return C, frames


def test_the_search_certifies_the_exact_steps_partition(monkeypatch):
    # the noisy 24x24 bc skin frames of the two tests above
    C, frames = _skin_frames()
    system = solvers.NnlsSystem(C)
    steps = _recording_steps(monkeypatch)
    default = solvers.SEARCH_CG_STEPS
    results = {}
    # two CG steps do not settle the signs: the infeasible count stops
    # falling, which must end the search (else the pivoting cycles)
    for search in (default, 0, 1, 2):
        monkeypatch.setattr(solvers, "SEARCH_CG_STEPS", search)
        results[search] = []
        for d in frames:
            del steps[:]
            res = nnls_solve(system, d)
            assert res.free_set_solver == "schur" and res.converged
            _assert_kkt(C, d, res)
            results[search].append(res)
            if search == 0:
                assert all(cg == 0 for _, cg in steps)
            elif search == 1:
                # one CG step moves too little to show an infeasible index
                # after the first swap: that partition is solved again
                # exactly, and the exact steps go on from it
                assert steps[:2] == [(steps[0][0], 1), (steps[0][0], 0)] and len(steps) > 2
            elif search == default:
                # the search reaches the optimal partition and certifies it
                # with the one exact step of the solve
                assert [cg for _, cg in steps] == [search] * (len(steps) - 1) + [0]
                assert steps[-1][0] == steps[-2][0]
    for search in (0, 1, 2):
        for res, ref in zip(results[search], results[default]):
            assert res.x.tobytes() == ref.x.tobytes()
    # exact steps from the first swap's partition on: block pivoting's
    # own counts, as before the search phase existed
    for search in (0, 1):
        assert [res.iterations for res in results[search]] == [4, 5, 5, 5, 5, 4, 5, 5]


def test_search_steps_read_the_float32_copy_and_exact_steps_the_float64_h(monkeypatch):
    C, frames = _skin_frames()
    system = solvers.NnlsSystem(C)
    dtypes = []
    steps = _recording_steps(monkeypatch, dtypes)
    for search in (solvers.SEARCH_CG_STEPS, 0, 1, 2):
        monkeypatch.setattr(solvers, "SEARCH_CG_STEPS", search)
        for d in frames:
            del steps[:], dtypes[:]
            assert nnls_solve(system, d).converged
            assert dtypes == [np.float32 if cg else np.float64 for _, cg in steps]
            assert steps[-1][1] == 0  # the optimum is declared on an exact step


def test_the_search_is_equivariant_under_power_of_two_scaling(monkeypatch):
    # C times 2^k and d times 2^j give x times 2^(j - k) bitwise, by the
    # same steps: the search's float32 copy and right-hand side are scaled
    # by powers of two, so they neither overflow nor lose bits
    C, frames = _skin_frames()
    steps = _recording_steps(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = solvers.NnlsSystem(C)
        reference = []
        for d in frames:
            del steps[:]
            res = nnls_solve(system, d)
            reference.append((res.x, res.iterations, list(steps)))
        for k in (-100, -60, 60, 100):
            scaled = solvers.NnlsSystem(np.ldexp(C, k))
            assert scaled.search_gram.tobytes() == system.search_gram.tobytes()
            assert scaled.search_exponent == system.search_exponent - 2 * k
            for j in (-100, 0, 100):
                for d, (x, iterations, ref_steps) in zip(frames, reference):
                    del steps[:]
                    res = nnls_solve(scaled, np.ldexp(d, j))
                    assert res.x.tobytes() == np.ldexp(x, j - k).tobytes()
                    assert (res.iterations, steps) == (iterations, ref_steps)


def test_the_held_inverse_scales_back_to_the_bitwise_inverse_of_a_skin():
    # G is formed from C / 2^e_C and H held as H / 2^e_H: both scalings
    # are exact, so H is bitwise the inverse of C^T C formed unscaled
    C, _ = _skin_frames()
    system = solvers.NnlsSystem(C)
    H = np.linalg.inv(C.T @ C)
    assert np.ldexp(system.inverse_gram, system.search_exponent).tobytes() == H.tobytes()
    assert 0.5 <= np.max(np.abs(system.inverse_gram)) < 1.0
    rounded = np.ldexp(H, -system.search_exponent).astype(np.float32)
    assert system.search_gram.tobytes() == rounded.tobytes()


def test_the_solver_choice_does_not_depend_on_the_units():
    """C times 2^k for k far beyond where C^T C or its inverse leave
    float64's range: the same choice, the same held bits, no warning."""
    g = build_regular_grid((0.0, 0.0), 5, 5, 2e-3, 2e-3)
    skin = assemble("bc", g, g.retag("displacement"), ElastomerParams()).entries
    for C, held in ((skin, True), (np.diag([1.0, 2e-3]), True), (np.diag([1.0, 1e-3]), False)):
        reference = solvers.NnlsSystem(C)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (-900, -600, -300, 300, 600, 900):
                scaled = np.ldexp(C, k)
                assert np.all(np.abs(scaled[scaled != 0.0]) >= np.finfo(float).tiny)
                system = solvers.NnlsSystem(scaled)
                assert (system.inverse_gram is not None) is held
                if held:
                    assert system.inverse_gram.tobytes() == reference.inverse_gram.tobytes()
                    assert system.search_exponent == reference.search_exponent - 2 * k


def test_a_love_pad_at_a_tiny_modulus_runs_schur_without_a_warning():
    """At a modulus of 1e-300 C's entries are near 1e297: C^T C overflows
    float64 and (C^T C)^-1 underflows it, yet the solve is C / 2^e_C's,
    scaled back bitwise, with no numpy warning."""
    g = build_regular_grid((0.0, 0.0), 4, 4, 2e-3, 2e-3)
    soft = ElastomerParams(young_modulus=1e-300)
    C = assemble("love", g, g.retag("displacement"), soft).entries
    q = synth_contact(IndenterSpec("hemisphere", 5e-3, (3e-3, 3e-3), 1.0), g).values
    d = C @ (q - 0.05 * q.max())
    d *= 1e-4 / np.max(np.abs(d))  # displacements up to 0.1 mm, pressures near 1e-300 Pa
    e = int(np.frexp(np.max(np.abs(C)))[1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = nnls_solve(C, d)
        unit = nnls_solve(np.ldexp(C, -e), d)
    assert (res.free_set_solver, unit.free_set_solver) == ("schur", "schur")
    assert res.converged and res.x.tobytes() == np.ldexp(unit.x, -e).tobytes()
    assert np.count_nonzero(res.x) < len(q)  # the bound is active somewhere


def test_cg_stops_once_its_residual_vanishes():
    b = np.array([1.0, -2.0, 3.0])
    # one step solves M = I exactly; the steps after it must not divide by 0
    np.testing.assert_array_equal(solvers._cg(np.eye(3), b, 5), b)
    np.testing.assert_array_equal(solvers._cg(np.eye(3), np.zeros(3), 5), np.zeros(3))
    M = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    np.testing.assert_allclose(solvers._cg(M, b, 3), np.linalg.solve(M, b), rtol=1e-12)
    # a float32 block gives a float32 result, in float32's accuracy; on
    # this 1x1 block the float32 residual and curvature underflow within
    # four steps, which must end the steps without a division by zero
    M32, b32 = M.astype(np.float32), b.astype(np.float32)
    M1 = np.array([[0.045592308044433594]], dtype=np.float32)
    b1 = np.array([0.4036603569984436], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, y1 = solvers._cg(M32, b32, 3), solvers._cg(M1, b1, 6)
        assert solvers._cg(np.eye(3, dtype=np.float32), b32, 5).tobytes() == b32.tobytes()
    assert y.dtype == np.float32 and y1.dtype == np.float32
    np.testing.assert_allclose(y, np.linalg.solve(M, b), rtol=1e-5)
    np.testing.assert_allclose(y1, b1 / M1[0], rtol=1e-6)


def test_scaled_data_gives_the_scaled_solution():
    # the 6x6 problem of the cap test: an absolute floor on the primal
    # tolerance once let data scaled by 1e-12 or less "converge" on an x
    # whose gradient broke the KKT tolerance by a factor of 1e9
    rng = np.random.default_rng(59)
    C = rng.normal(size=(6, 6))
    d = rng.normal(size=6)
    system = solvers.NnlsSystem(C)
    ref = nnls_solve(system, d)
    assert ref.free_set_solver == "schur" and np.count_nonzero(ref.x == 0.0) == 2
    for s in 10.0 ** np.arange(-20, 21, 2):
        res = nnls_solve(system, s * d)
        assert res.converged
        _assert_kkt(C, s * d, res)
        assert np.linalg.norm(res.x - s * ref.x) <= 1e-9 * np.linalg.norm(s * ref.x)


def test_schur_matches_lawson_hanson_on_random_problems(monkeypatch):
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(2, 20))
        C = rng.normal(size=(n + int(rng.integers(0, 10)), n))
        x_true = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.1, 2.0, n))
        d = C @ x_true + 0.3 * rng.normal(size=C.shape[0])
        _assert_paths_agree(monkeypatch, C, d)


def test_rank_deficient_problems():
    rng = np.random.default_rng(67)
    # fewer rows than columns: G = C^T C is singular, no inverse is held
    C = rng.normal(size=(5, 8))
    d = rng.normal(size=5)
    res = nnls_solve(C, d)
    assert res.free_set_solver == "lawson-hanson" and res.converged
    assert res.residual == pytest.approx(scipy.optimize.nnls(C, d)[1], rel=1e-9, abs=1e-12)
    # a repeated column: G is singular
    C = rng.normal(size=(12, 6))
    C[:, 4] = C[:, 1]
    for _ in range(20):
        d = rng.normal(size=12)
        res = nnls_solve(C, d)
        assert res.free_set_solver == "lawson-hanson" and res.converged
        assert res.residual == pytest.approx(scipy.optimize.nnls(C, d)[1], rel=1e-9, abs=1e-12)


def test_the_inverse_is_held_only_where_its_rounding_stays_within_tolerance():
    for C, d in (
        (np.array([[1.0, 1.0], [0.0, 0.0]]), np.array([1.0, 1.0])),  # G singular
        (np.array([[1.0, 1.0], [0.0, 1e-7]]), np.array([0.0, 1.0])),  # eps |G| |H| about 0.1
    ):
        assert solvers.NnlsSystem(C).inverse_gram is None
        res = nnls_solve(C, d)
        assert res.free_set_solver == "lawson-hanson" and res.converged
        assert res.residual == pytest.approx(scipy.optimize.nnls(C, d)[1], rel=1e-9, abs=1e-12)
    C = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 3.0]])
    d = np.array([1.0, 2.0, 3.0])
    system = solvers.NnlsSystem(C)
    H = np.ldexp(system.inverse_gram, system.search_exponent)
    np.testing.assert_allclose(H, np.linalg.inv(C.T @ C), rtol=1e-14)
    res = nnls_solve(C, d)
    assert res.free_set_solver == "schur" and res.converged
    np.testing.assert_allclose(res.x, np.linalg.lstsq(C, d, rcond=None)[0], rtol=1e-14)
    # C = diag(1, s): eps ||G||_1 ||H||_1 = eps / s^2 meets NNLS_KKT_RTOL at s = 1.49e-3
    for s, held in ((2e-3, True), (1e-3, False)):
        system = solvers.NnlsSystem(np.diag([1.0, s]))
        assert (system.inverse_gram is not None) is held


@pytest.mark.parametrize("model", ["bc", "love"])
def test_underdetermined_skins_converge_to_the_reference(model):
    # 8x8 sensing nodes under 12x12 traction cells: G is singular, and
    # block pivoting used to cycle here until the iteration cap
    tract = build_regular_grid((-11e-3, -11e-3), 12, 12, 2e-3, 2e-3)
    disp = build_regular_grid((-10.5e-3, -10.5e-3), 8, 8, 3e-3, 3e-3).retag("displacement")
    C = assemble(model, tract, disp, ElastomerParams()).entries
    rng = np.random.default_rng(2)
    specs = [IndenterSpec("hemisphere", 9e-3, tuple(rng.uniform(-5e-3, 5e-3, 2)), 1.5)
             for _ in range(2)]
    for d in _noisy_frames(C, tract, specs, rng):
        res = nnls_solve(C, d)
        assert res.converged and res.iterations < solvers.NNLS_MAX_ITERATIONS
        assert res.free_set_solver == "lawson-hanson"
        assert np.all(res.x >= 0.0)
        assert res.residual == np.linalg.norm(C @ res.x - d)
        assert res.residual == pytest.approx(scipy.optimize.nnls(C, d)[1], rel=1e-9)


def test_nnls_guards():
    with pytest.raises(InvalidArgumentError):
        nnls_solve(np.ones((3, 2)), np.ones(4))
    with pytest.raises(InvalidArgumentError):
        nnls_solve(np.array([[np.nan, 0.0]]), np.ones(1))
    with pytest.raises(InvalidArgumentError):
        nnls_solve(np.zeros((3, 0)), np.ones(3))
