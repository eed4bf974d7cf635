from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from contactshape import (
    ElastomerParams,
    IndenterSpec,
    InequalitySystem,
    InvalidArgumentError,
    ResourceLimitError,
    assemble,
    build_regular_grid,
    fme_eliminate,
    fme_eliminate_all,
    fme_feasible,
    fme_worst_case_count,
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
        x, residual, iterations, converged = solvers._lawson_hanson(C, d, ctd, tol, limit)
        assert iterations == limit and not converged
        assert np.all(x >= 0.0) and residual == np.linalg.norm(C @ x - d)
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
        x, residual, iterations, converged = solvers._block_pivoting(
            C, system.inverse_gram, d, ctd, tol, limit)
        assert iterations == limit and not converged
        assert residual == np.linalg.norm(C @ np.maximum(x, 0.0) - d)
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
    H = solvers.NnlsSystem(C).inverse_gram
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


def test_fme_seed_46_system_is_feasible():
    """(1/4, 1/4, -7/8) satisfies this system (``fme-demo`` seed 46).  Float
    rounding leaves a coefficient below 1e-12 that pairs as a real bound
    and makes it look infeasible; exact rationals leave an exact zero."""
    A = [[0, 3, -2], [-3, 0, -2], [-2, 1, -3], [3, 2, -3],
         [2, 1, 2], [2, -2, 0], [0, 2, 2], [3, 1, 0]]
    b = [-1, 1, 1, -5, -1, 0, -4, 1]
    sysm = InequalitySystem.from_arrays(np.array(A), np.array(b))
    assert sysm.satisfied_by((0.25, 0.25, -0.875))
    assert sysm.satisfied_by((Fraction(1, 4), Fraction(1, 4), Fraction(-7, 8)))
    final, counts = fme_eliminate_all(sysm)
    assert fme_feasible(final)
    assert counts == [8, 10, 15, 0]


def test_fme_entries_are_fractions():
    """Every coefficient and bound is a Fraction, however it was given."""
    built = InequalitySystem(((1, 2.5), (np.int64(-3), Fraction(1, 3))), (0.1, np.float64(2)), 2)
    projected = fme_eliminate(InequalitySystem.from_arrays([[1.5, -1], [-2, 1]], [0, 1]), 0)
    for sysm in (built, projected):
        for value in [c for row in sysm.coefficients for c in row] + list(sysm.bounds):
            assert type(value) is Fraction
    assert built.coefficients[1][0] == -3 and built.bounds[0] == Fraction(0.1)
    with pytest.raises(InvalidArgumentError):
        built.satisfied_by((1.0,))
    with pytest.raises(InvalidArgumentError):
        built.satisfied_by((1.0, float("nan")))


def test_fme_has_no_arithmetic_switch():
    with pytest.raises(TypeError):
        InequalitySystem.from_arrays([[1, 0]], [1], exact=True)
    with pytest.raises(TypeError):
        InequalitySystem(((1, 0),), (1,), 2, True)


def test_fme_feasible_requires_projected_system():
    sysm = InequalitySystem.from_arrays([[1, 0]], [1])
    with pytest.raises(InvalidArgumentError):
        fme_feasible(sysm)


def test_fme_resource_guards():
    wide = InequalitySystem.from_arrays([np.ones(26)], [0.0])
    with pytest.raises(ResourceLimitError):
        fme_eliminate(wide, 0)
    rows = [[1.0, 0.0]] * 1001 + [[-1.0, 0.0]] * 1001
    tall = InequalitySystem.from_arrays(rows, np.zeros(2002))
    with pytest.raises(ResourceLimitError) as exc:
        fme_eliminate(tall, 0)
    assert "worst case" in str(exc.value)


def test_fme_worst_case_count_values():
    assert fme_worst_case_count(7, 0) == 7
    assert fme_worst_case_count(4, 1) == 4
    assert fme_worst_case_count(8, 1) == 16
    assert fme_worst_case_count(6, 1) == 9
    assert fme_worst_case_count(5, 1) == Fraction(25, 4)
    assert fme_worst_case_count(2, 2) == Fraction(1, 4)
    assert fme_worst_case_count(4, 3) == 4
    with pytest.raises(InvalidArgumentError):
        fme_worst_case_count(-1, 2)


def test_fme_projection_matches_direct_search():
    """Eliminating x leaves exactly the y values that admit some x."""
    rng = np.random.default_rng(67)
    ys = [Fraction(k, 4) for k in range(-24, 25)]
    xs = [Fraction(k, 4) for k in range(-40, 41)]
    for _ in range(25):
        A = rng.integers(-3, 4, size=(4, 2))
        b = rng.integers(-5, 6, size=4)
        sysm = InequalitySystem.from_arrays(A, b)
        proj = fme_eliminate(sysm, 0)
        for y in ys:
            direct = any(sysm.satisfied_by((x, y)) for x in xs)
            projected = proj.satisfied_by((Fraction(0), y))
            # the finite x sample can only miss feasible points, so a
            # direct hit must always be inside the projection
            if direct:
                assert projected
