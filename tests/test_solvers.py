from fractions import Fraction

import numpy as np
import pytest
import scipy.optimize

from contactshape import (
    InequalitySystem,
    InvalidArgumentError,
    ResourceLimitError,
    fme_eliminate,
    fme_eliminate_all,
    fme_feasible,
    fme_worst_case_count,
    nnls_solve,
    solvers,
)


def test_nnls_identity_clips_negatives():
    d = np.array([3.0, -2.0, 0.5, -0.1])
    res = nnls_solve(np.eye(4), d)
    assert res.converged
    np.testing.assert_array_equal(res.x, np.maximum(d, 0.0))
    assert res.residual == pytest.approx(np.hypot(2.0, 0.1), rel=1e-14)


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


def test_nnls_guards():
    with pytest.raises(InvalidArgumentError):
        nnls_solve(np.ones((3, 2)), np.ones(4))
    with pytest.raises(InvalidArgumentError):
        nnls_solve(np.array([[np.nan, 0.0]]), np.ones(1))


def test_system_construction_and_membership():
    sys2 = InequalitySystem.from_arrays([[1, 1], [-1, 0]], [1, -3])
    assert sys2.n_vars == 2 and sys2.n_rows == 2
    assert sys2.satisfied_by((2.0, 0.0))
    assert not sys2.satisfied_by((0.25, 0.25))
    assert not sys2.satisfied_by((4.0, 0.0))
    with pytest.raises(InvalidArgumentError):
        InequalitySystem(((1, 2),), (0,), 3)


def test_fme_interval_feasibility():
    # x >= 1 and x <= 3: feasible; x >= 5 and x <= 3: not
    ok = InequalitySystem.from_arrays([[1.0], [-1.0]], [1.0, -3.0])
    bad = InequalitySystem.from_arrays([[1.0], [-1.0]], [5.0, -3.0])
    assert fme_feasible(fme_eliminate(ok, 0))
    assert not fme_feasible(fme_eliminate(bad, 0))


def test_fme_triangle():
    # x >= 0, y >= 0, x + y <= 1; asking additionally for x + y >= c
    for c, want in ((0.5, True), (2.0, False)):
        sysm = InequalitySystem.from_arrays(
            [[1, 0], [0, 1], [-1, -1], [1, 1]], [0, 0, -1, c]
        )
        final, counts = fme_eliminate_all(sysm)
        assert fme_feasible(final) is want
        assert counts[0] == 4


def test_fme_keeps_ambient_width():
    sysm = InequalitySystem.from_arrays([[1, 2, -1], [0, 1, 1], [-1, 0, 2]], [1, 0, -2])
    out = fme_eliminate(sysm, 1)
    assert out.n_vars == 3
    assert all(row[1] == 0 for row in out.coefficients)


def test_fme_elimination_order_does_not_change_feasibility():
    rng = np.random.default_rng(61)
    for _ in range(40):
        A = rng.integers(-3, 4, size=(5, 3))
        b = rng.integers(-4, 5, size=5)
        sysm = InequalitySystem.from_arrays(A, b, exact=True)
        f1 = fme_feasible(fme_eliminate_all(sysm, order=(0, 1, 2))[0])
        f2 = fme_feasible(fme_eliminate_all(sysm, order=(2, 0, 1))[0])
        assert f1 == f2


def test_fme_dedupe_drops_copies_and_trivial_rows():
    sysm = InequalitySystem.from_arrays(
        [[1, 1], [1, 1], [2, 2], [0, 1]], [1, 1, 2, 0]
    )
    out = fme_eliminate(sysm, 1)
    # the duplicated x+y >= 1 rows pair identically with the only upper
    # bound... there is none, so rows just carry over minus duplicates
    assert out.n_rows < sysm.n_rows


def test_fme_exact_mode_uses_rationals():
    sysm = InequalitySystem.from_arrays([[0.1, 1]], [0.5], exact=True)
    c = sysm.coefficients[0][0]
    assert isinstance(c, Fraction)
    # the exact binary value of the double 0.1, not one tenth
    assert c == Fraction(0.1) and c != Fraction(1, 10)


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
        sysm = InequalitySystem.from_arrays(A, b, exact=True)
        proj = fme_eliminate(sysm, 0)
        for y in ys:
            direct = any(sysm.satisfied_by((x, y)) for x in xs)
            projected = proj.satisfied_by((Fraction(0), y))
            # the finite x sample can only miss feasible points, so a
            # direct hit must always be inside the projection
            if direct:
                assert projected
