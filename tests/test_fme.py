"""Fourier-Motzkin elimination (``fme``): systems, projection and
feasibility in exact rationals."""

from fractions import Fraction

import numpy as np
import pytest

from contactshape import (
    InequalitySystem,
    InvalidArgumentError,
    ResourceLimitError,
    fme_eliminate,
    fme_eliminate_all,
    fme_feasible,
    fme_worst_case_count,
)


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
        sysm = InequalitySystem.from_arrays(A, b)
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
    sysm = InequalitySystem.from_arrays([[0.1, 1]], [0.5])
    c = sysm.coefficients[0][0]
    assert isinstance(c, Fraction)
    # the exact binary value of the double 0.1, not one tenth
    assert c == Fraction(0.1) and c != Fraction(1, 10)


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
