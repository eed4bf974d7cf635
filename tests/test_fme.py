"""Fourier-Motzkin elimination (``fme``): systems, projection and
feasibility in exact rationals."""

from fractions import Fraction

import numpy as np
import pytest

from contactshape import (
    InequalitySystem,
    InvalidArgumentError,
    fme_eliminate,
    fme_eliminate_all,
    fme_feasible,
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
