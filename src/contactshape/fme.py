"""Fourier-Motzkin elimination over exact rationals.

Fourier-Motzkin elimination projects a system of linear inequalities
a . x >= b onto fewer variables by pairing every lower bound on the
eliminated variable with every upper bound.  Every coefficient and
bound is a ``Fraction``, so each verdict is exact: a float entry is
converted to its exact binary value.  The elimination is exponential
and only offered at desk scale.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError, check_count, check_finite

FME_MAX_VARS = 25
FME_MAX_ROWS = 10**6


def _fractions(what: str, values) -> tuple:
    """``values`` as Fractions; an entry that is not one already must pass
    ``check_finite`` and becomes its exact value (a NumPy integer via
    ``int``, a float via its exact binary value)."""
    out = []
    for v in values:
        if not isinstance(v, Fraction):
            check_finite(what, v)
            v = Fraction(int(v) if isinstance(v, numbers.Integral) else float(v))
        out.append(v)
    return tuple(out)


@dataclass(frozen=True)
class InequalitySystem:
    """Rows encode a . x >= b over ``n_vars`` variables, in exact rationals."""

    coefficients: tuple
    bounds: tuple
    n_vars: int

    def __post_init__(self):
        check_count("variable count", self.n_vars)
        if self.n_vars < 1:
            raise InvalidArgumentError("system needs at least one variable")
        if len(self.coefficients) != len(self.bounds):
            raise InvalidArgumentError("row/bound count mismatch")
        rows = []
        for row in self.coefficients:
            if len(row) != self.n_vars:
                raise InvalidArgumentError("row width does not match n_vars")
            rows.append(_fractions("coefficient", row))
        object.__setattr__(self, "coefficients", tuple(rows))
        object.__setattr__(self, "bounds", _fractions("bound", self.bounds))

    @classmethod
    def from_arrays(cls, A, b) -> "InequalitySystem":
        """The system A x >= b; a 1-d ``A`` is one row.  The entries keep
        their Python or NumPy type until ``__post_init__`` converts them."""
        rows = np.atleast_2d(np.asarray(A, dtype=object))
        bounds = np.atleast_1d(np.asarray(b, dtype=object))
        return cls(tuple(map(tuple, rows)), tuple(bounds), rows.shape[1])

    @property
    def n_rows(self) -> int:
        return len(self.coefficients)

    def satisfied_by(self, x) -> bool:
        x = _fractions("point", x)
        if len(x) != self.n_vars:
            raise InvalidArgumentError("point needs %d entries, got %d" % (self.n_vars, len(x)))
        return all(
            sum(c * xi for c, xi in zip(row, x)) >= b
            for row, b in zip(self.coefficients, self.bounds)
        )


def fme_eliminate(system: InequalitySystem, var: int) -> InequalitySystem:
    """Eliminate one variable; the result keeps the ambient width.

    Each row mentioning the variable is divided by the magnitude of its
    coefficient there, which becomes +1 (a lower bound) or -1 (an upper
    bound); every lower-bound row is added to every upper-bound row, so
    the eliminated column is exactly zero afterwards.  Rows not
    mentioning the variable carry over.  Exact duplicate rows and
    trivially true rows (0 . x >= b <= 0) are dropped.
    """
    check_count("variable index", var)
    if var >= system.n_vars:
        raise InvalidArgumentError("variable index %d out of range" % var)
    if system.n_vars > FME_MAX_VARS:
        raise ResourceLimitError(
            "%d variables exceeds the desk-scale limit of %d"
            % (system.n_vars, FME_MAX_VARS)
        )
    if system.n_rows > FME_MAX_ROWS:
        raise ResourceLimitError(
            "%d rows exceeds the desk-scale limit of %d" % (system.n_rows, FME_MAX_ROWS)
        )
    lower, upper, rest = [], [], []
    for row, b in zip(system.coefficients, system.bounds):
        c = row[var]
        if c == 0:
            rest.append((row, b))
        else:
            s = abs(c)
            (lower if c > 0 else upper).append((tuple(v / s for v in row), b / s))
    produced = len(lower) * len(upper) + len(rest)
    if produced > FME_MAX_ROWS:
        raise ResourceLimitError(
            "eliminating variable %d would produce %d rows (pairing %d lower with %d upper "
            "bounds); worst case for %d rows over 1 step is %s"
            % (var, produced, len(lower), len(upper), system.n_rows,
               fme_worst_case_count(system.n_rows, 1))
        )
    pairs = rest + [
        (tuple(lv + uv for lv, uv in zip(lrow, urow)), lb + ub)
        for lrow, lb in lower
        for urow, ub in upper
    ]
    kept = dict.fromkeys((row, b) for row, b in pairs if b > 0 or any(row))
    return InequalitySystem(tuple(r for r, _ in kept), tuple(b for _, b in kept), system.n_vars)


def fme_eliminate_all(system: InequalitySystem, order=None):
    """Eliminate every variable; returns (final system, row counts per step)."""
    if order is None:
        order = range(system.n_vars)
    counts = [system.n_rows]
    for var in order:
        system = fme_eliminate(system, var)
        counts.append(system.n_rows)
    return system, counts


def fme_feasible(system: InequalitySystem) -> bool:
    """Feasibility of a fully projected system (no variables left).

    After eliminating every variable all rows are constant; the system
    is feasible exactly when no row demands 0 >= b with b > 0.
    """
    for row, b in zip(system.coefficients, system.bounds):
        if any(c != 0 for c in row):
            raise InvalidArgumentError(
                "system still mentions variables; eliminate them first"
            )
        if b > 0:
            return False
    return True


def fme_worst_case_count(n: int, p: int):
    """Worst-case row count after p elimination steps from n rows.

    Exact arithmetic: 4 * (n/4)**(2*p) as an integer when it divides
    evenly, else a Fraction.  Zero steps leave the n rows untouched.

    The value equals the classical Fourier-Motzkin bound 4 * (n/4)**(2**p)
    only for p <= 2.  Past that it undercounts real eliminations (8 rows
    over 4 variables, ``fme-demo`` seed 8, reach 401 rows after 3 steps,
    where this gives 256), so ``fme-demo`` iterates the one-step bound
    instead.
    """
    check_count("row count", n)
    check_count("step count", p)
    if p == 0:
        return n
    v = Fraction(4 * n ** (2 * p), 4 ** (2 * p))
    return int(v) if v.denominator == 1 else v
