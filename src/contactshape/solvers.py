"""Constrained solvers: non-negative least squares and inequality projection.

The NNLS solver enforces Q >= 0 on reconstructed tractions (contact can
only push).  It runs block principal pivoting on the KKT system: swap
every infeasible index between the free and active sets at once, and
when the infeasibility count stops improving fall back to swapping only
the largest infeasible index, which cannot cycle.  Each pivoting step
solves the least-squares problem on the free columns F from the Gram
matrix G = C^T C as G[F, F] x = (C^T d)[F], and takes the dual as
G x - C^T d (Kim & Park, SIAM J. Sci. Comput. 33(6), 2011).  G is formed
once per solve, or once per matrix when the solves share a
``GramMatrix``.  With fewer rows than columns G is singular, so every
step runs ``lstsq`` on C[:, F] instead; so does every step after one
whose Gram solution fails ``_free_step``'s accuracy test.  The result
says which ran, and how many iterations it took.

Fourier-Motzkin elimination projects a system of linear inequalities
a . x >= b onto fewer variables by pairing every lower bound on the
eliminated variable with every upper bound.  It is exponential and only
offered at desk scale, optionally in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidArgumentError, ResourceLimitError, check_count
from .grid import field_values

# KKT tolerance relative to ||C^T d||_inf, the iteration limit, and the
# number of non-improving full swaps before single pivoting takes over
NNLS_KKT_RTOL = 1e-10
NNLS_MAX_ITERATIONS = 300
NNLS_BACKUP_TRIGGER = 3

_EPS = np.finfo(float).eps

FME_MAX_VARS = 25
FME_MAX_ROWS = 10**6


@dataclass(frozen=True)
class NnlsResult:
    """One non-negative solve.  ``free_set_solver`` is "gram" unless a
    free-set step ran ``lstsq`` (see ``_free_step``), then "lstsq"."""

    x: np.ndarray
    residual: float
    iterations: int
    converged: bool
    kkt_tolerance: float
    free_set_solver: str


def _free_step(C, d, G, ctd, free, tol):
    """Least-squares x on the free columns F, and G if later steps may use it.

    With G = C^T C, x solves G[F, F] x = (C^T d)[F], kept when the solve
    meets no zero pivot and the rounding the dual G x - C^T d can carry,
    eps max|G| ||x||_1, stays within the KKT tolerance.  A nearly
    singular G[F, F] (C rank-deficient on F) gives a huge x and fails
    that test.  Otherwise x comes from ``lstsq`` on C[:, F], and None is
    returned for G, so the rest of the solve stays on C.
    """
    if G is not None:
        try:
            x = np.linalg.solve(G[np.ix_(free, free)], ctd[free])
        except np.linalg.LinAlgError:
            x = None
        if x is not None and _EPS * G.diagonal().max() * np.abs(x).sum() <= tol:
            return x, G
    return np.linalg.lstsq(C[:, free], d, rcond=None)[0], None


def _checked_matrix(C) -> np.ndarray:
    C = np.asarray(C, dtype=float)
    if C.ndim != 2:
        raise InvalidArgumentError("need a 2-d matrix, got shape %s" % (C.shape,))
    if not np.all(np.isfinite(C)):
        raise InvalidArgumentError("matrix must be finite")
    return C


def _gram(C):
    """G = C^T C, or None when C has fewer rows than columns (G singular)."""
    return C.T @ C if C.shape[0] >= C.shape[1] else None


class GramMatrix:
    """A matrix C and its Gram matrix G = C^T C, both read-only, so that
    ``nnls_solve`` calls on one C form G once.

    G is always formed here from C, as ``nnls_solve`` forms it; C is
    checked like ``nnls_solve``'s matrix and copied unless it is
    read-only already.  ``gram`` is None when C has fewer rows than
    columns.
    """

    def __init__(self, C):
        C = _checked_matrix(C)
        if C.flags.writeable:
            C = C.copy()
            C.flags.writeable = False
        G = _gram(C)
        if G is not None:
            G.flags.writeable = False
        self.matrix = C
        self.gram = G


def nnls_solve(C, d) -> NnlsResult:
    """Minimize ||C x - d|| subject to x >= 0 by block principal pivoting.

    ``C`` is a matrix, or a ``GramMatrix`` whose G is used instead of
    forming it again.  Returns the solution with x clamped exactly
    non-negative.  If the iteration limit is hit, the iterate x (x = 0
    included) with the lowest ||C max(x, 0) - d|| is returned, clamped,
    with ``converged`` False rather than raising.
    """
    if isinstance(C, GramMatrix):
        C, G = C.matrix, C.gram
    else:
        C = _checked_matrix(C)
        G = _gram(C)
    d = field_values(d, C.shape[0], "data vector")

    n = C.shape[1]
    ctd = C.T @ d
    tol = NNLS_KKT_RTOL * max(np.max(np.abs(ctd)), np.finfo(float).tiny)

    free = np.zeros(n, dtype=bool)
    x = np.zeros(n)
    y = -ctd
    residual = float(np.linalg.norm(d))
    best = (x, residual)
    best_infeasible = n + 1
    slack = NNLS_BACKUP_TRIGGER
    iterations = 0
    converged = False
    while iterations < NNLS_MAX_ITERATIONS:
        iterations += 1
        xtol = 1e-12 * max(np.max(np.abs(x)), 1.0)
        bad_x = free & (x < -xtol)
        bad_y = (~free) & (y < -tol)
        bad = bad_x | bad_y
        n_bad = int(np.count_nonzero(bad))
        if n_bad == 0:
            converged = True
            break
        if n_bad < best_infeasible:
            best_infeasible = n_bad
            slack = NNLS_BACKUP_TRIGGER
        else:
            slack -= 1
            if slack < 0:
                # single pivoting on the largest infeasible index breaks
                # any cycle the full swaps might fall into
                idx = int(np.nonzero(bad)[0][-1])
                bad = np.zeros(n, dtype=bool)
                bad[idx] = True
        free ^= bad
        x = np.zeros(n)
        if free.any():
            x[free], G = _free_step(C, d, G, ctd, free, tol)
        y = C.T @ (C @ x - d) if G is None else G @ x - ctd
        residual = float(np.linalg.norm(C @ np.maximum(x, 0.0) - d))
        if residual < best[1]:
            best = (x, residual)

    if not converged:
        x, residual = best
    solver = "lstsq" if G is None else "gram"
    return NnlsResult(np.maximum(x, 0.0), residual, iterations, converged, float(tol), solver)


def _as_number(v, exact: bool):
    if exact:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, (int, np.integer)):
            return Fraction(int(v))
        # floats convert to their exact binary value
        return Fraction(v)
    return float(v)


@dataclass(frozen=True)
class InequalitySystem:
    """Rows encode a . x >= b; ``exact`` keeps rational arithmetic."""

    coefficients: tuple
    bounds: tuple
    n_vars: int
    exact: bool = False

    def __post_init__(self):
        if self.n_vars < 1:
            raise InvalidArgumentError("system needs at least one variable")
        for row in self.coefficients:
            if len(row) != self.n_vars:
                raise InvalidArgumentError("row width does not match n_vars")
        if len(self.coefficients) != len(self.bounds):
            raise InvalidArgumentError("row/bound count mismatch")

    @classmethod
    def from_arrays(cls, A, b, exact: bool = False) -> "InequalitySystem":
        rows = tuple(
            tuple(_as_number(v, exact) for v in row) for row in np.atleast_2d(A)
        )
        bounds = tuple(_as_number(v, exact) for v in np.atleast_1d(b))
        n_vars = len(rows[0]) if rows else 0
        return cls(rows, bounds, n_vars, exact)

    @property
    def n_rows(self) -> int:
        return len(self.coefficients)

    def satisfied_by(self, x) -> bool:
        for row, b in zip(self.coefficients, self.bounds):
            if sum(c * xi for c, xi in zip(row, x)) < b:
                return False
        return True


def _dedupe(rows, bounds):
    """Drop exact duplicate rows and trivially true rows (0 . x >= b <= 0)."""
    seen = set()
    out_r, out_b = [], []
    for row, b in zip(rows, bounds):
        if all(c == 0 for c in row) and b <= 0:
            continue
        key = (row, b)
        if key in seen:
            continue
        seen.add(key)
        out_r.append(row)
        out_b.append(b)
    return out_r, out_b


def fme_eliminate(system: InequalitySystem, var: int) -> InequalitySystem:
    """Eliminate one variable; the result keeps the ambient width.

    Every lower-bound row on the variable pairs with every upper-bound
    row; rows not mentioning the variable carry over.  The eliminated
    column is identically zero afterwards.
    """
    if not (0 <= var < system.n_vars):
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
        if c > 0:
            lower.append((row, b))
        elif c < 0:
            upper.append((row, b))
        else:
            rest.append((row, b))
    produced = len(lower) * len(upper) + len(rest)
    if produced > FME_MAX_ROWS:
        raise ResourceLimitError(
            "eliminating variable %d would produce %d rows (pairing %d lower with "
            "%d upper bounds); worst case for %d rows over %d step(s) is %s"
            % (
                var,
                produced,
                len(lower),
                len(upper),
                system.n_rows,
                1,
                fme_worst_case_count(system.n_rows, 1),
            )
        )
    zero = Fraction(0) if system.exact else 0.0
    new_rows, new_bounds = [], []
    for row, b in rest:
        new_rows.append(row)
        new_bounds.append(b)
    for lrow, lb in lower:
        lc = lrow[var]
        for urow, ub in upper:
            uc = -urow[var]
            # scale each row by its positive 1/|coefficient| and add
            row = tuple(
                (lv / lc + uv / uc) if i != var else zero
                for i, (lv, uv) in enumerate(zip(lrow, urow))
            )
            new_rows.append(row)
            new_bounds.append(lb / lc + ub / uc)
    new_rows, new_bounds = _dedupe(new_rows, new_bounds)
    return InequalitySystem(tuple(new_rows), tuple(new_bounds), system.n_vars, system.exact)


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
    over 4 variables, ``fme-demo`` seed 8, reach 407 rows after 3 steps,
    where this gives 256), so ``fme-demo`` iterates the one-step bound
    instead.
    """
    check_count("row count", n)
    check_count("step count", p)
    if p == 0:
        return n
    v = Fraction(4 * n ** (2 * p), 4 ** (2 * p))
    return int(v) if v.denominator == 1 else v
