"""Non-negative least squares.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .grid import field_values

# KKT tolerance relative to ||C^T d||_inf, the iteration limit, and the
# number of non-improving full swaps before single pivoting takes over
NNLS_KKT_RTOL = 1e-10
NNLS_MAX_ITERATIONS = 300
NNLS_BACKUP_TRIGGER = 3

_EPS = np.finfo(float).eps


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
