"""Non-negative least squares.

The NNLS solver enforces Q >= 0 on reconstructed tractions (contact can
only push): it minimizes ||C x - d|| subject to x >= 0, with one
algorithm per kind of C, chosen once per matrix by ``NnlsSystem``.

- "schur": when C has full column rank to working accuracy
  (``_held_inverse``), H = (C^T C)^-1 is held and the solve runs block
  principal pivoting on the KKT system (Kim & Park, SIAM J. Sci.
  Comput. 33(6), 2011): swap every infeasible index between the free
  and active sets at once, and when the infeasibility count stops
  improving fall back to swapping only the largest infeasible index,
  which cannot cycle on a positive definite G = C^T C (Judice & Pires,
  Comput. Oper. Res. 21(5), 1994).  Each step is a Schur-complement
  solve on the active set A alone: from the unconstrained x_u = H C^T d,
  H[A, A] y_A = -x_u[A] gives the dual y_A, and x = x_u + H[A, :]^T y_A
  (H is symmetric), so a step reads only the contiguous rows H[A, :].
  The pivoting runs in two phases.  The search takes each full swap
  with ``SEARCH_CG_STEPS`` conjugate-gradient steps on H[A, A]
  (Hestenes & Stiefel, J. Res. NBS 49, 1952), which is positive
  definite and no worse conditioned than H: the swaps need only the
  signs of x and y, and the first swaps make A far larger than the
  final one.  So the search runs in float32, on a copy of H that
  ``NnlsSystem`` holds beside it, and reads half the bytes (a low
  precision search checked in double, as in Carson & Higham, SIAM J.
  Sci. Comput. 40(2), 2018).  When a search iterate shows no
  infeasible index, or its count stops falling, the certify phase
  solves that partition again exactly (a float64 LU solve on H) and
  takes exact steps from then on, so the optimum is declared on an
  exact float64 step only.  With ``SEARCH_CG_STEPS`` = 0 every step is
  exact.
  Every step runs in units scaled by exact powers of two, so no unit
  of C and d leaves float64's range on the way: G is formed from
  C / 2^e_C, H is held as H / 2^e_H in float64 and rounded from there
  to float32 for the search, and the steps' right-hand side is
  x_u / 2^e_x, with e_C, e_H and e_x the exponents of the largest
  entries of C, H and x_u.  A step's x and y come back times the same
  exact powers of two before their signs are tested, so the scaling
  changes no bit of them where the unscaled arithmetic stays in range,
  the choice of algorithm and the steps taken do not depend on the
  units, and a solve scaled by powers of two takes the same steps.
  The residual ||C max(x, 0) - d|| is formed after the steps, not in them.
- "lawson-hanson": otherwise (fewer rows than columns, or G singular or
  too ill-conditioned), where pivoting may cycle, the Lawson-Hanson
  active-set method (Solving Least Squares Problems, 1974, ch. 23),
  which terminates on every C, with ``lstsq`` steps on the passive
  columns.

The result says which ran, and how many iterations it took: for the
Schur steps the partitions visited, the final one included (certifying
a partition is not an iteration of its own), for Lawson-Hanson its
``lstsq`` steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalFailureError
from .grid import field_values

# KKT tolerance relative to ||C^T d||_inf, the iteration limit, and the
# number of non-improving full swaps before single pivoting takes over
NNLS_KKT_RTOL = 1e-10
NNLS_MAX_ITERATIONS = 300
NNLS_BACKUP_TRIGGER = 3
# conjugate-gradient steps per full swap in the search phase; 0 makes
# every Schur step exact
SEARCH_CG_STEPS = 6

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class NnlsResult:
    """One non-negative solve.  ``free_set_solver`` names the algorithm
    that ran, "schur" or "lawson-hanson" (see the module docstring);
    ``iterations`` counts the former's partitions visited, the optimal
    one included (its certifying exact solve adds none), or the latter's
    ``lstsq`` steps.
    ``fitted`` is C x, whose distance to the data is ``residual``."""

    x: np.ndarray
    residual: float
    iterations: int
    converged: bool
    kkt_tolerance: float
    free_set_solver: str
    fitted: np.ndarray


def _held_inverse(C):
    """(2^(2 e_C) H, e_C) with H = G^-1, G = C^T C and e_C the exponent
    of C's largest entry, or None when the Schur steps should not use
    H: C has fewer rows than columns, G cannot be inverted, or the
    rounding the steps' dual can carry relative to ||C^T d||,
    eps ||G||_1 ||H||_1, exceeds the KKT tolerance.  G is formed from
    C / 2^e_C, whose entries lie below 1, so it cannot overflow; the
    test is the same at every scale of C.  G is not kept."""
    if C.shape[0] < C.shape[1]:
        return None
    e_C = math.frexp(max(C.max(), -C.min()))[1]
    scaled = np.ldexp(C, -e_C)
    G = scaled.T @ scaled
    del scaled  # not held while G is inverted
    try:
        H = np.linalg.inv(G)
    except np.linalg.LinAlgError:
        return None
    if not _EPS * np.linalg.norm(G, 1) * np.linalg.norm(H, 1) <= NNLS_KKT_RTOL:
        return None
    return H, e_C


class NnlsSystem:
    """A matrix C and what ``nnls_solve`` needs of it, formed once, so
    that solves on one C share it.

    C must be a finite 2-d matrix with at least one column; it is
    copied unless it is read-only already.  ``inverse_gram`` is the
    read-only H / 2^``search_exponent``, with H = (C^T C)^-1, that the
    exact Schur steps use, or None where the solves run Lawson-Hanson
    (``_held_inverse``); its largest entry lies in [1/2, 1), so it is
    held whatever the units of C, where H itself might not be
    representable.  ``search_gram`` is its read-only float32 rounding,
    which the search steps read (module docstring); both are None
    without H.
    """

    def __init__(self, C):
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[1] == 0:
            raise InvalidArgumentError(
                "need a 2-d matrix with at least one column, got shape %s" % (C.shape,)
            )
        if not np.all(np.isfinite(C)):
            raise InvalidArgumentError("matrix must be finite")
        if C.flags.writeable:
            C = C.copy()
            C.flags.writeable = False
        held = _held_inverse(C)
        H = H32 = exponent = None
        if held is not None:
            H, e_C = held
            # H is positive definite, so its largest entry is on the diagonal
            e_H = math.frexp(np.max(np.diagonal(H)))[1]
            exponent = e_H - 2 * e_C
            np.ldexp(H, -e_H, out=H)
            H.flags.writeable = False
            H32 = H.astype(np.float32)
            H32.flags.writeable = False
        self.matrix = C
        self.inverse_gram = H
        self.search_gram = H32
        self.search_exponent = exponent


def _cg(M, b, steps):
    """``steps`` conjugate-gradient steps on M y = b from y = 0, M
    symmetric positive definite, in the precision of M and b; fewer once
    the residual or the curvature p^T M p vanishes (in float32 a block
    of a few cells underflows both within a few steps)."""
    y = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = r @ r
    for _ in range(steps):
        if not rr > 0.0:
            break
        Mp = M @ p
        pMp = p @ Mp
        if not pMp > 0.0:
            break
        alpha = rr / pMp
        y += alpha * p
        r -= alpha * Mp
        rr, rr_old = r @ r, rr
        p = r + (rr / rr_old) * p
    return y


def _schur_step(H, x_u, free, cg_steps):
    """The iterate x and dual y of the partition whose active set is
    ~free: H[A, A] y_A = -x_u[A] solved by LU, or by ``cg_steps``
    conjugate-gradient steps where that is positive, in the precision
    of H (x and y are float64 either way)."""
    active = np.flatnonzero(~free)
    y = np.zeros(len(x_u))
    x = x_u
    if active.size:
        rows = H[active]
        block = rows.take(active, axis=1)
        b = -x_u[active].astype(H.dtype, copy=False)
        y_active = _cg(block, b, cg_steps) if cg_steps else np.linalg.solve(block, b)
        y[active] = y_active
        x = x_u + y_active @ rows
        x[active] = 0.0
    return x, y


def _infeasible(x, y, free, tol):
    """The free indices with x below -1e-12 max |x| and the active ones
    with y below -tol."""
    xtol = 1e-12 * np.max(np.abs(x))
    return (free & (x < -xtol)) | (~free & (y < -tol))


def _block_pivoting(system, d, ctd, tol, limit):
    """Block principal pivoting with Schur steps on the active rows of
    H, searching with float32 conjugate-gradient steps and certifying
    with exact float64 ones (module docstring), for at most ``limit``
    iterations; see ``nnls_solve`` for what it returns at that cap.  The
    iterates are kept, search and exact alike, and the fit C max(x, 0)
    and its residual are formed after the loop: for the last, or at the
    cap for each."""
    C, H = system.matrix, system.inverse_gram
    n = C.shape[1]
    x_u = np.ldexp(H @ ctd, system.search_exponent)
    # the steps run on x_u / 2^e_x and H / 2^e_H, so their x comes back
    # times 2^e_x and their y times 2^(e_x - e_H), both exactly
    e_x = math.frexp(np.max(np.abs(x_u)))[1]
    e_y = e_x - system.search_exponent
    x_u_scaled = np.ldexp(x_u, -e_x)
    free = np.ones(n, dtype=bool)

    def step(M, cg_steps):
        """The Schur step on the current partition, on H / 2^e_H or its
        float32 rounding M, with x and y brought back to C's units."""
        x, y = _schur_step(M, x_u_scaled, free, cg_steps)
        return np.ldexp(x, e_x), np.ldexp(y, e_y)

    x, y = x_u, np.zeros(n)
    iterates = [x]
    best_infeasible = n + 1
    slack = NNLS_BACKUP_TRIGGER
    cg_steps = SEARCH_CG_STEPS  # 0 once the search has handed over
    iterations = 0
    converged = False
    while iterations < limit:
        iterations += 1
        bad = _infeasible(x, y, free, tol)
        n_bad = int(np.count_nonzero(bad))
        if cg_steps and (n_bad == 0 or n_bad >= best_infeasible):
            # certify: solve this partition again exactly, and take
            # exact steps from here on
            cg_steps = 0
            x, y = step(H, 0)
            iterates.append(x)
            bad = _infeasible(x, y, free, tol)
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
        x, y = step(system.search_gram, cg_steps) if cg_steps else step(H, 0)
        iterates.append(x)
    # the last iterate, or at the cap the lowest-residual one (x = 0 wins ties)
    candidates = iterates[-1:] if converged else [np.zeros(n)] + iterates
    fits = [C @ np.maximum(x, 0.0) for x in candidates]
    residuals = [float(np.linalg.norm(fit - d)) for fit in fits]
    best = int(np.argmin(residuals))
    return candidates[best], fits[best], residuals[best], iterations, converged


def _lawson_hanson(C, d, ctd, tol, limit):
    """Lawson-Hanson's active-set method, one ``lstsq`` step per
    iteration, for at most ``limit`` iterations.  Every iterate is
    feasible and none raises the residual, so the last is the best."""
    n = C.shape[1]
    passive = np.zeros(n, dtype=bool)
    x = np.zeros(n)
    w = ctd  # -gradient C^T (d - C x) at x
    solved = True  # x solves the least squares on the passive columns
    iterations = 0
    converged = False
    while True:
        if solved:
            j = int(np.argmax(np.where(passive, -np.inf, w)))
            if passive[j] or w[j] <= tol:
                converged = True
                break
        if iterations == limit:
            break
        iterations += 1
        if solved:
            passive[j] = True
        z = np.zeros(n)
        z[passive] = np.linalg.lstsq(C[:, passive], d, rcond=None)[0]
        blocked = passive & (z <= 0.0)
        solved = not blocked.any()
        if solved:
            x = z
            w = C.T @ (d - C @ x)
        else:
            # step from x toward z until the first blocked entry reaches
            # zero, and leave every entry at zero out of the passive set
            steps = x[blocked] / np.maximum(x[blocked] - z[blocked], np.finfo(float).tiny)
            x = x + np.min(steps) * (z - x)
            x[np.flatnonzero(blocked)[np.argmin(steps)]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
    fit = C @ x
    return x, fit, float(np.linalg.norm(fit - d)), iterations, converged


def nnls_solve(C, d) -> NnlsResult:
    """Minimize ||C x - d|| subject to x >= 0.

    ``C`` is a matrix, or an ``NnlsSystem`` formed from it once; a
    matrix is made into one here.  Returns the solution with x clamped
    exactly non-negative.  The iteration limit is NNLS_MAX_ITERATIONS;
    Lawson-Hanson, which moves one column per iteration and so needs at
    least as many as x has positive entries, gets 3 per column where
    that is more (``scipy.optimize.nnls``'s limit).  If the limit is
    hit, the iterate x (x = 0 included) with the lowest
    ||C max(x, 0) - d|| is returned, clamped, with ``converged`` False
    rather than raising.  A residual that is not finite (data too large
    for float64) raises ``NumericalFailureError``.
    """
    system = C if isinstance(C, NnlsSystem) else NnlsSystem(C)
    C = system.matrix
    d = field_values(d, C.shape[0], "data vector")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below, not warned
        ctd = C.T @ d
        tol = NNLS_KKT_RTOL * max(np.max(np.abs(ctd)), np.finfo(float).tiny)
        if system.inverse_gram is None:
            limit = max(NNLS_MAX_ITERATIONS, 3 * C.shape[1])
            x, fit, residual, iterations, converged = _lawson_hanson(C, d, ctd, tol, limit)
            solver = "lawson-hanson"
        else:
            x, fit, residual, iterations, converged = _block_pivoting(
                system, d, ctd, tol, NNLS_MAX_ITERATIONS
            )
            solver = "schur"
    if not np.isfinite(residual):
        raise NumericalFailureError("NNLS residual %r on data up to %g" % (residual, abs(d).max()))
    return NnlsResult(np.maximum(x, 0.0), residual, iterations, converged, float(tol), solver, fit)
