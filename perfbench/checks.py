"""Output checks that do not depend on the algorithm under test.

Each check returns None when the output is correct and a one-line reason
when it is not.  The matrices passed in are the ones the benchmark
assembled itself, never ones the program handed back.
"""

from __future__ import annotations

import numpy as np

FREE_RESIDUAL_RTOL = 1e-8
RESAMPLE_RTOL = 1e-12

# The KKT certificate uses the solver's own tolerance, NNLS_KKT_RTOL *
# ||C^T d||_inf, times this slack: the benchmark recomputes the gradient
# in its own order of operations, after the solver clamped x to >= 0.
# Measured gradients sit near 1e-5 of the unslackened tolerance.
KKT_SLACK = 10.0


def _rel(err: float, ref: float) -> float:
    return err / ref if ref > 0.0 else err


def check_free(C, d, q, R=None, field=None):
    """Unconstrained solve: ||C q - d|| <= 1e-8 ||d||; resample equals R q."""
    q = np.asarray(q, dtype=float)
    if q.shape != (C.shape[1],) or not np.all(np.isfinite(q)):
        return "tractions have shape %s or non-finite entries" % (q.shape,)
    res = _rel(np.linalg.norm(C @ q - d), np.linalg.norm(d))
    if not res <= FREE_RESIDUAL_RTOL:
        return "relative residual %.3e exceeds %.0e" % (res, FREE_RESIDUAL_RTOL)
    if R is not None:
        want = R @ q
        err = _rel(np.linalg.norm(np.asarray(field) - want), np.linalg.norm(want))
        if not err <= RESAMPLE_RTOL:
            return "resampled field differs from R q by %.3e relative" % err
    return None


def check_kkt(C, d, q, converged, kkt_rtol):
    """Non-negative solve: a KKT certificate for min ||C q - d||, q >= 0."""
    q = np.asarray(q, dtype=float)
    if q.shape != (C.shape[1],) or not np.all(np.isfinite(q)):
        return "tractions have shape %s or non-finite entries" % (q.shape,)
    if not converged:
        return "solver reports no convergence"
    if np.any(q < 0.0):
        return "negative traction %.3e" % float(np.min(q))
    tol = KKT_SLACK * kkt_rtol * max(float(np.max(np.abs(C.T @ d))), np.finfo(float).tiny)
    g = C.T @ (C @ q - d)
    if np.any(g < -tol):
        return "gradient %.3e below -tol %.3e off the support" % (float(np.min(g)), tol)
    supp = q > 0.0
    if np.any(np.abs(g[supp]) > tol):
        return "gradient %.3e exceeds tol %.3e on the support" % (
            float(np.max(np.abs(g[supp]))), tol)
    return None

