"""Influence matrix assembly, pseudo-inversion, and disk caching.

The influence matrix C maps normal node tractions Q to effective normal
displacements D = C Q: one row per sensing node and one column per
traction node, since a capacitive taxel senses only the normal
compression of the cover.  Assembly runs one loop over the rows
(x, y, a, b) of the sensing grid's (n, 4) cell array: each fills its
matrix row from the chosen model's per-pair kernel, called with Python
floats once per traction cell, so the cost scales with the pair count.

Inversion uses a truncated singular value decomposition (the matrix is
dense and modest in size; sparsity is not worth chasing at desk scale).
Assembled matrices and inverse operators can be cached on disk, keyed
by an exact hash of everything that determines their entries, including
the bytes of both grids' cell arrays.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import boussinesq, love
from .errors import InvalidArgumentError, NumericalFailureError, UnsupportedModelError
from .grid import FieldVector, Grid

logger = logging.getLogger(__name__)

MODELS = ("bc", "love")

DEFAULT_SVD_RTOL = 1e-10

# Module-level instrumentation: how many assemblies and factorizations
# actually ran (cache hits must not bump these).
_counters = {"assemblies": 0, "factorizations": 0}


def counters() -> dict:
    return dict(_counters)


def reset_counters() -> None:
    for k in _counters:
        _counters[k] = 0


@dataclass(frozen=True)
class InfluenceMatrix:
    """Normal tractions to normal displacements: one row per sensing node,
    one column per traction node."""

    # the only shape there is; kept readable for callers that key on it
    normal_only: ClassVar[bool] = True

    entries: np.ndarray
    model: str
    psi_mode: str
    tract_grid: Grid
    disp_grid: Grid
    params: object
    assembly_seconds: float = 0.0


@dataclass(frozen=True)
class InverseOperator:
    """Moore-Penrose pseudo-inverse of an influence matrix."""

    pinv: np.ndarray
    rank: int
    singular_values: np.ndarray


def _validate(model: str, psi_mode: str, params) -> None:
    if model not in MODELS:
        raise UnsupportedModelError("model must be one of %s, got %r" % (MODELS, model))
    if psi_mode not in boussinesq.PSI_MODES:
        raise InvalidArgumentError(
            "psi mode must be one of %s, got %r" % (boussinesq.PSI_MODES, psi_mode)
        )
    if model == "bc":
        boussinesq.require_incompressible(params.poisson_ratio)


def assemble(
    model: str,
    tract_grid: Grid,
    disp_grid: Grid,
    params,
    psi_mode: str = "const",
) -> InfluenceMatrix:
    """Assemble the influence matrix node pair by node pair.

    The cover thickness entering the effective displacement is the
    nominal thickness h_n; per-reading compressed thicknesses only enter
    the capacitance conversion, not the elastic operator.
    """
    _validate(model, psi_mode, params)
    h = params.nominal_thickness
    E = params.young_modulus
    nu = params.poisson_ratio
    # kernel(x, y, a, b): the normal-normal coefficient of one pair
    if model == "bc":
        kernel = lambda x, y, a, b: boussinesq.bc_resolved_zz(x, y, 4.0 * a * b, h, E, psi_mode)
    else:
        kernel = lambda x, y, a, b: love.love_effective_zz(x, y, a, b, h, E, nu)
    tract = tract_grid.cells.tolist()
    disp = disp_grid.cells.tolist()
    entries = np.empty((len(disp), len(tract)))
    t0 = time.perf_counter()
    for k, (xk, yk, _, _) in enumerate(disp):
        entries[k] = [kernel(xk - x, yk - y, a, b) for x, y, a, b in tract]
    dt = time.perf_counter() - t0
    _counters["assemblies"] += 1
    return InfluenceMatrix(entries, model, psi_mode, tract_grid, disp_grid, params, dt)


def precompute_inverse(mat: InfluenceMatrix) -> InverseOperator:
    """Truncated-SVD pseudo-inverse of the influence matrix.

    Singular values below DEFAULT_SVD_RTOL times the largest are dropped.
    """
    try:
        u, s, vt = np.linalg.svd(mat.entries, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("singular value decomposition failed: %s" % exc) from exc
    _counters["factorizations"] += 1
    cutoff = DEFAULT_SVD_RTOL * (s[0] if len(s) else 0.0)
    keep = s > cutoff
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    pinv = (vt.T * inv_s) @ u.T
    return InverseOperator(pinv, rank, s)


def apply_forward(mat: InfluenceMatrix, q) -> np.ndarray:
    qv = q.values if isinstance(q, FieldVector) else np.asarray(q, dtype=float)
    if qv.shape != (mat.entries.shape[1],):
        raise InvalidArgumentError(
            "traction vector length %d does not match matrix width %d"
            % (len(qv), mat.entries.shape[1])
        )
    if not np.all(np.isfinite(qv)):
        raise InvalidArgumentError("traction vector must be finite")
    return mat.entries @ qv


def apply_inverse(op: InverseOperator, d) -> np.ndarray:
    dv = d.values if isinstance(d, FieldVector) else np.asarray(d, dtype=float)
    if dv.shape != (op.pinv.shape[1],):
        raise InvalidArgumentError(
            "displacement vector length %d does not match matrix height %d"
            % (len(dv), op.pinv.shape[1])
        )
    if not np.all(np.isfinite(dv)):
        raise InvalidArgumentError("displacement vector must be finite")
    return op.pinv @ dv


def _grid_digest(h, grid: Grid) -> None:
    h.update(grid.kind.encode())
    h.update(grid.cells.tobytes())


def matrix_key(
    model: str,
    tract_grid: Grid,
    disp_grid: Grid,
    params,
    normal_only: bool,
    psi_mode: str,
) -> str:
    """Exact content hash: any bit difference in the inputs changes it.

    Every matrix is normal-only (``InfluenceMatrix.normal_only``); the
    flag still enters the hash so that keys, and the cache entries saved
    under them, stay what they have always been.
    """
    h = hashlib.sha256()
    h.update(model.encode())
    h.update(b"\x01" if normal_only else b"\x00")
    h.update(psi_mode.encode())
    _grid_digest(h, tract_grid)
    _grid_digest(h, disp_grid)
    pbytes = np.array(
        [
            params.young_modulus,
            params.poisson_ratio,
            params.nominal_thickness,
        ]
    ).tobytes()
    h.update(pbytes)
    return h.hexdigest()


def _replace_atomically(path: str, mode: str, write) -> None:
    """Run ``write(fh)`` on a temporary file beside ``path``, then rename it
    into place: a concurrent reader sees no file or a whole one, never a
    partial write, and a failed write leaves nothing behind."""
    tmp = "%s.%d-%d.tmp" % (path, os.getpid(), threading.get_ident())
    try:
        with open(tmp, mode) as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.unlink(tmp)


def save_matrix(mat: InfluenceMatrix, cache_dir) -> str:
    """Store entries plus a header describing exactly what they are.

    Each file is written whole before it appears under its name, the
    entries before the header, so an entry is complete once its header
    exists.
    """
    os.makedirs(cache_dir, exist_ok=True)
    key = matrix_key(mat.model, mat.tract_grid, mat.disp_grid, mat.params, True, mat.psi_mode)
    _replace_atomically(
        os.path.join(cache_dir, key + ".npy"), "wb", lambda fh: np.save(fh, mat.entries)
    )
    header = {
        "key": key,
        "model": mat.model,
        "psi_mode": mat.psi_mode,
        "shape": list(mat.entries.shape),
    }
    _replace_atomically(
        os.path.join(cache_dir, key + ".json"), "w", lambda fh: json.dump(header, fh, indent=1)
    )
    return key


def load_matrix(
    cache_dir,
    model: str,
    tract_grid: Grid,
    disp_grid: Grid,
    params,
    psi_mode: str = "const",
) -> InfluenceMatrix | None:
    """Cached matrix for exactly these inputs, or None.

    A present-but-unreadable or inconsistent cache entry is treated as a
    miss with a warning, so callers fall back to re-assembly.
    """
    key = matrix_key(model, tract_grid, disp_grid, params, True, psi_mode)
    npy = os.path.join(cache_dir, key + ".npy")
    hdr = os.path.join(cache_dir, key + ".json")
    if not (os.path.exists(npy) and os.path.exists(hdr)):
        return None
    try:
        with open(hdr) as fh:
            header = json.load(fh)
        entries = np.load(npy)
    except (OSError, ValueError, EOFError) as exc:
        # EOFError: an empty .npy, as a plain writer leaves it right after opening it
        logger.warning("unreadable cache entry %s (%s); re-assembling", key, exc)
        return None
    if (
        not isinstance(header, dict)
        or header.get("model") != model
        or header.get("psi_mode") != psi_mode
        or entries.shape != (len(disp_grid), len(tract_grid))
    ):
        logger.warning("cache entry %s does not match its request; re-assembling", key)
        return None
    return InfluenceMatrix(entries, model, psi_mode, tract_grid, disp_grid, params, 0.0)
