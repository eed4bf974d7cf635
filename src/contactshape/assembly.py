"""Influence matrix assembly, pseudo-inversion, and disk caching.

The influence matrix C maps node tractions Q to effective displacements
D = C Q.  Assembly runs one loop over the sensing nodes: each fills its
row (or, for all force components, its block of three rows) from the
chosen model's per-pair kernel, called once per traction node, so the
cost scales with the pair count.

Inversion uses a truncated singular value decomposition (the matrix is
dense and modest in size; sparsity is not worth chasing at desk scale).
Assembled matrices and inverse operators can be cached on disk, keyed
by an exact hash of everything that determines their entries.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import dataclass

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
    entries: np.ndarray
    model: str
    normal_only: bool
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


def _shape(model: str, normal_only: bool, n_disp: int, n_tract: int) -> tuple[int, int]:
    """(rows, columns): with all force components, three rows per sensing
    node, and three columns per traction node for bc (love cells carry
    a normal pressure only)."""
    if normal_only:
        return n_disp, n_tract
    return 3 * n_disp, (1 if model == "love" else 3) * n_tract


def assemble(
    model: str,
    tract_grid: Grid,
    disp_grid: Grid,
    params,
    normal_only: bool = True,
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
    # kernel(x, y, cell) of one pair: a float, a 3-vector (love) or a
    # 3x3 block (bc) per traction cell
    if model == "bc":
        bc_kernel = boussinesq.bc_resolved_zz if normal_only else boussinesq.bc_resolved_block
        kernel = lambda x, y, cl: bc_kernel(x, y, cl.area, h, E, psi_mode)
    elif normal_only:
        kernel = lambda x, y, cl: love.love_effective_zz(x, y, cl.a, cl.b, h, E, nu)
    else:
        kernel = lambda x, y, cl: love.love_effective_column((x, y), (cl.a, cl.b), h, params)
    n_tract = len(tract_grid)
    rows, cols = _shape(model, normal_only, len(disp_grid), n_tract)
    per_node = 1 if normal_only else 3
    entries = np.empty((rows, cols))
    t0 = time.perf_counter()
    for k, ck in enumerate(disp_grid.cells):
        row = [kernel(ck.x - cl.x, ck.y - cl.y, cl) for cl in tract_grid.cells]
        # pair l fills columns l*c to l*c + c - 1 of the node's rows (c = 3 for bc blocks, else 1)
        entries[per_node * k : per_node * (k + 1)] = (
            np.asarray(row).reshape(n_tract, per_node, -1).swapaxes(0, 1).reshape(per_node, -1)
        )
    dt = time.perf_counter() - t0
    _counters["assemblies"] += 1
    return InfluenceMatrix(
        entries, model, normal_only, psi_mode, tract_grid, disp_grid, params, dt
    )


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
    return mat.entries @ qv


def apply_inverse(op: InverseOperator, d) -> np.ndarray:
    dv = d.values if isinstance(d, FieldVector) else np.asarray(d, dtype=float)
    if dv.shape != (op.pinv.shape[1],):
        raise InvalidArgumentError(
            "displacement vector length %d does not match matrix height %d"
            % (len(dv), op.pinv.shape[1])
        )
    return op.pinv @ dv


def _grid_digest(h, grid: Grid) -> None:
    h.update(grid.kind.encode())
    arr = np.array([(c.x, c.y, c.a, c.b) for c in grid.cells])
    h.update(arr.tobytes())


def matrix_key(
    model: str,
    tract_grid: Grid,
    disp_grid: Grid,
    params,
    normal_only: bool,
    psi_mode: str,
) -> str:
    """Exact content hash: any bit difference in the inputs changes it."""
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


def save_matrix(mat: InfluenceMatrix, cache_dir) -> str:
    """Store entries plus a header describing exactly what they are."""
    import os

    os.makedirs(cache_dir, exist_ok=True)
    key = matrix_key(
        mat.model, mat.tract_grid, mat.disp_grid, mat.params, mat.normal_only, mat.psi_mode
    )
    np.save(os.path.join(cache_dir, key + ".npy"), mat.entries)
    header = {
        "key": key,
        "model": mat.model,
        "normal_only": mat.normal_only,
        "psi_mode": mat.psi_mode,
        "shape": list(mat.entries.shape),
    }
    with open(os.path.join(cache_dir, key + ".json"), "w") as fh:
        json.dump(header, fh, indent=1)
    return key


def load_matrix(
    cache_dir,
    model: str,
    tract_grid: Grid,
    disp_grid: Grid,
    params,
    normal_only: bool = True,
    psi_mode: str = "const",
) -> InfluenceMatrix | None:
    """Cached matrix for exactly these inputs, or None.

    A present-but-inconsistent cache entry is treated as a miss with a
    warning, so callers fall back to re-assembly.
    """
    import os

    key = matrix_key(model, tract_grid, disp_grid, params, normal_only, psi_mode)
    npy = os.path.join(cache_dir, key + ".npy")
    hdr = os.path.join(cache_dir, key + ".json")
    if not (os.path.exists(npy) and os.path.exists(hdr)):
        return None
    try:
        with open(hdr) as fh:
            header = json.load(fh)
        entries = np.load(npy)
    except (OSError, ValueError) as exc:
        logger.warning("unreadable cache entry %s (%s); re-assembling", key, exc)
        return None
    if (
        header.get("model") != model
        or header.get("normal_only") != normal_only
        or header.get("psi_mode") != psi_mode
        or entries.shape != _shape(model, normal_only, len(disp_grid), len(tract_grid))
    ):
        logger.warning("cache entry %s does not match its request; re-assembling", key)
        return None
    return InfluenceMatrix(
        entries, model, normal_only, psi_mode, tract_grid, disp_grid, params, 0.0
    )
