"""Influence matrix assembly, pseudo-inversion, and disk caching.

The influence matrix C maps normal cell pressures Q (Pa) to effective
normal displacements D = C Q: one row per sensing node and one column
per traction cell, since a capacitive taxel senses only the normal
compression of the cover.  Both models give each column per unit
pressure; ``bc`` lumps a cell's pressure p into the point force p A at
its center, so its per-unit-force kernel is scaled by the area A = 4ab.
Assembly walks the node pairs in row-major order in blocks of
BLOCK_PAIRS, and a block may end in the middle of a row.  The traction
columns and the row each pair falls in are laid out once, continued
cyclically, so a block's cells are one slice of each and its nodes a
``take`` of its rows' slice of the node coordinates: no per-block index
arithmetic.  Each block calls the chosen model's array kernel once on
the pairs' offsets and half-extents, and writes the result, times each
cell's factor (A for ``bc``, 1 for ``love``), straight into the
matrix.  The cost scales with the pair count, and the memory beyond
the matrix is that of one block and of the cyclic columns, whatever
the grid sizes.  Every kernel is proportional to 1/E, so a modulus
small enough to overflow it gives a non-finite C, which is a
``NumericalFailureError`` naming the modulus.

Inversion uses a truncated singular value decomposition (the matrix is
dense and modest in size; sparsity is not worth chasing at desk scale).

Assembled matrices and their inverse operators can be cached on disk,
one file of float64 ``np.save`` records per entry, named by an exact
hash of everything that determines its contents and renamed into place
once whole.  ``<key>.npy`` is C as plain NumPy, keyed by the model, psi
mode, material constants and the bytes of both grids' cell arrays.
``<key>.pinv`` is the pseudo-inverse, then the singular values, keyed by
C's key plus the SVD cutoff, so a warm cache factorizes nothing.  An
entry of the wrong shape or dtype, or holding a NaN or inf, is a miss.
A cache written when each ``.npy`` had a JSON header beside it still
hits; versions that wrote the header re-assemble entries written
without one.  ``bc`` entries written when its columns were per unit
force have other keys, so they are re-assembled, never read as
pressures.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import threading
import time
import zipfile
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import boussinesq, love
from .errors import InvalidArgumentError, NumericalFailureError, UnsupportedModelError
from .errors import check_choice
from .grid import Grid, field_values

logger = logging.getLogger(__name__)

MODELS = ("bc", "love")

# How the bc model resolves a node on the loaded axis; love takes "const" only.
PSI_MODES = boussinesq.PSI_MODES

DEFAULT_SVD_RTOL = 1e-10

# Node pairs per kernel call.  Small enough that a block's temporaries
# stay in cache and cost well under a MiB; large enough that NumPy's
# fixed cost per call is a small share of a block.  A matrix of fewer
# pairs than a block still pays a whole block's fixed cost, so a larger
# block flattens the quadratic growth that ``pipeline.benchmark`` fits.
BLOCK_PAIRS = 1024

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
    """Normal cell pressures to normal displacements: one row per sensing
    node, one column per traction cell."""

    # the only shape there is; kept readable for callers that key on it
    normal_only: ClassVar[bool] = True

    entries: np.ndarray
    model: str
    psi_mode: str
    tract_grid: Grid
    disp_grid: Grid
    params: object
    assembly_seconds: float


@dataclass(frozen=True)
class InverseOperator:
    """Moore-Penrose pseudo-inverse of an influence matrix."""

    pinv: np.ndarray
    rank: int
    singular_values: np.ndarray


def _validate(model: str, psi_mode: str, params) -> None:
    if model not in MODELS:
        raise UnsupportedModelError("model must be one of %s, got %r" % (MODELS, model))
    check_choice("psi mode", psi_mode, PSI_MODES)
    if model == "bc":
        boussinesq.require_incompressible(params.poisson_ratio)
    elif psi_mode != "const":
        raise InvalidArgumentError("psi mode applies to the bc model only, got %r" % psi_mode)


def assemble(
    model: str,
    tract_grid: Grid,
    disp_grid: Grid,
    params,
    psi_mode: str = "const",
) -> InfluenceMatrix:
    """Assemble the influence matrix in blocks of BLOCK_PAIRS node pairs.

    Entry (k, l) is the effective normal displacement at sensing node k
    per unit pressure on traction cell l, for either model.

    The cover thickness entering the effective displacement is the
    nominal thickness h_n; per-reading compressed thicknesses only enter
    the capacitance conversion, not the elastic operator.  A modulus so
    small that C overflows is a NumericalFailureError.
    """
    _validate(model, psi_mode, params)
    h = params.nominal_thickness
    E = params.young_modulus
    # kernel(x, y, a, b): the normal-normal coefficient of one pair
    if model == "bc":
        kernel = boussinesq.bc_zz_kernel(h, E, psi_mode)
    else:
        kernel = love.love_zz_kernel(h, E, params.poisson_ratio)
    n_tract = len(tract_grid)
    # per unit force to per unit pressure: bc's kernel times the cell area
    factor = tract_grid.areas() if model == "bc" else np.ones(n_tract)
    # the traction columns continued cyclically, so that the cells of any
    # block of pairs are one slice, however many rows the block spans
    tract = [np.resize(col, n_tract + BLOCK_PAIRS) for col in (*tract_grid.cells.T, factor)]
    # and the rows they fall in: pair r * n_tract + j is on node r + row[j]
    row = np.arange(n_tract + BLOCK_PAIRS) // n_tract
    node_x, node_y = disp_grid.cells[:, :2].T.copy()
    entries = np.empty((len(disp_grid), n_tract))
    flat = entries.reshape(-1)  # pair i is sensing node i // n_tract, cell i % n_tract
    # a modulus so small that 1/E overflows makes C non-finite: that is
    # raised below, so numpy's warnings about it are not printed
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = time.perf_counter()
        for start in range(0, flat.size, BLOCK_PAIRS):
            stop = min(start + BLOCK_PAIRS, flat.size)
            r, j = divmod(start, n_tract)
            block = slice(j, j + stop - start)
            x, y, a, b, f = (col[block] for col in tract)
            on = row[block]
            dx, dy = node_x[r:].take(on) - x, node_y[r:].take(on) - y
            np.multiply(kernel(dx, dy, a, b), f, out=flat[start:stop])
        dt = time.perf_counter() - t0
    if not np.isfinite(entries).all():
        raise NumericalFailureError(
            "the %s influence matrix is not finite at young modulus %g" % (model, E)
        )
    _counters["assemblies"] += 1
    return InfluenceMatrix(entries, model, psi_mode, tract_grid, disp_grid, params, dt)


def _kept(s: np.ndarray) -> np.ndarray:
    """Which of the descending singular values ``s`` the truncation keeps:
    those above DEFAULT_SVD_RTOL times the largest."""
    return s > DEFAULT_SVD_RTOL * (s[0] if len(s) else 0.0)


def precompute_inverse(mat: InfluenceMatrix) -> InverseOperator:
    """Truncated-SVD pseudo-inverse of the influence matrix.

    Singular values below DEFAULT_SVD_RTOL times the largest are dropped.
    """
    try:
        u, s, vt = np.linalg.svd(mat.entries, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("singular value decomposition failed: %s" % exc) from exc
    _counters["factorizations"] += 1
    keep = _kept(s)
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    pinv = (vt.T * inv_s) @ u.T
    return InverseOperator(pinv, int(np.count_nonzero(keep)), s)


def apply_forward(mat: InfluenceMatrix, q) -> np.ndarray:
    return mat.entries @ field_values(q, mat.entries.shape[1], "traction vector")


def apply_inverse(op: InverseOperator, d) -> np.ndarray:
    return op.pinv @ field_values(d, op.pinv.shape[1], "displacement vector")


@functools.lru_cache(maxsize=32)
def _digest(model, flag, psi_mode, tract_grid, disp_grid, pbytes) -> str:
    """The sha256 key of ``matrix_key``'s validated inputs."""
    h = hashlib.sha256()
    h.update(model.encode())
    h.update(flag)
    h.update(psi_mode.encode())
    if model == "bc":
        h.update(b"per unit pressure")
    for grid in (tract_grid, disp_grid):
        h.update(grid.kind.encode())
        h.update(grid.cells.tobytes())
    h.update(pbytes)
    return h.hexdigest()


def matrix_key(
    model: str,
    tract_grid: Grid,
    disp_grid: Grid,
    params,
    normal_only: bool,
    psi_mode: str,
) -> str:
    """Exact content hash: any bit difference in the inputs changes it.

    Inputs ``assemble`` rejects are rejected here the same way, so only
    a matrix that can exist has a key.  Every matrix is normal-only
    (``InfluenceMatrix.normal_only``); the flag still enters the hash so
    that keys, and the cache entries saved under them, stay what they
    have always been.  ``bc`` also hashes a tag, so entries saved when
    its columns were per unit force miss.

    The hash of the last 32 distinct inputs is memoized, so a stream of
    frames on the same grids hashes their cells once.  Grids are keyed
    by identity, which is sound because a ``Grid`` is immutable and its
    cells read-only; the material constants by the exact bytes that
    enter the hash, so 0.0 and -0.0 get different keys.  The memo holds
    its grids until they are evicted.
    """
    _validate(model, psi_mode, params)
    flag = b"\x01" if normal_only else b"\x00"
    pbytes = np.array(
        [
            params.young_modulus,
            params.poisson_ratio,
            params.nominal_thickness,
        ]
    ).tobytes()
    return _digest(model, flag, psi_mode, tract_grid, disp_grid, pbytes)


def _key_of(mat: InfluenceMatrix) -> str:
    return matrix_key(mat.model, mat.tract_grid, mat.disp_grid, mat.params, True, mat.psi_mode)


def inverse_key(mat: InfluenceMatrix) -> str:
    """Key of the truncated-SVD inverse of ``mat``: its matrix key plus the
    cutoff DEFAULT_SVD_RTOL, which decides the rank and so the entries."""
    h = hashlib.sha256()
    h.update(_key_of(mat).encode())
    h.update(b"pinv")
    h.update(np.float64(DEFAULT_SVD_RTOL).tobytes())
    return h.hexdigest()


def _replace_atomically(path: str, write) -> None:
    """Run ``write(fh)`` on a temporary binary file beside ``path``, then
    rename it into place: a concurrent reader sees no file or a whole one,
    never a partial write, and a failed write leaves nothing behind."""
    tmp = "%s.%d-%d.tmp" % (path, os.getpid(), threading.get_ident())
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write or the rename failed
            os.unlink(tmp)


# What reading a damaged entry raises.  EOFError: an empty file, as a
# plain writer leaves it right after opening it; BadZipFile: bytes that
# begin like a zip archive, which np.load opens as one.
_UNREADABLE = (OSError, ValueError, EOFError, zipfile.BadZipFile)


def _write_entry(cache_dir, key: str, suffix: str, arrays) -> str:
    """Store ``arrays`` one after another with np.save in ``<key><suffix>``."""
    os.makedirs(cache_dir, exist_ok=True)

    def write(fh):
        for a in arrays:
            np.save(fh, a)

    _replace_atomically(os.path.join(cache_dir, key + suffix), write)
    return key


def _read_entry(cache_dir, key: str, suffix: str, shapes, fallback: str) -> list | None:
    """The float64 arrays of ``shapes`` stored in ``<key><suffix>``, or None.

    An absent entry is a plain miss.  An unreadable one, one whose
    arrays differ from ``shapes`` in shape or dtype (damaged, or written
    by something else), or one holding a NaN or inf, is a miss with a
    warning naming ``fallback``.
    """
    try:
        with open(os.path.join(cache_dir, key + suffix), "rb") as fh:
            arrays = [np.load(fh) for _ in shapes]
    except (FileNotFoundError, NotADirectoryError):  # no such entry
        return None
    except _UNREADABLE as exc:
        logger.warning("unreadable cache entry %s%s (%s); %s", key, suffix, exc, fallback)
        return None
    for a, shape in zip(arrays, shapes):
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape):
            logger.warning("cache entry %s%s does not match its request; %s", key, suffix, fallback)
            return None
        if not np.all(np.isfinite(a)):
            logger.warning("cache entry %s%s holds non-finite values; %s", key, suffix, fallback)
            return None
    return arrays


def save_matrix(mat: InfluenceMatrix, cache_dir) -> str:
    """Store the entries as ``<key>.npy``, a plain NumPy file of C."""
    return _write_entry(cache_dir, _key_of(mat), ".npy", [mat.entries])


def load_matrix(
    cache_dir,
    model: str,
    tract_grid: Grid,
    disp_grid: Grid,
    params,
    psi_mode: str = "const",
) -> InfluenceMatrix | None:
    """Cached matrix for exactly these inputs, or None.

    Inputs ``assemble`` rejects are rejected here the same way.  A
    present-but-unreadable or mismatched cache entry is treated as a
    miss with a warning, so callers fall back to re-assembly.
    """
    key = matrix_key(model, tract_grid, disp_grid, params, True, psi_mode)
    shape = (len(disp_grid), len(tract_grid))
    found = _read_entry(cache_dir, key, ".npy", [shape], "re-assembling")
    if found is None:
        return None
    return InfluenceMatrix(found[0], model, psi_mode, tract_grid, disp_grid, params, 0.0)


def save_inverse(op: InverseOperator, mat: InfluenceMatrix, cache_dir) -> str:
    """Store the inverse operator of ``mat`` as ``<inverse_key(mat)>.pinv``:
    the pseudo-inverse, then the singular values."""
    return _write_entry(cache_dir, inverse_key(mat), ".pinv", [op.pinv, op.singular_values])


def load_inverse(cache_dir, mat: InfluenceMatrix) -> InverseOperator | None:
    """Cached inverse operator of ``mat``, or None.

    The rank is recomputed from the stored singular values by the cutoff
    ``precompute_inverse`` applies.  A present-but-unreadable or mismatched
    entry is a miss with a warning, so callers fall back to factorizing.
    """
    n_disp, n_tract = mat.entries.shape
    shapes = [(n_tract, n_disp), (min(n_disp, n_tract),)]
    found = _read_entry(cache_dir, inverse_key(mat), ".pinv", shapes, "re-factorizing")
    if found is None:
        return None
    pinv, s = found
    return InverseOperator(pinv, int(np.count_nonzero(_kept(s))), s)
