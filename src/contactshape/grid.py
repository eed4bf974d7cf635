"""Planar grids of rectangular cells and fields sampled on them.

A grid discretizes one face of the elastomer layer: either the traction
side (where contact pressure acts) or the displacement side (where taxel
centers sit).  Cells are axis-aligned rectangles, and a grid stores them
as one read-only (n, 4) float64 array with one row (x, y, a, b) per
cell: the center and the two half-extents.  All positions and extents
are in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContactShapeError, InvalidArgumentError, check_choice, check_count
from .errors import check_positive

# Two cell centers closer than this are considered the same physical taxel.
DUPLICATE_CENTER_TOL = 1e-9

# Center pairs per block of the duplicate check: 16 MiB at 32 bytes a pair.
DUPLICATE_CHECK_PAIRS = 1 << 19

GRID_HEADER = "index,center_x_m,center_y_m,half_extent_a_m,half_extent_b_m"

KINDS = ("traction", "displacement")


@dataclass(frozen=True, eq=False)
class Grid:
    """Cells as a read-only (n, 4) array of rows (x, y, a, b), with a side tag.

    The array is copied and validated once, on construction: n >= 1,
    every value finite, every half-extent positive.  It cannot be written
    afterwards, so the geometry a cache key was hashed from stays the
    geometry of the grid.  No layout is assumed: a lattice, a staggered
    module and scattered taxels are all just rows.  Grids compare by
    identity.
    """

    cells: np.ndarray
    kind: str = "traction"

    def __post_init__(self):
        check_choice("grid kind", self.kind, KINDS)
        cells = np.array(self.cells, dtype=np.float64, order="C")
        if cells.ndim != 2 or cells.shape[1] != 4 or len(cells) == 0:
            raise InvalidArgumentError("grid needs a non-empty (n, 4) array of cells")
        ok = np.isfinite(cells).all(axis=1) & (cells[:, 2] > 0.0) & (cells[:, 3] > 0.0)
        if not ok.all():
            k = int(np.argmin(ok))
            raise InvalidArgumentError(
                "cell %d: center and half-extents must be finite and the half-extents "
                "positive, got %r" % (k, tuple(cells[k].tolist()))
            )
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    def __len__(self) -> int:
        return len(self.cells)

    def centers(self) -> np.ndarray:
        """(n, 2) read-only view of the cell centers."""
        return self.cells[:, :2]

    def areas(self) -> np.ndarray:
        return 4.0 * self.cells[:, 2] * self.cells[:, 3]

    def retag(self, kind: str) -> "Grid":
        """Same geometry under a different side tag."""
        return Grid(self.cells, kind)


def build_regular_grid(
    origin: tuple[float, float],
    nx: int,
    ny: int,
    dx: float,
    dy: float,
    kind: str = "traction",
) -> Grid:
    """Regular nx-by-ny grid of touching cells, row-major (x fastest).

    Cell (i, j) has its center at origin + ((i + 1/2) dx, (j + 1/2) dy)
    and half-extents (dx/2, dy/2).
    """
    check_count("nx", nx)  # a zero count leaves no cells, which Grid refuses
    check_count("ny", ny)
    check_positive("cell pitch dx", dx)
    check_positive("cell pitch dy", dy)
    x, y = np.meshgrid(
        float(origin[0]) + (np.arange(nx) + 0.5) * dx,
        float(origin[1]) + (np.arange(ny) + 0.5) * dy,
    )
    n = nx * ny
    cells = np.column_stack((x.ravel(), y.ravel(), np.full(n, 0.5 * dx), np.full(n, 0.5 * dy)))
    return Grid(cells, kind)


def grid_from_taxel_layout(
    centers,
    cell_area: float,
    kind: str = "displacement",
) -> Grid:
    """Grid of equal square cells centered on measured taxel positions.

    Taxel cells are taken to be disjoint squares of the given area.  Two
    centers closer than 1e-9 m are rejected as a duplicated taxel, found
    a block of center pairs at a time so that a large skin fits memory.
    """
    pts = np.asarray(centers, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise InvalidArgumentError("centers must be a non-empty (n, 2) array")
    check_positive("cell_area", cell_area)
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("taxel centers must be finite")
    rows = max(1, DUPLICATE_CHECK_PAIRS // len(pts))
    for s in range(0, len(pts), rows):
        # rows s.. against columns s.. hold every pair k < l with k in the block
        dx, dy = (np.subtract.outer(pts[s : s + rows, i], pts[s:, i]) for i in (0, 1))
        d2 = dx * dx + dy * dy
        np.fill_diagonal(d2, np.inf)
        k, l = np.unravel_index(np.argmin(d2), d2.shape)
        if d2[k, l] < DUPLICATE_CENTER_TOL**2:
            raise InvalidArgumentError(
                "taxel centers %d and %d coincide within %g m" % (s + k, s + l, DUPLICATE_CENTER_TOL)
            )
    half = np.full(len(pts), 0.5 * math.sqrt(cell_area))
    return Grid(np.column_stack((pts, half, half)), kind)


def save_grid(grid: Grid, path) -> None:
    """Write one line per cell; floats use repr so reading restores bits."""
    lines = [GRID_HEADER]
    for i, (x, y, a, b) in enumerate(grid.cells.tolist()):
        lines.append("%d,%r,%r,%r,%r" % (i, x, y, a, b))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_records(path, what: str, header, sep, widths, parse) -> list:
    """``parse(fields)`` for each record of the ``what`` text file at ``path``.

    A record is a non-blank line, stripped and split by ``sep`` (None:
    runs of whitespace).  With a ``header``, the first non-blank line
    must be it and the records follow it.  A file that cannot be read
    raises OSError.  Bytes that are not UTF-8 text, a missing header, a
    record whose field count is not in ``widths`` and a record ``parse``
    cannot convert (ValueError) raise InvalidArgumentError naming the
    file; a ContactShapeError from ``parse`` (a negative reading, say)
    is raised again in its own category, naming the file and the record.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    except UnicodeDecodeError as exc:
        raise InvalidArgumentError("%s file %s: not text (%s)" % (what, path, exc)) from exc
    if header is not None:
        if not lines or lines[0] != header:
            raise InvalidArgumentError("%s file %s: missing header %r" % (what, path, header))
        lines = lines[1:]
    out = []
    for ln in lines:
        fields = ln.split(sep)
        try:
            if len(fields) not in widths:
                raise ValueError("%d fields" % len(fields))
            out.append(parse(fields))
        except ValueError as exc:
            raise InvalidArgumentError("%s file %s: bad record %r" % (what, path, ln)) from exc
        except ContactShapeError as exc:
            raise type(exc)("%s file %s: record %r: %s" % (what, path, ln, exc)) from exc
    return out


def load_grid(path, kind: str = "traction") -> Grid:
    records = read_records(
        path, "grid", GRID_HEADER, ",", (5,), lambda f: (int(f[0]), [float(v) for v in f[1:]])
    )
    for i, (idx, _) in enumerate(records):
        if idx != i:
            raise InvalidArgumentError("grid file %s: record index %d out of order" % (path, idx))
    try:
        return Grid(np.array([row for _, row in records]), kind)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError("grid file %s: %s" % (path, exc)) from exc


@dataclass(frozen=True)
class FieldVector:
    """Values bound to a grid: one scalar per cell."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        n = len(self.grid)
        if vals.shape != (n,):
            raise InvalidArgumentError(
                "field of shape %s does not match grid of %d cells" % (vals.shape, n)
            )


def field_values(v, n: int, what: str) -> np.ndarray:
    """The values of ``v``, a FieldVector or an array, as n finite floats;
    otherwise InvalidArgumentError naming ``what``."""
    vals = v.values if isinstance(v, FieldVector) else np.asarray(v, dtype=float)
    if vals.shape != (n,):
        raise InvalidArgumentError("%s needs %d entries, got shape %s" % (what, n, vals.shape))
    if not np.isfinite(vals).all():
        raise InvalidArgumentError("%s must be finite" % what)
    return vals


def write_field(fv: FieldVector, path) -> None:
    """Emit one ``x y value`` record per cell, in grid index order.

    A blank line goes wherever y changes from one record to the next, so
    a lattice stored row by row plots directly as a surface.
    """
    lines = []
    prev_y = None
    for (x, y, _, _), v in zip(fv.grid.cells.tolist(), fv.values.tolist()):
        if lines and y != prev_y:
            lines.append("")
        lines.append("%r %r %r" % (x, y, v))
        prev_y = y
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field(path, grid: Grid) -> FieldVector:
    """Read a plot-data file back; record order must match the grid.  A
    value that is not a finite number is a bad record."""

    def parse(fields):
        value = float(fields[2])
        if not math.isfinite(value):
            raise ValueError("not finite")
        return value

    vals = read_records(path, "field", None, None, (3,), parse)
    if len(vals) != len(grid):
        raise InvalidArgumentError(
            "field file %s has %d records for a grid of %d cells" % (path, len(vals), len(grid))
        )
    return FieldVector(np.array(vals), grid)
