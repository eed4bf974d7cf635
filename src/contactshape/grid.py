"""Planar grids of rectangular cells and fields sampled on them.

A grid discretizes one face of the elastomer layer: either the traction
side (where contact pressure acts) or the displacement side (where taxel
centers sit).  Cells are axis-aligned rectangles described by a center
and two half-extents.  All positions and extents are in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError

# Two cell centers closer than this are considered the same physical taxel.
DUPLICATE_CENTER_TOL = 1e-9

# Relative tolerance when detecting a uniform lattice in a set of centers.
_LATTICE_RTOL = 1e-9

GRID_HEADER = "index,center_x_m,center_y_m,half_extent_a_m,half_extent_b_m"

KINDS = ("traction", "displacement")


@dataclass(frozen=True)
class Cell:
    """Axis-aligned rectangular cell: center (x, y), half-extents (a, b)."""

    x: float
    y: float
    a: float
    b: float

    def __post_init__(self):
        # store plain floats so file round trips see native reprs
        for name in ("x", "y", "a", "b"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.a > 0.0 and self.b > 0.0):
            raise InvalidArgumentError(
                "cell half-extents must be positive, got a=%r b=%r" % (self.a, self.b)
            )

    @property
    def area(self) -> float:
        return 4.0 * self.a * self.b


@dataclass(frozen=True)
class Grid:
    """Immutable collection of cells with a side tag.

    ``spacing`` is derived metadata (set when the centers form a uniform
    lattice) and is deliberately excluded from equality comparisons.
    """

    cells: tuple[Cell, ...]
    kind: str = "traction"
    spacing: tuple[float, float] | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidArgumentError("grid kind must be one of %s" % (KINDS,))
        if not self.cells:
            raise InvalidArgumentError("grid needs at least one cell")

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def regular(self) -> bool:
        return self.spacing is not None

    def centers(self) -> np.ndarray:
        """(n, 2) array of cell centers."""
        return np.array([(c.x, c.y) for c in self.cells], dtype=float)

    def areas(self) -> np.ndarray:
        return np.array([c.area for c in self.cells], dtype=float)

    def retag(self, kind: str) -> "Grid":
        """Same geometry under a different side tag."""
        return Grid(self.cells, kind, self.spacing)


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
    if nx < 1 or ny < 1:
        raise InvalidArgumentError("grid dimensions must be at least 1x1")
    if not (dx > 0.0 and dy > 0.0):
        raise InvalidArgumentError("cell pitch must be positive")
    ox, oy = float(origin[0]), float(origin[1])
    cells = []
    for j in range(ny):
        cy = oy + (j + 0.5) * dy
        for i in range(nx):
            cells.append(Cell(ox + (i + 0.5) * dx, cy, 0.5 * dx, 0.5 * dy))
    return Grid(tuple(cells), kind, (dx, dy))


def _detect_lattice(centers: np.ndarray) -> tuple[float, float] | None:
    """Spacing (dx, dy) if the centers fill a uniform product lattice."""
    xs = np.unique(centers[:, 0])
    ys = np.unique(centers[:, 1])
    if len(xs) * len(ys) != len(centers):
        return None
    scale = max(np.ptp(xs), np.ptp(ys), 1.0)
    for vals in (xs, ys):
        if len(vals) > 1:
            d = np.diff(vals)
            if np.any(np.abs(d - d[0]) > _LATTICE_RTOL * scale):
                return None
    # every (x, y) product point must actually be present
    want = {(x, y) for x in xs for y in ys}
    have = {(cx, cy) for cx, cy in centers}
    if want != have:
        return None
    dx = float(xs[1] - xs[0]) if len(xs) > 1 else None
    dy = float(ys[1] - ys[0]) if len(ys) > 1 else None
    if dx is None and dy is None:
        return None
    return (dx if dx is not None else dy, dy if dy is not None else dx)


def grid_from_taxel_layout(
    centers,
    cell_area: float,
    kind: str = "displacement",
) -> Grid:
    """Grid of equal square cells centered on measured taxel positions.

    Taxel cells are taken to be disjoint squares of the given area.  Two
    centers closer than 1e-9 m are rejected as a duplicated taxel.
    """
    pts = np.asarray(centers, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise InvalidArgumentError("centers must be a non-empty (n, 2) array")
    if not (cell_area > 0.0):
        raise InvalidArgumentError("cell_area must be positive")
    if not np.all(np.isfinite(pts)):
        raise InvalidArgumentError("taxel centers must be finite")
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    if np.min(d2) < DUPLICATE_CENTER_TOL**2:
        k, l = np.unravel_index(np.argmin(d2), d2.shape)
        raise InvalidArgumentError(
            "taxel centers %d and %d coincide within %g m" % (k, l, DUPLICATE_CENTER_TOL)
        )
    half = 0.5 * math.sqrt(cell_area)
    cells = tuple(Cell(float(x), float(y), half, half) for x, y in pts)
    return Grid(cells, kind, _detect_lattice(pts))


def node_delta(disp_grid: Grid, k: int, tract_grid: Grid, l: int) -> tuple[float, float]:
    """In-plane offset (displacement node k) minus (traction node l)."""
    ck = disp_grid.cells[k]
    cl = tract_grid.cells[l]
    return (ck.x - cl.x, ck.y - cl.y)


def save_grid(grid: Grid, path) -> None:
    """Write one line per cell; floats use repr so reading restores bits."""
    lines = [GRID_HEADER]
    for i, c in enumerate(grid.cells):
        lines.append("%d,%s,%s,%s,%s" % (i, repr(c.x), repr(c.y), repr(c.a), repr(c.b)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_grid(path, kind: str = "traction") -> Grid:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw or raw[0] != GRID_HEADER:
        raise InvalidArgumentError("grid file %s: missing header %r" % (path, GRID_HEADER))
    cells = []
    for ln in raw[1:]:
        parts = ln.split(",")
        if len(parts) != 5:
            raise InvalidArgumentError("grid file %s: bad record %r" % (path, ln))
        try:
            idx = int(parts[0])
            x, y, a, b = (float(p) for p in parts[1:])
        except ValueError as exc:
            raise InvalidArgumentError("grid file %s: bad record %r" % (path, ln)) from exc
        if idx != len(cells):
            raise InvalidArgumentError(
                "grid file %s: record index %d out of order" % (path, idx)
            )
        cells.append(Cell(x, y, a, b))
    if not cells:
        raise InvalidArgumentError("grid file %s: no cells" % path)
    pts = np.array([(c.x, c.y) for c in cells])
    return Grid(tuple(cells), kind, _detect_lattice(pts))


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


def write_field(fv: FieldVector, path) -> None:
    """Emit one ``x y value`` record per cell, in grid index order.

    On a regular grid, records are grouped into blank-line separated
    rows of constant y so the file plots directly as a surface.
    """
    cells = fv.grid.cells
    lines = []
    prev_y = None
    for c, v in zip(cells, fv.values):
        if fv.grid.regular and prev_y is not None and c.y != prev_y:
            lines.append("")
        lines.append("%s %s %s" % (repr(c.x), repr(c.y), repr(float(v))))
        prev_y = c.y
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_field(path, grid: Grid) -> FieldVector:
    """Read a plot-data file back; record order must match the grid."""
    vals = []
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln:
                continue
            parts = ln.split()
            if len(parts) != 3:
                raise InvalidArgumentError("field file %s: bad record %r" % (path, ln))
            vals.append(float(parts[2]))
    if len(vals) != len(grid):
        raise InvalidArgumentError(
            "field file %s has %d records for a grid of %d cells"
            % (path, len(vals), len(grid))
        )
    return FieldVector(np.array(vals), grid)
