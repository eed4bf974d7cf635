"""End-to-end operations: synthesize, reconstruct, resample, compare, time.

These are the verbs behind the command line tool.  They compose the
grid, sensor, elastic-model, assembly, and solver layers; nothing here
adds new physics.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import assembly, boussinesq, love, solvers
from .errors import InvalidArgumentError
from .grid import FieldVector, Grid, build_regular_grid
from .sensor import ElastomerParams

INDENTER_SHAPES = ("hemisphere", "cylinder")

CONSTRAINT_MODES = ("free", "nonneg")

DEFAULT_MAX_FORCE = 3.0  # N; matches the probe range the skin is rated for

BENCHMARK_PITCH = 2e-3  # m, cell pitch of the assembly-timing grids


@dataclass(frozen=True)
class IndenterSpec:
    """Synthetic probe: a rigid shape pressed at a point with a total force.

    Hemispheres produce a dome pressure profile p(r) ~ sqrt(1 - (r/R)^2);
    cylinders (flat end) produce uniform pressure over the footprint.
    """

    shape: str
    diameter: float
    center: tuple[float, float]
    force: float
    max_force: float = DEFAULT_MAX_FORCE

    def __post_init__(self):
        if self.shape not in INDENTER_SHAPES:
            raise InvalidArgumentError(
                "indenter shape must be one of %s, got %r" % (INDENTER_SHAPES, self.shape)
            )
        if not (self.diameter > 0.0):
            raise InvalidArgumentError("indenter diameter must be positive")
        if not (0.0 < self.force <= self.max_force):
            raise InvalidArgumentError(
                "force must lie in (0, %g] N, got %r" % (self.max_force, self.force)
            )


def synth_contact(spec: IndenterSpec, tract_grid: Grid) -> FieldVector:
    """Cell pressures for the probe, normalized to the requested total force.

    A cell participates when its center falls inside the footprint; the
    profile is sampled at cell centers and scaled so that the pressures
    times cell areas sum to the total force.
    """
    radius = 0.5 * spec.diameter
    cx, cy = spec.center
    centers = tract_grid.centers()
    r = np.hypot(centers[:, 0] - cx, centers[:, 1] - cy)
    inside = r <= radius
    if not np.any(inside):
        raise InvalidArgumentError(
            "indenter footprint (radius %g at %s) covers no cell center"
            % (radius, (cx, cy))
        )
    raw = np.zeros(len(tract_grid))
    if spec.shape == "hemisphere":
        raw[inside] = np.sqrt(1.0 - (r[inside] / radius) ** 2)
    else:
        raw[inside] = 1.0
    total = float(np.sum(raw * tract_grid.areas()))
    if total <= 0.0:
        # only footprint-rim centers hit: fall back to uniform loading there
        raw[inside] = 1.0
        total = float(np.sum(raw * tract_grid.areas()))
    return FieldVector(raw * (spec.force / total), tract_grid)


@dataclass(frozen=True)
class SolveReport:
    """Everything one reconstruction produced, including its costs."""

    tractions: FieldVector
    reconstructed_displacements: np.ndarray
    residual_norm: float
    model: str
    constraint_mode: str
    psi_mode: str
    rank: int | None  # truncated SVD rank; None on ``nonneg``
    timings_ms: dict
    converged: bool = True

    def as_dict(self) -> dict:
        return {
            "model": self.model,
            "constraint_mode": self.constraint_mode,
            "psi_mode": self.psi_mode,
            "rank": self.rank,
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "timings_ms": dict(self.timings_ms),
        }


def _obtain_matrix(model, tract_grid, disp_grid, params, psi_mode, cache_dir):
    """The matrix from the cache, else assembled (and cached)."""
    if cache_dir is not None:
        mat = assembly.load_matrix(cache_dir, model, tract_grid, disp_grid, params, psi_mode)
        if mat is not None:
            return mat
        mat = assembly.assemble(model, tract_grid, disp_grid, params, psi_mode)
        assembly.save_matrix(mat, cache_dir)
        return mat
    return assembly.assemble(model, tract_grid, disp_grid, params, psi_mode)


def reconstruct(
    displacements,
    model: str,
    tract_grid: Grid,
    disp_grid: Grid,
    params: ElastomerParams,
    constraint: str = "free",
    psi_mode: str = "const",
    cache_dir=None,
) -> SolveReport:
    """Recover node tractions from a measured displacement field.

    ``free`` inverts through the truncated-SVD pseudo-inverse; ``nonneg``
    solves the same least-squares problem under Q >= 0.
    """
    if constraint not in CONSTRAINT_MODES:
        raise InvalidArgumentError(
            "constraint must be one of %s, got %r" % (CONSTRAINT_MODES, constraint)
        )
    dv = displacements.values if isinstance(displacements, FieldVector) else np.asarray(
        displacements, dtype=float
    )
    mat = _obtain_matrix(model, tract_grid, disp_grid, params, psi_mode, cache_dir)
    if dv.shape != (mat.entries.shape[0],):
        raise InvalidArgumentError(
            "displacement vector length %d does not match %d sensing nodes"
            % (len(dv), mat.entries.shape[0])
        )
    timings = {"assembly_ms": 1e3 * mat.assembly_seconds}
    converged = True
    if constraint == "free":
        t0 = time.perf_counter()
        op = assembly.precompute_inverse(mat)
        timings["inversion_ms"] = 1e3 * (time.perf_counter() - t0)
        t0 = time.perf_counter()
        q = assembly.apply_inverse(op, dv)
        timings["online_ms"] = 1e3 * (time.perf_counter() - t0)
        rank = op.rank
    else:
        t0 = time.perf_counter()
        res = solvers.nnls_solve(mat.entries, dv)
        timings["inversion_ms"] = 0.0
        timings["online_ms"] = 1e3 * (time.perf_counter() - t0)
        q = res.x
        rank = None
        converged = res.converged
    recon = mat.entries @ q
    residual = float(np.linalg.norm(recon - dv))
    return SolveReport(
        FieldVector(q, tract_grid),
        recon,
        residual,
        model,
        constraint,
        psi_mode,
        rank,
        timings,
        converged,
    )


def forward_solve(
    tractions: FieldVector,
    model: str,
    disp_grid: Grid,
    params: ElastomerParams,
    psi_mode: str = "const",
    cache_dir=None,
) -> FieldVector:
    """Effective displacements the tractions produce on ``disp_grid``.

    The matrix comes from ``cache_dir`` when it holds one for
    exactly these inputs; otherwise it is assembled, and saved there.
    """
    mat = _obtain_matrix(model, tractions.grid, disp_grid, params, psi_mode, cache_dir)
    return FieldVector(assembly.apply_forward(mat, tractions), disp_grid)


def resample(
    report: SolveReport,
    new_disp_grid: Grid,
    params: ElastomerParams,
    cache_dir=None,
) -> FieldVector:
    """Forward-solve the reconstructed tractions onto another sensing grid."""
    return forward_solve(
        report.tractions, report.model, new_disp_grid, params, report.psi_mode, cache_dir
    )


@dataclass(frozen=True)
class ModelComparison:
    """Effective normal surface deflection along a line through the load."""

    x: np.ndarray
    love_uz: np.ndarray
    bc_uz: dict  # psi mode -> profile
    pressure: float
    half_extents: tuple[float, float]

    def peak(self, which: str) -> float:
        prof = self.love_uz if which == "love" else self.bc_uz[which]
        return float(np.max(prof))

    def peak_location(self, which: str) -> float:
        """x of the peak; a flat-topped plateau reports its innermost point."""
        prof = self.love_uz if which == "love" else self.bc_uz[which]
        top = np.max(prof)
        at_top = np.nonzero(prof >= top - 1e-9 * abs(top))[0]
        return float(self.x[at_top[np.argmin(np.abs(self.x[at_top]))]])


def compare_models(
    pressure: float,
    half_extents: tuple[float, float],
    params: ElastomerParams,
    n_samples: int = 101,
    x_max: float | None = None,
) -> ModelComparison:
    """Both models' effective normal deflection on a line through the cell.

    One rectangular cell at the origin carries the uniform pressure; the
    point-load model concentrates the equivalent force at the center and
    is profiled once per psi mode.  Samples run along y = 0 with x = 0
    in the middle of the range.
    """
    a, b = half_extents
    if not (a > 0.0 and b > 0.0):
        raise InvalidArgumentError("cell half-extents must be positive")
    if n_samples < 3:
        raise InvalidArgumentError("need at least 3 samples")
    if n_samples % 2 == 0:
        n_samples += 1  # keep a sample exactly at x = 0
    if x_max is None:
        x_max = 6.0 * max(a, b)
    h = params.nominal_thickness
    E = params.young_modulus
    nu = params.poisson_ratio
    area = 4.0 * a * b
    force = pressure * area
    xs = np.linspace(-x_max, x_max, n_samples)
    love_uz = np.array([love.love_effective_zz(x, 0.0, a, b, h, E, nu) * pressure for x in xs])
    bc_uz = {}
    for mode in boussinesq.PSI_MODES:
        bc_uz[mode] = np.array(
            [
                boussinesq.bc_resolved_zz(x, 0.0, area, h, E, mode) * force
                for x in xs
            ]
        )
    return ModelComparison(xs, love_uz, bc_uz, pressure, (a, b))


@dataclass(frozen=True)
class BenchmarkResult:
    sizes: tuple[int, ...]
    times: dict  # model -> list of seconds, one per size
    exponents: dict  # model -> fitted log-log slope
    ratios: tuple[float, ...] = field(default=())  # love time / bc time per size

    def summary_lines(self):
        lines = ["cells" + "".join("  %10s" % m for m in self.times)]
        for i, n in enumerate(self.sizes):
            lines.append(
                "%5d" % n + "".join("  %10.4f" % self.times[m][i] for m in self.times)
            )
        for m, e in self.exponents.items():
            lines.append("%s: fitted cost exponent %.3f" % (m, e))
        if self.ratios:
            lines.append(
                "love/bc time ratio per size: "
                + ", ".join("%.1f" % r for r in self.ratios)
            )
        return lines


def benchmark(
    models=("bc", "love"),
    sizes=(25, 100, 400, 1600),
    repetitions: int = 1,
    params: ElastomerParams | None = None,
) -> BenchmarkResult:
    """Time matrix assembly on square n-cell grids (n a perfect square)
    of BENCHMARK_PITCH spacing.

    Reported times are medians over the repetitions; the exponent is the
    least-squares slope of log(time) against log(cells), so at least two
    distinct sizes are needed.
    """
    if repetitions < 1:
        raise InvalidArgumentError("repetitions must be positive")
    if len(set(sizes)) < 2:
        raise InvalidArgumentError("benchmark needs at least two distinct sizes, got %s" % (sizes,))
    params = params or ElastomerParams()
    grids = []
    for n in sizes:
        side = math.isqrt(max(n, 0))
        if n < 1 or side * side != n:
            raise InvalidArgumentError("benchmark sizes must be positive perfect squares, got %d" % n)
        g = build_regular_grid((0.0, 0.0), side, side, BENCHMARK_PITCH, BENCHMARK_PITCH)
        grids.append((g, g.retag("displacement")))
    times = {m: [] for m in models}
    for m in models:
        for g, gd in grids:
            runs = []
            for _ in range(repetitions):
                mat = assembly.assemble(m, g, gd, params)
                runs.append(mat.assembly_seconds)
            times[m].append(float(np.median(runs)))
    exponents = {}
    for m in models:
        slope = np.polyfit(np.log(np.asarray(sizes, float)), np.log(times[m]), 1)[0]
        exponents[m] = float(slope)
    ratios = ()
    if "bc" in times and "love" in times:
        ratios = tuple(lv / bc for lv, bc in zip(times["love"], times["bc"]))
    return BenchmarkResult(tuple(sizes), times, exponents, ratios)
