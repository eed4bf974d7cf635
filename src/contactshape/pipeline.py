"""End-to-end operations: synthesize, reconstruct, resample, compare, time.

These are the verbs behind the command line tool.  They compose the
grid, sensor, elastic-model, assembly, and solver layers; nothing here
adds new physics.  Every call holds the solve state it forms (matrices,
inverse operators, NNLS systems) in ``memory_tier``, keyed by content;
a cache dir only adds the disk behind it.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, fields

import numpy as np

from . import assembly, solvers
from .errors import InvalidArgumentError, NumericalFailureError, check_count, check_entries
from .errors import check_choice, check_finite, check_positive
from .grid import FieldVector, Grid, build_regular_grid, field_values
from .sensor import ElastomerParams

INDENTER_SHAPES = ("hemisphere", "cylinder")

CONSTRAINT_MODES = ("free", "nonneg")

MAX_FORCE = 3.0  # N; matches the probe range the skin is rated for

BENCHMARK_PITCH = 2e-3  # m, cell pitch of the assembly-timing grids

MEMORY_TIER_BYTES = 128 * 2**20  # bound on the solve state held in memory


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

    def __post_init__(self):
        check_choice("indenter shape", self.shape, INDENTER_SHAPES)
        check_positive("indenter diameter", self.diameter)
        check_entries("indenter center", self.center, 2)
        check_positive("force", self.force)
        if self.force > MAX_FORCE:
            raise InvalidArgumentError(
                "force must lie in (0, %g] N, got %r" % (MAX_FORCE, self.force)
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
    """Everything one reconstruction produced, including its costs.

    ``tractions`` holds one pressure per traction cell, in Pa, whichever
    model ran.  ``matrix_source`` is "memory", "cache" or "assembled";
    ``inverse_source`` says where the mode's solve state came from: the
    truncated-SVD pseudo-inverse on ``free`` ("memory", "cache" or
    "factorized"), the ``solvers.NnlsSystem`` on ``nonneg`` ("memory"
    or "factorized"; it is never saved to disk), which holds
    (C^T C)^-1 only when ``free_set_solver`` is "schur".  "memory" is
    the process's ``memory_tier``, which serves every call, cache dir or
    not: a memory hit opens no file and leaves any cache dir untouched.
    Each time in ``timings_ms`` is named for what it measured:
    ``assembly_ms`` or ``matrix_load_ms`` (from memory or disk),
    ``inversion_ms`` (forming the solve state) or ``inverse_load_ms``,
    and ``online_ms``, the solve alone, on both modes.
    ``singular_value_range`` is (smallest, largest) of the singular
    values the truncated SVD kept on ``free`` (None on ``nonneg``, or
    when it kept none).  Every number is finite.  On
    ``nonneg``, ``iterations`` counts the NNLS iterations,
    ``free_set_solver`` names the algorithm that ran, "schur" (block
    pivoting on a held (C^T C)^-1) or "lawson-hanson" (where C^T C is
    singular or too ill-conditioned, as when there are fewer sensing
    nodes than traction cells), ``kkt_tolerance`` is the tolerance its
    optimality test used (``solvers.NnlsResult``), and
    ``active_set_size`` counts the cells with q > 0, which under noise
    is many more than the cells in contact; all four are None on
    ``free``.
    """

    tractions: FieldVector
    reconstructed_displacements: np.ndarray
    residual_norm: float
    model: str
    constraint_mode: str
    psi_mode: str
    rank: int | None  # truncated SVD rank; None on ``nonneg``
    timings_ms: dict
    matrix_source: str
    inverse_source: str
    converged: bool = True
    iterations: int | None = None
    free_set_solver: str | None = None
    kkt_tolerance: float | None = None
    active_set_size: int | None = None
    singular_value_range: tuple[float, float] | None = None

    def as_dict(self) -> dict:
        """Every field but tractions and reconstructed_displacements; timings_ms is a copy."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        del out["tractions"], out["reconstructed_displacements"]
        return dict(out, timings_ms=dict(self.timings_ms))


class MemoryTier:
    """Solve state held in memory, by matrix key and kind, least recently
    used first out once the arrays held pass ``max_bytes``.

    A key fixes its content, so an entry never goes stale.  Every array
    an entry holds is made read-only and counted in its bytes; an array
    that two entries share is counted in each.  An entry larger than
    ``max_bytes`` is not held.  A lock guards the entries, so threads
    may share a tier.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries = OrderedDict()  # (key, kind) -> (object, bytes)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, kind: str):
        """The object held for ``(key, kind)``, or None."""
        with self._lock:
            found = self._entries.get((key, kind))
            if found is None:
                return None
            self._entries.move_to_end((key, kind))
            return found[0]

    def put(self, key: str, kind: str, obj) -> None:
        """Hold ``obj``, with its array attributes read-only, evicting the
        least recently used entries to stay within ``max_bytes``."""
        arrays = [a for a in vars(obj).values() if isinstance(a, np.ndarray)]
        size = sum(a.nbytes for a in arrays)
        if size > self.max_bytes:
            return
        for a in arrays:
            a.flags.writeable = False
        with self._lock:
            old = self._entries.pop((key, kind), None)
            if old is not None:
                self.nbytes -= old[1]
            while self._entries and self.nbytes + size > self.max_bytes:
                self.nbytes -= self._entries.popitem(last=False)[1][1]
            self._entries[(key, kind)] = (obj, size)
            self.nbytes += size

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


# The one tier of the process; it serves every call, cache dir or not.
memory_tier = MemoryTier(MEMORY_TIER_BYTES)


def _obtain(key, kind, compute, cache_dir=None, load=None, save=None):
    """The ``kind`` of solve state for the matrix key ``key``: held in
    memory, else ``load``-ed from ``cache_dir`` (when one is given), else
    ``compute()``-d and ``save``-d there; from then on it is held in memory.

    Returns the object, where it came from ("memory", "cache", or None
    when computed), and the seconds the lookup or the computation took
    (a save is not counted).  A memory hit touches no file.
    """
    t0 = time.perf_counter()
    obj, source = memory_tier.get(key, kind), "memory"
    if obj is None and cache_dir is not None:
        obj, source = load(cache_dir), "cache"
    if obj is None:
        t0 = time.perf_counter()
        obj, source = compute(), None
    seconds = time.perf_counter() - t0
    if source is None and cache_dir is not None:
        save(obj, cache_dir)
    if source != "memory":
        memory_tier.put(key, kind, obj)
    return obj, source, seconds


def _obtain_matrix(model, tract_grid, disp_grid, params, psi_mode, cache_dir):
    """The matrix's key, then the matrix, its source and seconds from ``_obtain``."""
    key = assembly.matrix_key(model, tract_grid, disp_grid, params, True, psi_mode)
    return (key,) + _obtain(
        key,
        "matrix",
        lambda: assembly.assemble(model, tract_grid, disp_grid, params, psi_mode),
        cache_dir,
        lambda d: assembly.load_matrix(d, model, tract_grid, disp_grid, params, psi_mode),
        assembly.save_matrix,
    )


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
    """Recover cell pressures (Pa) from a measured displacement field.

    ``free`` inverts through the truncated-SVD pseudo-inverse; ``nonneg``
    solves the same least-squares problem under Q >= 0 on a
    ``solvers.NnlsSystem`` (with (C^T C)^-1 where the solves use it).
    The matrix and the mode's solve state come from ``memory_tier``;
    else the matrix and (on ``free``) its inverse operator come from
    ``cache_dir`` when one is given and holds them, or are formed and
    saved there.  Either way they are held in memory from then on, so a
    stream of frames reads no file and inverts nothing after its first.
    Non-finite tractions or residual raise ``NumericalFailureError``.
    """
    check_choice("constraint", constraint, CONSTRAINT_MODES)
    dv = field_values(displacements, len(disp_grid), "displacement vector")
    key, mat, mat_source, seconds = _obtain_matrix(
        model, tract_grid, disp_grid, params, psi_mode, cache_dir
    )
    timings = {("assembly_ms" if mat_source is None else "matrix_load_ms"): 1e3 * seconds}
    if constraint == "free":
        state, source, seconds = _obtain(
            key,
            "inverse",
            lambda: assembly.precompute_inverse(mat),
            cache_dir,
            lambda d: assembly.load_inverse(d, mat),
            lambda op, d: assembly.save_inverse(op, mat, d),
        )
        solve = assembly.apply_inverse
    else:
        state, source, seconds = _obtain(key, "nnls", lambda: solvers.NnlsSystem(mat.entries))
        solve = solvers.nnls_solve
    timings["inversion_ms" if source is None else "inverse_load_ms"] = 1e3 * seconds
    # data too large for float64 overflows on the way; the non-finite
    # result is raised below, so numpy's warnings about it are not printed
    with np.errstate(over="ignore", invalid="ignore"):
        t0 = time.perf_counter()
        solved = solve(state, dv)
        timings["online_ms"] = 1e3 * (time.perf_counter() - t0)
        if constraint == "free":
            q, kept = solved, state.singular_values[: state.rank]
            recon = mat.entries @ q
            mode_fields = {
                "rank": state.rank,
                "singular_value_range": (float(kept[-1]), float(kept[0])) if state.rank else None,
            }
        else:
            q, recon = solved.x, solved.fitted  # C q, formed for the residual
            mode_fields = {
                "rank": None,
                "converged": solved.converged,
                "iterations": solved.iterations,
                "free_set_solver": solved.free_set_solver,
                "kkt_tolerance": solved.kkt_tolerance,
                "active_set_size": int(np.count_nonzero(q > 0.0)),
            }
        residual = recon - dv
        residual_norm = math.sqrt(residual.dot(residual))  # as np.linalg.norm forms it
        if not (math.isfinite(residual_norm) and np.isfinite(q).all()):
            raise NumericalFailureError(
                "the %s solve of data up to %g is not finite" % (constraint, np.max(np.abs(dv)))
            )
    return SolveReport(
        tractions=FieldVector(q, tract_grid),
        reconstructed_displacements=recon,
        residual_norm=residual_norm,
        model=model,
        constraint_mode=constraint,
        psi_mode=psi_mode,
        timings_ms=timings,
        matrix_source=mat_source or "assembled",
        inverse_source=source or "factorized",
        **mode_fields,
    )


def forward_solve(
    tractions: FieldVector,
    model: str,
    disp_grid: Grid,
    params: ElastomerParams,
    psi_mode: str = "const",
    cache_dir=None,
) -> FieldVector:
    """Effective displacements the cell pressures ``tractions`` (Pa)
    produce on ``disp_grid``.

    The matrix comes from memory or ``cache_dir`` when either holds one
    for exactly these inputs; otherwise it is assembled, and saved
    there (see ``reconstruct``).  A displacement that is not finite
    raises ``NumericalFailureError``.
    """
    mat = _obtain_matrix(model, tractions.grid, disp_grid, params, psi_mode, cache_dir)[1]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is raised below, not warned
        d = assembly.apply_forward(mat, tractions)
    if not np.isfinite(d).all():
        top = abs(tractions.values).max()
        raise NumericalFailureError("the forward solve of pressures up to %g is not finite" % top)
    return FieldVector(d, disp_grid)


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

    One rectangular cell at the origin carries the uniform pressure; each
    profile is that pressure times the influence-matrix column of the
    cell on the sample line, once for ``love`` and once per psi mode for
    ``bc``.  Samples run along y = 0 with x = 0 in the middle of the
    range.
    """
    check_entries("cell half-extents", half_extents, 2)
    a, b = half_extents
    check_finite("pressure", pressure)
    check_positive("cell half-extent", a)
    check_positive("cell half-extent", b)
    check_count("n_samples", n_samples)
    if n_samples < 3:
        raise InvalidArgumentError("need at least 3 samples")
    if n_samples % 2 == 0:
        n_samples += 1  # keep a sample exactly at x = 0
    if x_max is None:
        x_max = 6.0 * max(a, b)
    else:
        check_positive("sample half-width", x_max)
    xs = np.linspace(-x_max, x_max, n_samples)
    cell = Grid(np.array([[0.0, 0.0, a, b]]))
    zeros = np.zeros_like(xs)
    line = Grid(np.column_stack((xs, zeros, zeros + a, zeros + b)), "displacement")

    def profile(model, psi_mode="const"):
        return assembly.assemble(model, cell, line, params, psi_mode).entries[:, 0] * pressure

    bc_uz = {mode: profile("bc", mode) for mode in assembly.PSI_MODES}
    return ModelComparison(xs, profile("love"), bc_uz)


@dataclass(frozen=True)
class BenchmarkResult:
    sizes: tuple[int, ...]
    times: dict  # model -> list of seconds, one per size
    exponents: dict  # model -> fitted log-log slope
    ratios: tuple[float, ...]  # love time / bc time per size

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
    with cells BENCHMARK_PITCH apart.

    Reported times are medians over the repetitions; the exponent is the
    least-squares slope of log(time) against log(cells), so at least two
    distinct sizes are needed, and at least one model, each named once.
    """
    check_count("repetitions", repetitions)
    if repetitions < 1:
        raise InvalidArgumentError("repetitions must be positive")
    if len(set(sizes)) < 2:
        raise InvalidArgumentError("benchmark needs at least two distinct sizes, got %s" % (sizes,))
    if not models or len(set(models)) < len(models):
        raise InvalidArgumentError("benchmark needs each model once, got %s" % (models,))
    params = params or ElastomerParams()
    grids = []
    for n in sizes:
        check_count("benchmark size", n)
        side = math.isqrt(n)
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
