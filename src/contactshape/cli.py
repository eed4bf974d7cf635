"""Command line front end.

Subcommands cover the whole workflow: build and inspect influence
matrices, reconstruct tractions from displacement or readings files,
re-sample a reconstruction onto a different layout, compare the two
elastic models, demonstrate inequality projection, and benchmark
assembly cost.  Errors exit nonzero after printing a single line
``error: <category>: <message>`` on stderr; the category of a file that
cannot be read, written or created is ``io``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys

import numpy as np

from . import assembly, fme, pipeline, sensor
from .errors import ContactShapeError, InvalidArgumentError
from .grid import build_regular_grid, load_grid, read_field, save_grid, write_field
from .sensor import ElastomerParams

logger = logging.getLogger(__name__)


def _load_params(path) -> ElastomerParams:
    if path is None:
        return ElastomerParams()
    try:  # a file that cannot be read raises OSError, which main reports as io
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise InvalidArgumentError("cannot read params file %s: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise InvalidArgumentError(
            "params file %s must hold a JSON object, got %s" % (path, type(data).__name__)
        )
    unknown = set(data) - {f.name for f in dataclasses.fields(ElastomerParams)}
    if unknown:
        raise InvalidArgumentError("params file %s: unknown keys %s" % (path, sorted(unknown)))
    return ElastomerParams(**data)


def _add_common(ap, grids, out_help):
    ap.add_argument("--params", help="JSON file overriding material constants")
    ap.add_argument("--out", help=out_help)
    for g in grids:
        ap.add_argument("--%s" % g, required=True, help="%s file" % g.replace("-", " "))


def _model_args(ap):
    ap.add_argument("--model", choices=assembly.MODELS, default="love")
    ap.add_argument("--psi", choices=assembly.PSI_MODES, default="const", help="bc model only")
    ap.add_argument(
        "--cache-dir", help="directory for reuse of assembled matrices and their inverses"
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="contactshape",
        description="reconstruct contact pressure distributions on capacitive robot skin",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("make-grid", help="write a regular grid file")
    g.add_argument("--nx", type=int, required=True)
    g.add_argument("--ny", type=int, required=True)
    g.add_argument("--pitch", type=float, required=True, help="cell pitch in meters")
    g.add_argument("--origin", default="0,0", help="lower-left corner, meters")
    g.add_argument("--out", required=True)

    a = sub.add_parser("assemble", help="assemble and cache an influence matrix")
    _model_args(a)
    _add_common(a, ("tract-grid", "disp-grid"), "save the entries here as .npy")

    r = sub.add_parser("reconstruct", help="tractions from a displacement or readings file")
    _model_args(r)
    _add_common(
        r, ("tract-grid", "disp-grid"),
        "write the tractions here (without it only the summary line is printed)",
    )
    r.add_argument("--displacements", help="plot-data displacement file on the sensing grid")
    r.add_argument("--readings", help="capacitance readings file instead of displacements")
    r.add_argument("--tolerant", action="store_true", help="clamp negative readings to zero")
    r.add_argument("--constraint", choices=pipeline.CONSTRAINT_MODES, default="free")
    r.add_argument("--report", help="write solve metadata as JSON here")

    s = sub.add_parser("resample", help="forward-solve tractions onto another grid")
    _model_args(s)
    _add_common(
        s, ("tract-grid", "new-grid"), "displacement file to write (default resampled.dat)"
    )
    s.add_argument("--tractions", required=True, help="plot-data traction file")

    c = sub.add_parser("compare", help="effective deflection of both models on a line")
    c.add_argument("--pressure", type=float, required=True, help="Pa over the cell")
    c.add_argument("--half-x", type=float, required=True, help="cell half-extent a, m")
    c.add_argument("--half-y", type=float, required=True, help="cell half-extent b, m")
    c.add_argument("--samples", type=int, default=101)
    c.add_argument("--x-max", type=float, help="half-width of the sample line, m")
    c.add_argument("--params")
    c.add_argument("--out")

    f = sub.add_parser("fme-demo", help="project a random inequality system to zero variables")
    f.add_argument("--vars", type=int, default=4)
    f.add_argument("--rows", type=int, default=8)
    f.add_argument("--seed", type=int, default=0)

    b = sub.add_parser("benchmark", help="time matrix assembly against grid size")
    b.add_argument("--sizes", default="25,100,400,1600", help="comma-separated cell counts")
    b.add_argument("--models", default="bc,love")
    b.add_argument("--repetitions", type=int, default=1)
    b.add_argument("--params")
    b.add_argument("--out")

    y = sub.add_parser("synth", help="synthetic indenter pressures (and displacements)")
    _model_args(y)
    _add_common(y, ("grid",), "pressure file to write (default pressures.dat)")
    y.add_argument("--shape", choices=pipeline.INDENTER_SHAPES, required=True)
    y.add_argument("--diameter", type=float, required=True, help="meters")
    y.add_argument("--center", default="0,0", help="x,y in meters")
    y.add_argument("--force", type=float, required=True, help="total normal force, N")
    y.add_argument(
        "--displacements-out",
        help="also forward-solve and write the sensed displacement field here",
    )
    return ap


def _parse_pair(text, label):
    try:
        x, y = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise InvalidArgumentError("%s must be 'x,y', got %r" % (label, text)) from exc
    return x, y


def _cmd_make_grid(args):
    ox, oy = _parse_pair(args.origin, "--origin")
    g = build_regular_grid((ox, oy), args.nx, args.ny, args.pitch, args.pitch)
    save_grid(g, args.out)
    print("wrote %d-cell grid to %s" % (len(g), args.out))


def _cmd_assemble(args):
    params = _load_params(args.params)
    tg = load_grid(args.tract_grid, "traction")
    dg = load_grid(args.disp_grid, "displacement")
    mat = assembly.assemble(args.model, tg, dg, params, psi_mode=args.psi)
    if args.cache_dir:
        key = assembly.save_matrix(mat, args.cache_dir)
        print("cached %s matrix %s (%dx%d), assembly %.1f ms" % (
            args.model, key[:12], mat.entries.shape[0], mat.entries.shape[1],
            1e3 * mat.assembly_seconds,
        ))
    if args.out:
        with open(args.out, "wb") as fh:  # np.save would append .npy to another suffix
            np.save(fh, mat.entries)
        print("entries written to %s" % args.out)
    if not (args.cache_dir or args.out):
        print("assembled %dx%d %s matrix in %.1f ms (use --cache-dir or --out to keep it)" % (
            mat.entries.shape[0], mat.entries.shape[1], args.model,
            1e3 * mat.assembly_seconds,
        ))


def _cmd_reconstruct(args):
    params = _load_params(args.params)
    tg = load_grid(args.tract_grid, "traction")
    dg = load_grid(args.disp_grid, "displacement")
    if (args.displacements is None) == (args.readings is None):
        raise InvalidArgumentError("give exactly one of --displacements or --readings")
    if args.displacements:
        dv = read_field(args.displacements, dg).values
    else:
        readings = sensor.load_readings(args.readings, tolerant=args.tolerant)
        dv = sensor.readings_to_displacements(readings, len(dg), params)
    report = pipeline.reconstruct(
        dv, args.model, tg, dg, params,
        constraint=args.constraint, psi_mode=args.psi, cache_dir=args.cache_dir,
    )
    if args.out:
        write_field(report.tractions, args.out)
        print("tractions written to %s" % args.out)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report.as_dict(), fh, indent=1)
    if report.rank is not None:
        detail = ", rank %d" % report.rank
    else:
        done = "%d iterations" if report.converged else "not converged after %d iterations"
        detail = ", " + done % report.iterations
    sources = ", ".join(
        "%s %s" % (what, "from " + source if source in ("cache", "memory") else source)
        for what, source in (("matrix", report.matrix_source), ("inverse", report.inverse_source))
    )
    print(
        "%s/%s solve: residual %.3e%s, online %.2f ms (%s)"
        % (
            report.model,
            report.constraint_mode,
            report.residual_norm,
            detail,
            report.timings_ms["online_ms"],
            sources,
        )
    )


def _cmd_resample(args):
    params = _load_params(args.params)
    tg = load_grid(args.tract_grid, "traction")
    ng = load_grid(args.new_grid, "displacement")
    q = read_field(args.tractions, tg)
    out = args.out or "resampled.dat"
    write_field(pipeline.forward_solve(q, args.model, ng, params, args.psi, args.cache_dir), out)
    print("resampled field written to %s" % out)


def _cmd_compare(args):
    params = _load_params(args.params)
    cmp_ = pipeline.compare_models(
        args.pressure, (args.half_x, args.half_y), params,
        n_samples=args.samples, x_max=args.x_max,
    )
    lines = ["# x_m  love_uz_m  " + "  ".join("bc_%s_uz_m" % m for m in cmp_.bc_uz)]
    for i, x in enumerate(cmp_.x):
        cols = [repr(float(x)), repr(float(cmp_.love_uz[i]))]
        cols += [repr(float(cmp_.bc_uz[m][i])) for m in cmp_.bc_uz]
        lines.append("  ".join(cols))
    lines.append("# love peak %.6e m at x=%g" % (cmp_.peak("love"), cmp_.peak_location("love")))
    for m in cmp_.bc_uz:
        lines.append(
            "# bc[%s] peak %.6e m at x=%g" % (m, cmp_.peak(m), cmp_.peak_location(m))
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print("comparison written to %s" % args.out)
    else:
        print(text, end="")


def _cmd_fme_demo(args):
    for option, value in (("--vars", args.vars), ("--rows", args.rows)):
        if value < 1:
            raise InvalidArgumentError("%s must be at least 1, got %d" % (option, value))
    rng = np.random.default_rng(args.seed)
    A = rng.integers(-3, 4, size=(args.rows, args.vars))
    b = rng.integers(-5, 3, size=args.rows)
    system = fme.InequalitySystem.from_arrays(A, b)
    print("random system: %d rows, %d vars, seed %d" % (args.rows, args.vars, args.seed))
    n0 = bound = system.n_rows
    limit = fme.FME_MAX_ROWS
    for step in range(system.n_vars):
        system = fme.fme_eliminate(system, step)
        # one step leaves at most max(m, m^2/4) of m rows; iterated, that is
        # the classical 4 (n/4)^(2^p).  fme_eliminate stops past the row
        # limit, so the bound need not grow beyond it.
        if bound <= limit:
            bound = max(bound, int(fme.fme_worst_case_count(bound, 1)))
        print(
            "after eliminating x%d: %d rows (worst case from %d rows: %s)"
            % (step, system.n_rows, n0, bound if bound <= limit else "over %d" % limit)
        )
    print("feasible: %s" % fme.fme_feasible(system))


def _cmd_benchmark(args):
    params = _load_params(args.params)
    try:
        sizes = tuple(int(s) for s in args.sizes.split(","))
    except ValueError as exc:
        raise InvalidArgumentError(
            "--sizes must be comma-separated integers, got %r" % args.sizes
        ) from exc
    models = tuple(m.strip() for m in args.models.split(","))
    result = pipeline.benchmark(models, sizes, args.repetitions, params)
    text = "\n".join(result.summary_lines()) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")


def _cmd_synth(args):
    params = _load_params(args.params)
    g = load_grid(args.grid, "traction")
    spec = pipeline.IndenterSpec(
        args.shape, args.diameter, _parse_pair(args.center, "--center"), args.force
    )
    q = pipeline.synth_contact(spec, g)
    out = args.out or "pressures.dat"
    write_field(q, out)
    print("pressures written to %s (total force %.3f N)" % (out, float(np.sum(q.values * g.areas()))))
    if args.displacements_out:
        dg = g.retag("displacement")
        d = pipeline.forward_solve(q, args.model, dg, params, args.psi, args.cache_dir)
        write_field(d, args.displacements_out)
        print("displacements written to %s" % args.displacements_out)


_COMMANDS = {
    "make-grid": _cmd_make_grid,
    "assemble": _cmd_assemble,
    "reconstruct": _cmd_reconstruct,
    "resample": _cmd_resample,
    "compare": _cmd_compare,
    "fme-demo": _cmd_fme_demo,
    "benchmark": _cmd_benchmark,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except ContactShapeError as exc:
        print("error: %s: %s" % (exc.category, exc), file=sys.stderr)
        return 1
    except OSError as exc:  # a file that cannot be read, written or created
        print("error: io: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
