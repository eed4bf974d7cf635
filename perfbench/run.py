"""Run one contactshape benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream-free --seed 1 --seconds 15 --trace 0

Run it from a checkout of the repository; it imports the package from
``src/`` and writes only under ``.perfbench_work/`` (removed at the end)
and ``.perfbench_out/`` (span dumps of traced runs).  The line before the
last describes the environment; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Workloads and metrics are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread (at most nproc): steadier on a shared machine, and the
# same on every machine the benchmark runs on.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(args, wl, latencies) -> dict:
    import numpy
    import scipy

    from perfbench import harness

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "setup_reps": harness.SETUP_REPS,
        "ops": len(latencies),
        "ops_beyond_p90": len(latencies) - -(-9 * len(latencies) // 10),
        **wl.sizes(),
        **wl.traffic(),
    }


def run(args, work):
    from perfbench import harness, workloads
    from perfbench.tracing import Tracer

    from contactshape import assembly

    wl = workloads.WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else None
    setups, lat, failed = harness.setup_and_run(wl, work, args.seconds, tracer)
    attempted = len(lat)
    if tracer is None:
        metrics = harness.end_to_end(wl, setups, lat)
    else:
        before = assembly.counters()["factorizations"]
        wl.tracer = tracer
        with tracer.installed():
            lat_t, failed_t = harness.timed_phase(wl, args.seconds, len(lat), tracer)
        wl.tracer = None
        tracer.resolve()
        attempted += len(lat_t)
        failed += failed_t
        overhead = 1.0 - harness.pass_rate(lat_t, wl.batch) / harness.pass_rate(lat, wl.batch)
        factorizations = assembly.counters()["factorizations"] - before
        metrics = harness.per_layer(tracer.spans, len(lat_t), factorizations, overhead)
        for name, code in harness.PROCESS_CODE.items():
            metrics[name] = (harness.process_ms(code, os.environ), "ms")
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, "spans-%s-seed%d.json" % (args.workload, args.seed)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, environment(args, wl, lat)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "contactshape", "__init__.py")):
        print("perfbench: no contactshape sources under %s" % SRC, file=sys.stderr)
        return 2
    # before numpy is first imported, and inherited by CLI processes
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, ROOT])
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    work = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    try:
        result, env = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(WORK):
            os.rmdir(WORK)
    print("perfbench env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
