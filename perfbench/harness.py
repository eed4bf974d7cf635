"""Set-up, the timed closed loop, and the metrics of one run.

One client runs ops back to back (closed loop).  Each op's latency is
timed alone; its output is checked right after, outside that time.  A
run's timed phases last ``seconds`` of wall time in all and each ends on
a whole pass of the workload's op list.  End-to-end metrics come from
untraced phases; a traced run adds a traced phase for the per-layer
metrics.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np

from . import tracing
from .tracing import END, INFO, NAME, OP, START

SETUP_REPS = 3
MAX_REPORTED_FAILURES = 5
PROCESS_REPS = 5

# Fresh-process start-up costs, measured on every traced run.
PROCESS_CODE = {"cli.import_ms": "import contactshape", "cli.interp_ms": "pass"}


def timed_phase(wl, seconds, first_op=0, tracer=None):
    """Run ops for ``seconds``; return (latencies in s, failed count)."""
    latencies = []
    failed = 0
    i = first_op
    stop = time.perf_counter() + seconds
    while True:
        span = tracer.span("op") if tracer is not None else nullcontext()
        if tracer is not None:
            tracer.op = i
        reason = None
        with span:
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:  # a failed op is counted, the run goes on
                reason = "raised %s: %s" % (type(exc).__name__, exc)
            t1 = time.perf_counter()
        if tracer is not None:
            tracer.op = None
        if reason is None:
            try:
                reason = wl.check(i, out)
            except Exception as exc:  # an unreadable output is a failed op
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
        latencies.append(t1 - t0)
        if reason is not None:
            failed += 1
            if failed <= MAX_REPORTED_FAILURES:
                print("op %d failed: %s" % (i, reason), file=sys.stderr)
        i += 1
        if (i - first_op) % wl.batch == 0 and time.perf_counter() >= stop:
            return latencies, failed


def setup_and_run(wl, work, seconds, tracer=None):
    """SETUP_REPS rounds of a set-up into a fresh cache dir, then ops.

    Each round's timed phase lasts ``seconds / SETUP_REPS`` and uses the
    cache its set-up just made, so the op samples spread over the whole
    run.  Returns (set-up times, op latencies, failed ops); the last
    cache stays in place.  With a tracer, only the set-ups are traced.
    """
    setups, latencies, failed = [], [], 0
    for rep in range(SETUP_REPS):
        cache = os.path.join(work, "cache%d" % rep)
        wl.tracer = tracer
        with tracer.installed() if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            wl.setup(cache)
            setups.append(time.perf_counter() - t0)
        wl.tracer = None
        if rep == 0:
            wl.prepare()
        else:
            shutil.rmtree(os.path.join(work, "cache%d" % (rep - 1)), ignore_errors=True)
        lat, bad = timed_phase(wl, seconds / SETUP_REPS, len(latencies))
        latencies += lat
        failed += bad
    return setups, latencies, failed


def pass_rate(latencies, batch) -> float:
    """Ops per second of the median pass.

    Each op of the workload's pass (a position in its op list) is taken
    at its median latency over the run's passes, so a stretch in which
    the machine ran slower or faster than usual does not pull the rate
    the way a mean over all ops would.  Runs end on whole passes.
    """
    lat = np.asarray(latencies)
    passes = lat[: len(lat) // batch * batch].reshape(-1, batch)
    return batch / float(np.sum(np.median(passes, axis=0)))


def end_to_end(wl, setups, latencies) -> dict:
    lat_ms = np.asarray(latencies) * 1e3
    return {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "op_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "ops_per_s": (pass_rate(latencies, wl.batch), "1/s"),
        "peak_rss_mib": (wl.peak_rss_mib(), "MiB"),
    }


def _mean(xs):
    return float(np.mean(xs)) if len(xs) else 0.0


def _median(xs):
    return float(np.median(xs)) if len(xs) else 0.0


def per_layer(spans, n_ops, factorizations, overhead) -> dict:
    """Per-layer metrics from the spans of a traced run.

    ``calls_per_op`` counts calls inside traced ops.  Per-call times and
    facts come from the calls inside ops, or from the set-up calls for a
    function the ops never call (assembly on the stream workloads).
    """
    selfs = tracing.self_times(spans)
    by = {}
    for s, self_t in zip(spans, selfs):
        by.setdefault(s[NAME], []).append((s, self_t))
    for name, pairs in by.items():
        in_ops = [p for p in pairs if p[0][OP] is not None]
        by[name] = in_ops or pairs

    def calls(name):
        return [s for s, _ in by.get(name, [])]

    def per_op(name):
        return sum(1 for s in calls(name) if s[OP] is not None) / n_ops

    def ms(name):
        return _mean([1e3 * (s[END] - s[START]) for s in calls(name)])

    def self_ms(name):
        return _mean([1e3 * t for _, t in by.get(name, [])])

    def facts(name, key):
        return [s[INFO][key] for s in calls(name) if s[INFO]]

    m = {}
    m["assembly.assemble.calls_per_op"] = (per_op("assembly.assemble"), "count")
    m["assembly.assemble.ms_per_call"] = (ms("assembly.assemble"), "ms")
    for model in ("bc", "love"):
        sel = [s for s in calls("assembly.assemble") if s[INFO] and s[INFO]["model"] == model]
        pairs = sum(s[INFO]["pairs"] for s in sel)
        busy = sum(s[END] - s[START] for s in sel)
        m["assembly.assemble.ns_per_pair.%s" % model] = (
            1e9 * busy / pairs if pairs else 0.0, "ns")
    m["assembly.save_matrix.ms_per_call"] = (ms("assembly.save_matrix"), "ms")
    m["assembly.save_matrix.mb_written"] = (
        _mean(facts("assembly.save_matrix", "bytes")) / 1e6, "MB")
    hits = facts("assembly.load_matrix", "hit")
    m["assembly.load_matrix.calls_per_op"] = (per_op("assembly.load_matrix"), "count")
    m["assembly.load_matrix.hit_ratio"] = (_mean([float(h) for h in hits]), "ratio")
    m["assembly.load_matrix.ms_per_call"] = (ms("assembly.load_matrix"), "ms")
    read = sum(s[INFO]["bytes"] for s in calls("assembly.load_matrix")
               if s[INFO] and s[OP] is not None)
    m["assembly.load_matrix.mb_read"] = (read / 1e6 / n_ops, "MB")
    m["assembly.precompute_inverse.calls_per_op"] = (
        per_op("assembly.precompute_inverse"), "count")
    m["assembly.precompute_inverse.ms_per_call"] = (ms("assembly.precompute_inverse"), "ms")
    matrices = set(facts("assembly.precompute_inverse", "matrix"))
    m["assembly.factorizations_per_matrix"] = (factorizations / max(len(matrices), 1), "count")
    m["assembly.apply_inverse.ms_per_call"] = (ms("assembly.apply_inverse"), "ms")
    m["assembly.apply_forward.ms_per_call"] = (ms("assembly.apply_forward"), "ms")
    m["solvers.nnls_solve.ms_per_call"] = (ms("solvers.nnls_solve"), "ms")
    its = facts("solvers.nnls_solve", "iterations")
    m["solvers.nnls_solve.iterations_p50"] = (_median(its), "count")
    m["solvers.nnls_solve.iterations_max"] = (float(max(its, default=0)), "count")
    m["solvers.nnls_solve.converged_ratio"] = (
        _mean([float(c) for c in facts("solvers.nnls_solve", "converged")]), "ratio")
    m["solvers.nnls_solve.free_set_p50"] = (
        _median(facts("solvers.nnls_solve", "free_set")), "count")
    m["sensor.readings_to_displacements.ms_per_call"] = (
        ms("sensor.readings_to_displacements"), "ms")
    m["pipeline.reconstruct.self_ms_per_call"] = (self_ms("pipeline.reconstruct"), "ms")
    m["pipeline.resample.self_ms_per_call"] = (self_ms("pipeline.resample"), "ms")
    m["grid.load_grid.ms_per_call"] = (ms("grid.load_grid"), "ms")
    m["grid.read_field.ms_per_call"] = (ms("grid.read_field"), "ms")
    m["grid.write_field.ms_per_call"] = (ms("grid.write_field"), "ms")
    m["cli.main.self_ms_per_call"] = (self_ms("cli.main"), "ms")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def process_ms(code, env, reps=PROCESS_REPS) -> float:
    """Median wall time of a fresh ``python -c code`` process, in ms."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)

