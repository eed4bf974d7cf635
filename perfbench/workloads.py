"""The workloads: what one set-up and one op do, and how an op is checked.

Every workload calls the package through module attributes
(``pipeline.reconstruct``, ``assembly.load_matrix``, ...), looked up at
call time, so the tracer's wrappers see the benchmark's calls too.

- ``stream-free``: capacitance frames on a 20x20 love pad with a warm
  cache: sensor conversion, free reconstruction, resample to 30x30.
- ``stream-nonneg``: noisy displacement frames on a 24x24 bc skin,
  non-negative reconstruction with a warm cache.  Its set-up builds that
  cache with one cold ``contactshape reconstruct`` process.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys

import numpy as np

from contactshape import assembly, grid, pipeline, sensor, solvers
from contactshape.sensor import ElastomerParams, TaxelReading

from . import checks, gen

PAD = 20  # stream-free pad, cells per side
PAD_PITCH = 2e-3
DISPLAY = 30  # resample grid, cells per side, over the same area
SKIN = 24  # stream-nonneg skin, cells per side
SKIN_PITCH = 2e-3

# Frames per stroke and strokes per workload; frames repeat in a cycle.
# Many short strokes, so that any run covers a good number of them.
# These are assumptions, not measured traffic: no sensor frame rate or
# stroke speed is given anywhere in the repository.  The frame-to-frame
# overlap they give is measured on every stream-nonneg run instead (see
# StreamNonneg.traffic).
STROKE_FRAMES = 8
STREAM_STROKES = 16

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_ENTRY = os.path.join(HERE, "cli_entry.py")


def _square(n, pitch, kind):
    half = 0.5 * n * pitch
    return grid.build_regular_grid((-half, -half), n, n, pitch, pitch, kind)


class Workload:
    """One workload.  ``batch`` ops make a pass; runs end on whole passes."""

    batch = STROKE_FRAMES  # a pass is one stroke; frames cycle whole strokes
    tracer = None  # set by the harness while set-ups or ops are traced

    def __init__(self, seed, work):
        self.rng = np.random.default_rng(seed)
        self.work = work
        self.params = ElastomerParams()

    def setup(self, cache_dir):
        """Everything from start to ready, timed as one set-up."""

    def prepare(self):
        """Input generation that needs set-up results (untimed)."""

    def op(self, i):
        raise NotImplementedError

    def check(self, i, out):
        """None if op i's output is correct, else a reason."""
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def traffic(self) -> dict:
        """Facts about the inputs the run actually fed (environment line)."""
        return {}

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cli(self, argv):
        """Run ``contactshape <argv>`` in a fresh process; raise if it fails.

        While traced, the process records its own spans, which are merged
        under the current op id.
        """
        cmd = [sys.executable, CLI_ENTRY]
        spans = None
        if self.tracer is not None:
            spans = os.path.join(self.work, "cli.spans")
            cmd += ["--spans", spans]
        proc = subprocess.run(cmd + argv, capture_output=True, text=True, timeout=120)
        if spans is not None and os.path.exists(spans):
            with open(spans) as fh:
                self.tracer.merge(json.load(fh), self.tracer.op)
            os.remove(spans)
        if proc.returncode != 0:
            raise RuntimeError("contactshape %s failed: %s" % (argv[0], proc.stderr.strip()))


class StreamFree(Workload):
    def __init__(self, seed, work):
        super().__init__(seed, work)
        half = 0.5 * PAD * PAD_PITCH
        self.specs = gen.trajectory_specs(self.rng, half, STREAM_STROKES, STROKE_FRAMES)
        self.zero = [TaxelReading(i, 0.0) for i in range(PAD * PAD)]

    def setup(self, cache_dir):
        p = self.params
        self.tract = _square(PAD, PAD_PITCH, "traction")
        self.disp = self.tract.retag("displacement")
        self.display = _square(DISPLAY, PAD * PAD_PITCH / DISPLAY, "displacement")
        self.C = assembly.assemble("love", self.tract, self.disp, p)
        assembly.save_matrix(self.C, cache_dir)
        self.R = assembly.assemble("love", self.tract, self.display, p)
        assembly.save_matrix(self.R, cache_dir)
        self.cache = cache_dir
        self._frame(self.zero)

    def prepare(self):
        d = gen.pressures(self.specs, self.tract) @ self.C.entries.T
        dc = np.maximum(gen.delta_c_raw(d, self.params), 0.0)
        self.frames = [[TaxelReading(i, v) for i, v in enumerate(row)] for row in dc]
        self.expect = gen.displacement_of(dc, self.params)

    def _frame(self, readings):
        d = sensor.readings_to_displacements(readings, len(self.disp), self.params)
        rep = pipeline.reconstruct(
            d, "love", self.tract, self.disp, self.params,
            constraint="free", cache_dir=self.cache,
        )
        field = pipeline.resample(rep, self.display, self.params, cache_dir=self.cache)
        return rep.tractions.values, field.values

    def op(self, i):
        return self._frame(self.frames[i % len(self.frames)])

    def check(self, i, out):
        q, field = out
        d = self.expect[i % len(self.frames)]
        return checks.check_free(self.C.entries, d, q, self.R.entries, field)

    def sizes(self):
        return {"cells": PAD * PAD, "display_cells": DISPLAY * DISPLAY,
                "pairs": PAD**4 + PAD**2 * DISPLAY**2, "frames": len(self.specs)}


class StreamNonneg(Workload):
    def __init__(self, seed, work):
        super().__init__(seed, work)
        half = 0.5 * SKIN * SKIN_PITCH
        self.specs = gen.trajectory_specs(self.rng, half, STREAM_STROKES, STROKE_FRAMES)
        centers = gen.lattice_centers(SKIN, SKIN_PITCH)
        self.grid_file = os.path.join(work, "skin.grid")
        gen.write_grid_file(self.grid_file, centers, 0.5 * SKIN_PITCH)
        self.zero_file = os.path.join(work, "zero.dat")
        gen.write_field_file(self.zero_file, centers, np.zeros(len(centers)))
        self.last = None  # (op id, NNLS support) of the last checked op
        self.overlap = {"within": [], "across": []}

    def setup(self, cache_dir):
        # The first frame goes through the command line tool, as a user's
        # first run would: a cold process that assembles the matrix and
        # writes it into the empty cache.
        self.cli([
            "reconstruct", "--model", "bc",
            "--tract-grid", self.grid_file, "--disp-grid", self.grid_file,
            "--displacements", self.zero_file, "--constraint", "nonneg",
            "--cache-dir", cache_dir,
            "--out", os.path.join(self.work, "zero-q.dat"),
            "--report", os.path.join(self.work, "zero-report.json"),
        ])
        self.tract = grid.load_grid(self.grid_file, "traction")
        self.disp = grid.load_grid(self.grid_file, "displacement")
        self.cache = cache_dir
        self._solve(np.zeros(len(self.disp)))

    def prepare(self):
        self.C = assembly.assemble("bc", self.tract, self.disp, self.params).entries
        # bc columns are per unit nodal force: load = pressure * cell area
        loads = gen.pressures(self.specs, self.tract) * self.tract.areas()
        self.frames = gen.noisy_frames(self.rng, self.C, loads)

    def _solve(self, d):
        rep = pipeline.reconstruct(
            d, "bc", self.tract, self.disp, self.params,
            constraint="nonneg", cache_dir=self.cache,
        )
        return rep.tractions.values, rep.converged

    def op(self, i):
        return self._solve(self.frames[i % len(self.frames)])

    def check(self, i, out):
        q, converged = out
        d = self.frames[i % len(self.frames)]
        self._note_support(i, np.asarray(q) > 0.0)
        return checks.check_kkt(self.C, d, q, converged, solvers.NNLS_KKT_RTOL)

    def _note_support(self, i, supp):
        """Jaccard overlap of this op's support with the previous op's."""
        if self.last is not None and self.last[0] == i - 1:
            union = np.count_nonzero(supp | self.last[1])
            jac = np.count_nonzero(supp & self.last[1]) / union if union else 1.0
            new_stroke = (i % len(self.frames)) % STROKE_FRAMES == 0
            self.overlap["across" if new_stroke else "within"].append(jac)
        self.last = (i, supp)

    def sizes(self):
        return {"cells": SKIN * SKIN, "pairs": SKIN**4, "frames": len(self.specs),
                "stroke_frames": STROKE_FRAMES}

    def traffic(self):
        within, across = self.overlap["within"], self.overlap["across"]
        n = len(within) + len(across)
        return {
            "stroke_boundary_share": len(across) / n if n else 0.0,
            "support_jaccard_within_p50": float(np.median(within)) if within else 0.0,
            "support_jaccard_within_p10": float(np.percentile(within, 10)) if within else 0.0,
            "support_jaccard_across_p50": float(np.median(across)) if across else 0.0,
        }


WORKLOADS = {
    "stream-free": StreamFree,
    "stream-nonneg": StreamNonneg,
}
