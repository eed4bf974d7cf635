"""Spans around calls into contactshape, recorded from outside the package.

A Tracer replaces a public function at every name in the package's
modules that refers to it, which is the name its callers look up at call
time (``assembly.load_matrix`` as ``pipeline`` sees it, ``load_grid`` as
imported into ``cli``), and puts the originals back afterwards.  Spans
(name, start, end, parent, op id, info) stay in memory until the run
ends.  Per-call facts such as pair counts or NNLS iterations are taken
from arguments and results after the span is closed, but while its
parent is still open, so an extractor that does real work (hashing a
matrix's grids, counting a support) only keeps references there and
returns a function that ``Tracer.resolve`` calls once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

from contactshape import assembly

NAME, START, END, PARENT, OP, INFO = range(6)


def _mat_arg(args, kwargs):
    return args[0] if args else kwargs.get("mat")


def _assemble_info(args, kwargs, result):
    return {"model": result.model, "pairs": len(result.tract_grid) * len(result.disp_grid)}


def _save_info(args, kwargs, result):
    return {"bytes": int(_mat_arg(args, kwargs).entries.nbytes)}


def _load_info(args, kwargs, result):
    if result is None:
        return {"hit": False, "bytes": 0}
    return {"hit": True, "bytes": int(result.entries.nbytes)}


def _inverse_info(args, kwargs, result):
    mat = _mat_arg(args, kwargs)
    key = (mat.model, mat.tract_grid, mat.disp_grid, mat.params, mat.normal_only, mat.psi_mode)
    return lambda: {"matrix": assembly.matrix_key(*key)}


def _nnls_info(args, kwargs, result):
    iterations, converged, x = result.iterations, result.converged, result.x
    return lambda: {
        "iterations": int(iterations),
        "converged": bool(converged),
        "free_set": int((x > 0.0).sum()),
    }


# Span name -> (defining module, attribute, info extractor).  The span
# name is the layer (module) and function the metric names use.
TARGETS = {
    "assembly.assemble": ("contactshape.assembly", "assemble", _assemble_info),
    "assembly.save_matrix": ("contactshape.assembly", "save_matrix", _save_info),
    "assembly.load_matrix": ("contactshape.assembly", "load_matrix", _load_info),
    "assembly.precompute_inverse": ("contactshape.assembly", "precompute_inverse", _inverse_info),
    "assembly.apply_inverse": ("contactshape.assembly", "apply_inverse", None),
    "assembly.apply_forward": ("contactshape.assembly", "apply_forward", None),
    "solvers.nnls_solve": ("contactshape.solvers", "nnls_solve", _nnls_info),
    "sensor.readings_to_displacements": ("contactshape.sensor", "readings_to_displacements", None),
    "pipeline.reconstruct": ("contactshape.pipeline", "reconstruct", None),
    "pipeline.resample": ("contactshape.pipeline", "resample", None),
    "grid.load_grid": ("contactshape.grid", "load_grid", None),
    "grid.read_field": ("contactshape.grid", "read_field", None),
    "grid.write_field": ("contactshape.grid", "write_field", None),
    "cli.main": ("contactshape.cli", "main", None),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span of the benchmark's own, such as one op."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                try:
                    self.spans[idx][INFO] = info(args, kwargs, result)
                except (AttributeError, TypeError, IndexError):
                    pass  # a changed signature or result loses the facts, not the span
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every package-level binding of each target; restore on exit."""
        saved = []
        try:
            for name, (module, attr, info) in TARGETS.items():
                orig = getattr(importlib.import_module(module), attr, None)
                if orig is None:
                    continue
                wrapper = self._wrap(name, orig, info)
                for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "contactshape"]:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            saved.append((mod, key, orig))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for mod, key, orig in reversed(saved):
                setattr(mod, key, orig)

    def merge(self, spans, op):
        """Append spans recorded in another process, under op id ``op``."""
        base = len(self.spans)
        for s in spans:
            parent = None if s[PARENT] is None else s[PARENT] + base
            self.spans.append([s[NAME], s[START], s[END], parent, op, s[INFO]])

    def resolve(self) -> None:
        """Replace deferred facts by their values; call when no span is open."""
        for s in self.spans:
            if callable(s[INFO]):
                try:
                    s[INFO] = s[INFO]()
                except (AttributeError, TypeError, IndexError):
                    s[INFO] = None

    def dump(self, path) -> None:
        self.resolve()
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for c in sorted(children[i], key=lambda c: spans[c][START]):
            lo = max(spans[c][START], reach)
            hi = min(spans[c][END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[END] - s[START]) - covered)
    return out
