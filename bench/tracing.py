"""Spans and counters recorded from outside the program.

The tracer replaces public neckglue functions by timing wrappers wherever a
caller looks them up: the defining module and every neckglue module that
imported the name at import time (``assembler.mean_curvature_field`` is the
same object as ``geometry.mean_curvature_field``; ``cli.cmd_neck`` imports
from ``geometry`` at call time, so the module attribute covers it).  Spans
and counts stay in memory and are written out when the worker exits.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc

import numpy as np

# Public functions timed as spans, by module.  green_eval/green_gradient/
# green_hessian stay unwrapped on purpose: they are the inner work of the
# spans below, so their cost stays in their parent's self time.
SPANS = (
    "cli.parse_config",
    "config.build_interaction_system",
    "green.balance_residual",
    "green.graph_patch",
    "green.graph_mean_curvature",
    "assembler.assemble",
    "assembler.boundary_gap",
    "assembler.curvature_report",
    "assembler.export_ply",
    "assembler.export_csv",
    "geometry.mean_curvature_field",
    "neck.neck_patch",
    "neck.jacobi_field",
    "neck.linearized_apply",
    "matching.sh_analyze",
    "matching.match_boundaries",
    "spectrum.integrate_mode_system",
)

# Called thousands of times per ODE solve (once per right-hand side), so
# only counted: a span per call would dominate what it measures.
COUNTED = ("spectrum.mode_system_matrix",)

# Kernels whose per-call sizes are recorded (input_mb is computed from the
# array sizes, not measured) and whose peak allocation is read with
# tracemalloc in the traced run.
KERNELS = ("geometry.mean_curvature_field", "green.graph_mean_curvature",
           "neck.linearized_apply")

MB = 1e6


def _kernel_sizes(name, args, kwargs, result):
    """Work counts of one kernel call, from its arguments and result."""
    if name == "geometry.mean_curvature_field":
        patch = args[0] if args else kwargs["patch"]
        nodes = int(np.prod(patch.samples.shape[:-1]))
        _, valid = result
        return {"nodes": nodes, "valid": int(np.count_nonzero(valid)),
                "input_mb": patch.samples.nbytes / MB}
    if name == "green.graph_mean_curvature":
        x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
        return {"points": int(np.prod(x.shape[:-1])), "input_mb": x.nbytes / MB}
    field = args[0] if args else kwargs["field"]
    return {"nodes": int(field.f.size),
            "input_mb": (field.f.nbytes + field.T.nbytes) / MB}


def _export_sizes(args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        head = fh.read(4096)
    if head.startswith(b"ply"):
        # rows from the header, so binary PLY counts the same as ASCII
        for line in head.split(b"\n"):
            if line.startswith(b"element vertex"):
                return {"bytes": size, "rows": int(line.split()[2])}
    with open(path, "rb") as fh:
        rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
    return {"bytes": size, "rows": rows}


class Tracer:
    """Installs wrappers, records spans (name, start, end, parent, run id),
    counts and per-call kernel records."""

    def __init__(self, kernels_only: bool = False):
        # kernels_only: wrap just the kernels to log their input sizes, with
        # no allocation tracing (used on the untimed warm-up)
        self.kernels_only = kernels_only
        self.run_id = None
        self.spans = []        # [name, start, end, parent index, run id]
        self.counts = {}       # (run id, name) -> calls
        self.records = []      # per-call dicts for kernels and exporters
        self._stack = []
        self._saved = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        wanted = KERNELS if self.kernels_only else SPANS + COUNTED
        for qual in wanted:
            importlib.import_module("neckglue." + qual.split(".")[0])
        mods = [mod for name, mod in sys.modules.items()
                if mod is not None and (name == "neckglue" or name.startswith("neckglue."))]
        for qual in wanted:
            modname, attr = qual.split(".")
            original = getattr(sys.modules["neckglue." + modname], attr)
            wrapper = self._wrap(qual, original)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def _wrap(self, qual, fn):
        if qual in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                key = (self.run_id, qual)
                self.counts[key] = self.counts.get(key, 0) + 1
                return fn(*args, **kwargs)
            return counted

        kernel = qual in KERNELS
        exporter = qual.startswith("assembler.export_")

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            trace_mem = kernel and not self.kernels_only and not tracemalloc.is_tracing()
            parent = self._stack[-1] if self._stack else None
            index = len(self.spans)
            self.spans.append([qual, 0.0, 0.0, parent, self.run_id])
            self._stack.append(index)
            if trace_mem:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                peak = tracemalloc.get_traced_memory()[1] if trace_mem else None
                if trace_mem:
                    tracemalloc.stop()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if kernel or exporter:
                rec = (_kernel_sizes(qual, args, kwargs, result) if kernel
                       else _export_sizes(args, kwargs))
                rec.update(name=qual, run=self.run_id, span=index)
                if peak is not None:
                    rec["peak_alloc_mb"] = peak / MB
                self.records.append(rec)
            return result
        return spanned

    # -- analysis ---------------------------------------------------------

    def self_times(self, run_id):
        """Per-span self time (duration minus direct children) of one run,
        plus the summed duration of its top-level spans."""
        dur = {}
        child = {}
        top = 0.0
        for i, (name, start, end, parent, run) in enumerate(self.spans):
            if run != run_id:
                continue
            dur[i] = end - start
            if parent is None:
                top += end - start
            else:
                child[parent] = child.get(parent, 0.0) + end - start
        selfs = {}
        for i, d in dur.items():
            name = self.spans[i][0]
            selfs[name] = selfs.get(name, 0.0) + d - child.get(i, 0.0)
        return selfs, top

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "counts": [[run, name, n] for (run, name), n in self.counts.items()],
            "records": self.records,
        }
