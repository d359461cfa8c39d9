"""One workload in a fresh process: set up, say "ready", run timed
iterations for the requested number of seconds, check each one, and write
the results to a JSON file.

Started by run.py with the BLAS/OpenMP pools pinned and PYTHONPATH pointing
at the checkout's src/.  With --probe it stops after set-up, so the harness
can time set-up on its own.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads
from tracing import SPANS, Tracer


def _threads() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _run_one(work, ref, seed):
    """One checked iteration; returns (wall seconds, error list)."""
    start = time.perf_counter()
    try:
        outcome = work.iterate()
    except Exception:  # a failed iteration is counted, not fatal
        wall = time.perf_counter() - start
        return wall, ["raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
    wall = time.perf_counter() - start
    try:
        errors = work.check(outcome, ref, seed)
    except Exception:
        errors = ["check raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
    return wall, errors


def _loop(work, ref, seed, budget, phase, out, tracer=None, min_iters=1):
    """Iterate until the next iteration would overrun the budget."""
    start = time.perf_counter()
    took = []
    while len(took) < min_iters or (time.perf_counter() - start
                                     + statistics.median(took) <= budget):
        t0 = time.perf_counter()
        run_id = len(out)
        if tracer is not None:
            tracer.run_id = run_id
        wall, errors = _run_one(work, ref, seed)
        out.append({"phase": phase, "run": run_id, "wall_s": wall, "errors": errors})
        took.append(time.perf_counter() - t0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, help="directory holding inputs.json")
    ap.add_argument("--reference", default=None)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)

    with open(os.path.join(args.dir, "inputs.json")) as fh:
        inputs = json.load(fh)
    work = workloads.build(args.workload, inputs, args.dir)
    work.setup()
    print("ready", flush=True)
    if args.probe:
        return 0

    import neckglue

    with open(args.reference) as fh:
        ref = json.load(fh)
    iterations = []
    # warm-up: one whole iteration, export included, so timing starts with
    # every code path run once; it is checked and counted but not timed.
    # The size-recording wrappers only run here, to log each kernel call's
    # input size.
    sizes = Tracer(kernels_only=True)
    sizes.install()
    sizes.run_id = 0
    wall, errors = _run_one(work, ref, args.seed)
    sizes.uninstall()
    iterations.append({"phase": "warmup", "run": 0, "wall_s": wall, "errors": errors})

    tracer = None
    if args.trace:
        half = args.seconds / 2.0
        _loop(work, ref, args.seed, half, "untraced", iterations)
        tracer = Tracer()
        tracer.install()
        _loop(work, ref, args.seed, half, "traced", iterations, tracer)
        tracer.uninstall()
    else:
        _loop(work, ref, args.seed, args.seconds, "measured", iterations, min_iters=2)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "iterations": iterations,
        "peak_rss_mb": _peak_rss_mb(),
        "threads": _threads(),
        "neckglue_file": neckglue.__file__,
        "kernel_calls": [{k: r[k] for k in r if k not in ("run", "span")}
                         for r in sizes.records],
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, iterations)
        with open(os.path.join(args.dir, "trace.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    with open(os.path.join(args.dir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def _per_run(tracer, run_id, wall):
    """Per-layer values of one traced iteration."""
    selfs, top = tracer.self_times(run_id)
    recs = [r for r in tracer.records if r["run"] == run_id]
    m = {f"{name}.self_s": selfs.get(name, 0.0) for name in SPANS}

    def total(name, key):
        return sum(r[key] for r in recs if r["name"] == name)

    def peak(name):
        return max([r["peak_alloc_mb"] for r in recs if r["name"] == name] or [0.0])

    mcf = "geometry.mean_curvature_field"
    nodes = total(mcf, "nodes")
    m[f"{mcf}.calls"] = sum(1 for r in recs if r["name"] == mcf)
    m[f"{mcf}.nodes"] = nodes
    m[f"{mcf}.nodes_per_s"] = nodes / m[f"{mcf}.self_s"] if nodes else 0.0
    m[f"{mcf}.valid_ratio"] = total(mcf, "valid") / nodes if nodes else 0.0
    m[f"{mcf}.input_mb"] = total(mcf, "input_mb")
    m[f"{mcf}.peak_alloc_mb"] = peak(mcf)
    gmc = "green.graph_mean_curvature"
    m[f"{gmc}.points"] = total(gmc, "points")
    m[f"{gmc}.peak_alloc_mb"] = peak(gmc)
    for exp in ("assembler.export_ply", "assembler.export_csv"):
        size = total(exp, "bytes")
        m[f"{exp}.bytes"] = size
        m[f"{exp}.rows"] = total(exp, "rows")
        m[f"{exp}.mb_per_s"] = size / 1e6 / m[f"{exp}.self_s"] if size else 0.0
    la = "neck.linearized_apply"
    la_nodes = total(la, "nodes")
    m[f"{la}.nodes_per_s"] = la_nodes / m[f"{la}.self_s"] if la_nodes else 0.0
    m["spectrum.mode_system_matrix.calls"] = tracer.counts.get(
        (run_id, "spectrum.mode_system_matrix"), 0)
    m["cli.unattributed_s"] = wall - top
    m["trace.coverage"] = top / wall
    return m


def layer_metrics(tracer, iterations):
    """Medians over the traced iterations; tracing overhead is the traced
    minus the untraced median wall time."""
    traced = [it for it in iterations if it["phase"] == "traced"]
    untraced = [it["wall_s"] for it in iterations if it["phase"] == "untraced"]
    per = [_per_run(tracer, it["run"], it["wall_s"]) for it in traced]
    out = {key: statistics.median(p[key] for p in per) for key in per[0]}
    out["trace.overhead_s"] = (statistics.median(it["wall_s"] for it in traced)
                               - statistics.median(untraced))
    return out


if __name__ == "__main__":
    sys.exit(main())
