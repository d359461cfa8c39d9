"""neckglue benchmark harness.

Run from the root of a checkout:

    python3 bench/run.py --workload flagship_export --seed 0 --seconds 45 --trace 0

Generates the workload's inputs from the seed, times set-up in fresh
processes, runs the workload in one more fresh process (bench/worker.py)
with the BLAS/OpenMP pools pinned to one thread and the checkout's src/ on
PYTHONPATH, and prints every metric by name with its unit.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones from a traced run.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 2          # set-up-only processes; the worker's own set-up is one more sample
PINNED_THREADS = "1"
DEADLINE_S = 170          # a run ends within this many seconds, finished or not


def unit_of(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    return {"calls": "count", "nodes": "count", "points": "count", "rows": "count",
            "nodes_per_s": "1/s", "valid_ratio": "ratio", "coverage": "ratio",
            "input_mb": "MB", "peak_alloc_mb": "MB", "peak_rss_mb": "MB",
            "bytes": "B", "mb_per_s": "MB/s", "fail_ratio": "ratio"}[suffix]


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # NECKGLUE_THREADS has no effect at this commit, so the pools are pinned
    # directly; it is set too so the pin holds once it does.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NECKGLUE_THREADS"):
        env[var] = PINNED_THREADS
    return env


def _stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def start_until_ready(cmd, env, cwd, timeout):
    """Start a worker and return (process, seconds from start to its
    "ready" line), or (process, None) when it exits or times out first."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True)
    try:
        if not select.select([proc.stdout], [], [], timeout)[0]:
            _stop(proc)
            return proc, None
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        return proc, (ready if line.strip() == "ready" else None)
    except BaseException:
        _stop(proc)
        raise


def _read(path, key, default=None):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return default


def provenance(root: str, seed: int, worker: dict) -> dict:
    """Machine, software and input facts that produced a result."""
    src = os.path.join(root, "src", "neckglue")
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    try:
        # the ceiling keeps git from reporting an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "mem_total": _read("/proc/meminfo", "MemTotal"),
        "cpu_model": _read("/proc/cpuinfo", "model name"),
        "cache_size_cpuinfo": _read("/proc/cpuinfo", "cache size"),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "pinned_threads": PINNED_THREADS,
        "effective_threads": worker.get("threads"),
        "git_commit": commit or "unavailable (checkout is not a git repository)",
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "kernel_input_mb": [[r["name"], round(r["input_mb"], 6)]
                            for r in worker.get("kernel_calls", [])],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"),
                    help="certificate reference values (default: bench/reference.json)")
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "neckglue", "__init__.py")):
        print("error: run from the root of a neckglue checkout (src/neckglue not found)",
              file=sys.stderr)
        return 2

    outdir = os.path.join(HERE, "out", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    inputs = workloads.make_inputs(args.workload, args.seed, root, outdir)
    with open(os.path.join(outdir, "inputs.json"), "w") as fh:
        json.dump(inputs, fh)

    env = child_env(root)
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--dir", outdir]
    setup = []
    for _ in range(SETUP_PROBES):
        proc, ready = start_until_ready(base + ["--probe"], env, root, 60)
        try:
            proc.communicate(timeout=60)
        finally:
            _stop(proc)
        if ready is None or proc.returncode != 0:
            print(f"error: set-up of {args.workload} failed", file=sys.stderr)
            return 1
        setup.append(ready)

    cmd = base + ["--reference", os.path.abspath(args.reference),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc, ready = start_until_ready(cmd, env, root, 60)
    try:
        proc.communicate(timeout=max(1.0, DEADLINE_S - (time.monotonic() - t_start)))
    except subprocess.TimeoutExpired:
        print("error: worker timed out", file=sys.stderr)
        return 1
    finally:
        _stop(proc)
        for path in glob.glob(os.path.join(outdir, "*.ply")) + glob.glob(
                os.path.join(outdir, "*.csv")):
            os.remove(path)
    if ready is None or proc.returncode != 0:
        print(f"error: worker for {args.workload} exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    setup.append(ready)
    with open(os.path.join(outdir, "result.json")) as fh:
        result = json.load(fh)
    return report(args, root, outdir, result, setup)


def wall_line(phase, walls):
    """Sample count, median and the highest percentile that still has ten
    samples above it (only once a run has more than twenty samples)."""
    walls = sorted(walls)
    line = f"wall_s {phase}: {len(walls)} samples, p50 {statistics.median(walls):.4f} s"
    j = len(walls) - 11           # v[j] has exactly ten samples above it
    if j > len(walls) // 2:
        line += f", p{100 * (j + 1) // len(walls)} {walls[j]:.4f} s"
    return line


def report(args, root, outdir, result, setup) -> int:
    iters = result["iterations"]
    attempted = len(iters)
    failed = sum(1 for it in iters if it["errors"])
    for it in iters:
        for err in it["errors"]:
            print(f"FAILED iteration {it['run']} ({it['phase']}): {err}", file=sys.stderr)
    prov = provenance(root, args.seed, result)

    walls = [it["wall_s"] for it in iters if it["phase"] == "measured"]
    e2e = {"setup_s": statistics.median(setup), "peak_rss_mb": result["peak_rss_mb"]}
    if walls:
        e2e = {"wall_s": statistics.median(walls), **e2e}
    layers = result.get("layers", {})
    metrics = layers if args.trace else e2e

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("provenance " + json.dumps(prov))
    for phase in ("measured", "untraced", "traced"):
        walls = [it["wall_s"] for it in iters if it["phase"] == phase]
        if walls:
            print(wall_line(phase, walls))
    print(f"setup_s samples {len(setup)}: " + " ".join(f"{s:.4f}" for s in setup))
    shown = dict(e2e, fail_ratio=failed / attempted, **layers)
    for name, value in shown.items():
        print(f"  {name:<48} {value:>16.6g} {unit_of(name)}")
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "provenance": prov, "setup_samples": setup, "metrics": shown,
               "iterations": iters}
    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
