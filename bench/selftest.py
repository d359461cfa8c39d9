"""Self-test of the benchmark harness (about five minutes).

    python3 bench/selftest.py

Runs every workload once at seed 0, untraced and traced, and asserts that
each run passes its certificate checks and prints every metric named in
BENCHMARK.json, plus fail_ratio, with its unit.  Then runs flagship_export
against a deliberately corrupted reference value and asserts that this shows
up as failed iterations in a normal result, not as a crash.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "1"


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", SECONDS, "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_printed(lines, name, unit):
    assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), \
        f"metric {name} [{unit}] not printed"


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            lines, result = run(w["name"], trace)
            assert result["correct"] and result["failed"] == 0, (w["name"], trace, result)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, f"{w['name']} trace {trace}: metrics {sorted(set(got) ^ set(want))}"
            for name, unit in dict(want, fail_ratio="ratio").items():
                check_printed(lines, name, unit)
            print(f"ok  {w['name']:<18} trace {trace}: {result['attempted']} iterations, "
                  f"{len(want)} metrics")

    outdir = os.path.join(HERE, "out", "selftest")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    ref["flagship"]["alpha"][1] += 0.5
    corrupt = os.path.join(outdir, "reference.json")
    with open(corrupt, "w") as fh:
        json.dump(ref, fh)
    lines, result = run("flagship_export", 0, "--reference", corrupt)
    assert not result["correct"] and result["failed"] > 0, result
    assert result["failed"] == result["attempted"], result
    check_printed(lines, "fail_ratio", "ratio")
    print(f"ok  corrupted reference: fail_ratio {result['failed']}/{result['attempted']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
