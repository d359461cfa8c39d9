"""Regenerate bench/reference.json: the certificate values the benchmark's
checks compare against, computed by the code in this checkout.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py

Run it only when a change is meant to move a reference value, and say so in
the change; the checks exist to catch every other move.  Takes a few minutes
(the ODE bound samples 64 seeds).
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ODE_BOUND_SEEDS = range(1, 65)
ODE_BOUND_FACTOR = 2.0   # the adaptive integrator's error is not linear in its data


def _run(workload, seed, tmp):
    inputs = workloads.make_inputs(workload, seed, os.getcwd(), tmp)
    work = workloads.build(workload, inputs, tmp)
    work.setup()
    return work, work.iterate()


def main() -> int:
    ref = {}
    with tempfile.TemporaryDirectory() as tmp:
        work, _ = _run("flagship_export", 0, tmp)
        with open(work.report) as fh:
            sec = json.load(fh)["sections"]
        curv = sec["curvature"]
        ref["flagship"] = {
            "alpha": [4.0, 12.0],
            "neck_fd_sup": [n["sup"] for n in curv["necks"]],
            "outer_fd_sup": curv["outer"]["sup_fd"],
            "outer_analytic_over_eps3": curv["outer"]["sup_analytic"] / work.config.epsilon**3,
        }
        work, (sups, (resid, worst)) = _run("neck_modes", 0, tmp)
        ref["neck4_minimality"] = {"fd_sup_by_level": sups}

        jacobi = work.parts[1]
        s, grids, keep = workloads.jacobi_grids(jacobi.neck)
        basis = {kind: [workloads.jacobi_residual(jacobi.neck, kind, s, grids, keep, **kw)
                        for kw in params]
                 for kind, params in workloads.jacobi_basis().items()}
        sample = [workloads.ode_worst(jacobi.spectrum, workloads.make_inputs(
                      "neck_modes", seed, os.getcwd(), tmp)["ode"])
                  for seed in ODE_BOUND_SEEDS]
        ref["jacobi_modes"] = {
            "seed0_residual": resid,
            "basis_residual": basis,
            "seed0_ode_worst": worst,
            "ode_worst_bound": ODE_BOUND_FACTOR * max(sample + [worst]),
            "ode_worst_sample_max": max(sample),
        }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
