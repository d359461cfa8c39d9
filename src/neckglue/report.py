"""Structured run reports: every numeric check carries its measured value,
its threshold and a pass flag; timings live in a separate section excluded
from the byte-determinism guarantee."""

from __future__ import annotations

import json
import os
import platform
import time

from . import BLAS_THREAD_VARS, __version__

__all__ = ["RunReport"]


def _environment() -> dict:
    """Python, numpy and scipy versions and the thread variables as
    neckglue's import resolved them (null: unset).  The scipy version comes
    from the installed metadata, so scipy itself is not imported."""
    from importlib import metadata

    import numpy as np

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    threads = {var: os.environ.get(var) for var in ("NECKGLUE_THREADS",) + BLAS_THREAD_VARS}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "threads": threads}


class RunReport:
    def __init__(self, command: str, config_digest: str = None):
        self.data = {
            "tool_version": __version__,
            "command": command,
            "config_digest": config_digest,
            "sections": {"environment": _environment()},
            "checks": [],
        }
        self.timings = {}
        self._t0 = time.perf_counter()

    def section(self, name: str, payload: dict) -> None:
        self.data["sections"][name] = payload

    def check(self, name: str, value: float, threshold: float, op: str = "<") -> bool:
        """Record a pass/fail check; op is '<' or '>' against the threshold."""
        value = float(value)
        ok = value < threshold if op == "<" else value > threshold
        self.data["checks"].append({
            "name": name, "value": value, "threshold": threshold,
            "op": op, "pass": bool(ok),
        })
        return bool(ok)

    def flag(self, name: str, ok: bool, detail: str = "") -> bool:
        self.data["checks"].append({
            "name": name, "pass": bool(ok), "detail": detail,
            "value": None, "threshold": None, "op": None,
        })
        return bool(ok)

    def skip(self, name: str, detail: str) -> None:
        """Record a check that was not run; it neither passes nor fails."""
        self.data["checks"].append({
            "name": name, "pass": None, "skipped": True, "detail": detail,
            "value": None, "threshold": None, "op": None,
        })

    def time_mark(self, name: str) -> None:
        self.timings[name] = time.perf_counter() - self._t0

    @property
    def all_passed(self) -> bool:
        return all(c["pass"] for c in self.data["checks"] if not c.get("skipped"))

    def to_json(self) -> str:
        payload = dict(self.data, timings=self.timings)
        return json.dumps(payload, sort_keys=True, indent=2, default=_encode)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    def print_summary(self) -> None:
        d = self.data
        print(f"neckglue {d['tool_version']} :: {d['command']}")
        if d["config_digest"]:
            print(f"config digest {d['config_digest']}")
        for c in d["checks"]:
            mark = "skip" if c.get("skipped") else "ok " if c["pass"] else "FAIL"
            if c["value"] is not None:
                print(f"  [{mark}] {c['name']}: {c['value']:.6g} {c['op']} {c['threshold']:.6g}")
            else:
                detail = f" ({c['detail']})" if c.get("detail") else ""
                print(f"  [{mark}] {c['name']}{detail}")
        verdict = "all checks passed" if self.all_passed else "SOME CHECKS FAILED"
        skipped = sum(1 for c in d["checks"] if c.get("skipped"))
        if skipped:
            verdict += f" ({skipped} skipped)"
        print(f"  => {verdict}")


def _encode(obj):
    import numpy as np

    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj)!r}")
