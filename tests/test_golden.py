"""Pinned output of the flagship: the `glue` report and the export bytes.

These tests hold a refactor to "the same behaviour": a change that is meant
to keep every number must pass them unchanged.  Regenerating
tests/golden/flagship_glue.json or the digests below is a declared change of
the program's output, to be named and explained with the change that makes
it.  The golden report is `neckglue glue configs/flagship.json --report`
without `timings` and `sections.environment`, written by json.dumps(doc,
indent=1, sort_keys=True); every float round-trips exactly through JSON.
"""

import hashlib
import json
import pathlib

from neckglue.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
FLAGSHIP = ROOT / "configs" / "flagship.json"
GOLDEN_REPORT = ROOT / "tests" / "golden" / "flagship_glue.json"

# glue --export on the flagship at neck_s_nodes 17, neck_angle_nodes [9, 16]
# and outer_spacing 0.6: sha256 of the PLY and the CSV file
COARSE_EXPORT_OPTIONS = {"neck_s_nodes": 17, "neck_angle_nodes": [9, 16], "outer_spacing": 0.6}
COARSE_EXPORT_SHA256 = {
    "ply": "5a477051f845d1f5778ffc999552535eb0a9b6e4d5339e8b54ad922fcaa5db28",
    "csv": "1a96a0e516865aa5d8e18c91bc285c3acbb683ab8e1e0c2cc89720d9ed35572c",
}


def test_flagship_glue_report_is_pinned(tmp_path):
    report = tmp_path / "glue.json"
    assert main(["--report", str(report), "glue", str(FLAGSHIP)]) == 0
    doc = json.loads(report.read_text())
    doc.pop("timings")
    doc["sections"].pop("environment")
    assert doc == json.loads(GOLDEN_REPORT.read_text())


def test_coarse_flagship_export_bytes_are_pinned(tmp_path):
    doc = json.loads(FLAGSHIP.read_text())
    doc["options"].update(COARSE_EXPORT_OPTIONS)
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps(doc))
    assert main(["glue", str(cfg), "--export", str(tmp_path / "out.ply")]) == 0
    digests = {kind: hashlib.sha256((tmp_path / f"out.{kind}").read_bytes()).hexdigest()
               for kind in ("ply", "csv")}
    assert digests == COARSE_EXPORT_SHA256
