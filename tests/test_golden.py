"""Pinned output: the flagship `glue` report and export bytes, and the
`interaction` and `validate` reports of the flagship and of three ends.

These tests hold a refactor to "the same behaviour": a change that is meant
to keep every number must pass them unchanged.  Regenerating a file under
tests/golden/ or the digests below is a declared change of the program's
output, to be named and explained with the change that makes it.  A golden
report is `neckglue COMMAND CONFIG --report` without `timings` and
`sections.environment`, written by json.dumps(doc, indent=1,
sort_keys=True); every float round-trips exactly through JSON.

tests/golden/three_ends_n3.json has k = 3 ends at n = 3, so three pairs:
points on the radius-1.2 sphere (rounded to 1e-6) and SO(3) twists drawn
with numpy's default_rng(0) and scipy's special_ortho_group, epsilon 1e-6,
rho_* 0.25, and A0 the min-norm solution of Lambda = Gamma 1, so that
alpha = 1.  Every pair passes H1 (the smallest residual is 0.043), so a
moved Gamma entry, H1 residual or check order shows in its reports.
"""

import hashlib
import json
import pathlib

import pytest

from neckglue.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
FLAGSHIP = ROOT / "configs" / "flagship.json"
GOLDEN = ROOT / "tests" / "golden"
GOLDEN_REPORT = GOLDEN / "flagship_glue.json"
THREE_ENDS = GOLDEN / "three_ends_n3.json"

# glue --export on the flagship at neck_s_nodes 17, neck_angle_nodes [9, 16]
# and outer_spacing 0.6: sha256 of the PLY and the CSV file
COARSE_EXPORT_OPTIONS = {"neck_s_nodes": 17, "neck_angle_nodes": [9, 16], "outer_spacing": 0.6}
COARSE_EXPORT_SHA256 = {
    "ply": "5a477051f845d1f5778ffc999552535eb0a9b6e4d5339e8b54ad922fcaa5db28",
    "csv": "1a96a0e516865aa5d8e18c91bc285c3acbb683ab8e1e0c2cc89720d9ed35572c",
}


def pinned_report(tmp_path, command, config):
    """The report of `command config` without timings and environment."""
    report = tmp_path / "report.json"
    assert main(["--report", str(report), command, str(config)]) == 0
    doc = json.loads(report.read_text())
    doc.pop("timings")
    doc["sections"].pop("environment")
    return doc


def test_flagship_glue_report_is_pinned(tmp_path):
    assert pinned_report(tmp_path, "glue", FLAGSHIP) == json.loads(GOLDEN_REPORT.read_text())


@pytest.mark.parametrize("command, config, golden", [
    ("interaction", FLAGSHIP, "flagship_interaction.json"),
    ("interaction", THREE_ENDS, "three_ends_n3_interaction.json"),
    ("validate", THREE_ENDS, "three_ends_n3_validate.json"),
], ids=["interaction-flagship", "interaction-three-ends", "validate-three-ends"])
def test_interaction_report_is_pinned(tmp_path, command, config, golden):
    assert pinned_report(tmp_path, command, config) == json.loads((GOLDEN / golden).read_text())


def test_coarse_flagship_export_bytes_are_pinned(tmp_path):
    doc = json.loads(FLAGSHIP.read_text())
    doc["options"].update(COARSE_EXPORT_OPTIONS)
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps(doc))
    assert main(["glue", str(cfg), "--export", str(tmp_path / "out.ply")]) == 0
    digests = {kind: hashlib.sha256((tmp_path / f"out.{kind}").read_bytes()).hexdigest()
               for kind in ("ply", "csv")}
    assert digests == COARSE_EXPORT_SHA256
