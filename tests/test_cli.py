import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from neckglue.cli import OPTION_DEFAULTS, main, parse_config

FLAGSHIP = {
    "n": 3,
    "points": [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
    "rotations": [
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]],
    ],
    "A0": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "epsilon": 1e-4,
    "rho_star": 0.45,
}


# options of the deleted Monte Carlo rule: refused as unknown keys, whatever their value
RETIRED_OPTIONS = ("mc_samples", "seed")


def assert_option_refused(err, key, message):
    if key in RETIRED_OPTIONS:
        assert f"unknown options key {key!r}" in err
        assert message not in err
    else:
        assert message in err


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_flagship_fixture_in_repo(self):
        import pathlib

        fixture = pathlib.Path(__file__).resolve().parents[1] / "configs" / "flagship.json"
        config, options = parse_config(str(fixture))
        assert config.n == 3 and config.k == 2
        assert options.get("sh_degree") == 8

    def test_flat_rotations_accepted(self, tmp_path):
        doc = dict(FLAGSHIP)
        doc["rotations"] = [np.eye(3).ravel().tolist(),
                            np.asarray(FLAGSHIP["rotations"][1]).ravel().tolist()]
        config, _ = parse_config(write_config(tmp_path, doc))
        assert config.k == 2

    def test_malformed_json_line_anchored(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "n": 3,\n  "points": [[1, 0, 0],,]\n}\n')
        with pytest.raises(ValueError, match=r"line 3 column"):
            parse_config(str(path))

    def test_non_orthogonal_rotation_reports_defect(self, tmp_path):
        doc = dict(FLAGSHIP)
        doc["rotations"] = [np.eye(3).tolist(), (1.001 * np.eye(3)).tolist()]
        with pytest.raises(ValueError, match="orthogonality defect"):
            parse_config(write_config(tmp_path, doc))

    def test_duplicate_points_named(self, tmp_path):
        doc = dict(FLAGSHIP)
        doc["points"] = [[1.0, 0, 0], [1.0, 0, 0]]
        with pytest.raises(ValueError, match=r"points\[0\] and points\[1\]"):
            parse_config(write_config(tmp_path, doc))

    def test_wrong_matrix_shape(self, tmp_path):
        doc = dict(FLAGSHIP)
        doc["A0"] = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError):
            parse_config(write_config(tmp_path, doc))

    def test_missing_key(self, tmp_path):
        doc = {k: v for k, v in FLAGSHIP.items() if k != "epsilon"}
        with pytest.raises(ValueError, match="epsilon"):
            parse_config(write_config(tmp_path, doc))


class TestCommands:
    def test_validate_flagship_passes(self, tmp_path, capsys):
        code = main(["validate", write_config(tmp_path, FLAGSHIP)])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        assert "alpha = [4.0, 12.0]" in out

    def test_validate_h3_failure_exit_one(self, tmp_path, capsys):
        doc = dict(FLAGSHIP)
        doc["A0"] = (-np.eye(3)).tolist()
        code = main(["validate", write_config(tmp_path, doc)])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_input_error_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["validate", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("rotations", 5, "rotations must be a non-empty list of 3 x 3 matrices, got 5"),
        ("rotations", [], "rotations must be a non-empty list of 3 x 3 matrices, got []"),
        ("points", "abc", "points must be numeric: got 'abc'"),
        ("rotations", None, "missing required key 'rotations'"),
        ("A0", [1, 2, 3], "A0 must be a matrix of shape (3, 3), nested or flat, got shape (3,)"),
        # numpy would read these as numbers
        ("epsilon", "1e-4", "epsilon must be numeric: got '1e-4'"),
        ("epsilon", True, "epsilon must be numeric: got True"),
        ("rho_star", "0.45", "rho_star must be numeric: got '0.45'"),
        ("points", [[1.0, 0.0, "0"], [-1.0, 0.0, 0.0]], "points must be numeric: got '0'"),
        ("rotations", [np.eye(3).tolist(), [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, True, 0.0]]],
         "rotations[1] must be numeric: got True"),
        ("A0", [[1.0, 0.0, 0.0], ["0", 1.0, 0.0], [0.0, 0.0, 1.0]],
         "A0 must be numeric: got '0'"),
        ("A0", [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, False], "A0 must be numeric: got False"),
    ], ids=["rotations-int", "rotations-empty", "points-string", "rotations-missing",
            "A0-three-entries", "epsilon-string", "epsilon-bool", "rho_star-string",
            "points-entry-string", "rotations-entry-bool", "A0-entry-string", "A0-flat-bool"])
    def test_malformed_value_names_its_key(self, tmp_path, capsys, key, value, message):
        doc = dict(FLAGSHIP)
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["validate", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: validate: {cfg}: {message}")
        assert err.count(cfg) == 1

    @pytest.mark.parametrize("key, value", [
        ("A0", [[math.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        ("epsilon", math.inf),
        ("points", [[1.0, 0.0, math.nan], [-1.0, 0.0, 0.0]]),
        ("rotations", [np.eye(3).tolist(), [[1.0, 0.0, 0.0], [0.0, math.nan, -1.0],
                                            [0.0, 1.0, 0.0]]]),
        ("rho_star", -math.inf),
    ])
    def test_non_finite_input_exit_two(self, tmp_path, capsys, key, value):
        doc = dict(FLAGSHIP)
        doc[key] = value  # serialized as the JSON extensions NaN / Infinity
        assert main(["validate", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"{key} must be finite" in err

    @pytest.mark.parametrize("value", [3.7, "3", True])
    def test_non_integral_n_exit_two(self, tmp_path, capsys, value):
        doc = dict(FLAGSHIP, n=value)
        assert main(["validate", write_config(tmp_path, doc)]) == 2
        assert "n must be an integer" in capsys.readouterr().err

    def test_unknown_option_exit_two(self, tmp_path, capsys):
        doc = dict(FLAGSHIP, options={"sh_degree": 8, "quadrature_node": 16})
        assert main(["validate", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "unknown options key 'quadrature_node'" in err
        for key in ("quadrature_nodes", "sh_degree", "neck_s_nodes", "neck_angle_nodes",
                    "outer_spacing"):
            assert key in err

    @pytest.mark.parametrize("n, nodes, accepted", [(6, None, False), (6, 16, True),
                                                    (5, 32, True), (5, 33, False)])
    def test_rule_node_budget(self, tmp_path, capsys, n, nodes, accepted):
        # quadrature_nodes^(n - 1) <= 2^20: n = 6 needs <= 16 nodes per angle
        doc = {"n": n, "points": [np.eye(n)[0].tolist(), (-np.eye(n)[0]).tolist()],
               "rotations": [np.eye(n).tolist()] * 2, "A0": np.eye(n).tolist(),
               "epsilon": 1e-4, "rho_star": 0.45,
               "options": {} if nodes is None else {"quadrature_nodes": nodes}}
        cfg = write_config(tmp_path, doc)
        if accepted:
            assert parse_config(cfg)[1]["quadrature_nodes"] == nodes
        else:
            assert main(["validate", cfg]) == 2
            assert "quadrature_nodes^(n - 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["quadrature_nodes", "mc_samples", "seed", "sh_degree",
                                     "neck_s_nodes"])
    @pytest.mark.parametrize("value", [True, 8.7, "many"])
    def test_non_integer_option_exit_two(self, tmp_path, capsys, key, value):
        doc = dict(FLAGSHIP, options={key: value})
        assert main(["interaction", write_config(tmp_path, doc)]) == 2
        assert_option_refused(capsys.readouterr().err, key, f"{key} must be an integer")

    @pytest.mark.parametrize("value", [0, -0.3, math.inf, math.nan, True, "wide"])
    def test_bad_outer_spacing_exit_two(self, tmp_path, capsys, value):
        doc = dict(FLAGSHIP, options={"outer_spacing": value})
        assert main(["glue", write_config(tmp_path, doc)]) == 2
        assert "outer_spacing must be a positive finite number" in capsys.readouterr().err

    def test_glue_needs_a_rule_resolving_sh_degree(self, tmp_path, capsys):
        # the matching gaps are analyzed on the sphere rule, whose azimuth
        # integrates degree-2 sh_degree products on 2 sh_degree + 1 nodes
        doc = dict(FLAGSHIP, options={"sh_degree": 16, "quadrature_nodes": 32})
        assert main(["glue", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert "sh_degree 16 needs quadrature_nodes >= 2 sh_degree + 1 = 33, got 32" in err

    def test_outer_spacing_must_stay_inside_the_box(self, tmp_path, capsys):
        # at 100 the flagship outer patch is one node and its FD sup reads 0
        from neckglue.green import default_outer_box

        half_width = default_outer_box(parse_config(write_config(tmp_path, FLAGSHIP))[0])
        for value in (100.0, half_width):
            doc = dict(FLAGSHIP, options={"outer_spacing": value})
            assert main(["glue", write_config(tmp_path, doc)]) == 2
            assert "outer_spacing must be below the outer box half-width 3.23607" \
                in capsys.readouterr().err
        # so is the default rho_* / 4, as when it is spelled out: at rho_* = 13
        # the balls cover the whole box
        assert main(["validate", write_config(tmp_path, dict(FLAGSHIP, rho_star=13.0))]) == 2
        assert "outer_spacing must be below the outer box half-width 3.23607, got 3.25" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("neck_s_nodes", 1, "neck_s_nodes must be >= 5"),
        ("neck_s_nodes", 4, "neck_s_nodes must be >= 5"),
        ("neck_angle_nodes", [2, 8], "neck_angle_nodes must be >= 3"),
        ("neck_angle_nodes", [8, 0], "neck_angle_nodes must be >= 3"),
        ("neck_angle_nodes", [8], "neck_angle_nodes must be a list of n - 1 = 2"),
        ("neck_angle_nodes", [8, 8, 8], "neck_angle_nodes must be a list of n - 1 = 2"),
        ("neck_angle_nodes", 8, "neck_angle_nodes must be a list of n - 1 = 2"),
        ("neck_angle_nodes", [8, 8.5], "neck_angle_nodes must be an integer"),
        ("neck_angle_nodes", [8, True], "neck_angle_nodes must be an integer"),
        ("quadrature_nodes", 0, "quadrature_nodes must be >= 1"),
        ("mc_samples", -5, "mc_samples must be >= 1"),
        ("mc_samples", 0, "mc_samples must be >= 1"),
        ("sh_degree", 0, "sh_degree must be >= 1"),
    ])
    def test_option_out_of_range_exit_two(self, tmp_path, capsys, key, value, message):
        doc = dict(FLAGSHIP, options={key: value})
        assert main(["validate", write_config(tmp_path, doc)]) == 2
        assert_option_refused(capsys.readouterr().err, key, message)

    def test_option_range_boundaries_accepted(self, tmp_path):
        doc = dict(FLAGSHIP, options={"neck_s_nodes": 5, "neck_angle_nodes": [3, 3.0],
                                      "quadrature_nodes": 1, "sh_degree": 1})
        _, options = parse_config(write_config(tmp_path, doc))
        assert options["neck_angle_nodes"] == [3, 3]
        assert all(isinstance(c, int) for c in options["neck_angle_nodes"])
        doc = dict(FLAGSHIP, options={"sh_degree": 12})
        assert parse_config(write_config(tmp_path, doc))[1]["sh_degree"] == 12

    @pytest.mark.parametrize("key", list(OPTION_DEFAULTS))
    def test_null_option_means_omitted(self, tmp_path, key):
        from neckglue.assembler import config_digest

        omitted = parse_config(write_config(tmp_path, FLAGSHIP, name="omitted.json"))
        null = parse_config(write_config(tmp_path, dict(FLAGSHIP, options={key: None}),
                                         name="null.json"))
        assert null[1] == omitted[1]
        assert config_digest(*null) == config_digest(*omitted)

    def test_validate_accepts_sh_degree_above_12(self, tmp_path):
        # the closed-form basis needs no cap on the degree: validate accepts 13
        doc = dict(FLAGSHIP, options={"sh_degree": 13})
        assert main(["validate", write_config(tmp_path, doc)]) == 0

    def test_options_resolved_with_defaults(self, tmp_path):
        doc = dict(FLAGSHIP, options={"quadrature_nodes": 16.0})
        _, options = parse_config(write_config(tmp_path, doc))
        assert options["quadrature_nodes"] == 16
        assert isinstance(options["quadrature_nodes"], int)
        assert options["sh_degree"] == 8 and options["outer_spacing"] == 0.45 / 4.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_option_resolved(self, tmp_path, n):
        # the options that main hashes and the commands run on hold no None:
        # no default is left to the library
        doc = {"n": n, "points": [np.eye(n)[0].tolist(), (-np.eye(n)[0]).tolist()],
               "rotations": [np.eye(n).tolist()] * 2, "A0": np.eye(n).tolist(),
               "epsilon": 1e-4, "rho_star": 0.45}
        _, options = parse_config(write_config(tmp_path, doc))
        assert set(options) == set(OPTION_DEFAULTS)
        assert all(value is not None for value in options.values())
        assert options["neck_angle_nodes"] == [24] * (n - 2) + [48]

    def test_missing_file_exit_two(self):
        assert main(["validate", "/nonexistent/cfg.json"]) == 2

    def test_spectrum_flagship_roots(self, tmp_path, capsys):
        report = tmp_path / "spectrum_report.json"
        code = main(["--report", str(report), "spectrum", "--n", "3", "--k", "1"])
        assert code == 0
        doc = json.loads(report.read_text())
        sec = doc["sections"]["spectrum"]
        assert sec["exact_mu"] == ["5/2", "-5/2"]
        assert sec["exact_nu"] == ["1/2", "-1/2"]
        assert sec["coexact"] == ["3/2", "-3/2"]

    def test_dtn_command_removed(self):
        # it compared p_ext - p_int with the diagonal the two define; the DtN
        # identity itself is checked by FD radial derivatives in test_matching
        with pytest.raises(SystemExit) as exc:
            main(["dtn"])
        assert exc.value.code == 2

    def test_interaction_command(self, tmp_path):
        assert main(["interaction", write_config(tmp_path, FLAGSHIP)]) == 0

    def test_neck_command_with_export(self, tmp_path):
        out = tmp_path / "neck.ply"
        code = main(["neck", "--n", "3", "--beta", "1.0", "--eps", "0.001",
                     "--export", str(out)])
        assert code == 0
        assert out.exists()
        assert out.read_text().startswith("ply")

    @pytest.mark.parametrize("argv, message", [
        (["--grid", "0"], "--grid must be positive and finite, got 0.0"),
        (["--grid", "-1"], "--grid must be positive and finite, got -1.0"),
        (["--grid", "nan"], "--grid must be positive and finite, got nan"),
        (["--beta", "inf"], "beta and epsilon must be positive and finite, got beta = inf"),
        (["--eps", "inf"], "beta and epsilon must be positive and finite, got beta = 1.0, "
                           "epsilon = inf"),
    ], ids=["grid-0", "grid-negative", "grid-nan", "beta-inf", "eps-inf"])
    def test_neck_bad_input_exit_two(self, capsys, argv, message):
        assert main(["neck", "--n", "3"] + argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n, k", [(72, 0), (100, 1)])
    def test_spectrum_large_n_warns_nothing(self, capsys, n, k):
        # the f0 check reads sech(nt) through exp(-|nt|): (cosh nt)^2
        # overflowed from n = 72 on t in [-5, 5], and cosh itself from 143
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["spectrum", "--n", str(n), "--k", str(k)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("n", [132, 300])
    def test_spectrum_f0_gate_scales_with_n(self, tmp_path, n):
        # an absolute 1e-12 read 1.8e-12 at n = 132, one ulp of the terms
        report = tmp_path / "r.json"
        assert main(["--report", str(report), "spectrum", "--n", str(n), "--k", "0"]) == 0
        check, = [c for c in json.loads(report.read_text())["checks"]
                  if c["name"] == "f0 residual"]
        assert check["value"] < 1e-15

    @pytest.mark.parametrize("n", [3, 132])
    def test_spectrum_f0_gate_refuses_a_wrong_exponent(self, monkeypatch, capsys, n):
        # (cosh nt)^(-1/2 - 1e-6) is no kernel element: exit 1
        from neckglue import spectrum

        monkeypatch.setattr(spectrum, "f0_profile",
                            lambda n, t: spectrum._sech(n, t) ** (0.5 + 1e-6))
        assert main(["spectrum", "--n", str(n), "--k", "0"]) == 1
        assert "[FAIL] f0 residual" in capsys.readouterr().out

    def test_neck_command_n2_has_no_waist(self, tmp_path):
        report = tmp_path / "r.json"
        assert main(["--report", str(report), "neck", "--n", "2", "--grid", "0.4"]) == 0
        assert json.loads(report.read_text())["sections"]["minimality"]["waist_radius"] == 0.0

    @pytest.mark.parametrize("n, name", [
        (2, "asymptote gap / (eps beta rho^(1-n))"),
        (3, "asymptote slope - (1-3n)"),
        (4, "asymptote slope - (1-3n)"),
    ])
    def test_neck_asymptote_gate_passes(self, tmp_path, n, name):
        # measured slopes -8.0013 (n = 3) and -11.0005 (n = 4); at n = 2 the
        # neck is its own graph, a relative gap of 1.8e-15
        report = tmp_path / "r.json"
        assert main(["--report", str(report), "neck", "--n", str(n), "--grid", "0.4"]) == 0
        doc = json.loads(report.read_text())
        check, = [c for c in doc["checks"] if c["name"] == name]
        assert check["pass"]
        section = doc["sections"]["asymptote"]
        scale = (n * 1.0 * 1e-3) ** (1.0 / n)
        assert section["rho"] == pytest.approx([2 * scale, 4 * scale, 8 * scale], rel=1e-15)
        assert len(section["sup_by_rho"]) == 3

    @pytest.mark.parametrize("n", [2, 3])
    def test_neck_asymptote_gate_trips_on_a_wrong_rate(self, capsys, monkeypatch, n):
        # a gap one power of rho too slow (n = 3), or at n = 2 a gap of 1e-9
        # of the graph's height, fails the check and the command
        from neckglue import cli

        exact = cli.asymptote_residual

        def wrong_rate(params, rho_values, angle_grids):
            rho = np.asarray(rho_values)
            _, per_rho = exact(params, rho, angle_grids)
            per_rho = per_rho * rho / rho[0] if n > 2 else \
                per_rho + 1e-9 * params.epsilon * params.beta / rho
            return float(np.max(per_rho)), per_rho

        monkeypatch.setattr(cli, "asymptote_residual", wrong_rate)
        assert main(["neck", "--n", str(n), "--grid", "0.4"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] asymptote" in out

    @pytest.mark.parametrize("report_first", [True, False], ids=["report-first", "report-last"])
    @pytest.mark.parametrize("command", ["validate", "interaction", "neck", "spectrum", "glue"])
    def test_main_finishes_every_report(self, tmp_path, capsys, command, report_first):
        # main times, prints and writes the report each command fills; the
        # exit code is the verdict of its non-skipped checks
        doc = dict(FLAGSHIP, options={"neck_s_nodes": 24, "neck_angle_nodes": [13, 24],
                                      "outer_spacing": 0.3}) if command == "glue" else FLAGSHIP
        argv = {"neck": ["neck", "--n", "2", "--grid", "0.4"],
                "spectrum": ["spectrum", "--n", "3", "--k", "1"]}.get(
                    command, [command, write_config(tmp_path, doc)])
        report_path = tmp_path / "r.json"
        flag = ["--report", str(report_path)]
        code = main(flag + argv if report_first else argv + flag)
        report = json.loads(report_path.read_text())
        assert report["command"] == command
        assert "total" in report["timings"]
        passed = all(c["pass"] for c in report["checks"] if not c.get("skipped"))
        assert code == (0 if passed else 1)
        assert f"neckglue {report['tool_version']} :: {command}" in capsys.readouterr().out

    def test_report_determinism(self, tmp_path):
        # identical config => byte-identical reports minus timings
        cfg = write_config(tmp_path, FLAGSHIP)
        docs = []
        for name in ("a.json", "b.json"):
            report = tmp_path / name
            code = main(["--report", str(report), "interaction", cfg])
            assert code == 0
            doc = json.loads(report.read_text())
            doc.pop("timings", None)
            docs.append(json.dumps(doc, sort_keys=True))
        assert docs[0] == docs[1]

    def test_report_environment(self, tmp_path, monkeypatch):
        from importlib import metadata

        monkeypatch.setenv("NECKGLUE_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        report = tmp_path / "r.json"
        assert main(["--report", str(report), "spectrum", "--n", "3", "--k", "1"]) == 0
        env = json.loads(report.read_text())["sections"]["environment"]
        assert env["python"] == ".".join(map(str, sys.version_info[:3]))
        assert env["numpy"] == np.__version__
        assert env["scipy"] == metadata.version("scipy")
        assert env["threads"]["NECKGLUE_THREADS"] == "3"
        assert env["threads"]["MKL_NUM_THREADS"] is None

    def test_threads_env_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NECKGLUE_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        from neckglue import _configure_threads
        import os

        _configure_threads()
        assert os.environ["OMP_NUM_THREADS"] == "1"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="needs /proc/self/status to count threads")
    def test_threads_cap_takes_effect(self):
        # a fresh interpreter with only NECKGLUE_THREADS set: the cap must be
        # in place before numpy starts its BLAS pool
        import neckglue

        blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
        env = {k: v for k, v in os.environ.items() if k not in blas}
        env["NECKGLUE_THREADS"] = "1"
        src = str(pathlib.Path(neckglue.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import neckglue\n"
                 "for line in open('/proc/self/status'):\n"
                 "    if line.startswith('Threads:'):\n"
                 "        print(line.split()[1])\n")
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"


class TestGlueCommand:
    def test_glue_flagship_end_to_end(self, tmp_path):
        doc = dict(FLAGSHIP)
        doc["options"] = {"neck_s_nodes": 24, "neck_angle_nodes": [13, 24],
                         "outer_spacing": 0.3, "sh_degree": 6}
        cfg = write_config(tmp_path, doc)
        report_path = tmp_path / "glue.json"
        export_path = tmp_path / "surface.ply"
        code = main(["--report", str(report_path), "glue", cfg,
                     "--export", str(export_path)])
        assert code == 0
        assert export_path.exists()
        assert (tmp_path / "surface.csv").exists()
        doc = json.loads(report_path.read_text())
        assert "boundary_gap" in doc["sections"]
        assert "matching_step" in doc["sections"]
        # the report names the degree and the rule the matching gaps were analyzed on
        step = doc["sections"]["matching_step"]
        assert (step["sh_degree"], step["rule_nodes"]) == (6, 32 ** 2)
        assert not any("skipped" in c for c in doc["checks"])
        gate = [c for c in doc["checks"] if c["name"] == "matching max |delta|/alpha"]
        assert len(gate) == 1 and gate[0]["pass"] and gate[0]["value"] < 0.1
        gap = doc["sections"]["boundary_gap"][0]["position_gap_sup"]
        assert 0 < gap < 1e-2

    def test_glue_samples_each_sphere_once(self, tmp_path, monkeypatch):
        # one pass over the rho_* spheres feeds the gaps and the matching
        # step: each end is sampled once per block of the 32^2-node rule
        from neckglue import assembler, green

        calls = []
        sampler = assembler._boundary_samples

        def counted(surface, j, theta):
            calls.append(len(theta))
            return sampler(surface, j, theta)

        monkeypatch.setattr(assembler, "_boundary_samples", counted)
        monkeypatch.setattr(green, "_CHUNK_POINTS", 256)
        doc = dict(FLAGSHIP, options={"neck_s_nodes": 24, "neck_angle_nodes": [13, 24],
                                      "outer_spacing": 0.3})
        assert main(["glue", write_config(tmp_path, doc)]) == 0
        assert len(calls) == 2 * math.ceil(32 ** 2 / 256)
        assert sum(calls) == 2 * 32 ** 2

    @pytest.mark.parametrize("command", ["glue", "neck"])
    def test_out_of_memory_exit_two(self, tmp_path, capsys, monkeypatch, command):
        # a grid too large for memory exits 2 and names the grid options
        from neckglue import assembler, cli

        def exhausted(patch):
            raise MemoryError((18, 59, 59, 59))

        monkeypatch.setattr(assembler, "mean_curvature_field", exhausted)
        monkeypatch.setattr(cli, "mean_curvature_field", exhausted)
        doc = dict(FLAGSHIP, options={"neck_s_nodes": 24, "neck_angle_nodes": [13, 24],
                                      "outer_spacing": 0.3})
        argv = {"glue": ["glue", write_config(tmp_path, doc)],
                "neck": ["neck", "--n", "3", "--grid", "0.4"]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {command}: out of memory")
        for key in ("outer_spacing", "neck_angle_nodes", "neck_s_nodes", "--grid"):
            assert key in err

    def test_export_csv_lands_next_to_a_dotted_directory_path(self, tmp_path):
        # the CSV path replaces the file's extension, not the text after the
        # last dot of the whole path (which would write run.csv beside run.v2/)
        doc = dict(FLAGSHIP, options={"neck_s_nodes": 24, "neck_angle_nodes": [13, 24],
                                      "outer_spacing": 0.6})
        cfg = write_config(tmp_path, doc)
        (tmp_path / "run.v2").mkdir()
        report_path = tmp_path / "glue.json"
        assert main(["--report", str(report_path), "glue", cfg,
                     "--export", str(tmp_path / "run.v2" / "out")]) == 0
        assert sorted(p.name for p in (tmp_path / "run.v2").iterdir()) == ["out", "out.csv"]
        assert not (tmp_path / "run.csv").exists()
        export = json.loads(report_path.read_text())["sections"]["export"]
        assert export == {"ply": str(tmp_path / "run.v2" / "out"),
                          "csv": str(tmp_path / "run.v2" / "out.csv")}

    def test_export_path_ending_in_csv_exit_two(self, tmp_path, capsys):
        # x.csv would be opened as both the PLY and the CSV file
        out = tmp_path / "x.csv"
        assert main(["glue", write_config(tmp_path, FLAGSHIP), "--export", str(out)]) == 2
        assert "--export" in capsys.readouterr().err
        assert not out.exists()

    def test_matching_gate_trips_outside_asymptotic_range(self, tmp_path, capsys):
        # at eps = 1e-3, rho_* = 0.45 the measured correction is ~4.7 times
        # the solved scales: the matching step is no correction there
        doc = dict(FLAGSHIP, epsilon=1e-3)
        doc["options"] = {"neck_s_nodes": 17, "neck_angle_nodes": [9, 16],
                          "outer_spacing": 0.6}
        report_path = tmp_path / "glue.json"
        assert main(["--report", str(report_path), "glue", write_config(tmp_path, doc)]) == 1
        assert "[FAIL] matching max |delta|/alpha" in capsys.readouterr().out
        checks = {c["name"]: c for c in json.loads(report_path.read_text())["checks"]}
        gate = checks["matching max |delta|/alpha"]
        assert gate["threshold"] == 0.1 and 4.0 < gate["value"] < 5.5
        assert checks["matching residual"]["pass"]

    def test_neck_floor_gate_trips_on_a_coarse_grid(self, tmp_path, capsys):
        # 5 x [3, 3] is accepted as input but resolves nothing: sup|H|*scale ~ 4
        doc = dict(FLAGSHIP, options={"neck_s_nodes": 5, "neck_angle_nodes": [3, 3],
                                      "outer_spacing": 0.6})
        report_path = tmp_path / "glue.json"
        assert main(["--report", str(report_path), "glue", write_config(tmp_path, doc)]) == 1
        assert "[FAIL] neck[0] FD sup|H|*scale" in capsys.readouterr().out
        checks = {c["name"]: c for c in json.loads(report_path.read_text())["checks"]}
        for j in range(2):
            gate = checks[f"neck[{j}] FD sup|H|*scale"]
            assert gate["threshold"] == 0.1 and gate["value"] > 1.0
        assert checks["matching max |delta|/alpha"]["pass"]

    def test_glue_n4_runs_matching(self, tmp_path):
        # two ends in R^4, the second twisted in (e2, e3): alpha = (16, 32)
        twist = np.eye(4)[[0, 2, 1, 3]] * np.array([1.0, -1.0, 1.0, 1.0])[:, None]
        doc = {"n": 4, "points": [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]],
               "rotations": [np.eye(4).tolist(), twist.tolist()], "A0": np.eye(4).tolist(),
               "epsilon": 1e-6, "rho_star": 0.45,
               "options": {"neck_s_nodes": 17, "neck_angle_nodes": [9, 9, 16],
                           "outer_spacing": 0.9}}
        report_path = tmp_path / "glue.json"
        assert main(["--report", str(report_path), "glue", write_config(tmp_path, doc)]) == 0
        report = json.loads(report_path.read_text())
        assert not any(c.get("skipped") for c in report["checks"])
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["matching max |delta|/alpha"]["value"] < 0.01
        assert report["sections"]["interaction"]["alpha"] == [16.0, 32.0]

    def test_quadrature_nodes_set_the_balance_rule(self, tmp_path):
        # the balance residual and the boundary gaps are sampled on the
        # configured rule, so its node count moves them
        sections = []
        # 17 nodes is the smallest rule that serves the default sh_degree 8
        for nodes in (17, 32):
            doc = dict(FLAGSHIP, options={"quadrature_nodes": nodes, "neck_s_nodes": 17,
                                          "neck_angle_nodes": [9, 16], "outer_spacing": 0.6})
            report_path = tmp_path / f"glue{nodes}.json"
            cfg = write_config(tmp_path, doc, name=f"{nodes}.cfg.json")
            assert main(["--report", str(report_path), "glue", cfg]) == 0
            sections.append(json.loads(report_path.read_text())["sections"])
        coarse, fine = sections
        assert coarse["balance"] != fine["balance"]
        assert max(coarse["balance"]["residual_per_end"]) < 1e-8
        for key in ("collinear_gap_abs", "position_gap_sup"):
            assert [g[key] for g in coarse["boundary_gap"]] != \
                [g[key] for g in fine["boundary_gap"]]

    def test_digest_covers_options(self, tmp_path):
        # runs differing only in outer_spacing must not share a digest; an
        # option spelled out at its default resolves to the same digest
        def digest(name, options, command="glue"):
            report_path = tmp_path / f"{name}.json"
            code = main(["--report", str(report_path), command,
                         write_config(tmp_path, dict(FLAGSHIP, options=options),
                                      name=f"{name}.cfg.json")])
            assert code == 0
            return json.loads(report_path.read_text())["config_digest"]

        grids = {"neck_s_nodes": 17, "neck_angle_nodes": [9, 16]}
        digests = [digest(name, dict(grids, **options)) for name, options in (
            ("a", {"outer_spacing": 0.6}), ("b", {"outer_spacing": 0.5}),
            ("c", {"outer_spacing": 0.6, "sh_degree": 8}))]
        assert digests[0] != digests[1]
        assert digests[0] == digests[2]
        # so do the defaults that the configuration sets, rho_* / 4 and
        # [24, 48] at n = 3 (main hashes the same options for every command)
        omitted = digest("d", {}, "validate")
        for name, options in (("e", {"outer_spacing": 0.1125}),
                              ("f", {"neck_angle_nodes": [24, 48]}),
                              ("g", {"outer_spacing": 0.1125, "neck_angle_nodes": [24, 48],
                                     "quadrature_nodes": 32, "neck_s_nodes": 48})):
            assert digest(name, options, "validate") == omitted
        assert digest("h", {"neck_angle_nodes": [24, 47]}, "validate") != omitted
        assert digest("i", {"outer_spacing": 1}, "validate") == \
            digest("j", {"outer_spacing": 1.0}, "validate")

    def test_matching_skipped_for_n2(self, tmp_path, capsys):
        # at n = 2 the DtN difference vanishes on constants, so the matching
        # step is a named skipped check, and the verdict says so
        doc = {"n": 2, "points": [[1.0, 0.0], [-1.0, 0.0]],
               "rotations": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, -1.0]]],
               "A0": [[3.0, 0.0], [0.0, 1.0]], "epsilon": 1e-4, "rho_star": 0.45}
        report_path = tmp_path / "glue.json"
        assert main(["--report", str(report_path), "glue", write_config(tmp_path, doc)]) == 0
        out = capsys.readouterr().out
        assert "[skip] matching step" in out
        assert "=> all checks passed (1 skipped)" in out
        report = json.loads(report_path.read_text())
        skipped = [c for c in report["checks"] if c.get("skipped")]
        assert [c["name"] for c in skipped] == ["matching step"]
        assert skipped[0]["pass"] is None
        assert "-(2k+n-2) vanishes on constants at n = 2" in skipped[0]["detail"]
        assert "matching_step" not in report["sections"]

    def test_skip_does_not_hide_a_failure(self, capsys):
        from neckglue.report import RunReport

        report = RunReport("glue")
        report.check("passes", 0.0, 1.0)
        report.skip("matching step", "not run")
        assert report.all_passed
        report.check("fails", 2.0, 1.0)
        assert not report.all_passed
        report.print_summary()
        assert "=> SOME CHECKS FAILED (1 skipped)" in capsys.readouterr().out

    def test_glue_gate_on_failed_hypotheses(self, tmp_path, capsys):
        # the run stops after the interaction stage and still writes and
        # prints a finished report: a total time and no balance section
        doc = dict(FLAGSHIP, A0=(-np.eye(3)).tolist())  # H3 fails
        report_path = tmp_path / "glue.json"
        assert main(["--report", str(report_path), "glue", write_config(tmp_path, doc)]) == 1
        report = json.loads(report_path.read_text())
        assert "total" in report["timings"]
        assert "balance" not in report["sections"]
        assert [c["name"] for c in report["checks"] if not c["pass"]] == ["h3 positivity"]
        assert "=> SOME CHECKS FAILED" in capsys.readouterr().out


class TestConsoleEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "neckglue.cli", "spectrum", "--n", "3", "--k", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout


REPO = pathlib.Path(__file__).resolve().parents[1]


def _fresh_python(code):
    """Run code in a fresh interpreter with this checkout's neckglue; returns
    the last line of its standard output."""
    import neckglue

    src = str(pathlib.Path(neckglue.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


class TestImportGraph:
    """No module of the package imports scipy: the frozen mode flow of
    spectrum.integrate_mode_system is closed-form numpy, so a fresh process
    never imports scipy."""

    @pytest.mark.parametrize("argv", [
        ["glue", "configs/flagship.json"],
        ["glue", "configs/flagship.json", "--export", "{tmp}/out.ply"],
        ["validate", "configs/flagship.json"],
        ["interaction", "configs/flagship.json"],
        ["neck", "--n", "3", "--grid", "0.4"],
        ["spectrum", "--n", "3", "--k", "1"],
        # at n >= 18, cosh(nt)^2 overflows for every finite |t| >= 20
        ["spectrum", "--n", "18", "--k", "1"],
        ["spectrum", "--n", "40", "--k", "2"],
    ], ids=["glue", "glue-export", "validate", "interaction", "neck", "spectrum",
            "spectrum-n18", "spectrum-n40"])
    def test_command_loads_no_scipy(self, tmp_path, argv):
        argv = [a.format(tmp=tmp_path) for a in argv] + ["--report", str(tmp_path / "r.json")]
        code = ("import contextlib, io, sys\n"
                "from neckglue import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    rc = cli.main({argv!r})\n"
                "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        assert _fresh_python(code) == "0 []"

    def test_package_names_load_no_scipy(self):
        code = ("import sys\n"
                "from neckglue import IndicialTable\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        assert _fresh_python(code) == "[]"

    def test_frozen_mode_flow_loads_no_scipy(self):
        code = ("import sys\n"
                "from neckglue.spectrum import integrate_mode_system\n"
                "integrate_mode_system(3, 1, 'asymptotic', [0.7, -0.3, 0.2, 0.5], (0.0, 5.0))\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
        assert _fresh_python(code) == "[]"

    def test_unknown_attribute(self):
        import neckglue

        with pytest.raises(AttributeError, match="no attribute 'Nope'"):
            neckglue.Nope


class TestPeakMemory:
    """Peak RSS of a fresh process, read from getrusage.  A process's
    ru_maxrss starts at its parent's RSS when it was forked, so the workload
    runs one process below a small fresh interpreter, which reads it as
    RUSAGE_CHILDREN."""

    @pytest.mark.parametrize("nodes, degree", [(12, 1), (24, 1), (17, 8)])
    def test_gap_pass_n5_peak_memory(self, nodes, degree):
        # assemble at the default grid, whose n = 5 neck patch alone would
        # take 1.19 GiB, builds no patch; one pass over the rho_* spheres,
        # streamed in blocks of rule nodes with one basis evaluation per
        # block, then the matching solve: at n = 5 the workload peaks near
        # 80 MB on the 12^4-node rule, near 110 MB on the 24^4-node one and
        # near 135 MB at sh_degree 8 on the 17^4-node one (a basis held on
        # all nodes of an 18^4-node rule took 3.4 GB)
        work = ("import sys\n"
                f"sys.path.insert(0, {str(REPO / 'tests')!r})\n"
                "from conftest import quarter_turn_n5\n"
                "from neckglue.assembler import GridSpec, assemble, boundary_gap, matching_step\n"
                "from neckglue.config import build_interaction_system\n"
                "from neckglue.quadrature import product_gauss_rule\n"
                "cfg = quarter_turn_n5(1e-6)\n"
                "system = build_interaction_system(cfg)\n"
                "surf = assemble(cfg, system.alpha, GridSpec(48, [24, 24, 24, 48], 0.1125))\n"
                f"rule = product_gauss_rule(5, {nodes})\n"
                f"_, discrepancies = boundary_gap(surf, rule, {degree})\n"
                "matching_step(surf, system.gamma, discrepancies, rule)\n")
        code = ("import resource, subprocess, sys\n"
                f"subprocess.run([sys.executable, '-c', {work!r}], check=True)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
        assert int(_fresh_python(code)) < 300 * 1024   # KiB on Linux
