import json
import math

import pytest

from memslab import build_radial, principal_eigenpair
from memslab.cli import main
from memslab.profiles import power_profile, symmetrize

DISK = {"kind": "radial", "dimension": 2, "radius": 1.0, "nodes": 64}
SQUARE32 = {"kind": "rect", "lx": 1.0, "ly": 1.0, "nx": 32, "ny": 32}
ONES = {"kind": "constant", "value": 1.0}
# tabulated profiles on DISK, written by the test using them: one NaN cell,
# a row without its value, a node index given twice
NAN_CELL = {"kind": "tabulated", "path": "nan_cell.csv"}
SHORT_ROW = {"kind": "tabulated", "path": "short_row.csv"}
REPEATED_ROW = {"kind": "tabulated", "path": "repeated_row.csv"}


def run(tmp_path, command, config, extra=()):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main([command, "--config", str(cfg_path), "--out", str(out), *extra]), out


class TestSolve:
    def test_feasible_writes_artifacts(self, tmp_path):
        code, out = run(
            tmp_path, "solve",
            {"domain": DISK, "f": ONES, "g": ONES, "lambda": 0.5, "mu": 0.5},
        )
        assert code == 0
        assert (out / "solution.csv").exists()
        summary = json.loads((out / "solve_summary.json").read_text())
        assert summary["verdict"] == "converged"
        assert summary["sup_u"] == pytest.approx(summary["sup_v"])
        assert "config_fingerprint" in summary

    def test_infeasible_exit_two(self, tmp_path):
        code, out = run(
            tmp_path, "solve",
            {"domain": DISK, "f": ONES, "g": ONES, "lambda": 0.9, "mu": 0.9},
        )
        assert code == 2
        summary = json.loads((out / "solve_summary.json").read_text())
        assert summary["reason"] == "unstable-subsolution"

    def test_budget_exhaustion_exit_three(self, tmp_path):
        code, _ = run(
            tmp_path, "solve",
            {"domain": DISK, "f": ONES, "g": ONES, "lambda": 0.7, "mu": 0.7,
             "solver": {"max_iter": 3}},
        )
        assert code == 3

    def test_overflowing_parameters_touch(self, tmp_path):
        # the first solve is finite, far above 1: that is touching, not a
        # numerical failure.  Both kinds scale data whose partial sums would
        # overflow by a power of two, so the increment is finite
        for domain in (DISK, SQUARE32):
            code, out = run(tmp_path, "solve", {"domain": domain, "f": ONES, "g": ONES,
                                                "lambda": 1.7e308, "mu": 1.7e308})
            assert code == 2
            summary = json.loads((out / "solve_summary.json").read_text())
            assert summary["reason"] == "touched-one"
            assert summary["iterations"] == 1
            assert summary["last_increment"] > 1e300

    def test_missing_parameters_exit_four(self, tmp_path, capsys):
        code, _ = run(tmp_path, "solve", {"domain": DISK, "f": ONES, "g": ONES})
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        fields = {v["field"] for v in err["violations"]}
        assert {"lambda", "mu"} <= fields

    def test_missing_profile_file_exit_four(self, tmp_path, capsys):
        code, _ = run(
            tmp_path, "solve",
            {"domain": DISK, "f": {"kind": "tabulated", "path": "missing.csv"},
             "g": ONES, "lambda": 0.1, "mu": 0.1},
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config"

    @pytest.mark.parametrize("command, lam", [
        ("solve", float("nan")), ("solve", float("inf")), ("eigen", -0.1),
    ])
    def test_bad_parameter_exit_four(self, tmp_path, capsys, command, lam):
        code, _ = run(
            tmp_path, command,
            {"domain": DISK, "f": ONES, "g": ONES, "lambda": lam, "mu": 0.5},
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert [v["field"] for v in err["violations"]] == ["lambda"]

    def test_bad_domain_lists_all_violations(self, tmp_path, capsys):
        code, _ = run(
            tmp_path, "solve",
            {"domain": {"kind": "radial", "dimension": 0, "radius": -1.0,
                        "nodes": 64}, "f": ONES, "g": ONES},
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        messages = " ".join(v["message"] for v in err["violations"])
        assert "dimension" in messages and "radius" in messages


class TestCurve:
    def test_trace_rows_and_determinism(self, tmp_path):
        config = {"domain": DISK, "f": ONES, "g": ONES,
                  "theta_grid": [0.5, 1.0, 2.0], "curve": {"rtol": 5e-3}}
        code, out = run(tmp_path, "curve", config)
        assert code == 0
        first = (out / "curve.csv").read_bytes()
        assert (out / "bounds.json").exists()
        rows = first.decode().splitlines()
        assert len(rows) == 3 + 3  # fingerprint, provenance, header + 3 rays

        code2, out2 = run(tmp_path, "curve", config)
        assert (out2 / "curve.csv").read_bytes() == first  # byte-identical rerun

    def test_two_level_sweep_is_deterministic(self, tmp_path):
        # the fold is continued from ray to ray through the samples of one
        # sweep; nothing of it may outlive the sweep, so a second run in the
        # same process writes the same bytes
        config = {"domain": dict(DISK, nodes=2048), "f": ONES, "g": ONES,
                  "theta_grid": [0.5, 1.0, 2.0]}
        code, out = run(tmp_path, "curve", config)
        assert code == 0
        first = (out / "curve.csv").read_bytes()
        header, *rows = first.decode().splitlines()[2:]
        assert len(rows) == 3 and b"np." not in first
        # each lower end certified from a fold: witness code 2
        assert [dict(zip(header.split(","), r.split(",")))["lo_witness"] for r in rows] \
            == ["2"] * 3
        code2, out2 = run(tmp_path, "curve", config)
        assert code2 == 0 and (out2 / "curve.csv").read_bytes() == first

    def test_lower_cert_below_lambda_star(self, tmp_path):
        code, out = run(
            tmp_path, "curve",
            {"domain": DISK, "f": ONES, "g": ONES, "theta_grid": [1.0],
             "curve": {"rtol": 5e-3}},
        )
        rows = (out / "curve.csv").read_text().splitlines()
        record = dict(zip(rows[2].split(","), rows[3].split(",")))
        assert float(record["lower_cert"]) <= float(record["lambda_star"])

    def test_bad_grid_exit_four(self, tmp_path, capsys):
        # negative, decreasing and infinite entries: one violation each
        for grid in ([-1.0, 1.0], [1.0, 0.5], [1.0, math.inf]):
            code, _ = run(
                tmp_path, "curve",
                {"domain": DISK, "f": ONES, "g": ONES, "theta_grid": grid},
            )
            assert code == 4
            err = json.loads(capsys.readouterr().err)
            assert [v["field"] for v in err["violations"]] == ["theta_grid"]

    def test_nan_grid_exit_four(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "curve",
            {"domain": DISK, "f": ONES, "g": ONES, "theta_grid": [float("nan")]},
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert [v["field"] for v in err["violations"]] == ["theta_grid"]
        assert not (out / "curve_failures.json").exists()


class TestOtherCommands:
    def test_bounds(self, tmp_path):
        code, out = run(tmp_path, "bounds", {"domain": DISK, "f": ONES, "g": ONES})
        assert code == 0
        data = json.loads((out / "bounds.json").read_text())
        assert data["a_f"] == pytest.approx(16.0 / 27.0)

    def test_bounds_fine_disk(self, tmp_path):
        # power iteration cannot meet its residual contract on this mesh
        fine = {"kind": "radial", "dimension": 2, "radius": 1.0, "nodes": 16384}
        code, out = run(tmp_path, "bounds", {"domain": fine, "f": ONES, "g": ONES})
        assert code == 0
        data = json.loads((out / "bounds.json").read_text())
        assert data["mu1"] == pytest.approx(5.783185962946784, rel=1e-6)  # j01^2

    def test_eigen_uncoupled_fine_disk(self, tmp_path):
        # eps ||A||_inf exceeds 1e-8 mu1 here; nu1 is the cached Dirichlet mu1
        fine = {"kind": "radial", "dimension": 2, "radius": 1.0, "nodes": 16384}
        code, out = run(
            tmp_path, "eigen",
            {"domain": fine, "f": ONES, "g": ONES, "lambda": 0.0, "mu": 0.0},
        )
        assert code == 0
        data = json.loads((out / "eigen_summary.json").read_text())
        mu1 = principal_eigenpair(build_radial(2, 1.0, 16384).operator).value
        assert data["nu1"] == mu1

    def test_eigen(self, tmp_path):
        code, out = run(
            tmp_path, "eigen",
            {"domain": DISK, "f": ONES, "g": ONES, "lambda": 0.4, "mu": 0.4},
        )
        assert code == 0
        data = json.loads((out / "eigen_summary.json").read_text())
        assert data["classification"] == "stable"
        assert (out / "eigenfunctions.csv").exists()

    def test_symmetrize(self, tmp_path):
        code, out = run(
            tmp_path, "symmetrize",
            {"domain": {"kind": "rect", "lx": 1.0, "ly": 1.0, "nx": 24, "ny": 24},
             "f": ONES, "g": ONES, "target_nodes": 64},
        )
        assert code == 0
        lines = (out / "f_symmetrized.csv").read_text().splitlines()
        assert lines[1] == "index,value"
        assert len(lines) == 2 + 64
        values = [float(line.split(",")[1]) for line in lines[2:]]
        assert values == pytest.approx([1.0] * 64)

    def test_extremal(self, tmp_path):
        code, out = run(
            tmp_path, "extremal",
            {"domain": DISK, "f": ONES, "g": ONES, "theta": 1.0,
             "fractions": [0.5, 0.9], "moser_alpha": 2.0,
             "curve": {"rtol": 5e-3}},
        )
        assert code == 0
        lines = (out / "approach.csv").read_text().splitlines()
        assert len(lines) == 2 + 2


    def test_extremal_starved_budget_exit_five(self, tmp_path, capsys):
        # one loop step per branch solve: the solve at t = 0.9 is inconclusive
        code, out = run(
            tmp_path, "extremal",
            {"domain": DISK, "theta": 1.0, "fractions": [0.5, 0.9],
             "solver": {"max_iter": 1}},
        )
        assert code == 5
        assert capsys.readouterr().err == ""
        failures = json.loads((out / "extremal_failures.json").read_text())["failures"]
        assert [f["theta"] for f in failures] == [1.0]
        assert "budget" in failures[0]["error"]
        assert not (out / "approach.csv").exists()

    def test_bounds_power_profile_past_float_range(self, tmp_path):
        # R^alpha = 2^1100 overflows a float, but the profile (r/R)^alpha
        # lies in [0, 1], so it builds with sup 1
        code, out = run(
            tmp_path, "bounds",
            {"domain": {**DISK, "radius": 2.0, "nodes": 32},
             "f": {"kind": "power", "alpha": 1100.0}},
        )
        assert code == 0
        data = json.loads((out / "bounds.json").read_text())
        assert (data["sup_f"], data["inf_f"]) == (1.0, 0.0)

    def test_integral_float_fields_accepted(self, tmp_path):
        code, out = run(
            tmp_path, "bounds",
            {"domain": {**DISK, "dimension": 2.0, "nodes": 64.0}, "f": ONES, "g": ONES},
        )
        assert code == 0
        data = json.loads((out / "bounds.json").read_text())
        assert data["a_f"] == pytest.approx(16.0 / 27.0)

    def test_symmetrize_keeps_dimension(self, tmp_path):
        ball = {"kind": "radial", "dimension": 3, "radius": 1.5, "nodes": 48}
        code, out = run(
            tmp_path, "symmetrize",
            {"domain": ball, "f": {"kind": "power", "alpha": 2.0}, "g": ONES,
             "target_nodes": 32},
        )
        assert code == 0
        mesh = build_radial(3, 1.5, 48)
        expected = symmetrize(power_profile(mesh, 2.0), mesh, build_radial(3, 1.5, 32))
        lines = (out / "f_symmetrized.csv").read_text().splitlines()[2:]
        assert [float(line.split(",")[1]) for line in lines] == list(expected.values)

    @pytest.mark.parametrize("theta", [-1.0, float("nan")])
    def test_extremal_bad_theta_exit_four(self, tmp_path, capsys, theta):
        code, _ = run(
            tmp_path, "extremal",
            {"domain": DISK, "f": ONES, "g": ONES, "theta": theta,
             "fractions": [0.5]},
        )
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert [v["field"] for v in err["violations"]] == ["theta"]


class TestInputErrors:
    @pytest.mark.parametrize("command, config, field", [
        ("solve", {"lambda": 0.5, "mu": 0.5, "solver": {"max_iter": 0}}, "solver"),
        ("curve", {"theta_grid": [1.0], "curve": {"rtol": 1.5}}, "curve"),
        ("extremal", {"theta": 1.0, "fractions": [0.5, 2.0]}, "config"),
        ("extremal", {"theta": 1.0, "fractions": "x"}, "config"),
        ("extremal", {"theta": 1.0, "fractions": [0.5], "moser_alpha": 0.5},
         "moser_alpha"),
        ("eigen", {"lambda": 0.0, "mu": 0.5}, "config"),
        ("eigen", {"lambda": 0.5, "mu": 0.0}, "config"),
        # a section of the wrong JSON type
        ("solve", {"lambda": 0.5, "mu": 0.5, "solver": 5}, "solver"),
        ("curve", {"theta_grid": [1.0], "curve": "x"}, "curve"),
        ("bounds", {"domain": 7}, "domain"),
        ("bounds", {"f": 3}, "f"),
        ("symmetrize", {"target_nodes": "x"}, "target_nodes"),
        # JSON's Infinity where an integer belongs, an integer too large for
        # a float where a number belongs
        ("solve", {"lambda": 0.5, "mu": 0.5, "solver": {"max_iter": math.inf}},
         "solver"),
        ("bounds", {"domain": {**DISK, "nodes": math.inf}}, "domain"),
        ("solve", {"lambda": 10**400, "mu": 0.5}, "lambda"),
        ("bounds", {"f": {"kind": "constant", "value": 10**400}}, "f"),
        ("curve", {"theta_grid": [1.0], "curve": {"rtol": 10**400}}, "curve"),
        ("curve", {"theta_grid": [0.5, 10**400]}, "theta_grid"),
        # approach_extremal checks fractions; the message names the field
        ("extremal", {"theta": 1.0, "fractions": [0.5, 10**400]}, "config"),
        # non-finite profile data: one NaN cell, a NaN or infinite exponent
        *((command, {**params, "f": f}, "f")
          for f in (NAN_CELL, {"kind": "power", "alpha": math.nan},
                    {"kind": "power", "alpha": math.inf})
          for command, params in (("solve", {"lambda": 0.5, "mu": 0.5}),
                                  ("curve", {"theta_grid": [1.0]}),
                                  ("bounds", {}))),
        # a power profile on a rectangle
        ("bounds", {"domain": SQUARE32, "f": {"kind": "power", "alpha": 1.0}}, "f"),
        # a touch band reaching 0: every solve would touch at its first step
        ("solve", {"lambda": 0.1, "mu": 0.1, "solver": {"touch_threshold": 1.0}},
         "solver"),
        # an integer field given a fraction or a boolean is rejected, not
        # truncated
        ("bounds", {"domain": {**DISK, "dimension": 2.5}}, "domain"),
        ("bounds", {"domain": {**DISK, "nodes": 32.9}}, "domain"),
        ("bounds", {"domain": {**SQUARE32, "nx": 16.5}}, "domain"),
        ("bounds", {"domain": {**SQUARE32, "ny": True}}, "domain"),
        ("solve", {"lambda": 0.5, "mu": 0.5, "solver": {"max_iter": 2.7}}, "solver"),
        ("symmetrize", {"target_nodes": 16.5}, "target_nodes"),
        # criteria must be a non-empty list of names
        *(("check", {"criteria": c}, "criteria")
          for c in (5, [["x"]], [], "singular-identity")),
        # a boolean or a string where a number belongs is rejected, not
        # converted to 1.0 or parsed
        ("solve", {"lambda": True, "mu": 0.5}, "lambda"),
        ("solve", {"lambda": 0.5, "mu": "0.5"}, "mu"),
        ("extremal", {"theta": True, "fractions": [0.5]}, "theta"),
        ("extremal", {"theta": 1.0, "fractions": [0.5], "moser_alpha": "3"},
         "moser_alpha"),
        ("bounds", {"domain": {**DISK, "radius": True}}, "domain"),
        ("bounds", {"domain": {**SQUARE32, "lx": "1.0"}}, "domain"),
        ("bounds", {"domain": {**SQUARE32, "ly": True}}, "domain"),
        ("bounds", {"f": {"kind": "constant", "value": True}}, "f"),
        ("bounds", {"f": {"kind": "power", "alpha": "2"}}, "f"),
        ("solve", {"lambda": 0.5, "mu": 0.5, "solver": {"tol_sup": "1e-10"}}, "solver"),
        ("solve", {"lambda": 0.5, "mu": 0.5, "solver": {"touch_threshold": "1e-6"}},
         "solver"),
        ("curve", {"theta_grid": [1.0], "curve": {"rtol": "0.01"}}, "curve"),
        ("curve", {"theta_grid": [True]}, "theta_grid"),
        ("bounds", {"domain": {**DISK, "nodes": "64"}}, "domain"),
        # a CSV row without its value, a node index given twice
        ("bounds", {"f": SHORT_ROW}, "f"),
        ("bounds", {"f": REPEATED_ROW}, "f"),
        # fractions are checked as a theta grid is: numbers, not strings, and
        # not an empty list
        ("extremal", {"theta": 1.0, "fractions": ["0.5"]}, "config"),
        ("extremal", {"theta": 1.0, "fractions": []}, "config"),
    ])
    def test_exit_four_with_one_violation(self, tmp_path, capsys, monkeypatch,
                                          command, config, field):
        monkeypatch.chdir(tmp_path)   # the profile files are paths relative to the run
        rows = [f"{i},0.5\n" for i in range(DISK["nodes"])]
        for spec, lines in ((NAN_CELL, rows[:7] + ["7,nan\n"] + rows[8:]),
                            (SHORT_ROW, rows[:1] + ["1\n"] + rows[2:]),
                            (REPEATED_ROW, rows + ["5,0.5\n"])):
            (tmp_path / spec["path"]).write_text("".join(lines))
        code, _ = run(tmp_path, command, {"domain": DISK, "f": ONES, "g": ONES,
                                          **config})
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert [v["field"] for v in err["violations"]] == [field]

    def test_every_violation_listed(self, tmp_path, capsys):
        # a fault in the domain does not hide the faults of later fields
        code, _ = run(tmp_path, "solve",
                      {"domain": {**DISK, "nodes": 32.9}, "f": ONES, "g": ONES,
                       "solver": {"max_iter": 0}, "lambda": -1, "mu": 0.5})
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert [v["field"] for v in err["violations"]] == ["domain", "solver", "lambda"]

    def test_missing_nested_field_named(self, tmp_path, capsys):
        domain = {k: v for k, v in DISK.items() if k != "dimension"}
        code, _ = run(tmp_path, "bounds", {"domain": domain})
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert err["violations"] == [
            {"field": "domain", "message": "missing required field 'dimension'"}]

    # an integer or a boolean path would be opened as a file descriptor of the
    # process (0 its stdin, 1 its stdout, 2 its stderr), so each runs in a
    # fresh interpreter, with a valid profile on its stdin
    @pytest.mark.parametrize("path", [0, True, 2])
    def test_path_must_be_a_string(self, tmp_path, path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import memslab

        interval = {"kind": "radial", "dimension": 1, "radius": 1.0, "nodes": 16}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"domain": interval,
                                   "f": {"kind": "tabulated", "path": path}}))
        src = str(Path(memslab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "memslab.cli", "bounds",
             "--config", str(cfg), "--out", str(tmp_path / "o")],
            input="".join(f"{i},0.5\n" for i in range(16)),
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 4
        violations = json.loads(proc.stderr)["violations"]
        assert [v["field"] for v in violations] == ["f"]
        assert "path must be a string" in violations[0]["message"]

    @pytest.mark.parametrize("extra", [["--bogus"], ["--threads", "x"]])
    def test_usage_error_exit_four(self, tmp_path, capsys, extra):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"domain": DISK, "f": ONES, "g": ONES}))
        code = main(["bounds", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     *extra])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert [v["field"] for v in err["violations"]] == ["arguments"]
        with pytest.raises(SystemExit) as exc:   # help is not an error
            main(["-h"])
        assert exc.value.code == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["solve", "check"])
    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_bad_resolution_scale_exit_four(self, tmp_path, capsys, command, scale):
        code, _ = run(tmp_path, command,
                      {"domain": DISK, "f": ONES, "g": ONES, "lambda": 0.5, "mu": 0.5,
                       "criteria": ["singular-identity"]},
                      extra=["--resolution-scale", scale])
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert [v["field"] for v in err["violations"]] == ["--resolution-scale"]


class TestCheck:
    def test_single_cheap_criterion(self, tmp_path, capsys):
        code, out = run(
            tmp_path, "check",
            {"criteria": ["singular-identity"]},
            extra=["--resolution-scale", "0.5"],
        )
        assert code == 0
        assert "singular-identity" in capsys.readouterr().out
        report = json.loads((out / "check_report.json").read_text())
        assert report["results"][0]["passed"] is True

    def test_unknown_criterion_exit_four(self, tmp_path, capsys):
        code, _ = run(tmp_path, "check", {"criteria": ["no-such-check"]})
        assert code == 4
        capsys.readouterr()

    def test_coarse_resolution_reports_failures(self, tmp_path, capsys):
        # deliberately coarse run: failures are reported per criterion, not raised
        code, out = run(
            tmp_path, "check",
            {"criteria": ["infrastructure", "singular-identity"]},
            extra=["--resolution-scale", "0.0625"],
        )
        assert code in (0, 1)
        report = json.loads((out / "check_report.json").read_text())
        assert {r["name"] for r in report["results"]} == {
            "infrastructure", "singular-identity"
        }
        capsys.readouterr()


def test_out_names_a_file_exit_four(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"domain": DISK, "f": ONES, "g": ONES}))
    taken = tmp_path / "taken"
    taken.write_text("")
    code = main(["bounds", "--config", str(cfg), "--out", str(taken)])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert [v["field"] for v in err["violations"]] == ["--out"]


def test_unreadable_config_exit_four(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "nope.json")])
    assert code == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "invalid-config"


class TestExitFive:
    def test_per_ray_failure_keeps_partial_output(self, tmp_path, monkeypatch):
        # inject a failure on the second ray: partial CSV plus manifest
        import memslab.cli as cli_mod

        real = cli_mod.extremal_on_ray

        def flaky(mesh, f, g, theta, cfg, **kwargs):
            if theta == 2.0:
                raise RuntimeError("injected ray failure")
            return real(mesh, f, g, theta, cfg, **kwargs)

        monkeypatch.setattr(cli_mod, "extremal_on_ray", flaky)
        code, out = run(
            tmp_path, "curve",
            {"domain": DISK, "f": ONES, "g": ONES, "theta_grid": [1.0, 2.0],
             "curve": {"rtol": 5e-3}},
        )
        assert code == 5
        rows = (out / "curve.csv").read_text().splitlines()
        assert len(rows) == 3 + 1  # the healthy ray is retained
        failures = json.loads((out / "curve_failures.json").read_text())
        assert failures["failures"][0]["theta"] == 2.0

    @pytest.mark.parametrize("lam, error", [(1e6, "no feasible parameter"),
                                            (1e-3, "no infeasible parameter")])
    def test_ray_walk_failure_manifest(self, tmp_path, capsys, monkeypatch, lam,
                                       error):
        # every probe of the ray solves at lam: far past lam* no probe is
        # feasible (ConvergenceError), and near 0 none is infeasible
        # (UnboundedRayError); curve and extremal list the ray and exit 5
        import memslab.curve as curve_mod

        real = curve_mod.minimal_solve
        monkeypatch.setattr(curve_mod, "minimal_solve",
                            lambda mesh, f, g, _, __, *args, **kwargs:
                            real(mesh, f, g, lam, lam, *args, **kwargs))
        base = {"domain": DISK, "f": ONES, "g": ONES}
        for sub in ("curve", "extremal"):
            (tmp_path / sub).mkdir()
        code, out = run(tmp_path / "curve", "curve", {**base, "theta_grid": [1.0]})
        assert code == 5
        failures = json.loads((out / "curve_failures.json").read_text())["failures"]
        assert [f["theta"] for f in failures] == [1.0] and error in failures[0]["error"]
        assert len((out / "curve.csv").read_text().splitlines()) == 3   # no row
        code, out = run(tmp_path / "extremal", "extremal",
                        {**base, "theta": 1.0, "fractions": [0.5]})
        assert code == 5
        assert capsys.readouterr().err == ""
        failures = json.loads((out / "extremal_failures.json").read_text())["failures"]
        assert [f["theta"] for f in failures] == [1.0] and error in failures[0]["error"]
        assert not (out / "approach.csv").exists()

    def test_eigen_failure_manifest(self, tmp_path, capsys, monkeypatch):
        # the minimal solve converges just below the feasible end of the
        # theta = 1 ray, but the block eigen solve runs out of its budget of
        # K applications: a failure manifest and exit 5, not a traceback
        import memslab.stability as stability_mod

        monkeypatch.setattr(stability_mod, "_POWER_MAX", 1)
        ball = {"kind": "radial", "dimension": 10, "radius": 1.0, "nodes": 512}
        lam = 5.777656722759934
        code, out = run(tmp_path, "eigen", {"domain": ball, "lambda": lam, "mu": lam})
        assert code == 5
        assert capsys.readouterr().err == ""
        failures = json.loads((out / "eigen_failures.json").read_text())["failures"]
        assert [(f["lambda"], f["mu"]) for f in failures] == [(lam, lam)]
        assert "did not converge" in failures[0]["error"]
        assert not (out / "eigenfunctions.csv").exists()


def test_console_entry_point(tmp_path):
    import subprocess
    import sys

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": DISK, "f": ONES, "g": ONES}))
    proc = subprocess.run(
        [sys.executable, "-m", "memslab.cli", "bounds",
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "o" / "bounds.json").exists()


SQUARE16 = {"kind": "rect", "lx": 1.0, "ly": 1.0, "nx": 16, "ny": 16}
# runs one command in a fresh interpreter, then prints its exit code and the
# scipy subpackages it loaded
FOOTPRINT = """
import sys
from memslab.cli import main
code = main(sys.argv[1:])
print(code, *(m for m in ("scipy.linalg", "scipy.sparse", "scipy.special")
              if m in sys.modules))
"""


@pytest.mark.parametrize("command,domain,param,allowed", [
    ("extremal", SQUARE16, 0.5, set()),      # rectangles need no LAPACK
    ("solve", DISK, 0.5, set()),             # radial Poisson solves are running sums
    ("eigen", DISK, 0.0, {"scipy.linalg"}),  # shifted radial solves load it on first use
    ("curve", DISK, 0.5, set()),
    ("bounds", DISK, 0.5, set()),
    ("check", DISK, 0.5, {"scipy.linalg"}),  # its j01^2 is a literal, not scipy.special
], ids=["extremal-square", "solve-disk", "eigen-disk", "curve-disk", "bounds-disk", "check"])
def test_import_footprint(tmp_path, command, domain, param, allowed):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import memslab

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": domain, "f": ONES, "g": ONES, "theta": 1.0,
                               "theta_grid": [1.0], "fractions": [0.5, 0.9],
                               "lambda": param, "mu": param}))
    src = str(Path(memslab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, command,
         "--config", str(cfg), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    code, *loaded = proc.stdout.splitlines()[-1].split()   # check prints a report first
    assert code == "0", proc.stderr
    assert set(loaded) <= allowed
