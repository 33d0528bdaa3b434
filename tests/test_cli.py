import json
import math

import pytest

from memslab import build_radial, principal_eigenpair
from memslab.cli import main
from memslab.profiles import power_profile, symmetrize

DISK = {"kind": "radial", "dimension": 2, "radius": 1.0, "nodes": 64}
ONES = {"kind": "constant", "value": 1.0}
# a tabulated profile on DISK with one NaN cell, written by the test using it
NAN_CELL = {"kind": "tabulated", "path": "nan_cell.csv"}


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
        # the first solve overflows: that is touching, not a numerical failure
        code, out = run(
            tmp_path, "solve",
            {"domain": DISK, "f": ONES, "g": ONES, "lambda": 1.7e308, "mu": 1.7e308},
        )
        assert code == 2
        summary = json.loads((out / "solve_summary.json").read_text())
        assert summary["reason"] == "touched-one"
        assert summary["last_increment"] is None

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
        # a finite exponent whose normalization R^alpha overflows
        ("bounds", {"domain": {**DISK, "radius": 2.0},
                    "f": {"kind": "power", "alpha": 1100.0}}, "f"),
        # a touch band reaching 0: every solve would touch at its first step
        ("solve", {"lambda": 0.1, "mu": 0.1, "solver": {"touch_threshold": 1.0}},
         "solver"),
    ])
    def test_exit_four_with_one_violation(self, tmp_path, capsys, monkeypatch,
                                          command, config, field):
        monkeypatch.chdir(tmp_path)   # NAN_CELL is a path relative to the run
        values = ["0.5"] * DISK["nodes"]
        values[7] = "nan"
        (tmp_path / NAN_CELL["path"]).write_text(
            "".join(f"{i},{v}\n" for i, v in enumerate(values)))
        code, _ = run(tmp_path, command, {"domain": DISK, "f": ONES, "g": ONES,
                                          **config})
        assert code == 4
        err = json.loads(capsys.readouterr().err)
        assert [v["field"] for v in err["violations"]] == [field]

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

        def flaky(mesh, f, g, theta, cfg):
            if theta == 2.0:
                raise RuntimeError("injected ray failure")
            return real(mesh, f, g, theta, cfg)

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
print(code, *(m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules))
"""


@pytest.mark.parametrize("command,domain,param,allowed", [
    ("extremal", SQUARE16, 0.5, set()),      # rectangles need no LAPACK
    ("solve", DISK, 0.5, set()),             # radial Poisson solves are running sums
    ("eigen", DISK, 0.0, {"scipy.linalg"}),  # shifted radial solves load it on first use
    ("curve", DISK, 0.5, set()),
    ("bounds", DISK, 0.5, set()),
], ids=["extremal-square", "solve-disk", "eigen-disk", "curve-disk", "bounds-disk"])
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
    code, *loaded = proc.stdout.split()
    assert code == "0", proc.stderr
    assert set(loaded) <= allowed
