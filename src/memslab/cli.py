"""Batch front-end: JSON config in, CSV/JSON artifacts out.

Commands: solve, curve, eigen, bounds, symmetrize, extremal, check.
Exit codes are part of the contract:

    0  success (solve: converged; check: all criteria pass)
    1  check: at least one criterion failed
    2  solve: nonexistence suspected
    3  solve: inconclusive within budget
    4  invalid arguments or configuration, including inputs a library
       precondition rejects (diagnostics as JSON on stderr)
    5  curve: at least one ray failed (partial CSV plus failure manifest);
       extremal: the ray or a branch solve failed (failure manifest)

Identical configs produce byte-identical CSV outputs; every artifact embeds
the config fingerprint.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .artifacts import fingerprint, write_csv, write_json
from .curve import (
    CurveConfig,
    CurveTrace,
    bound_report,
    check_theta_grid,
    extremal_on_ray,
    write_bounds_json,
    write_trace_csv,
)
from .diagnostics import approach_extremal, write_approach_csv
from .exceptions import (
    ConfigurationError,
    ConvergenceError,
    HypothesisError,
    NumericsError,
    PreconditionError,
    UnboundedRayError,
)
from .mesh import Mesh, _scaled, build_radial, build_rect
from .profiles import (
    Profile,
    constant_profile,
    load_tabulated,
    power_profile,
    symmetrize,
)
from .solver import SolveConfig, Verdict, minimal_solve, write_solution_csv
from .stability import classify, linearized_eigen, write_eigen_csv

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NONEXISTENCE = 2
EXIT_INCONCLUSIVE = 3
EXIT_BAD_CONFIG = 4
EXIT_RAY_FAILED = 5


class _ConfigProblems(Exception):
    def __init__(self, problems):
        super().__init__("; ".join(p["message"] for p in problems))
        self.problems = problems


def _is_object(spec, field: str, problems: list) -> bool:
    """Whether a config section is a JSON object; if not, record a violation."""
    if isinstance(spec, dict):
        return True
    problems.append({"field": field, "message": f"must be a JSON object, got {spec!r}"})
    return False


def _float(value, name: str) -> float:
    """A number config field as a float: a JSON integer or float is read, a
    boolean, a string or any other value is rejected with a ValueError naming
    the field, not converted."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """An integer config field: a number with a fraction is rejected like any
    non-number, not truncated; ``64.0`` reads as 64."""
    if not _float(value, name).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _build_mesh(spec: dict, scale: float, problems: list, field: str) -> Mesh | None:
    if not _is_object(spec, field, problems):
        return None
    try:
        kind = spec.get("kind")
        if kind == "radial":
            return build_radial(
                _integer(spec["dimension"], "dimension"),
                _float(spec["radius"], "radius"),
                _scaled(_integer(spec["nodes"], "nodes"), scale),
            )
        if kind == "rect":
            return build_rect(
                _float(spec["lx"], "lx"),
                _float(spec["ly"], "ly"),
                _scaled(_integer(spec["nx"], "nx"), scale),
                _scaled(_integer(spec["ny"], "ny"), scale),
            )
        problems.append(
            {"field": field, "message": f"unknown domain kind {kind!r}"}
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        problems.append({"field": field, "message": str(exc)})
    return None


def _build_profile(
    spec: dict, mesh: Mesh, problems: list, field: str
) -> Profile | None:
    if not _is_object(spec, field, problems):
        return None
    try:
        kind = spec.get("kind", "constant")
        if kind == "constant":
            return constant_profile(mesh, _float(spec.get("value", 1.0), "value"))
        if kind == "power":
            return power_profile(mesh, _float(spec["alpha"], "alpha"))
        if kind == "tabulated":
            return load_tabulated(mesh, spec["path"])
        problems.append({"field": field, "message": f"unknown profile kind {kind!r}"})
    except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
        problems.append({"field": field, "message": str(exc)})
    return None


# the config dataclasses own the defaults: only the keys a config gives are passed
def _solve_config(config: dict, problems: list) -> SolveConfig:
    spec = config.get("solver", {})
    if not _is_object(spec, "solver", problems):
        return SolveConfig()
    casts = {"tol_sup": _float, "max_iter": _integer, "touch_threshold": _float}
    try:
        return SolveConfig(**{k: cast(spec[k], k) for k, cast in casts.items() if k in spec})
    except (TypeError, ValueError, OverflowError) as exc:
        problems.append({"field": "solver", "message": str(exc)})
        return SolveConfig()


def _curve_config(config: dict, problems: list) -> CurveConfig:
    spec = config.get("curve", {})
    if not _is_object(spec, "curve", problems):
        spec = {}
    try:
        rtol = {"rtol": _float(spec["rtol"], "rtol")} if "rtol" in spec else {}
        return CurveConfig(**rtol, solve=_solve_config(config, problems))
    except (TypeError, ValueError, OverflowError) as exc:
        problems.append({"field": "curve", "message": str(exc)})
        return CurveConfig()


def _require(config: dict, keys: list, problems: list) -> None:
    for key in keys:
        if key not in config:
            problems.append({"field": key, "message": f"missing required field {key!r}"})


def _load_inputs(config: dict, args, need_params=()):
    problems = []
    _require(config, ["domain", *need_params], problems)
    mesh = None
    if "domain" in config:
        mesh = _build_mesh(config["domain"], args.resolution_scale, problems, "domain")
    f = g = None
    if mesh is not None:
        f = _build_profile(config.get("f", {}), mesh, problems, "f")
        g = _build_profile(config.get("g", {}), mesh, problems, "g")
    if problems:
        raise _ConfigProblems(problems)
    return mesh, f, g


def _parameter(config: dict, key: str, problems: list, above=None) -> float:
    """``config[key]`` as a finite number >= 0 (> ``above`` if given)."""
    try:
        value = _float(config[key], key)
    except (ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and (value >= 0 if above is None else value > above)):
        bound = "nonnegative" if above is None else f"above {above}"
        problems.append({"field": key, "message": f"must be finite and {bound}, "
                         f"got {config[key]!r}"})
    return value


_VERDICT_EXIT = {
    Verdict.CONVERGED: EXIT_OK,
    Verdict.NONEXISTENCE_SUSPECTED: EXIT_NONEXISTENCE,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


def _solve_at_parameters(config: dict, args):
    """Inputs, checked (lambda, mu) and the minimal solve of solve and eigen."""
    mesh, f, g = _load_inputs(config, args, need_params=["lambda", "mu"])
    problems = []
    cfg = _solve_config(config, problems)
    lam = _parameter(config, "lambda", problems)
    mu = _parameter(config, "mu", problems)
    if problems:
        raise _ConfigProblems(problems)
    return mesh, f, g, lam, mu, minimal_solve(mesh, f, g, lam, mu, cfg)


def cmd_solve(config: dict, args, out: Path, fp: str) -> int:
    mesh, *_, outcome = _solve_at_parameters(config, args)
    summary = {
        "verdict": outcome.verdict.value,
        "reason": outcome.reason.value if outcome.reason else None,
        "iterations": outcome.iterations,
        "last_increment": outcome.last_increment,
    }
    if outcome.converged:
        su, sv = outcome.state.sup()
        summary.update(
            {"sup_u": su, "sup_v": sv, "residuals": list(outcome.final_residual)}
        )
        write_solution_csv(out / "solution.csv", mesh, outcome.state, fp)
    write_json(out / "solve_summary.json", summary, fp)
    return _VERDICT_EXIT[outcome.verdict]


def cmd_curve(config: dict, args, out: Path, fp: str) -> int:
    mesh, f, g = _load_inputs(config, args, need_params=["theta_grid"])
    problems = []
    cfg = _curve_config(config, problems)
    grid = config["theta_grid"]
    try:
        check_theta_grid(grid)
    except ConfigurationError as exc:
        problems.append({"field": "theta_grid", "message": str(exc)})
    if problems:
        raise _ConfigProblems(problems)

    write_bounds_json(out / "bounds.json", bound_report(mesh, f, g), fp)
    samples, failures = [], []
    for theta in grid:
        try:
            samples.append(extremal_on_ray(mesh, f, g, float(theta), cfg))
        except Exception as exc:  # per-ray failure: keep going, keep partial data
            failures.append({"theta": theta, "error": str(exc)})
    trace = CurveTrace(
        samples=tuple(samples),
        mesh_fingerprint=mesh.fingerprint(),
        profile_fingerprints=(f.fingerprint(), g.fingerprint()),
    )
    write_trace_csv(out / "curve.csv", trace, fp)
    if failures:
        write_json(out / "curve_failures.json", {"failures": failures}, fp)
        return EXIT_RAY_FAILED
    return EXIT_OK


def cmd_eigen(config: dict, args, out: Path, fp: str) -> int:
    mesh, f, g, lam, mu, outcome = _solve_at_parameters(config, args)
    if not outcome.converged:
        write_json(out / "eigen_summary.json",
                   {"verdict": outcome.verdict.value}, fp)
        return _VERDICT_EXIT[outcome.verdict]
    result = linearized_eigen(mesh, f, g, lam, mu, outcome.state)
    write_eigen_csv(out / "eigenfunctions.csv", mesh, result, fp)
    write_json(out / "eigen_summary.json",
               {"nu1": result.nu1, "classification": classify(result),
                "iterations": result.iterations}, fp)
    return EXIT_OK


def cmd_bounds(config: dict, args, out: Path, fp: str) -> int:
    mesh, f, g = _load_inputs(config, args)
    write_bounds_json(out / "bounds.json", bound_report(mesh, f, g), fp)
    return EXIT_OK


def cmd_symmetrize(config: dict, args, out: Path, fp: str) -> int:
    mesh, f, g = _load_inputs(config, args)
    try:
        nodes = _scaled(_integer(config.get("target_nodes", 256), "target_nodes"),
                        args.resolution_scale)
    except (TypeError, ValueError, OverflowError) as exc:
        raise _ConfigProblems([{"field": "target_nodes", "message": str(exc)}]) from exc
    ball = build_radial(mesh.dimension, mesh.equal_measure_radius, nodes)
    for name, prof in (("f", f), ("g", g)):
        star = symmetrize(prof, mesh, ball)
        write_csv(out / f"{name}_symmetrized.csv", ["index", "value"],
                  enumerate(star.values), fp)
    return EXIT_OK


def cmd_extremal(config: dict, args, out: Path, fp: str) -> int:
    mesh, f, g = _load_inputs(config, args, need_params=["theta", "fractions"])
    problems = []
    cfg = _curve_config(config, problems)
    theta = _parameter(config, "theta", problems, above=0)
    alpha = _parameter({"moser_alpha": 2.0, **config}, "moser_alpha", problems,
                       above=1)
    if problems:
        raise _ConfigProblems(problems)
    try:
        record = approach_extremal(mesh, f, g, theta, config["fractions"], alpha, cfg)
    except (ConvergenceError, UnboundedRayError, NumericsError) as exc:
        write_json(out / "extremal_failures.json",
                   {"failures": [{"theta": theta, "error": str(exc)}]}, fp)
        return EXIT_RAY_FAILED
    write_approach_csv(out / "approach.csv", record, fp)
    write_json(out / "extremal_summary.json",
               {"lambda_star": record.lam_star, "theta": record.theta,
                "samples": len(record.samples)}, fp)
    return EXIT_OK


def cmd_check(config: dict, args, out: Path, fp: str) -> int:
    from . import acceptance   # imported here: no other command needs it

    registry = acceptance.registry()
    names = config.get("criteria")
    if names is None:
        names = list(registry)
    if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
        raise _ConfigProblems([{"field": "criteria", "message":
                                f"must be a non-empty list of names, got {names!r}"}])
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise _ConfigProblems(
            [{"field": "criteria", "message": f"unknown criterion {n!r}"}
             for n in unknown]
        )
    results = []
    all_pass = True
    for name in names:
        result = registry[name](args.resolution_scale)
        results.append(result)
        all_pass &= result.passed
        print(result.line())
    write_json(out / "check_report.json",
               {"results": [r.to_dict() for r in results]}, fp)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


_COMMANDS = {
    "solve": cmd_solve,
    "curve": cmd_curve,
    "eigen": cmd_eigen,
    "bounds": cmd_bounds,
    "symmetrize": cmd_symmetrize,
    "extremal": cmd_extremal,
    "check": cmd_check,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 4 like any invalid input; exit 2 means suspected
    nonexistence."""

    def error(self, message):
        raise _ConfigProblems([{"field": "arguments", "message": message}])


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="memslab",
        description="Coupled MEMS pull-in laboratory: solves, curves, bounds, checks.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; rays run in-process")
    parser.add_argument("--resolution-scale", type=float, default=1.0,
                        help="multiply configured node counts by this factor")
    try:
        args = parser.parse_args(argv)
        if not 0 < args.resolution_scale < math.inf:
            raise _ConfigProblems([{
                "field": "--resolution-scale",
                "message": f"must be finite and positive, got {args.resolution_scale!r}",
            }])
        try:
            config = json.loads(Path(args.config).read_text())
            if not isinstance(config, dict):
                raise ValueError("config root must be a JSON object")
        except (OSError, ValueError) as exc:
            raise _ConfigProblems([{"field": "--config", "message": str(exc)}]) from exc
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _ConfigProblems([{"field": "--out", "message": str(exc)}]) from exc
        fp = fingerprint(json.dumps(config, sort_keys=True, separators=(",", ":")))
        return _COMMANDS[args.command](config, args, out, fp)
    except _ConfigProblems as exc:
        violations = exc.problems
    except (ConfigurationError, HypothesisError, PreconditionError) as exc:
        violations = [{"field": "config", "message": str(exc)}]
    json.dump({"error": "invalid-config", "violations": violations}, sys.stderr)
    sys.stderr.write("\n")
    return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
