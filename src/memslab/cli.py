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
       extremal: the ray or a branch solve failed; eigen: the eigen solve
       failed (both with a failure manifest)

Identical configs produce byte-identical CSV outputs; every artifact embeds
the config fingerprint.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

from .artifacts import fingerprint, write_csv, write_json
from .curve import (
    CurveConfig,
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


_REQUIRED = object()


def _read(problems: list, config: dict, key: str, read, *args, default=_REQUIRED):
    """``read(config[key], *args)``, with ``config.get(key, default)`` in place
    of ``config[key]`` when a default is given.  A missing key, at any depth,
    or a value ``read`` rejects is recorded in ``problems`` as one violation
    under ``key``, and reads as None."""
    try:
        return read(config[key] if default is _REQUIRED else config.get(key, default),
                    *args)
    except (KeyError, TypeError, ValueError, OverflowError, OSError) as exc:
        message = (f"missing required field {exc.args[0]!r}"
                   if isinstance(exc, KeyError) else str(exc))
        problems.append({"field": key, "message": message})


def _object(spec) -> dict:
    """A config section, which must be a JSON object."""
    if not isinstance(spec, dict):
        raise TypeError(f"must be a JSON object, got {spec!r}")
    return spec


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


def _nodes(value, name: str, scale: float) -> int:
    """A node count field at resolution ``scale``."""
    return _scaled(_integer(value, name), scale)


def _mesh(spec, scale: float) -> Mesh:
    kind = _object(spec).get("kind")
    if kind == "radial":
        return build_radial(_integer(spec["dimension"], "dimension"),
                            _float(spec["radius"], "radius"),
                            _nodes(spec["nodes"], "nodes", scale))
    if kind == "rect":
        return build_rect(_float(spec["lx"], "lx"), _float(spec["ly"], "ly"),
                          _nodes(spec["nx"], "nx", scale), _nodes(spec["ny"], "ny", scale))
    raise ValueError(f"unknown domain kind {kind!r}")


def _profile(spec, mesh: Mesh) -> Profile:
    kind = _object(spec).get("kind", "constant")
    if kind == "constant":
        return constant_profile(mesh, _float(spec.get("value", 1.0), "value"))
    if kind == "power":
        return power_profile(mesh, _float(spec["alpha"], "alpha"))
    if kind == "tabulated":
        if not isinstance(spec["path"], str):   # open() reads an integer as a descriptor
            raise ValueError(f"path must be a string, got {spec['path']!r}")
        return load_tabulated(mesh, spec["path"])
    raise ValueError(f"unknown profile kind {kind!r}")


# the config dataclasses own the defaults: only the keys a config gives are passed
def _solve_config(spec) -> SolveConfig:
    casts = {"tol_sup": _float, "max_iter": _integer, "touch_threshold": _float}
    return SolveConfig(**{k: cast(spec[k], k) for k, cast in casts.items()
                          if k in _object(spec)})


def _curve_config(spec, solve: SolveConfig) -> CurveConfig:
    rtol = {"rtol": _float(spec["rtol"], "rtol")} if "rtol" in _object(spec) else {}
    return CurveConfig(**rtol, solve=solve)


def _parameter(value, above=None) -> float:
    """A finite number >= 0 (> ``above`` if given): a boolean, a string or an
    integer beyond float range is rejected, not converted."""
    number = (math.nan if isinstance(value, bool) or not isinstance(value, (int, float))
              else value)
    if not (0 <= number <= sys.float_info.max and (above is None or number > above)):
        bound = "nonnegative" if above is None else f"above {above}"
        raise ValueError(f"must be finite and {bound}, got {value!r}")
    return float(number)


def _inputs(problems: list, config: dict, args):
    """The mesh and the two profiles; the profiles are read only on a mesh."""
    mesh = _read(problems, config, "domain", _mesh, args.resolution_scale)
    if mesh is None:
        return None, None, None
    return (mesh, *(_read(problems, config, key, _profile, mesh, default={})
                    for key in ("f", "g")))


_VERDICT_EXIT = {
    Verdict.CONVERGED: EXIT_OK,
    Verdict.NONEXISTENCE_SUSPECTED: EXIT_NONEXISTENCE,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


def _solve_at_parameters(config: dict, args):
    """Inputs, checked (lambda, mu) and the minimal solve of solve and eigen."""
    problems = []
    mesh, f, g = _inputs(problems, config, args)
    cfg = _read(problems, config, "solver", _solve_config, default={})
    lam = _read(problems, config, "lambda", _parameter)
    mu = _read(problems, config, "mu", _parameter)
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
    problems = []
    mesh, f, g = _inputs(problems, config, args)
    solve = _read(problems, config, "solver", _solve_config, default={})
    cfg = _read(problems, config, "curve", _curve_config, solve, default={})
    _read(problems, config, "theta_grid", check_theta_grid)
    if problems:
        raise _ConfigProblems(problems)

    write_bounds_json(out / "bounds.json", bound_report(mesh, f, g), fp)
    samples, failures = [], []
    for theta in config["theta_grid"]:
        try:   # the previous ray's fold starts this ray's fold solve
            samples.append(extremal_on_ray(mesh, f, g, float(theta), cfg,
                                           previous=samples[-1] if samples else None))
        except Exception as exc:  # per-ray failure: keep going, keep partial data
            failures.append({"theta": theta, "error": str(exc)})
    write_trace_csv(out / "curve.csv", samples, mesh, f, g, fp)
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
    try:
        result = linearized_eigen(mesh, f, g, lam, mu, outcome.state)
    except (ConvergenceError, NumericsError) as exc:
        write_json(out / "eigen_failures.json",
                   {"failures": [{"lambda": lam, "mu": mu, "error": str(exc)}]}, fp)
        return EXIT_RAY_FAILED
    write_eigen_csv(out / "eigenfunctions.csv", mesh, result, fp)
    write_json(out / "eigen_summary.json",
               {"nu1": result.nu1, "classification": classify(result),
                "iterations": result.iterations}, fp)
    return EXIT_OK


def cmd_bounds(config: dict, args, out: Path, fp: str) -> int:
    problems = []
    mesh, f, g = _inputs(problems, config, args)
    if problems:
        raise _ConfigProblems(problems)
    write_bounds_json(out / "bounds.json", bound_report(mesh, f, g), fp)
    return EXIT_OK


def cmd_symmetrize(config: dict, args, out: Path, fp: str) -> int:
    problems = []
    mesh, f, g = _inputs(problems, config, args)
    nodes = _read(problems, config, "target_nodes", _nodes, "target_nodes",
                  args.resolution_scale, default=256)
    if problems:
        raise _ConfigProblems(problems)
    ball = build_radial(mesh.dimension, mesh.equal_measure_radius, nodes)
    for name, prof in (("f", f), ("g", g)):
        star = symmetrize(prof, mesh, ball)
        write_csv(out / f"{name}_symmetrized.csv", ["index", "value"],
                  enumerate(star.values), fp)
    return EXIT_OK


def cmd_extremal(config: dict, args, out: Path, fp: str) -> int:
    problems = []
    mesh, f, g = _inputs(problems, config, args)
    solve = _read(problems, config, "solver", _solve_config, default={})
    cfg = _read(problems, config, "curve", _curve_config, solve, default={})
    theta = _read(problems, config, "theta", _parameter, 0)
    # approach_extremal checks the fractions; here they only have to be given
    fractions = _read(problems, config, "fractions", lambda value: value)
    alpha = _read(problems, config, "moser_alpha", _parameter, 1, default=2.0)
    if problems:
        raise _ConfigProblems(problems)
    try:
        record = approach_extremal(mesh, f, g, theta, fractions, alpha, cfg)
    except (ConvergenceError, UnboundedRayError, NumericsError) as exc:
        write_json(out / "extremal_failures.json",
                   {"failures": [{"theta": theta, "error": str(exc)}]}, fp)
        return EXIT_RAY_FAILED
    write_approach_csv(out / "approach.csv", record, fp)
    write_json(out / "extremal_summary.json",
               {"lambda_star": record.lam_star, "theta": record.theta,
                "samples": len(record.samples)}, fp)
    return EXIT_OK


def _criteria(names, registry: dict) -> list:
    if names is None:
        return list(registry)
    if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)):
        raise ValueError(f"must be a non-empty list of names, got {names!r}")
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise ValueError(f"unknown criterion {', '.join(map(repr, unknown))}")
    return names


def cmd_check(config: dict, args, out: Path, fp: str) -> int:
    from . import acceptance   # imported here: no other command needs it

    registry = acceptance.registry()
    problems = []
    names = _read(problems, config, "criteria", _criteria, registry, default=None)
    if problems:
        raise _ConfigProblems(problems)
    results = []
    all_pass = True
    for name in names:
        result = registry[name](args.resolution_scale)
        results.append(result)
        all_pass &= result.passed
        print(result.line())
    write_json(out / "check_report.json",
               {"results": [asdict(r) for r in results]}, fp)
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
