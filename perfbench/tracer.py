"""Spans around memslab's public functions, installed from outside the package.

Each entry of LAYERS names a function by the module attribute its callers
look it up through (``from .mesh import splu`` binds ``memslab.mesh.splu``,
so that is the attribute to replace).  While installed, every call records a
span ``[name, parent, start, end, info]`` in memory; ``info`` is read from the
return value (iterations, verdicts, the returned RaySample).  Self time of a
span is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from collections import defaultdict


def _iterations(args, kwargs, result):
    return result.iterations


def _solve(args, kwargs, result):
    lam = args[3] if len(args) > 3 else kwargs["lam"]
    return lam, result.verdict.value, result.iterations


def _result(args, kwargs, result):
    return result


# (module, attribute, span name, what to keep from the return value), for
# every lookup that the curve and extremal commands go through
LAYERS = (
    ("memslab.mesh", "DirichletLaplacian.solve", "mesh.solve", None),
    ("memslab.mesh", "splu", "mesh.factorize", None),
    ("memslab.mesh", "cholesky_banded", "mesh.factorize", None),
    ("memslab.cli", "build_radial", "mesh.build", None),
    ("memslab.cli", "build_rect", "mesh.build", None),
    ("memslab.curve", "principal_eigenpair", "mesh.eigenpair", _iterations),
    ("memslab.cli", "constant_profile", "profiles.build", None),
    ("memslab.cli", "load_tabulated", "profiles.build", None),
    ("memslab.curve", "minimal_solve", "solver.minimal_solve", _solve),
    ("memslab.diagnostics", "minimal_solve", "solver.minimal_solve", _solve),
    ("memslab.cli", "bound_report", "curve.bound_report", None),
    ("memslab.curve", "bound_report", "curve.bound_report", None),
    ("memslab.cli", "extremal_on_ray", "curve.extremal_on_ray", _result),
    ("memslab.diagnostics", "extremal_on_ray", "curve.extremal_on_ray", _result),
    ("memslab.diagnostics", "linearized_eigen", "stability.linearized_eigen",
     _iterations),
    ("memslab.stability", "splu", "stability.factorize", None),
    ("memslab.cli", "approach_extremal", "diagnostics.approach_extremal", None),
    ("memslab.diagnostics", "moser_integrals", "diagnostics.moser_integrals", None),
    ("memslab.cli", "write_bounds_json", "cli.write", None),
    ("memslab.cli", "write_trace_csv", "cli.write", None),
    ("memslab.cli", "write_approach_csv", "cli.write", None),
)

RAY = "curve.extremal_on_ray"


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, only=None):
        """Replace the LAYERS attributes (those named in ``only``, if given)."""
        saved = []
        try:
            for module, attr, name, info in LAYERS:
                if only is not None and name not in only:
                    continue
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                setattr(owner, leaf, self.wrap(name, original, info))
                saved.append((owner, leaf, original))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def rays(self, first: int = 0) -> dict:
        """RaySamples returned since span ``first``, keyed by theta."""
        return {s[4].theta: s[4] for s in self.spans[first:]
                if s[0] == RAY and s[4] is not None}


# per-layer metrics: name -> unit; counts must repeat exactly for one input
COUNTS = {
    "mesh.solve.calls": "count",
    "mesh.factorize.calls": "count",
    "mesh.eigenpair.calls": "count",
    "mesh.eigenpair.iters": "count",
    "solver.minimal_solve.calls": "count",
    "solver.iterations": "count",
    "solver.wasted_iters": "count",
    "curve.extremal_on_ray.calls": "count",
    "curve.probes": "count",
    "curve.probe_iters_max": "count",
    "curve.unresolved_probes": "count",
    "stability.linearized_eigen.calls": "count",
    "stability.eigen_iters": "count",
    "stability.factorize.calls": "count",
}
TIMES = {
    "mesh.solve.s": "s",
    "mesh.solve.us_per_call": "us",
    "mesh.factorize.s": "s",
    "mesh.build.s": "s",
    "profiles.build.s": "s",
    "mesh.eigenpair.s": "s",
    "curve.bound_report.s": "s",
    "solver.minimal_solve.self_s": "s",
    "solver.decisive_ratio": "ratio",
    "curve.extremal_on_ray.self_s": "s",
    "stability.linearized_eigen.self_s": "s",
    "stability.factorize.s": "s",
    "diagnostics.approach_extremal.self_s": "s",
    "diagnostics.moser_integrals.s": "s",
    "cli.main.self_s": "s",
    "cli.write.s": "s",
}


def _self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its child spans."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for (name, _, start, end, _), own in zip(spans, _self_times(spans)):
        total[name] += end - start
        self_s[name] += own
        calls[name] += 1

    # spans of calls that raised carry no info
    solves = [s for s in spans if s[0] == "solver.minimal_solve" and s[4]]
    verdicts = [s[4][1] for s in solves]
    probes = defaultdict(list)   # ray span -> [(lam, iterations)], reruns merged
    for s in solves:
        if s[1] >= 0 and spans[s[1]][0] == RAY:
            lam, _, iters = s[4]
            seq = probes[s[1]]
            if seq and seq[-1][0] == lam:
                seq[-1][1] += iters
            else:
                seq.append([lam, iters])
    probe_iters = [it for seq in probes.values() for _, it in seq]
    rays = [s[4] for s in spans if s[0] == RAY and s[4] is not None]

    return {
        "mesh.solve.calls": calls["mesh.solve"],
        "mesh.factorize.calls": calls["mesh.factorize"],
        "mesh.eigenpair.calls": calls["mesh.eigenpair"],
        "mesh.eigenpair.iters": sum(
            s[4] for s in spans if s[0] == "mesh.eigenpair" and s[4] is not None),
        "solver.minimal_solve.calls": len(solves),
        "solver.iterations": sum(s[4][2] for s in solves),
        "solver.wasted_iters": sum(
            s[4][2] for s in solves if s[4][1] == "inconclusive"),
        "curve.extremal_on_ray.calls": calls[RAY],
        "curve.probes": len(probe_iters),
        "curve.probe_iters_max": max(probe_iters, default=0),
        "curve.unresolved_probes": sum(r.unresolved_probes for r in rays),
        "stability.linearized_eigen.calls": calls["stability.linearized_eigen"],
        "stability.eigen_iters": sum(
            s[4] for s in spans
            if s[0] == "stability.linearized_eigen" and s[4] is not None),
        "stability.factorize.calls": calls["stability.factorize"],
        "mesh.solve.s": total["mesh.solve"],
        "mesh.solve.us_per_call":
            1e6 * total["mesh.solve"] / max(calls["mesh.solve"], 1),
        "mesh.factorize.s": total["mesh.factorize"],
        "mesh.build.s": total["mesh.build"],
        "profiles.build.s": total["profiles.build"],
        "mesh.eigenpair.s": total["mesh.eigenpair"],
        "curve.bound_report.s": total["curve.bound_report"],
        "solver.minimal_solve.self_s": self_s["solver.minimal_solve"],
        "solver.decisive_ratio":
            sum(v != "inconclusive" for v in verdicts) / max(len(verdicts), 1),
        "curve.extremal_on_ray.self_s": self_s[RAY],
        "stability.linearized_eigen.self_s": self_s["stability.linearized_eigen"],
        "stability.factorize.s": total["stability.factorize"],
        "diagnostics.approach_extremal.self_s":
            self_s["diagnostics.approach_extremal"],
        "diagnostics.moser_integrals.s": total["diagnostics.moser_integrals"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.write.s": total["cli.write"],
    }


def self_time_shares(spans: list[list]) -> list[tuple[str, float]]:
    """Each layer's share of the pass's self time, largest first."""
    share = defaultdict(float)
    for span, own in zip(spans, _self_times(spans)):
        share[span[0]] += own
    whole = sum(share.values()) or 1.0
    return sorted(((k, v / whole) for k, v in share.items()), key=lambda kv: -kv[1])


def median_metrics(passes: list[dict]) -> dict[str, float]:
    """Times as medians over passes; counts, which repeat, from the first."""
    return {k: v if k in COUNTS else statistics.median(p[k] for p in passes)
            for k, v in passes[0].items()}
