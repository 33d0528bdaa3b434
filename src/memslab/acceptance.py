"""Conformance suite: every contract the package promises, runnable as one table.

Each criterion is a function of a resolution scale factor; at scale 1.0 it
runs the reference resolutions and enforces its runtime cap.  The functions
return a CriterionResult and never raise: an exception is reported as a
failed criterion.  Golden values are frozen from 4096-node radial oracle
runs (regenerate with tools/make_goldens.py).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curve import (
    CurveConfig,
    compare_symmetrized,
    extremal_on_ray,
    lower_bound,
    lower_bound_power,
)
from .diagnostics import singular_residual
from .mesh import (
    _scaled,
    build_radial,
    build_rect,
    principal_eigenpair,
    solve_poisson,
)
from .profiles import constant_profile, power_profile, tabulated_profile
from .solver import SolveConfig, StatePair, minimal_solve
from .stability import classify, eigen_ratio_check, linearized_eigen, stability_inequality_gap

GOLDEN_DISK_LAM_STAR = 0.7892086977942018     # 4096-node oracle, theta = 1
_J01_SQUARED = 5.783185962946783   # j_{0,1}^2, the unit disk's mu1

_SEED = 20240311


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag}  {self.name}  ({self.seconds:.1f}s)  {self.detail}"


@lru_cache(maxsize=None)
def _disk_ray(n: int, theta: float, radius: float = 1.0):
    mesh = build_radial(2, radius, n)
    one = constant_profile(mesh, 1.0)
    return extremal_on_ray(mesh, one, one, theta, CurveConfig())


def _bump_fields(mesh, count: int, rng) -> list:
    """Smooth boundary-vanishing bumps on a radial mesh."""
    r = mesh.radii / mesh.radius
    fields = []
    for _ in range(count):
        center = rng.uniform(0.0, 0.8)
        width = rng.uniform(0.1, 0.4)
        fields.append((1.0 - r**2) * np.exp(-(((r - center) / width) ** 2)))
    return fields


_REGISTRY = {}


def _criterion(fn):
    """Wrap a criterion body so failures and timing are captured, and
    register it under its hyphenated name, in definition order."""
    name = fn.__name__.replace("_", "-")

    def run(scale: float = 1.0) -> CriterionResult:
        start = time.perf_counter()
        try:
            passed, detail, limit = fn(scale)
        except Exception as exc:  # a crash is a failed criterion, not a crashed suite
            elapsed = time.perf_counter() - start
            return CriterionResult(name, False, f"raised {exc!r}", elapsed)
        elapsed = time.perf_counter() - start
        if limit is not None and scale == 1.0 and elapsed > limit:
            passed, detail = False, f"{detail}; runtime {elapsed:.0f}s over {limit}s cap"
        return CriterionResult(name, passed, detail, elapsed)

    run.__name__ = fn.__name__
    _REGISTRY[name] = run
    return run


@_criterion
def bound_sandwich(scale):
    """Critical parameter between the analytic certificates, matching the golden."""
    n = _scaled(1024, scale)
    mesh = build_radial(2, 1.0, n)
    mu1 = principal_eigenpair(mesh.operator).value
    sample = _disk_ray(n, 1.0)
    lo = 16.0 / 27.0 - 0.003
    hi = 4.0 * mu1 / 27.0 + 0.003
    in_window = lo <= sample.lam_star <= hi
    golden_gap = abs(sample.lam_star - GOLDEN_DISK_LAM_STAR) / GOLDEN_DISK_LAM_STAR
    ok = in_window and golden_gap <= 0.005
    return ok, (
        f"lam*={sample.lam_star:.6f} in [{lo:.4f}, {hi:.4f}]={in_window}, "
        f"golden gap {golden_gap:.2e}"
    ), 60.0


@_criterion
def symmetric_reduction(scale):
    """Identical data keeps the two components bit-identical at every step."""
    checks = []
    for mesh in (build_radial(2, 1.0, _scaled(256, scale)),
                 build_rect(1.0, 1.0, _scaled(24, scale), _scaled(24, scale))):
        one = constant_profile(mesh, 1.0)
        equal = []
        minimal_solve(
            mesh, one, one, 0.7, 0.7, SolveConfig(),
            on_step=lambda it, u, v: equal.append(np.array_equal(u, v)),
        )
        checks.append(all(equal) and len(equal) > 1)
    return all(checks), f"bitwise u==v on radial and rect ({checks})", None


@_criterion
def ordering(scale):
    """Component ordering at 25 random points of the certified box."""
    n = _scaled(256, scale)
    mesh = build_radial(2, 1.0, n)
    one = constant_profile(mesh, 1.0)
    a_f, _ = lower_bound(1.0, 1.0, mesh.volume, 2)
    rng = np.random.default_rng(_SEED)
    worst_uv, worst_ratio, converged = np.inf, np.inf, 0
    for _ in range(25):
        lam = rng.uniform(0.05, a_f)
        mu = lam * rng.uniform(0.05, 1.0)
        out = minimal_solve(mesh, one, one, lam, mu, SolveConfig())
        if not out.converged:
            continue
        converged += 1
        u, v = out.state.u, out.state.v
        worst_uv = min(worst_uv, float(np.min(u - v)))
        worst_ratio = min(worst_ratio, float(np.min(v - (mu / lam) * u)))
    ok = converged == 25 and worst_uv >= -1e-8 and worst_ratio >= -1e-8
    return ok, (
        f"{converged}/25 converged, min(u-v)={worst_uv:.2e}, "
        f"min(v-(mu/lam)u)={worst_ratio:.2e}"
    ), None


@_criterion
def curve_monotonicity(scale):
    """Seven-ray trace is non-increasing within twice the bracket width."""
    n = _scaled(512, scale)
    mesh = build_radial(2, 1.0, n)
    one = constant_profile(mesh, 1.0)
    grid = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0]
    rays = [extremal_on_ray(mesh, one, one, theta, CurveConfig()) for theta in grid]
    lams = [s.lam_star for s in rays]
    slack = 2.0 * max(s.bracket_width for s in rays)
    ok = all(b <= a * (1.0 + slack) for a, b in zip(lams, lams[1:]))
    return ok, f"lam* over theta grid: {['%.4f' % x for x in lams]}", 300.0


@_criterion
def scaling_domain_monotonicity(scale):
    """lam* R^2 is scale-invariant; shrinking the ball raises lam*."""
    n = _scaled(512, scale)
    products = {}
    for radius in (0.5, 1.0, 2.0):
        s = _disk_ray(n, 1.0, radius=radius)
        products[radius] = s.lam_star * radius**2
    vals = list(products.values())
    spread = (max(vals) - min(vals)) / min(vals)
    domain_ok = products[0.5] / 0.25 >= products[1.0] / 1.0
    ok = spread <= 0.01 and domain_ok
    return ok, f"lam*R^2 spread {spread:.2e}, lam*(B_1/2)>=lam*(B_1): {domain_ok}", None


@_criterion
def symmetrization(scale):
    """Rearranged problems on the equal-measure disk never beat the original."""
    nx = _scaled(64, scale)
    n_disk = _scaled(512, scale)
    rect = build_rect(1.0, 1.0, nx, nx)
    disk = build_radial(2, (1.0 / np.pi) ** 0.5, n_disk)
    cfg = CurveConfig()
    details = []
    ok = True
    for label, f_vals in (("constant", None), ("indicator", "left-half")):
        if f_vals is None:
            f = constant_profile(rect, 1.0)
        else:
            f = tabulated_profile(rect, (rect.coordinates["x"] < 0.5).astype(float))
        g = constant_profile(rect, 1.0)
        original, rearranged = compare_symmetrized(rect, f, g, disk, 1.0, cfg)
        slack = 2.0 * max(original.bracket_width, rearranged.bracket_width)
        holds = original.lam_star >= rearranged.lam_star * (1.0 - slack)
        ok &= holds
        details.append(
            f"{label}: square {original.lam_star:.4f} >= disk "
            f"{rearranged.lam_star:.4f} ({holds})"
        )
    return ok, "; ".join(details), 600.0


@lru_cache(maxsize=None)
def _stability_states(n: int):
    """Minimal states and eigen results at half and near-critical load."""
    mesh = build_radial(2, 1.0, n)
    one = constant_profile(mesh, 1.0)
    lam_star = _disk_ray(n, 1.0).lam_star
    out = {}
    for t in (0.5, 0.99):
        lam = t * lam_star
        sol = minimal_solve(mesh, one, one, lam, lam, SolveConfig())
        eig = linearized_eigen(mesh, one, one, lam, lam, sol.state)
        out[t] = (lam, sol, eig)
    return mesh, one, lam_star, out


@_criterion
def stability(scale):
    """Positive principal pair, eigenvalue decay along the branch, exact
    zero-state eigenvalue, and the component ratio bound."""
    n = _scaled(512, scale)
    mesh, one, lam_star, states = _stability_states(n)
    _, _, eig_half = states[0.5]
    _, _, eig_99 = states[0.99]
    positive = all(
        np.all(e.phi1 > 0) and np.all(e.phi2 > 0) for _, _, e in states.values()
    )
    decays = eig_99.nu1 < eig_half.nu1
    stable_half = eig_half.nu1 > 0

    # asymmetric point: mu < lam on the theta = 0.5 ray
    ray = extremal_on_ray(mesh, one, one, 0.5, CurveConfig())
    lam, mu = 0.6 * ray.lam_star, 0.3 * ray.lam_star
    sol = minimal_solve(mesh, one, one, lam, mu, SolveConfig())
    eig = linearized_eigen(mesh, one, one, lam, mu, sol.state)
    ratio_gap = eigen_ratio_check(eig, lam, mu)

    # zero-state analytic eigenvalue
    mu1 = principal_eigenpair(mesh.operator).value
    zero = StatePair(u=np.zeros(mesh.n_nodes), v=np.zeros(mesh.n_nodes))
    t = 0.4
    eig0 = linearized_eigen(mesh, one, one, t, t, zero)
    analytic_gap = abs(eig0.nu1 - (mu1 - 2.0 * t))

    ok = (
        stable_half and decays and positive
        and ratio_gap >= -1e-6 and analytic_gap <= 1e-6
    )
    return ok, (
        f"nu1(0.5)={eig_half.nu1:.4f}>0:{stable_half}, "
        f"nu1(0.99)={eig_99.nu1:.4f}<nu1(0.5):{decays}, positive:{positive}, "
        f"ratio gap {ratio_gap:.2e}, zero-state gap {analytic_gap:.2e}"
    ), None


@_criterion
def stability_inequality(scale):
    """Energy-mass gap nonnegative for random bumps at every stable sample."""
    n = _scaled(512, scale)
    mesh, one, _, states = _stability_states(n)
    rng = np.random.default_rng(_SEED)
    worst = np.inf
    tested = 0
    for _, (lam, sol, eig) in states.items():
        if classify(eig) != "stable":
            continue
        for phi in _bump_fields(mesh, 20, rng):
            gap = stability_inequality_gap(mesh, one, one, lam, lam, sol.state, phi)
            norm2 = float(np.dot(mesh.weights, phi * phi))
            worst = min(worst, gap / norm2)
            tested += 1
    ok = tested >= 20 and worst >= -1e-8
    return ok, f"{tested} bump fields, worst gap/||phi||^2 = {worst:.3e}", None


@_criterion
def singular_identity(scale):
    """Cusp identity defect decays at second order under refinement."""
    n = _scaled(512, scale)
    coarse = singular_residual(8, n)
    fine = singular_residual(8, 2 * n)
    ratio = coarse / fine
    ok = 3.5 <= ratio <= 4.5
    return ok, f"defect {coarse:.3e} -> {fine:.3e}, ratio {ratio:.3f}", None


@_criterion
def power_weight_bound(scale):
    """Quadratic-weight problem is solvable at 95% of its certified bound."""
    n = _scaled(512, scale)
    mesh = build_radial(2, 1.0, n)
    fpow = power_profile(mesh, 2.0)
    a, _ = lower_bound_power(2.0, 2.0, 1.0, 2)
    lam = 0.95 * a
    out = minimal_solve(mesh, fpow, fpow, lam, lam, SolveConfig())
    ok = out.converged
    sup_u = out.state.u.max() if out.converged else float("nan")
    return ok, (
        f"lam=0.95*{a:.4f}={lam:.4f}: {out.verdict.value}, "
        f"sup u={sup_u:.4f}, iters={out.iterations}"
    ), 30.0


@_criterion
def infrastructure(scale):
    """Dirichlet eigenvalues against closed forms; Poisson second order."""
    details = []
    ok = True

    targets = [
        ("interval", build_radial(1, 1.0, _scaled(256, scale)), np.pi**2 / 4.0),
        ("disk", build_radial(2, 1.0, _scaled(256, scale)), _J01_SQUARED),
        ("square", build_rect(1.0, 1.0, _scaled(64, scale), _scaled(64, scale)),
         2.0 * np.pi**2),
    ]
    for label, mesh, exact in targets:
        mu1 = principal_eigenpair(mesh.operator).value
        rel = abs(mu1 - exact) / exact
        ok &= rel <= 0.005
        details.append(f"{label} mu1 rel err {rel:.2e}")

    errors = []
    for n in (_scaled(256, scale), _scaled(512, scale), _scaled(1024, scale)):
        mesh = build_radial(2, 1.0, n)
        u = solve_poisson(mesh.operator, np.full(n, 4.0))
        errors.append(float(np.max(np.abs(u - (1.0 - mesh.radii**2)))))
    ratios = [errors[i] / errors[i + 1] for i in range(2)]
    ok &= all(3.5 <= r <= 4.5 for r in ratios)
    details.append(f"poisson ratios {['%.2f' % r for r in ratios]}")
    return ok, "; ".join(details), None


def registry() -> dict:
    """Ordered mapping of criterion name to runner."""
    return dict(_REGISTRY)
