"""Critical existence curve: ray bisection and analytic bounds.

For each direction theta > 0 the feasible parameters along the ray
mu = theta * lam form a bounded interval whose supremum lam_star(theta)
is located by bisection with the monotone solver as feasibility oracle.
The starting bracket comes from the analytic certificates: a dimension
constant lower box that is always feasible, and (when both profiles are
bounded away from zero) an eigenvalue upper bound; otherwise geometric
expansion finds the infeasible end.  Numerical feasibility is approximate,
so every sample carries its final bracket width and the certificates used.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .artifacts import write_csv, write_json
from .exceptions import ConfigurationError, ConvergenceError, UnboundedRayError
from .mesh import Mesh, unit_ball_volume
# unused: perfbench/tracer.py LAYERS looks it up, and --trace 1 fails without it
from .mesh import principal_eigenpair  # noqa: F401
from .profiles import Profile, symmetrize
from .solver import SolveConfig, Verdict, minimal_solve

_MAX_DOUBLINGS = 60
_BUDGET_ESCALATIONS = 2   # retries at 4x, 16x, ... the base budget


def dimension_constant(dimension: int) -> float:
    """max{8N/27, (6N-8)/9}, the constant of the certified lower box."""
    return max(8.0 * dimension / 27.0, (6.0 * dimension - 8.0) / 9.0)


def lower_bound(
    sup_f: float, sup_g: float, volume: float, dimension: int
) -> tuple[float, float]:
    """Certified feasible box (0, a_f] x (0, a_g] from the domain measure."""
    if not (0.0 < sup_f <= 1.0 and 0.0 < sup_g <= 1.0):
        raise ConfigurationError("profile suprema must lie in (0, 1]")
    if volume <= 0:
        raise ConfigurationError("volume must be positive")
    cn = dimension_constant(dimension)
    factor = (unit_ball_volume(dimension) / volume) ** (2.0 / dimension)
    return cn * factor / sup_f, cn * factor / sup_g


def lower_bound_power(
    alpha: float, beta: float, radius: float, dimension: int
) -> tuple[float, float]:
    """Certified feasible box for power profiles r^alpha, r^beta on the ball."""
    if alpha < 0 or beta < 0:
        raise ConfigurationError("power exponents must be nonnegative")
    if radius <= 0:
        raise ConfigurationError("radius must be positive")

    def one(e: float) -> float:
        return max(
            4.0 * (2.0 + e) * (dimension + e) / 27.0,
            (2.0 + e) * (3.0 * dimension + e - 4.0) / 9.0,
        ) / radius ** (2.0 + e)

    return one(alpha), one(beta)


def upper_bound(
    mu1: float, inf_f: float, inf_g: float
) -> tuple[float | None, float | None]:
    """Eigenvalue upper bound 4 mu1 / (27 inf), absent where inf vanishes."""
    if mu1 <= 0:
        raise ConfigurationError("mu1 must be positive")
    uf = 4.0 * mu1 / (27.0 * inf_f) if inf_f > 0 else None
    ug = 4.0 * mu1 / (27.0 * inf_g) if inf_g > 0 else None
    return uf, ug


@dataclass(frozen=True)
class BoundReport:
    """All analytic certificates for one mesh/profile configuration."""

    a_f: float
    a_g: float
    c_n: float
    upper_f: float | None
    upper_g: float | None
    mu1: float
    sup_f: float
    inf_f: float
    sup_g: float
    inf_g: float
    volume: float
    dimension: int
    equal_measure_radius: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def bound_report(mesh: Mesh, f: Profile, g: Profile) -> BoundReport:
    """Evaluate every applicable bound for the given configuration."""
    dim = mesh.dimension
    a_f, a_g = lower_bound(f.sup(), g.sup(), mesh.volume, dim)
    mu1 = mesh.operator.lowest_eigenvalue
    uf, ug = upper_bound(mu1, f.inf(), g.inf())
    return BoundReport(
        a_f=a_f,
        a_g=a_g,
        c_n=dimension_constant(dim),
        upper_f=uf,
        upper_g=ug,
        mu1=mu1,
        sup_f=f.sup(),
        inf_f=f.inf(),
        sup_g=g.sup(),
        inf_g=g.inf(),
        volume=mesh.volume,
        dimension=dim,
        equal_measure_radius=mesh.equal_measure_radius,
    )


@dataclass(frozen=True)
class CurveConfig:
    """Bisection and budget policy for ray extraction."""

    rtol: float = 1e-3
    solve: SolveConfig = SolveConfig()

    def __post_init__(self):
        if not 0 < self.rtol < 1:
            raise ConfigurationError(f"rtol must lie in (0, 1), got {self.rtol!r}")


def probe_budgets(solve: SolveConfig) -> list[SolveConfig]:
    """The budgets a feasibility probe tries in turn: 1x, 4x, 16x the base."""
    return [replace(solve, max_iter=solve.max_iter * 4**k)
            for k in range(_BUDGET_ESCALATIONS + 1)]


@dataclass(frozen=True)
class RaySample:
    theta: float
    lam_star: float
    mu_star: float
    bracket_width: float
    lower_cert: float
    upper_cert: float | None
    iterations_total: int
    unresolved_probes: int = 0
    newton_steps: int = 0
    # no probe showed the infeasible end infeasible: the probe that ended the
    # upward expansion was unresolved, and no bisection probe was infeasible
    upper_unverified: bool = False


@dataclass(frozen=True)
class CurveTrace:
    samples: tuple[RaySample, ...]
    mesh_fingerprint: str
    profile_fingerprints: tuple[str, str]


class _RayOracle:
    """Feasibility probe with budget escalation.

    An inconclusive verdict is retried with a 4x larger budget; a probe
    still unresolved after all escalations reports None so the bisection
    can stop without mis-shrinking the bracket on that side.
    """

    def __init__(self, mesh, f, g, theta, cfg: CurveConfig):
        self.mesh, self.f, self.g, self.theta, self.cfg = mesh, f, g, theta, cfg
        self.iterations = 0
        self.newton_steps = 0
        self.unresolved = 0

    def probe(self, lam: float) -> bool | None:
        for budget in probe_budgets(self.cfg.solve):
            out = minimal_solve(
                self.mesh, self.f, self.g, lam, self.theta * lam, budget
            )
            self.iterations += out.iterations
            self.newton_steps += out.newton_steps
            if out.verdict is Verdict.CONVERGED:
                return True
            if out.verdict is Verdict.NONEXISTENCE_SUSPECTED:
                return False
        self.unresolved += 1
        return None


def extremal_on_ray(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    theta: float,
    cfg: CurveConfig = CurveConfig(),
) -> RaySample:
    """Locate the critical parameter along the ray mu = theta * lam.

    The bracket starts at the certified lower box corner scaled into the
    ray and at the eigenvalue upper bound when available (geometric
    expansion otherwise), then bisects to the configured relative width.
    An unresolved probe ends the expansion without showing infeasibility;
    the sample then reports ``upper_unverified`` unless a later bisection
    probe turns out infeasible.
    """
    if not 0 < theta < math.inf:
        raise ConfigurationError(f"theta must be finite and positive, got {theta!r}")
    report = bound_report(mesh, f, g)
    lower_corner = min(report.a_f, report.a_g / theta)
    upper_corner = None
    if report.upper_f is not None and report.upper_g is not None:
        upper_corner = min(report.upper_f, report.upper_g / theta)

    oracle = _RayOracle(mesh, f, g, theta, cfg)

    a = lower_corner
    for _ in range(8):
        verdict = oracle.probe(a)
        if verdict:
            break
        a *= 0.5
    else:
        raise ConvergenceError(
            "certified lower bound numerically infeasible; discretization too coarse"
        )

    if upper_corner is not None and upper_corner > a:
        b = upper_corner
    else:
        b = 2.0 * a
    doublings = 0
    while (verdict := oracle.probe(b)) is True:
        a = b
        b *= 2.0
        doublings += 1
        if doublings > _MAX_DOUBLINGS:
            raise UnboundedRayError(
                f"no infeasible parameter found below {b:.3e} on theta={theta}"
            )
    upper_unverified = verdict is None

    while (b - a) > cfg.rtol * b:
        mid = 0.5 * (a + b)
        verdict = oracle.probe(mid)
        if verdict is None:
            break  # unresolved probe: keep the honest bracket
        if verdict:
            a = mid
        else:
            b, upper_unverified = mid, False

    lam_star = 0.5 * (a + b)
    return RaySample(
        theta=theta,
        lam_star=lam_star,
        mu_star=theta * lam_star,
        bracket_width=(b - a) / lam_star,
        lower_cert=lower_corner,
        upper_cert=upper_corner,
        iterations_total=oracle.iterations,
        unresolved_probes=oracle.unresolved,
        newton_steps=oracle.newton_steps,
        upper_unverified=upper_unverified,
    )


def _ray_task(args):
    mesh, f, g, theta, cfg = args
    return extremal_on_ray(mesh, f, g, theta, cfg)


def trace_curve(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    theta_grid,
    cfg: CurveConfig = CurveConfig(),
    workers: int = 1,
) -> CurveTrace:
    """Sample the critical curve over a strictly increasing theta grid.

    Rays are independent; with workers > 1 they run in that many worker
    processes.  Output order follows the grid regardless of scheduling.
    """
    thetas = [float(t) for t in theta_grid]
    if any(not 0 < t < math.inf for t in thetas):
        raise ConfigurationError("all theta values must be finite and positive")
    if any(b <= a for a, b in zip(thetas, thetas[1:])):
        raise ConfigurationError("theta grid must be strictly increasing")

    tasks = [(mesh, f, g, t, cfg) for t in thetas]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            samples = list(pool.map(_ray_task, tasks))
    else:
        samples = [_ray_task(t) for t in tasks]
    return CurveTrace(
        samples=tuple(samples),
        mesh_fingerprint=mesh.fingerprint(),
        profile_fingerprints=(f.fingerprint(), g.fingerprint()),
    )


def compare_symmetrized(
    rect_mesh: Mesh,
    f: Profile,
    g: Profile,
    disk_mesh: Mesh,
    theta: float,
    cfg: CurveConfig = CurveConfig(),
) -> tuple[RaySample, RaySample]:
    """Critical parameter of the original problem vs its rearranged twin.

    The profiles are rearranged onto the equal-measure disk; the original
    domain's critical parameter dominates the disk's, within bracket
    tolerance.
    """
    f_star = symmetrize(f, rect_mesh, disk_mesh)
    g_star = symmetrize(g, rect_mesh, disk_mesh)
    original = extremal_on_ray(rect_mesh, f, g, theta, cfg)
    rearranged = extremal_on_ray(disk_mesh, f_star, g_star, theta, cfg)
    return original, rearranged


def write_trace_csv(path, trace: CurveTrace, fingerprint: str = "") -> None:
    """Columns: theta, lambda_star, mu_star, bracket_width, lower_cert,
    upper_cert, solver_iters_total, unresolved_probes, newton_steps,
    upper_unverified.  The last three are integers (the flag as 0 or 1), so
    every cell but an absent upper_cert parses as a float."""
    f_fp, g_fp = trace.profile_fingerprints
    write_csv(
        path,
        ["theta", "lambda_star", "mu_star", "bracket_width",
         "lower_cert", "upper_cert", "solver_iters_total",
         "unresolved_probes", "newton_steps", "upper_unverified"],
        ((s.theta, s.lam_star, s.mu_star, s.bracket_width, s.lower_cert,
          s.upper_cert, s.iterations_total, s.unresolved_probes,
          s.newton_steps, int(s.upper_unverified)) for s in trace.samples),
        fingerprint,
        comments=[f"mesh: {trace.mesh_fingerprint} profiles: {f_fp},{g_fp}"],
    )


def write_bounds_json(path, report: BoundReport, fingerprint: str = "") -> None:
    write_json(path, report.to_dict(), fingerprint)
