"""Critical existence curve: ray bisection and analytic bounds.

For each direction theta > 0 the feasible parameters along the ray
mu = theta * lam form a bounded interval whose supremum lam_star(theta)
is located by bisection with the monotone solver as feasibility oracle.
The starting bracket comes from the analytic certificates: a dimension
constant lower box that is always feasible, and (when both profiles are
bounded away from zero) the eigenvalue corner ``upper_cert``.  That corner
certifies lam_star only for the symmetric reduction (theta = 1 with f = g),
up to the rounding of mu1; off that case it only starts the geometric
expansion that finds the infeasible end, and it can lie below lam_star.
Numerical feasibility is approximate, so every sample carries its final
bracket width and the certificates used.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np

from .artifacts import write_csv, write_json
from .exceptions import ConfigurationError, ConvergenceError, UnboundedRayError
from .mesh import Mesh, principal_eigenpair, unit_ball_volume
from .profiles import Profile, symmetrize
from .solver import NonexistenceReason, SolveConfig, Verdict, minimal_solve

_MAX_DOUBLINGS = 60
_PROBE_BUDGET_FACTOR = 16   # a probe's loop-step budget, in units of max_iter


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
    """Eigenvalue corners 4 mu1 / (27 inf), absent where inf vanishes.

    A certified upper bound of lam_star only for the symmetric reduction
    (theta = 1 with f = g), up to the rounding of mu1; the tangent argument
    behind it needs u = v."""
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


def bound_report(mesh: Mesh, f: Profile, g: Profile) -> BoundReport:
    """Evaluate every applicable bound for the given configuration."""
    dim = mesh.dimension
    a_f, a_g = lower_bound(f.sup, g.sup, mesh.volume, dim)
    mu1 = principal_eigenpair(mesh.operator).value
    uf, ug = upper_bound(mu1, f.inf, g.inf)
    return BoundReport(
        a_f=a_f,
        a_g=a_g,
        c_n=dimension_constant(dim),
        upper_f=uf,
        upper_g=ug,
        mu1=mu1,
        sup_f=f.sup,
        inf_f=f.inf,
        sup_g=g.sup,
        inf_g=g.inf,
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


def probe_budget(solve: SolveConfig) -> SolveConfig:
    """The budget of one feasibility probe: 16x the base ``max_iter``."""
    return replace(solve, max_iter=solve.max_iter * _PROBE_BUDGET_FACTOR)


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
    supersolution_probes: int = 0  # feasible by the super-solution certificate
    unstable_probes: int = 0      # infeasible by the unstable-subsolution certificate
    touched_probes: int = 0       # infeasible by touching the band below 1
    # no probe showed the infeasible end infeasible: the probe that ended the
    # upward expansion was unresolved, and no bisection probe was infeasible
    upper_unverified: bool = False


def check_theta_grid(grid, upper: float = math.inf) -> None:
    """Reject a grid that is empty, has an entry that is not a finite number
    (a boolean is not one) in the open interval (0, ``upper``), or is not
    strictly increasing."""
    if not isinstance(grid, list) or not grid:
        raise ConfigurationError("must be a non-empty list")
    # an int beyond float range fails the comparison instead of raising
    if any(isinstance(t, bool) or not isinstance(t, (int, float))
           or not 0 < t <= sys.float_info.max or not t < upper for t in grid):
        raise ConfigurationError(
            "entries must be finite and positive" if upper == math.inf
            else f"entries must lie strictly inside (0, {upper:g})")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigurationError("must be strictly increasing")


def extremal_on_ray(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    theta: float,
    cfg: CurveConfig = CurveConfig(),
) -> RaySample:
    """Locate the critical parameter along the ray mu = theta * lam.

    The bracket starts at the certified lower box corner scaled into the
    ray and at the eigenvalue corner when available (geometric expansion
    otherwise), then bisects to the configured relative width.

    Each feasibility probe is one ``minimal_solve`` at ``probe_budget``, 16x
    the configured ``max_iter``; a probe still inconclusive there reports
    None so the bisection can stop without mis-shrinking the bracket on that
    side.  A probe asks for the super-solution certificate
    (``certify_feasible``), so it is feasible as soon as the Picard loop
    exhibits a discrete super-solution below the touch band
    (Verdict.FEASIBLE), or when it converges.  Either way the state returned
    is a Picard iterate, a sub-solution lying below the minimal solution of
    every larger lam on the ray; the state of the largest feasible lam is
    kept, and a probe above it starts from it (``minimal_solve``'s
    ``start``).  An unresolved probe ends the expansion without showing
    infeasibility; the sample then reports ``upper_unverified`` unless a
    later bisection probe turns out infeasible.
    """
    if not 0 < theta < math.inf:
        raise ConfigurationError(f"theta must be finite and positive, got {theta!r}")
    report = bound_report(mesh, f, g)
    lower_corner = min(report.a_f, report.a_g / theta)
    upper_corner = None
    if report.upper_f is not None and report.upper_g is not None:
        upper_corner = min(report.upper_f, report.upper_g / theta)

    budget = probe_budget(cfg.solve)
    best, warm = -math.inf, None   # largest feasible lam and its state
    ends = Counter()               # probe verdicts; nonexistence by reason
    iterations = newton_steps = 0

    def probe(lam: float) -> bool | None:
        nonlocal best, warm, iterations, newton_steps
        out = minimal_solve(mesh, f, g, lam, theta * lam, budget,
                            start=warm if lam > best else None, certify_feasible=True)
        iterations += out.iterations
        newton_steps += out.newton_steps
        ends[out.reason or out.verdict] += 1
        if out.verdict is Verdict.NONEXISTENCE_SUSPECTED:
            return False
        if out.verdict is Verdict.INCONCLUSIVE:
            return None
        if lam > best:
            best, warm = lam, (out.state.u, out.state.v)
        return True

    a = lower_corner
    for _ in range(8):
        verdict = probe(a)
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
    while (verdict := probe(b)) is True:
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
        verdict = probe(mid)
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
        iterations_total=iterations,
        unresolved_probes=ends[Verdict.INCONCLUSIVE],
        newton_steps=newton_steps,
        supersolution_probes=ends[Verdict.FEASIBLE],
        unstable_probes=ends[NonexistenceReason.UNSTABLE_SUBSOLUTION],
        touched_probes=ends[NonexistenceReason.TOUCHED_ONE],
        upper_unverified=upper_unverified,
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


def write_trace_csv(path, samples, mesh: Mesh, f: Profile, g: Profile,
                    fingerprint: str = "") -> None:
    """Columns: theta, lambda_star, mu_star, bracket_width, lower_cert,
    upper_cert, solver_iters_total, unresolved_probes, newton_steps,
    supersolution_probes, unstable_probes, touched_probes, upper_unverified.
    The last seven are integers (the flag as 0 or 1), so every cell but an
    absent upper_cert parses as a float."""
    write_csv(
        path,
        ["theta", "lambda_star", "mu_star", "bracket_width",
         "lower_cert", "upper_cert", "solver_iters_total",
         "unresolved_probes", "newton_steps", "supersolution_probes",
         "unstable_probes", "touched_probes", "upper_unverified"],
        ((s.theta, s.lam_star, s.mu_star, s.bracket_width, s.lower_cert,
          s.upper_cert, s.iterations_total, s.unresolved_probes,
          s.newton_steps, s.supersolution_probes, s.unstable_probes,
          s.touched_probes, int(s.upper_unverified)) for s in samples),
        fingerprint,
        comments=[f"mesh: {mesh.fingerprint()} "
                  f"profiles: {f.fingerprint()},{g.fingerprint()}"],
    )


def write_bounds_json(path, report: BoundReport, fingerprint: str = "") -> None:
    write_json(path, asdict(report), fingerprint)
