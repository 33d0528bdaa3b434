"""Critical existence curve: two-level ray brackets and analytic bounds.

For each direction theta > 0 the feasible parameters along the ray
mu = theta * lam form a bounded interval whose supremum lam_star(theta)
is bracketed with the monotone solver as feasibility oracle.  Every end
of a bracket is a probe verdict on the given mesh, and each sample carries
both ends (``lam_lo`` feasible, ``lam_hi`` infeasible) with the witness
that settled them.

On radial meshes of at least 2,048 nodes the bracket starts from a
prediction: the same ray on the radial mesh with 1/32 of the nodes, whose
lam_star converges at O(h^2) and so lands well inside the fine bracket
(nested iteration).  Two fine probes at lam_c (1 -+ 0.4 rtol) then bracket
lam_star; a probe that disagrees walks the window.  The prediction is
never a certificate.  Elsewhere, and whenever the prediction fails, the
bracket starts from the analytic certificates: a dimension constant lower
box that is always feasible, and, where inf f and inf g are both positive,
the certified upper end ``upper_cert`` of ``ray_upper_bound`` (geometric
expansion otherwise).  Bisection then narrows either start to the
configured relative width.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import Counter
from dataclasses import asdict, dataclass, replace

import numpy as np

from .artifacts import write_csv, write_json
from .exceptions import (ConfigurationError, ConvergenceError, NumericsError,
                         UnboundedRayError)
from .mesh import Mesh, build_radial, principal_eigenpair, unit_ball_volume
from .profiles import Profile, symmetrize
from .solver import NonexistenceReason, SolveConfig, Verdict, minimal_solve

_MAX_DOUBLINGS = 60
_PROBE_BUDGET_FACTOR = 16   # a probe's loop-step budget, in units of max_iter
# the relative rounding of mu1 that ray_upper_bound allows for, about 100x
# the measured error of principal_eigenpair (1e-11)
_MU1_ROUNDING = 1e-9
# two-level rays: the coarse twin of a radial mesh has 1/_COARSE_RATIO of its
# nodes, and at least _COARSE_MIN_NODES; its ray runs at _WINDOW * rtol, and
# the fine window is lam_c (1 -+ _WINDOW * rtol)
_COARSE_RATIO = 32
_COARSE_MIN_NODES = 64
# below this rtol the coarse ray costs more two-field solves than the
# bisection it replaces (4,096-node disk: at 1e-6, 1,427-1,682 against
# 587-726 a ray), and the window walks
_COARSE_MIN_RTOL = 1e-5
_WINDOW = 0.4
_MAX_WALKS = 8


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

    Each bounds lam_star of the symmetric reduction (theta = 1 with f = g)
    only, up to the rounding of mu1; ``ray_upper_bound`` is the certified
    upper end of every ray."""
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


def ray_upper_bound(report: BoundReport, theta: float) -> float | None:
    """Certified upper bound of lam_star on the ray mu = theta * lam, None
    unless inf f and inf g are both positive.

    Test both equations with the principal eigenfunction psi, for which
    A psi <= mu1 psi node-wise, so <A u, psi>_w <= mu1 <u, psi>_w for
    u >= 0.  Since (1 - w)^-2 >= 27 w / 4 on [0, 1), the product of the two
    tested equations gives lam mu <= (4 mu1 / 27)^2 / (inf f inf g); since
    (1 - w)^-2 >= 1 and u, v < 1, lam < mu1 / inf f and mu < mu1 / inf g.
    mu1 is widened by ``_MU1_ROUNDING`` first.
    """
    if not (report.inf_f > 0 and report.inf_g > 0):
        return None
    mu1 = report.mu1 * (1.0 + _MU1_ROUNDING)
    return min(4.0 * mu1 / (27.0 * math.sqrt(theta * report.inf_f * report.inf_g)),
               mu1 / report.inf_f, mu1 / (theta * report.inf_g))


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


class Witness(enum.IntEnum):
    """The probe verdict that settled one end of a ray's bracket."""

    UNRESOLVED = 0      # the probe ran out of budget
    CONVERGED = 1       # feasible: the minimal solve converged
    SUPERSOLUTION = 2   # feasible: a discrete super-solution below the touch band
    TOUCHED = 3         # infeasible: an iterate entered the touch band
    UNSTABLE = 4        # infeasible: an unstable sub-solution


_WITNESS = {
    Verdict.INCONCLUSIVE: Witness.UNRESOLVED,
    Verdict.CONVERGED: Witness.CONVERGED,
    Verdict.FEASIBLE: Witness.SUPERSOLUTION,
    NonexistenceReason.TOUCHED_ONE: Witness.TOUCHED,
    NonexistenceReason.UNSTABLE_SUBSOLUTION: Witness.UNSTABLE,
}


@dataclass(frozen=True)
class RaySample:
    """One ray's bracket: ``lam_lo``, the last feasible probed lam, and
    ``lam_hi``, the last infeasible one (or the unresolved probe that ended
    the search), each with the witness that settled it."""

    theta: float
    lam_lo: float
    lam_hi: float
    lo_witness: Witness
    hi_witness: Witness
    lower_cert: float
    upper_cert: float | None
    iterations_total: int
    unresolved_probes: int = 0
    newton_steps: int = 0
    supersolution_probes: int = 0  # feasible by the super-solution certificate
    unstable_probes: int = 0      # infeasible by the unstable-subsolution certificate
    touched_probes: int = 0       # infeasible by touching the band below 1

    @property
    def lam_star(self) -> float:
        return 0.5 * (self.lam_lo + self.lam_hi)

    @property
    def mu_star(self) -> float:
        return self.theta * self.lam_star

    @property
    def bracket_width(self) -> float:
        return (self.lam_hi - self.lam_lo) / self.lam_star

    @property
    def upper_unverified(self) -> bool:
        """No probe showed the infeasible end infeasible."""
        return self.hi_witness is Witness.UNRESOLVED


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


def _coarse_prediction(
    mesh: Mesh, f: Profile, g: Profile, theta: float, cfg: CurveConfig
) -> float | None:
    """lam_star of the same ray on the radial mesh of the same ball with
    1/32 of the nodes, at the rtol of the window; None on rectangles, on
    meshes whose coarse twin would have fewer than 64 nodes, below
    ``_COARSE_MIN_RTOL``, or when the coarse ray raises.  The profiles are
    restricted by linear interpolation onto the coarse radii, keeping their
    ``sup``: the result is only a prediction, so any restriction is sound."""
    nodes = mesh.n_nodes // _COARSE_RATIO
    if mesh.radii is None or nodes < _COARSE_MIN_NODES or cfg.rtol < _COARSE_MIN_RTOL:
        return None
    coarse = build_radial(mesh.dimension, mesh.radius, nodes)

    def restrict(p: Profile) -> Profile:
        return Profile(np.interp(coarse.radii, mesh.radii, p.values), sup=p.sup)

    try:
        ray = extremal_on_ray(coarse, restrict(f), restrict(g), theta,
                              replace(cfg, rtol=_WINDOW * cfg.rtol))
    except (ConvergenceError, NumericsError, UnboundedRayError):
        return None
    return ray.lam_star


def extremal_on_ray(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    theta: float,
    cfg: CurveConfig = CurveConfig(),
) -> RaySample:
    """Locate the critical parameter along the ray mu = theta * lam.

    On radial meshes of at least 2,048 nodes, at rtol >= 1e-5, the bracket
    starts from the same ray on a 1/32 coarse mesh (``_coarse_prediction``):
    the fine mesh is probed at lam_c (1 - d) and lam_c (1 + d), d = 0.4 rtol,
    and while a probe disagrees with the prediction the window walks by its
    own width in that direction.  A coarse ray that fails, an unresolved
    window probe, or more than ``_MAX_WALKS`` walks falls back to the
    analytic start: the certified lower box corner scaled into the ray and
    the certified ``ray_upper_bound`` when available (geometric expansion
    otherwise).  Either way the bracket is then bisected to the configured
    relative width, and both of its ends are probe verdicts on ``mesh``.

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
    infeasibility; the sample's upper end then carries the witness
    ``UNRESOLVED`` unless a later bisection probe turns out infeasible.
    """
    if not 0 < theta < math.inf:
        raise ConfigurationError(f"theta must be finite and positive, got {theta!r}")
    report = bound_report(mesh, f, g)
    lower_corner = min(report.a_f, report.a_g / theta)
    upper_corner = ray_upper_bound(report, theta)

    budget = probe_budget(cfg.solve)
    best, warm = -math.inf, None   # largest feasible lam and its state
    witness = {}                   # probed lam -> its witness
    iterations = newton_steps = 0

    def probe(lam: float) -> bool | None:
        nonlocal best, warm, iterations, newton_steps
        out = minimal_solve(mesh, f, g, lam, theta * lam, budget,
                            start=warm if lam > best else None, certify_feasible=True)
        iterations += out.iterations
        newton_steps += out.newton_steps
        witness[lam] = _WITNESS[out.reason or out.verdict]
        if out.verdict is Verdict.NONEXISTENCE_SUSPECTED:
            return False
        if out.verdict is Verdict.INCONCLUSIVE:
            return None
        if lam > best:
            best, warm = lam, (out.state.u, out.state.v)
        return True

    def window(lam_c: float) -> tuple[float, float] | None:
        """A feasible and an infeasible probe one window apart around the
        prediction, or None to fall back."""
        step = (1.0 + _WINDOW * cfg.rtol) / (1.0 - _WINDOW * cfg.rtol)
        lo = hi = None
        lam = lam_c * (1.0 - _WINDOW * cfg.rtol)
        for _ in range(_MAX_WALKS + 2):
            verdict = probe(lam)
            if verdict is None:
                return None
            if verdict:
                lo, lam = lam, lam * step
            else:
                hi, lam = lam, lam / step
            if lo is not None and hi is not None:
                return lo, hi
        return None

    lam_c = _coarse_prediction(mesh, f, g, theta, cfg)
    bracket = None if lam_c is None else window(lam_c)
    if bracket is not None:
        a, b = bracket
    else:
        a = lower_corner
        for _ in range(8):
            if probe(a):
                break
            a *= 0.5
        else:
            raise ConvergenceError(
                "certified lower bound numerically infeasible; discretization too coarse"
            )

        b = upper_corner if upper_corner is not None and upper_corner > a else 2.0 * a
        doublings = 0
        while probe(b):
            a = b
            b *= 2.0
            doublings += 1
            if doublings > _MAX_DOUBLINGS:
                raise UnboundedRayError(
                    f"no infeasible parameter found below {b:.3e} on theta={theta}"
                )

    while (b - a) > cfg.rtol * b:
        mid = 0.5 * (a + b)
        verdict = probe(mid)
        if verdict is None:
            break  # unresolved probe: keep the honest bracket
        if verdict:
            a = mid
        else:
            b = mid

    ends = Counter(witness.values())   # no lam is probed twice
    return RaySample(
        theta=theta,
        lam_lo=a,
        lam_hi=b,
        lo_witness=witness[a],
        hi_witness=witness[b],
        lower_cert=lower_corner,
        upper_cert=upper_corner,
        iterations_total=iterations,
        unresolved_probes=ends[Witness.UNRESOLVED],
        newton_steps=newton_steps,
        supersolution_probes=ends[Witness.SUPERSOLUTION],
        unstable_probes=ends[Witness.UNSTABLE],
        touched_probes=ends[Witness.TOUCHED],
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
    supersolution_probes, unstable_probes, touched_probes, upper_unverified,
    lambda_lo, lambda_hi, lo_witness, hi_witness.  The witnesses are the
    ``Witness`` codes, and they and the other counts are integers (the flag
    as 0 or 1), so every cell but an absent upper_cert parses as a float."""
    write_csv(
        path,
        ["theta", "lambda_star", "mu_star", "bracket_width",
         "lower_cert", "upper_cert", "solver_iters_total",
         "unresolved_probes", "newton_steps", "supersolution_probes",
         "unstable_probes", "touched_probes", "upper_unverified",
         "lambda_lo", "lambda_hi", "lo_witness", "hi_witness"],
        ((s.theta, s.lam_star, s.mu_star, s.bracket_width, s.lower_cert,
          s.upper_cert, s.iterations_total, s.unresolved_probes,
          s.newton_steps, s.supersolution_probes, s.unstable_probes,
          s.touched_probes, int(s.upper_unverified), s.lam_lo, s.lam_hi,
          int(s.lo_witness), int(s.hi_witness)) for s in samples),
        fingerprint,
        comments=[f"mesh: {mesh.fingerprint()} "
                  f"profiles: {f.fingerprint()},{g.fingerprint()}"],
    )


def write_bounds_json(path, report: BoundReport, fingerprint: str = "") -> None:
    write_json(path, asdict(report), fingerprint)
