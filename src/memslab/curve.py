"""Critical existence curve: a walk and a bisection per ray, and the
analytic bounds.

For each direction theta > 0 the feasible parameters along the ray
mu = theta * lam form a bounded interval whose supremum lam_star(theta)
is bracketed with the monotone solver as feasibility oracle.  Every end
of a bracket is a probe verdict on the given mesh, and each sample carries
both ends (``lam_lo`` feasible, ``lam_hi`` infeasible) with the witness
that settled them.

A ray walks geometrically until it holds both ends, then bisects them to
the configured relative width, the shape of an unbounded search (Bentley &
Yao, Inf. Process. Lett. 5, 1976).  A feasible probe is the lower end and
moves the walk up by its step; an infeasible one is the upper end and
moves it down.  An unresolved probe moves it down too, and is the upper
end (witness UNRESOLVED) only once a lower end is known.  After
``_MAX_WALKS`` moves the step squares at each move.  The walk gives up
after ``_MAX_PROBES`` probes, or once lam leaves (0, inf): with
``ConvergenceError`` if no probe was feasible, else with
``UnboundedRayError``.

On radial meshes of at least 2,048 nodes the walk starts from a
prediction: the fold of the same ray on the 64-node radial mesh of the
same ball, whose lam_star converges at O(h^2) and so lands within rtol of
the fine one (nested iteration).  The fold is a Moore-Spence Newton solve
(``fold_point``), continued in theta along a sweep: each ray starts from
the secant in log theta through the folds of the two rays before, which
their samples carry, and only the first ray, or one whose solve fails, runs
a coarse ray to start from, which stops as soon as the fold solves from its
1e-2 wide bracket.  The coarse twin (mesh, restricted profiles and the dense
matrices of the fold solve) is built once per sweep and travels with the
fold.  The walk starts at lam_c (1 - 0.4 rtol) with step (1 + 0.4 rtol) /
(1 - 0.4 rtol).
Where the fold state, prolonged to the fine mesh, certifies that start
feasible (two solves), it is the lower end, and the first probe is one
step up.  That probe starts just below the fold, from the certificate's
Picard step lowered along the fold's null vector by ``_BELOW_FOLD`` of its
sup, where that is certified stable.  The prediction is never a
certificate.  Elsewhere, and whenever the prediction fails, the walk starts
at the certified lower box corner with step 2, and its first step up goes
to the certified upper end ``ray_upper_bound`` where that lies above the
probe (it exists where inf f and inf g are both positive).
"""

from __future__ import annotations

import enum
import math
import sys
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .artifacts import write_csv, write_json
from .exceptions import (ConfigurationError, ConvergenceError, NumericsError,
                         UnboundedRayError)
from .mesh import Mesh, build_radial, principal_eigenpair, unit_ball_volume
from .profiles import Profile, symmetrize
from .solver import (NonexistenceReason, SolveConfig, Verdict, certify_stable_start,
                     certify_supersolution, coupling_weights, minimal_solve, source)

_MAX_PROBES = 60    # probes of one walk
_PROBE_BUDGET_FACTOR = 16   # a probe's loop-step budget, in units of max_iter
# the relative rounding of mu1 that ray_upper_bound allows for, about 100x
# the measured error of principal_eigenpair (1e-11)
_MU1_ROUNDING = 1e-9
# two-level rays: a radial mesh of at least _TWO_LEVEL_NODES nodes predicts
# lam_star on its coarse twin of _COARSE_NODES nodes, and the walk starts at
# lam_c (1 - _WINDOW * rtol) with step (1 + _WINDOW * rtol) / (1 - _WINDOW *
# rtol); a coarse ray there, the start of a fold solve, runs at
# _WINDOW * rtol but no tighter than at rtol _COARSE_RAY_RTOL, and tries the
# fold first once its bracket is _LOOSE_RTOL wide
_TWO_LEVEL_NODES = 2048
_COARSE_NODES = 64
_COARSE_RAY_RTOL = 1e-3
_LOOSE_RTOL = 1e-2
# below this rtol a single ray costs more two-field solves than bisection:
# the walk goes far, as the 64-node fold misses the fine lam_star by up to
# 2.5e-4 (4,096-node disk at 1e-6: 705-851 against 587-761 a ray; 480-548
# along a continued sweep)
_COARSE_MIN_RTOL = 1e-5
_WINDOW = 0.4
_MAX_WALKS = 8      # moves of a walk by its first step; later moves square it
# the lowering of the probe above a start that the fold certified, as a
# fraction of the sup of that certificate's Picard step: on an 8-ray sweep
# of the 4,096-node disk with f = g = 1, 0.01, 0.02, 0.03 and 0.07 took
# 236, 250, 364 and 371 fine two-field solves at rtol 1e-3, and 2,414,
# 1,856, 1,947 and 2,063 at 1e-5
_BELOW_FOLD = 0.02
# a fold solve ends once its step and residual are below _FOLD_RTOL, relative
# (fold_point), within _FOLD_STEPS steps
_FOLD_RTOL = 1e-8
_FOLD_STEPS = 12


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


@dataclass(frozen=True, eq=False)
class CoarseTwin:
    """The 64-node radial mesh of the ball of a fine radial mesh, the
    profiles restricted onto its radii, and the dense transposes ``a_t`` of
    its operator A and ``s_t`` of S = A^-1, C-contiguous, as ``fold_point``
    uses them.  ``fine`` holds the mesh and profiles it was built from."""

    mesh: Mesh
    f: Profile
    g: Profile
    a_t: np.ndarray
    s_t: np.ndarray
    fine: tuple[Mesh, Profile, Profile]

    def built_from(self, mesh: Mesh, f: Profile, g: Profile) -> bool:
        """Whether this twin was built from these very objects."""
        return all(a is b for a, b in zip(self.fine, (mesh, f, g)))


@dataclass(frozen=True, eq=False)
class Fold:
    """The fold of the ray mu = theta * lam on a coarse twin: the turning
    point ``lam``, the state ``x = (u, v)`` there and the null vector ``phi``
    of the linearization, both ``(2, n)`` stacks over the twin's nodes.
    ``before`` is the fold it was continued from along a sweep, with its own
    ``before`` dropped, and None for a fold solved from a coarse ray."""

    lam: float
    x: np.ndarray
    phi: np.ndarray
    theta: float
    twin: CoarseTwin
    before: Fold | None = None


@dataclass(frozen=True)
class RaySample:
    """One ray's bracket: ``lam_lo``, the last feasible probed lam, and
    ``lam_hi``, the last infeasible one (or the unresolved probe that ended
    the search), each with the witness that settled it.  ``fold`` is the
    coarse fold that predicted a two-level ray (None elsewhere), the start
    of the next ray's fold solve; it is no part of the repr or of equality."""

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
    fold: Fold | None = field(default=None, repr=False, compare=False)

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


def _solve_jacobian(schur: np.ndarray, s_t: np.ndarray, a: np.ndarray,
                    r: np.ndarray) -> np.ndarray:
    """y with J y = r for each ``(2, n)`` slice of the ``(k, 2, n)`` stack r,
    J = [[A, -a12], [-a21, A]]: with S = A^-1, y_2 solves the Schur
    complement system (A - a21 S a12) y_2 = r_2 + a21 S r_1, and
    y_1 = S (r_1 + a12 y_2).  ``s_t`` is S^T, C-contiguous, so that S acts
    on the rows of a stack as ``rows @ s_t``."""
    r1, r2 = r[:, 0], r[:, 1]
    y2 = np.linalg.solve(schur, (r2 + a[1] * (r1 @ s_t)).T).T
    return np.stack([(r1 + a[0] * y2) @ s_t, y2], axis=1)


def fold_point(start: Fold, theta: float) -> Fold | None:
    """The fold of the ray mu = theta * lam on the coarse twin of ``start``,
    by Newton's method on the Moore-Spence system from ``start``; None if it
    fails.

    The unknowns are (x, phi, lam), and the equations G(x, lam) = A x -
    lam s(x) = 0, J phi = 0 and sum w (phi_1 + phi_2) = 1, with
    s = (f / (1 - v)^2, theta g / (1 - u)^2) and J = G_x the coupled
    linearization (Moore & Spence, SIAM J. Numer. Anal. 17, 1980).  A step
    eliminates by blocks: J [p, q] = [-G, s] gives dx = p + dlam q, then
    J [c, e] = [-J phi - (J phi)_x p, -(J phi)_x q - (J phi)_lam] gives
    dphi = c + dlam e, and the normalization fixes dlam.  The second
    derivatives are diagonal, (J phi)_x dx = -(6 lam f / (1 - v)^4 phi_2 dv,
    6 theta lam g / (1 - u)^4 phi_1 du).  Each pair of solves with J is one
    dense ``numpy.linalg.solve`` with its Schur complement, of order n
    (``_solve_jacobian``): OpenBLAS runs an LU solve on one thread below
    10,000 matrix entries, and a threaded one of order 100 or 128 stalled
    for 7-112 ms at times on a loaded two-core host.  The matrix products
    take the twin's A^T and S^T as C-contiguous right factors
    (``rows @ a_t``), a shape OpenBLAS also keeps on one thread;
    ``rows @ a.T`` ran on two.

    phi starts as one step of inverse iteration, J^-1 phi, from the start.
    The solve succeeds within ``_FOLD_STEPS`` steps once a step has
    |dlam| <= ``_FOLD_RTOL`` lam and sup |dx| <= ``_FOLD_RTOL`` sup x, and
    leaves sup |G| <= ``_FOLD_RTOL`` sup lam s, at lam > 0, 0 <= x < 1 and
    phi > 0: the fold of the minimal branch, where its principal eigenvalue
    reaches 0, has a positive null vector.  dlam alone is no test: from a
    start whose lam happens to be where the Newton step keeps it, it stopped
    after one step at a state with sup |G| = 0.067.  A step to max x >= 1
    fails at once; so balls of dimension 8 and up, whose fold the 64-node
    mesh does not resolve, fail (on a 9-ball the first step went to max x =
    20).  The last step updates x and lam only: from a state at the fold to
    rounding, J is singular to rounding too, and dphi = c + dlam e is lost to
    cancellation (it flipped the sign of phi on a 64-node disk at theta =
    0.99), while dx and dlam stay accurate.
    """
    twin = start.twin
    a_t, s_t = twin.a_t, twin.s_t
    w = np.tile(twin.mesh.weights, 2)
    coeff = np.stack([twin.f.values, theta * twin.g.values])
    x, phi, lam = start.x, start.phi, start.lam
    with np.errstate(all="ignore"):
        for step in range(_FOLD_STEPS):
            d = 1.0 - x[::-1]                 # (1 - v, 1 - u)
            s = source(coeff, x[::-1])        # the source over lam
            a = coupling_weights(lam * coeff, x)   # the couplings (a12, a21) of J
            schur = a_t.T - a[1][:, None] * s_t.T * a[0]
            try:
                if not step:   # phi starts with one step of inverse iteration
                    phi = _solve_jacobian(schur, s_t, a, phi[None])[0]
                    phi /= w @ phi.ravel()
                b = 3.0 * a / d * phi[::-1]   # (J phi)_x dx = -b dx[::-1]
                p, q = _solve_jacobian(schur, s_t, a, np.stack([lam * s - x @ a_t, s]))
                j_phi = phi @ a_t - a * phi[::-1]
                c, e = _solve_jacobian(schur, s_t, a, np.stack(
                    [b * p[::-1] - j_phi, b * q[::-1] + a * phi[::-1] / lam]))
            except np.linalg.LinAlgError:
                return None
            dlam = (1.0 - w @ (phi + c).ravel()) / (w @ e.ravel())
            dx = p + dlam * q
            x, lam = x + dx, lam + dlam
            if not x.max() < 1.0:   # past the singularity, or NaN
                return None
            if (abs(dlam) <= _FOLD_RTOL * lam and abs(dx).max() <= _FOLD_RTOL * x.max()
                    and _residual(x, lam, coeff, a_t) <= _FOLD_RTOL):
                break
            phi = phi + c + dlam * e
        else:
            return None
    if not (lam > 0 and x.min() >= 0 and phi.min() > 0):
        return None
    return Fold(float(lam), x, phi, theta, twin)


def _residual(x: np.ndarray, lam: float, coeff: np.ndarray, a_t: np.ndarray) -> float:
    """sup |A x - lam s(x)| / sup lam s(x), the relative residual of G."""
    ls = lam * source(coeff, x[::-1])
    return abs(x @ a_t - ls).max() / ls.max()


def _prolong(stack: np.ndarray, fold: Fold, mesh: Mesh) -> np.ndarray:
    """A ``(2, n)`` stack over the radii of the fold's twin, interpolated
    linearly onto the radii of the ball ``mesh``, through the boundary value
    0 at its radius (beyond the last coarse radius ``np.interp`` would hold
    the last value)."""
    radii = np.append(fold.twin.mesh.radii, mesh.radius)
    return np.stack([np.interp(mesh.radii, radii, np.append(c, 0.0)) for c in stack])


def _below_fold(x: np.ndarray, fold: Fold, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """The state x on ``mesh`` lowered along the fold's null vector phi,
    prolonged onto ``mesh``, by ``_BELOW_FOLD`` of its sup, and phi.  x is
    the Picard step from the prolonged fold state that certified the lower
    end, which smooths the kinks of the prolongation away."""
    phi = _prolong(fold.phi, fold, mesh)
    return x - _BELOW_FOLD * (x.max() / phi.max()) * phi, phi


def _coarse_twin(mesh: Mesh, f: Profile, g: Profile) -> CoarseTwin:
    """The ``CoarseTwin`` of ``mesh``: the 64-node radial mesh of the same
    ball, with the profiles restricted onto its radii by linear
    interpolation, keeping their ``sup``."""
    coarse = build_radial(mesh.dimension, mesh.radius, _COARSE_NODES)

    def restrict(p: Profile) -> Profile:
        return Profile(np.interp(coarse.radii, mesh.radii, p.values), sup=p.sup)

    a_t = coarse.operator.apply(np.eye(_COARSE_NODES))   # A^T: row i is A e_i
    return CoarseTwin(coarse, restrict(f), restrict(g), a_t, np.linalg.inv(a_t),
                      (mesh, f, g))


def _secant(fold: Fold, theta: float) -> Fold:
    """The start of the fold solve at theta continued from ``fold``: the
    secant in log theta through ``fold.before`` and ``fold``, on (x, phi,
    lam), or ``fold`` itself if it has no fold before at another theta."""
    before = fold.before
    if before is None or before.theta == fold.theta:
        return fold
    t = math.log(theta / fold.theta) / math.log(fold.theta / before.theta)
    return Fold(fold.lam + t * (fold.lam - before.lam), fold.x + t * (fold.x - before.x),
                fold.phi + t * (fold.phi - before.phi), theta, fold.twin)


def _fold_inside(twin: CoarseTwin, theta: float, a: float, b: float,
                 warm: tuple[np.ndarray, np.ndarray]) -> Fold | None:
    """The fold solved from a coarse ray's feasible end ``a`` and its Picard
    state ``warm``, that state as phi too, if it lies inside [a, b]."""
    x = np.stack(warm)
    fold = fold_point(Fold(a, x, x, theta, twin), theta)
    return fold if fold is not None and a <= fold.lam <= b else None


def _coarse_prediction(
    mesh: Mesh, f: Profile, g: Profile, theta: float, cfg: CurveConfig,
    previous: RaySample | None = None,
) -> tuple[float, Fold | None] | None:
    """The predicted lam_star of a two-level ray and the coarse fold it came
    from, if any; None on rectangles, on meshes of fewer than 2,048 nodes,
    below ``_COARSE_MIN_RTOL``, or when a coarse ray raises.

    The coarse twin is the radial mesh of the same ball with 64 nodes
    (``_coarse_twin``); the result is only a prediction, so any restriction
    of the profiles onto it is sound.  The twin of ``previous.fold`` is
    reused where it was built from the same mesh and profile objects, so a
    sweep builds one.  There the fold of the ray (``fold_point``) starts
    from the secant through the previous two folds (``_secant``), continuing
    the fold along a sweep in theta.  Where there is no such fold, or that
    solve fails, a coarse ray runs at 0.4 max(rtol, 1e-3), and the fold
    starts from its feasible end, with that state as phi too: first once the
    bracket is ``_LOOSE_RTOL`` wide, which ends the coarse ray where it
    lands inside the bracket, else once more at the end of the same
    bisection.  A fold that fails or lands outside the coarse bracket there
    leaves the coarse ray's lam_star as the prediction.  The walk and the
    midpoints do not depend on rtol, so the loose try probes no lam twice
    and changes no fallback prediction."""
    if (mesh.radii is None or mesh.n_nodes < _TWO_LEVEL_NODES
            or cfg.rtol < _COARSE_MIN_RTOL):
        return None
    last = previous.fold if previous is not None else None
    if last is not None and last.twin.built_from(mesh, f, g):
        fold = fold_point(_secant(last, theta), theta)
        if fold is not None:
            return fold.lam, replace(fold, before=replace(last, before=None))
        twin = last.twin
    else:
        twin = _coarse_twin(mesh, f, g)
    loose = None   # the fold tried from the loose bracket

    def settle(a: float, b: float, warm: tuple[np.ndarray, np.ndarray]) -> bool:
        nonlocal loose
        loose = _fold_inside(twin, theta, a, b, warm)
        return loose is not None

    try:
        ray, warm = _bracket(twin.mesh, twin.f, twin.g, theta,
                             replace(cfg, rtol=_WINDOW * max(cfg.rtol, _COARSE_RAY_RTOL)),
                             None, settle)
    except (ConvergenceError, NumericsError, UnboundedRayError):
        return None
    fold = loose or _fold_inside(twin, theta, ray.lam_lo, ray.lam_hi, warm)
    return (ray.lam_star, None) if fold is None else (fold.lam, fold)


def extremal_on_ray(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    theta: float,
    cfg: CurveConfig = CurveConfig(),
    previous: RaySample | None = None,
) -> RaySample:
    """The bracket of lam_star on the ray mu = theta * lam, walked and
    bisected as the module notes describe.

    ``previous``, the sample of the ray before this one in a theta sweep,
    lends this ray its coarse twin and starts its coarse fold solve
    (``_coarse_prediction``); the sample carries its own fold as ``fold``.
    Each probe is one ``minimal_solve`` at ``probe_budget`` that asks for the
    super-solution certificate, and starts from the Picard state of the
    feasible end found so far, a sub-solution below the minimal solution of
    every larger lam (every probe lies above that end); the probe above an
    end that the fold certified starts from the stable start below the fold.
    Both ends are verdicts on ``mesh``.  An unresolved probe ends the
    bisection without shrinking the bracket on its side; as the upper end
    it carries the witness ``UNRESOLVED``.  Raises ``ConvergenceError`` if
    no probe was feasible and ``UnboundedRayError`` if none showed an upper
    end.
    """
    if not 0 < theta < math.inf:
        raise ConfigurationError(f"theta must be finite and positive, got {theta!r}")
    prediction = _coarse_prediction(mesh, f, g, theta, cfg, previous)
    return _bracket(mesh, f, g, theta, cfg, prediction)[0]


def _bracket(
    mesh: Mesh, f: Profile, g: Profile, theta: float, cfg: CurveConfig,
    prediction: tuple[float, Fold | None] | None = None,
    settle: Callable[[float, float, tuple[np.ndarray, np.ndarray]], bool] | None = None,
) -> tuple[RaySample, tuple[np.ndarray, np.ndarray] | None]:
    """The ray of ``extremal_on_ray`` from the given prediction, and the
    start of its probes: the Picard state of its feasible end, or where the
    fold certified that end, the stable start below the fold (None if there
    is none).  ``settle(a, b, warm)``, if given, is called once, when the
    bisection's bracket is first ``_LOOSE_RTOL`` wide, with its ends and
    the feasible end's Picard state; the bisection ends there if it returns
    True."""
    report = bound_report(mesh, f, g)
    lower_corner = min(report.a_f, report.a_g / theta)
    upper_corner = ray_upper_bound(report, theta)

    budget = probe_budget(cfg.solve)
    # the feasible end, the infeasible end, and the start of every probe: the
    # Picard state of a, a sub-solution below the minimal solution of every
    # larger lam, as every probe lies above a
    a = b = warm = None
    verdicts = []   # (lam, witness) of every probe, in order
    iterations = newton_steps = 0

    def probe(lam: float) -> bool | None:
        nonlocal a, b, warm, iterations, newton_steps
        out = minimal_solve(mesh, f, g, lam, theta * lam, budget,
                            start=warm, certify_feasible=True)
        iterations += out.iterations
        newton_steps += out.newton_steps
        verdicts.append((lam, _WITNESS[out.reason or out.verdict]))
        if out.verdict is Verdict.NONEXISTENCE_SUSPECTED:
            b = lam
            return False
        if out.verdict is Verdict.INCONCLUSIVE:
            return None
        a, warm = lam, (out.state.u, out.state.v)
        return True

    if prediction is None:
        lam, step, jump = lower_corner, 2.0, upper_corner or 0.0
    else:
        lam_c, fold = prediction
        step = (1.0 + _WINDOW * cfg.rtol) / (1.0 - _WINDOW * cfg.rtol)
        lam, jump = lam_c * (1.0 - _WINDOW * cfg.rtol), 0.0
        if fold is not None:   # the fold state certifies lam in one Picard step
            iterations += 1
            y = certify_supersolution(mesh, f, g, lam, theta * lam,
                                      _prolong(fold.x, fold, mesh), budget)
            if y is not None:
                a = lam
                verdicts.append((lam, Witness.SUPERSOLUTION))
                lam *= step
                # a start certified at lam only: the probe there ends the walk
                # or replaces it, and the bracket [a, lam] is already narrower
                # than rtol, so no bisection follows
                s, phi = _below_fold(y, fold, mesh)
                if certify_stable_start(mesh, f, g, lam, theta * lam, s, phi[1]):
                    warm = s
    for k in range(_MAX_PROBES):
        if not 0.0 < lam < math.inf:
            break
        verdict = probe(lam)
        if verdict is None and a is not None:
            b = lam   # an unresolved probe above the feasible end is the upper end
        if a is not None and b is not None:
            break
        if k >= _MAX_WALKS:
            step *= step
        if not verdict:
            lam /= step
        elif jump > lam:   # the first step up of an analytic walk
            lam = jump
        else:
            lam *= step
    if a is None:
        raise ConvergenceError(
            f"no feasible parameter found on theta={theta}; discretization too coarse")
    if b is None:
        raise UnboundedRayError(
            f"no infeasible parameter found above {a:.3e} on theta={theta}")

    while (b - a) > cfg.rtol * b:
        if settle is not None and (b - a) <= _LOOSE_RTOL * b:
            if settle(a, b, warm):
                break
            settle = None
        if probe(0.5 * (a + b)) is None:
            break  # unresolved probe: keep the honest bracket

    witness = dict(verdicts)   # the last verdict at each lam
    ends = Counter(w for _, w in verdicts)
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
        fold=None if prediction is None else prediction[1],
    ), warm


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
