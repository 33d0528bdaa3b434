"""Minimal solutions of the coupled singular source problem.

The system couples two deflection fields through singular sources:

    -Lap u = lam * f / (1 - v)^2,   -Lap v = mu * g / (1 - u)^2,

with zero boundary values and both fields confined below 1.  The minimal
solution is the increasing limit of Picard iterates started from (0, 0);
a decreasing variant started from a discrete super-solution pair gives an
upper companion.  Escaping iterates (an iterate entering the touch band
just below 1) are reported as suspected nonexistence, never as a crash.

Both fields are updated from the previous iterate (Jacobi style), so with
identical data the two components stay bit-for-bit equal.  On radial meshes
the update map is order-preserving even in floating point: the right-hand
sides are monotone node-wise, and the Poisson solve is an LDL^T substitution
(``dpttrs``) with d > 0 and, since the M-matrix has negative off-diagonals,
subdiagonal e <= 0.  Its forward step b_i - e_{i-1} b_{i-1}, the division by
d_i and the back step b_i / d_i - e_i x_{i+1} are each nondecreasing in their
inputs, and correct rounding (also a fused multiply-add) keeps them so; the
tests check solve(b + delta) >= solve(b) with no slack.  Rectangles solve by
fast diagonalization through dense sine-mode matrices, whose rounding has no
fixed sign, so there the order is a tested property rather than a proved
one: the tests require every iterate to be node-wise >= the previous one,
with no slack, on 32^2 and 64^2 squares at 0.5, 0.99 and 0.999 of lam*
(converging) and at 1.001 and 1.05 of lam* (touching).

Near the critical curve the Picard contraction factor tends to 1.  Where
the operator is tridiagonal (radial meshes) the minimal solve then tries a
certified Newton step: after 5 straight Picard steps whose increment ratio
exceeds 0.5, it solves ``J d = r`` at the current iterate x.  J is the
coupled linearization, a Z-matrix, and r the weighted residual, which is
>= 0 up to rounding because x = T(previous) with previous <= x.  The step
is kept only if

* d >= 0 node-wise: with r >= 0 this certifies J as a nonsingular M-matrix,
  and for the convex sources monotone Newton then stays below the minimal
  solution (Ortega & Rheinboldt 1970, 13.3);
* x + d stays out of the touch band;
* the Picard step y = T(x + d) does not go below x + d, or already meets
  ``tol_sup``.

A refused step is discarded and ends Newton for that solve.  The iterates
stay monotone even in floating point: x + d >= x since d >= 0, and
y = T(x + d) >= T(x) >= x since T is monotone.  The coupled system is
solved in the unknowns (d_u + d_v) / 2 and (d_u - d_v) / 2, so identical
data still gives bit-for-bit equal fields.  Convergence needs the same
increment and residual contract, and nonexistence verdicts still come only
from Picard steps (touch or divergence).  Rectangles keep pure Picard:
their coupled solve would need a sparse LU per step.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_node_table
from .exceptions import NumericsError, PreconditionError
from .mesh import RADIAL, Mesh
from .profiles import Profile

DELTA_FLOOR = 1e-10           # floor for (1 - u) in denominators
_RESIDUAL_RTOL = 1e-6         # converged residual <= rtol * (lam + mu)
_RESIDUAL_FLOOR = np.finfo(float).tiny   # ... or below this, where that underflows
_SUPERSOLUTION_SLACK = 1e-8   # allowed signed defect when checking a super-solution
_DIVERGENCE_WINDOW = 30       # consecutive increment growths before divergence verdict
_NEWTON_AFTER = 5             # straight slow Picard steps before a Newton step is tried
_SLOW_RATIO = 0.5             # a Picard step is slow if its increment ratio exceeds this


@dataclass(frozen=True)
class SolveConfig:
    """Iteration budget and thresholds for the monotone solver."""

    tol_sup: float = 1e-10
    max_iter: int = 10_000
    touch_threshold: float = 1e-6

    def __post_init__(self):
        if not (isinstance(self.max_iter, (int, np.integer)) and self.max_iter >= 1):
            raise PreconditionError(
                f"max_iter must be an integer >= 1, got {self.max_iter!r}"
            )
        if not self.tol_sup > 0:
            raise PreconditionError("tol_sup must be positive")
        if not self.touch_threshold > self.tol_sup:
            raise PreconditionError("touch_threshold must exceed tol_sup")


@dataclass(frozen=True)
class StatePair:
    """Pair of deflection fields on a shared mesh, zero on the boundary."""

    u: np.ndarray
    v: np.ndarray

    def sup(self) -> tuple[float, float]:
        return float(self.u.max()), float(self.v.max())


class Verdict(enum.Enum):
    CONVERGED = "converged"
    NONEXISTENCE_SUSPECTED = "nonexistence-suspected"
    INCONCLUSIVE = "inconclusive"


class NonexistenceReason(enum.Enum):
    TOUCHED_ONE = "touched-one"
    RESIDUAL_DIVERGENCE = "residual-divergence"


@dataclass(frozen=True)
class SolveOutcome:
    verdict: Verdict
    iterations: int
    state: StatePair | None = None
    final_residual: tuple[float, float] | None = None
    reason: NonexistenceReason | None = None
    last_increment: float | None = None
    newton_steps: int = 0         # accepted Newton steps (radial meshes only)

    @property
    def converged(self) -> bool:
        return self.verdict is Verdict.CONVERGED


def check_parameters(lam: float, mu: float) -> None:
    """Raise PreconditionError unless lam and mu are finite and >= 0."""
    if not (0 <= lam < math.inf and 0 <= mu < math.inf):
        raise PreconditionError(
            f"parameters must be finite and nonnegative, got {lam!r}, {mu!r}"
        )


def _clamped_denominator(w: np.ndarray) -> np.ndarray:
    return np.maximum(1.0 - w, DELTA_FLOOR)


def _source(coeff: np.ndarray, other: np.ndarray) -> np.ndarray:
    d = _clamped_denominator(other)
    return coeff / (d * d)


def residual(
    mesh: Mesh, f: Profile, g: Profile, lam: float, mu: float, state: StatePair
) -> tuple[float, float]:
    """Sup-norm defects of the two equations at the given state."""
    op = mesh.operator
    ru = op.apply(state.u) - _source(lam * f.values, state.v)
    rv = op.apply(state.v) - _source(mu * g.values, state.u)
    return float(np.max(np.abs(ru))), float(np.max(np.abs(rv)))


def _picard(op, fu, gv, u, v) -> tuple[np.ndarray, np.ndarray]:
    """One Jacobi-style Picard step: two Poisson solves with frozen sources.

    A parameter so large that a solve overflows gives +inf entries, which
    the touch test reads as touching; only NaN signals a failed clamp.
    """
    u_new = op.solve(_source(fu, v))
    v_new = op.solve(_source(gv, u))
    if np.isnan(u_new).any() or np.isnan(v_new).any():
        raise NumericsError("NaN iterate; floor clamp failed")
    return u_new, v_new


def _sup_gap(a, b, c, d) -> float:
    return float(max(np.max(np.abs(a - b)), np.max(np.abs(c - d))))


def _newton_step(mesh: Mesh, fu, gv, u, v, cfg: SolveConfig):
    """Certified Newton step from the Picard iterate (u, v); see the module
    notes.  Returns (z_u, z_v, y_u, y_v) with z = (u, v) + d and y = T(z),
    or None if one of the checks refuses the step."""
    op, w = mesh.operator, mesh.weights
    den_u, den_v = _clamped_denominator(v), _clamped_denominator(u)
    src_u, src_v = _source(fu, v), _source(gv, u)
    k = op.symmetric_form
    try:
        d_u, d_v = op.solve_coupled(
            2.0 * w * src_u / den_u, 2.0 * w * src_v / den_v,
            w * src_u - k @ u, w * src_v - k @ v,
        )
    except NumericsError:   # singular J: no certificate
        return None
    if not (np.all(d_u >= 0) and np.all(d_v >= 0)):
        return None
    z_u, z_v = u + d_u, v + d_v
    if not max(z_u.max(), z_v.max()) < 1.0 - cfg.touch_threshold:
        return None
    y_u, y_v = _picard(op, fu, gv, z_u, z_v)
    below = np.any(y_u < z_u) or np.any(y_v < z_v)
    if below and _sup_gap(y_u, z_u, y_v, z_v) > cfg.tol_sup:
        return None
    return z_u, z_v, y_u, y_v


def _iterate(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    lam: float,
    mu: float,
    cfg: SolveConfig,
    u0: np.ndarray,
    v0: np.ndarray,
    watch_touch: bool,
    on_step=None,
) -> SolveOutcome:
    op = mesh.operator
    fu = lam * f.values
    gv = mu * g.values
    u, v = u0, v0
    newton = watch_touch and op.tridiagonal
    inc_prev = np.inf
    growth_streak = slow_streak = newton_steps = 0
    for it in range(1, cfg.max_iter + 1):
        step = None
        if newton and slow_streak >= _NEWTON_AFTER:
            step = _newton_step(mesh, fu, gv, u, v, cfg)
            newton = step is not None   # one refused step ends Newton here
            slow_streak = 0
        if step is None:
            u_new, v_new = _picard(op, fu, gv, u, v)
        else:
            u, v, u_new, v_new = step
            newton_steps += 1
        if on_step is not None:
            on_step(it, u_new, v_new)
        inc = _sup_gap(u_new, u, v_new, v)
        top = max(u_new.max(), v_new.max())
        if watch_touch and 1.0 - top < cfg.touch_threshold:
            return SolveOutcome(
                verdict=Verdict.NONEXISTENCE_SUSPECTED,
                reason=NonexistenceReason.TOUCHED_ONE,
                iterations=it,
                last_increment=inc if math.isfinite(inc) else None,  # overflowed
                newton_steps=newton_steps,
            )
        u, v = u_new, v_new
        if inc <= cfg.tol_sup:
            state = StatePair(u=u, v=v)
            res = residual(mesh, f, g, lam, mu, state)
            if max(res) <= max(_RESIDUAL_RTOL * (lam + mu), _RESIDUAL_FLOOR):
                return SolveOutcome(
                    verdict=Verdict.CONVERGED,
                    iterations=it,
                    state=state,
                    final_residual=res,
                    last_increment=inc,
                    newton_steps=newton_steps,
                )
            # increment converged but residual not yet in contract: keep going
        if watch_touch:
            growth_streak = growth_streak + 1 if inc > inc_prev else 0
            if growth_streak >= _DIVERGENCE_WINDOW:
                res = residual(mesh, f, g, lam, mu, StatePair(u=u, v=v))
                if max(res) > 1e3 * (1.0 + lam + mu):
                    return SolveOutcome(
                        verdict=Verdict.NONEXISTENCE_SUSPECTED,
                        reason=NonexistenceReason.RESIDUAL_DIVERGENCE,
                        iterations=it,
                        last_increment=inc,
                        newton_steps=newton_steps,
                    )
                growth_streak = 0
        slow_streak = slow_streak + 1 if inc > _SLOW_RATIO * inc_prev else 0
        inc_prev = inc
    return SolveOutcome(
        verdict=Verdict.INCONCLUSIVE, iterations=cfg.max_iter, last_increment=inc,
        newton_steps=newton_steps,
    )


def minimal_solve(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    lam: float,
    mu: float,
    cfg: SolveConfig = SolveConfig(),
    on_step=None,
) -> SolveOutcome:
    """Minimal solution by the increasing Picard iteration from (0, 0).

    Each step solves two Poisson problems with the sources frozen at the
    previous iterate.  Convergence requires the sup-norm increment to fall
    below ``cfg.tol_sup`` and the equation residuals to meet the contract
    ``1e-6 * (lam + mu)``, floored at the smallest normal float so that
    subnormal parameters cannot make it unreachable.  An iterate whose
    maximum enters the band ``[1 - touch_threshold, inf)`` yields a
    TOUCHED_ONE nonexistence verdict; exhausting the budget with a
    still-shrinking increment is INCONCLUSIVE.

    Near the critical curve on radial meshes, certified Newton steps may
    replace the iterate a Picard step starts from (see the module notes);
    ``newton_steps`` counts them and ``iterations`` still counts loop steps.

    ``on_step(it, u, v)`` is invoked with every fresh Picard iterate, mainly
    for trace instrumentation in tests.
    """
    check_parameters(lam, mu)
    if f.values.shape != (mesh.n_nodes,) or g.values.shape != (mesh.n_nodes,):
        raise PreconditionError("profiles must live on the given mesh")
    zero = np.zeros(mesh.n_nodes)
    return _iterate(
        mesh, f, g, lam, mu, cfg, zero, zero, watch_touch=True, on_step=on_step
    )


def supersolution_descend(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    lam: float,
    mu: float,
    big_u: np.ndarray,
    big_v: np.ndarray,
    cfg: SolveConfig = SolveConfig(),
) -> SolveOutcome:
    """Decreasing iteration from a discrete super-solution pair.

    The pair must satisfy the defect inequalities node-wise (up to a 1e-8
    slack) and stay within [0, 1 - 1e-10]; otherwise the first offending
    node is reported.  The limit is a solution sitting above the minimal
    one.
    """
    check_parameters(lam, mu)
    op = mesh.operator
    for name, arr in (("U", big_u), ("V", big_v)):
        bad = np.where((arr < 0) | (arr > 1.0 - DELTA_FLOOR))[0]
        if bad.size:
            raise PreconditionError(
                f"{name} leaves [0, 1 - 1e-10] first at node {bad[0]}"
            )
    defect_u = op.apply(big_u) - _source(lam * f.values, big_v)
    defect_v = op.apply(big_v) - _source(mu * g.values, big_u)
    for name, defect in (("first", defect_u), ("second", defect_v)):
        bad = np.where(defect < -_SUPERSOLUTION_SLACK)[0]
        if bad.size:
            raise PreconditionError(
                f"not a super-solution: {name} equation defect "
                f"{defect[bad[0]]:.3e} at node {bad[0]}"
            )
    return _iterate(
        mesh, f, g, lam, mu, cfg, big_u.copy(), big_v.copy(), watch_touch=False
    )


def explicit_supersolution(
    mesh: Mesh, kind: str, alpha: float | None = None
) -> np.ndarray:
    """Classical radial super-solution shapes sampled at the nodes.

    kind = "quadratic":        (1 - (r/R)^2) / 3
    kind = "cusp":             1 - (r/R)^(2/3), clamped to 1 - 1e-10 at r = 0
                               (the clamp makes the node-wise super-solution
                               check fail at the origin; the cusp is mainly
                               useful away from it)
    kind = "power_quadratic":  (1 - (r/R)^(2+alpha)) / 3
    """
    if mesh.kind != RADIAL:
        raise PreconditionError("explicit super-solutions are radial")
    s = mesh.radii / mesh.radius
    if kind == "quadratic":
        return (1.0 - s**2) / 3.0
    if kind == "cusp":
        return np.minimum(1.0 - s ** (2.0 / 3.0), 1.0 - DELTA_FLOOR)
    if kind == "power_quadratic":
        if alpha is None or alpha < 0:
            raise PreconditionError("power_quadratic needs alpha >= 0")
        return (1.0 - s ** (2.0 + alpha)) / 3.0
    raise PreconditionError(f"unknown super-solution kind {kind!r}")


def write_solution_csv(path, mesh: Mesh, state: StatePair, fingerprint: str = "") -> None:
    """Solution snapshot: node coordinate(s), u, v."""
    write_node_table(path, mesh, {"u": state.u, "v": state.v}, fingerprint)
