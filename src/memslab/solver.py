"""Minimal solutions of the coupled singular source problem.

The system couples two deflection fields through singular sources:

    -Lap u = lam * f / (1 - v)^2,   -Lap v = mu * g / (1 - u)^2,

with zero boundary values and both fields confined below 1.  The minimal
solution is the increasing limit of Picard iterates started from (0, 0),
or from any start below it with T(start) >= start.  Nonexistence is
reported as a suspected verdict, never as a crash, with one of two
witnesses: an iterate entering the touch band just below 1, or an unstable
sub-solution (below).  On request, existence is certified before
convergence by a discrete super-solution (last section).

The pair is one ``(2, n)`` stack x = (u, v).  A Picard step updates both
fields from the previous iterate (Jacobi style) by one two-field solve,
each row exactly as a single field, so with identical data the two
components stay bit-for-bit equal.  On radial meshes the update map is
order-preserving even in floating point: the right-hand sides are monotone
node-wise, and the Poisson solve is a flux balance made of four steps, the
product with the weights w > 0, a running sum, the product with the
inverse conductances 1/c > 0 and a running sum from the boundary.  Each is
nondecreasing in its inputs, and correct rounding keeps it so; the tests
check solve(b + delta) >= solve(b) with no slack.  Rectangles solve by
fast diagonalization through dense sine-mode matrices, whose rounding has no
fixed sign, so there the order is a tested property rather than a proved
one: the tests require every iterate to be node-wise >= the previous one,
with no slack, on 32^2 and 64^2 squares at 0.5, 0.99 and 0.999 of lam*
(converging) and at 1.001 and 1.05 of lam* (touching), and on the 32^2
square at 40 fixed draws from [0.5, 0.999] and [1.001, 1.1] of lam*.

Near the critical curve the Picard contraction factor tends to 1.  The
minimal solve then tries a certified Newton step: after 5 straight Picard
steps whose increment ratio exceeds 0.5, it solves ``J d = r`` at the
current iterate x.  J is the coupled linearization, a Z-matrix with the
couplings of ``coupling_weights``, and r the residual, which is >= 0 up to
rounding because x = T(previous) with previous <= x.  The step is kept
only if

* d >= 0 node-wise: with r >= 0 this certifies J as a nonsingular M-matrix,
  and for the convex sources monotone Newton then stays below the minimal
  solution (Ortega & Rheinboldt 1970, 13.3);
* the Picard step y = T(x + d) does not go below x + d, or already meets
  ``tol_sup``.

A refused step is discarded and ends Newton for that solve.  An x + d
that passes the first check but enters the touch band is a touch witness,
like a Picard iterate there: it lies below every solution (up to the CG
tolerance), so the solve ends as TOUCHED_ONE on it, where refusing the step
would leave the Picard loop to crawl through the fold's bottleneck to the
band.  The iterates stay monotone even in floating point: x + d >= x since
d >= 0, and y = T(x + d) >= T(x) >= x since T is monotone.  On either mesh
kind the coupled system is solved in operator form by conjugate gradients on
two-field Poisson solves (``DirichletLaplacian.solve_coupled``): rescaled
by the square roots of the couplings, the system is self-adjoint with
eigenvalues 1 +- sigma, and sigma_max^2 is the spectral radius of K(0) in
``stability``, so it is positive definite exactly when J is a nonsingular
M-matrix.  A CG step of curvature <= 0, or a tolerance missed within the
step budget, refuses the Newton step.  CG works in the w-norm, so the tiny
origin weights of a high-dimensional ball do not spoil d; identical data
still gives bit-for-bit equal fields.  Convergence needs the same increment
and residual contract.

A step refused for curvature <= 0 (``IndefiniteError``) means rho(K(0)) >= 1
up to rounding, that is nu1 <= 0 at x = T(prev).  Then no solution exists
(Crandall & Rabinowitz, ARMA 58, 1975; Montenegro, Bull. LMS 37, 2005, for
cooperative systems): x lies below every solution u, its residual
r = F(x) - A x = F(x) - F(prev) is >= 0 (F the source map, prev <= x), and
by convexity J(x)(u - x) >= r; pairing with the positive left eigenvector
psi gives nu1 <psi, u - x> >= <psi, r> > 0 when r != 0, which nu1 <= 0
forbids.  The curvature only triggers the test; the certificate is a
Collatz-Wielandt bound: starting from z = v, up to ``_PERRON_STEPS``
applications of K(0) = S a12 S a21 (S = A^-1), normalized to sup 1, must
give a positive z with min(K z / z) >= 1 + ``_PERRON_MARGIN``, so that
rho(K(0)) > 1.  K z is two solves of positive data; against a refined
sparse LU its node-wise relative rounding was at most 3.1e-11 (4096-node
disk; 1.2e-14 on the 64^2 square) at every iterate the test ran on.  The
margin 1e-8 is far above that and far below the gaps seen when the test
fires (3.4e-5 and up).  A zero or non-finite entry of z, or no such z
within the steps, gives no certificate: the Picard loop goes on, and touch
stays the fallback.

Feasibility has a certificate of its own (Sattinger, Indiana Univ. Math.
J. 21, 1972; Amann, SIAM Review 18, 1976): if 0 <= x_hat, max x_hat < 1 and
T(x_hat) <= x_hat node-wise, T maps the order interval [0, x_hat] into
itself, so the increasing iteration from 0 stays below x_hat and converges
to the minimal solution.  With ``certify_feasible`` the loop extrapolates a
candidate from the last Picard iterates y_k,

    x_hat = y_k + c (y_k - y_{k-2}),   c = 2q / (1 - q) + 1/2,

with q = |y_k - y_{k-2}| / |y_{k-1} - y_{k-3}| in the sup norm, capped at
``_SUPER_Q_CAP``.  The increments span two steps because the Jacobi step
makes u and v alternate; a one-step candidate rarely passes.  The test
passes if x_hat >= 0, max x_hat < 1 - ``touch_threshold`` and
T(x_hat) <= (1 - ``_SUPER_MARGIN``) x_hat node-wise, at the cost of one
two-field solve.  It is in fixed-point form because the defect form
A x_hat >= F(x_hat) needs no solve but cannot pass where f or g vanishes:
there the exact defect is 0 and rounding decides its sign.  A pass ends the
solve as FEASIBLE; its state is y_k, a sub-solution (y_k = T(y_{k-1}) with
y_{k-1} <= y_k), hence a valid start for every larger parameter on the ray,
and x_hat is returned as the witness.  Against a refined sparse LU the
node-wise relative rounding of T(x_hat) was at most 3.4e-11 on the
4096-node disk, 3.8e-10 on the 16384-node disk, 2.5e-13 on 512-node balls
of dimension 8 and 9, and 2.3e-14 on the 64^2 square (f = 1 and f an
indicator), at every candidate tested on rays at theta = 0.3, 1 and 3
(rtol 1e-6); the source adds a few ulps.  The margin 1e-8 is 26 times the
worst of these, so a pass shows T(x_hat) <= x_hat in exact arithmetic, also
on rectangles, where the monotonicity of the rounded T is not proved.

The test needs a measured q, so it runs only once three Picard steps in a
row lead to y_k: from the start, or from a Newton step, whose jump makes
the ratio meaningless.  After a failed test the next one waits twice as
long as the last wait, so a probe above lam* (where every test fails) or a
slow one pays a number of failing tests logarithmic in its loop steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_node_table
from .exceptions import IndefiniteError, NumericsError, PreconditionError
from .mesh import Mesh
from .profiles import Profile

DELTA_FLOOR = 1e-10           # floor for (1 - u) in denominators
_RESIDUAL_RTOL = 1e-6         # converged residual <= rtol * (lam + mu)
_RESIDUAL_FLOOR = np.finfo(float).tiny   # ... or below this, where that underflows
_NEWTON_AFTER = 5             # straight slow Picard steps before a Newton step is tried
_SLOW_RATIO = 0.5             # a Picard step is slow if its increment ratio exceeds this
_PERRON_STEPS = 8             # applications of K(0) in the Collatz-Wielandt test
_PERRON_MARGIN = 1e-8         # min(K z / z) - 1 that certifies rho(K(0)) > 1
_SUPER_MARGIN = 1e-8          # T(x_hat) <= (1 - margin) x_hat certifies a super-solution
_SUPER_Q_CAP = 0.99           # cap on the ratio q of successive two-step increments


@dataclass(frozen=True)
class SolveConfig:
    """Iteration budget and thresholds for the monotone solver.

    ``tol_sup`` bounds the last Picard increment, not the error: without a
    Newton finish the error near lam* is about ``increment / (1 - q)``, with
    q -> 1 the contraction factor of the Picard map."""

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
        if not self.tol_sup < self.touch_threshold < 1.0:
            raise PreconditionError("touch_threshold must exceed tol_sup and lie below 1")


@dataclass(frozen=True)
class StatePair:
    """Pair of deflection fields on a shared mesh, zero on the boundary."""

    u: np.ndarray
    v: np.ndarray

    def sup(self) -> tuple[float, float]:
        return float(self.u.max()), float(self.v.max())


class Verdict(enum.Enum):
    CONVERGED = "converged"
    FEASIBLE = "feasible"
    NONEXISTENCE_SUSPECTED = "nonexistence-suspected"
    INCONCLUSIVE = "inconclusive"


class NonexistenceReason(enum.Enum):
    TOUCHED_ONE = "touched-one"
    UNSTABLE_SUBSOLUTION = "unstable-subsolution"


@dataclass(frozen=True)
class SolveOutcome:
    verdict: Verdict
    iterations: int
    state: StatePair | None = None
    final_residual: tuple[float, float] | None = None
    reason: NonexistenceReason | None = None
    last_increment: float | None = None
    newton_steps: int = 0         # accepted Newton steps
    supersolution: StatePair | None = None   # FEASIBLE: the witness x_hat

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


def coupling_weights(coeff, x) -> np.ndarray:
    """Off-diagonal weights ``(a12, a21) = 2 coeff / (1 - (v, u))^3`` of the
    linearization at ``x = (u, v)``, with ``coeff = (lam f, mu g)``.  Each
    pair is a ``(2, n)`` stack or a tuple of two fields."""
    d = _clamped_denominator(np.asarray(x)[::-1])
    return 2.0 * np.asarray(coeff) / d**3


def _coefficients(f: Profile, g: Profile, lam: float, mu: float) -> np.ndarray:
    return np.stack([lam * f.values, mu * g.values])


def _defect(op, coeff: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A x - (lam f / (1 - v)^2, mu g / (1 - u)^2)`` at ``x = (u, v)``."""
    return op.apply(x) - _source(coeff, x[::-1])


def residual(
    mesh: Mesh, f: Profile, g: Profile, lam: float, mu: float, state: StatePair
) -> tuple[float, float]:
    """Sup-norm defects of the two equations at the given state."""
    x = np.stack([state.u, state.v])
    defect = _defect(mesh.operator, _coefficients(f, g, lam, mu), x)
    return tuple(float(m) for m in np.max(np.abs(defect), axis=1))


def _picard(op, coeff: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One Jacobi-style Picard step: one two-field solve with frozen sources.

    A parameter so large that a solve overflows gives +inf entries, which
    the touch test reads as touching; only NaN signals a failed clamp.
    """
    y = op.solve(_source(coeff, x[::-1]))
    if np.isnan(y).any():
        raise NumericsError("NaN iterate; floor clamp failed")
    return y


def _newton_step(op, coeff: np.ndarray, x: np.ndarray, cfg: SolveConfig):
    """Certified Newton step from the Picard iterate x = (u, v); see the
    module notes.  Returns (z, y) with z = x + d and y = T(z), or None if
    one of the checks refuses the step.  A z in the touch band is returned
    as (x, z): it lies below every solution, so the loop's touch test ends
    the solve on it.  IndefiniteError from the coupled solve passes through:
    it means rho(K(0)) >= 1 up to rounding."""
    try:
        d = op.solve_coupled(coupling_weights(coeff, x), -_defect(op, coeff, x))
    except IndefiniteError:
        raise
    except NumericsError:   # CG missed its tolerance: no certificate
        return None
    if not np.all(d >= 0):
        return None
    z = x + d
    if not z.max() < 1.0 - cfg.touch_threshold:
        return x, z
    y = _picard(op, coeff, z)
    if np.any(y < z) and np.max(np.abs(y - z)) > cfg.tol_sup:
        return None
    return z, y


def _unstable_subsolution(op, coeff: np.ndarray, x: np.ndarray, prev: np.ndarray) -> bool:
    """Collatz-Wielandt certificate that no solution exists; see the module
    notes.  x = T(prev) is a Picard iterate; True if its residual
    ``F(x) - A x = F(x) - F(prev)`` (F the source map) is >= 0 and not 0,
    and some positive z, started from x[1], gives
    ``min(K z / z) >= 1 + _PERRON_MARGIN`` with ``K = S a12 S a21`` at x,
    ``S = A^-1``."""
    r = _source(coeff, x[::-1]) - _source(coeff, prev[::-1])
    if not (np.all(r >= 0) and np.any(r > 0)):
        return False
    a12, a21 = coupling_weights(coeff, x)
    z = x[1]
    for _ in range(_PERRON_STEPS):
        if not (np.all(z > 0) and np.all(np.isfinite(z))):
            return False
        kz = op.solve(a12 * op.solve(a21 * z))
        if np.min(kz / z) >= 1.0 + _PERRON_MARGIN:
            return True
        z = kz / kz.max()
    return False


def _supersolution(op, coeff: np.ndarray, x_hat: np.ndarray, cfg: SolveConfig) -> bool:
    """True if x_hat is a certified discrete super-solution below the touch
    band: ``0 <= x_hat``, ``max x_hat < 1 - touch_threshold`` and
    ``T(x_hat) <= (1 - _SUPER_MARGIN) x_hat`` node-wise; see the module notes."""
    if not (np.all(x_hat >= 0) and x_hat.max() < 1.0 - cfg.touch_threshold):
        return False
    return bool(np.all(_picard(op, coeff, x_hat) <= (1.0 - _SUPER_MARGIN) * x_hat))


def _iterate(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    lam: float,
    mu: float,
    cfg: SolveConfig,
    x: np.ndarray,
    on_step=None,
    warm: bool = False,
    certify: bool = False,
) -> SolveOutcome:
    op = mesh.operator
    coeff = _coefficients(f, g, lam, mu)
    newton = True
    inc_prev = two_prev = np.inf
    slow_streak = newton_steps = 0
    prev = back = None          # x = T(prev) after every loop step; back before prev
    next_test, gap = 3, 1       # super-solution test schedule; see the module notes
    for it in range(1, cfg.max_iter + 1):
        step = None
        if newton and slow_streak >= _NEWTON_AFTER:
            try:
                step = _newton_step(op, coeff, x, cfg)
            except IndefiniteError:
                if _unstable_subsolution(op, coeff, x, prev):
                    return SolveOutcome(
                        verdict=Verdict.NONEXISTENCE_SUSPECTED,
                        reason=NonexistenceReason.UNSTABLE_SUBSOLUTION,
                        iterations=it,
                        last_increment=inc,
                        newton_steps=newton_steps,
                    )
            newton = step is not None   # one refused step ends Newton here
            slow_streak = 0
        if step is None:
            y = _picard(op, coeff, x)
            if warm and np.any(y < x):  # the start is not a sub-solution
                x = np.zeros_like(x)
                y = _picard(op, coeff, x)
            warm = False
        else:
            x, y = step
            newton_steps += 1
            next_test, gap = it + 2, 1
        if on_step is not None:
            on_step(it, y[0], y[1])
        inc = float(np.max(np.abs(y - x)))
        if 1.0 - y.max() < cfg.touch_threshold:
            return SolveOutcome(
                verdict=Verdict.NONEXISTENCE_SUSPECTED,
                reason=NonexistenceReason.TOUCHED_ONE,
                iterations=it,
                last_increment=inc if math.isfinite(inc) else None,  # overflowed
                newton_steps=newton_steps,
            )
        back, prev, x = prev, x, y
        if inc <= cfg.tol_sup:
            state = StatePair(u=x[0], v=x[1])
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
        if certify and back is not None:
            two = float(np.max(np.abs(x - back)))
            if it >= next_test:
                q = min(two / two_prev, _SUPER_Q_CAP) if two < two_prev else _SUPER_Q_CAP
                x_hat = x + (2.0 * q / (1.0 - q) + 0.5) * (x - back)
                if _supersolution(op, coeff, x_hat, cfg):
                    return SolveOutcome(
                        verdict=Verdict.FEASIBLE,
                        iterations=it,
                        state=StatePair(u=x[0], v=x[1]),
                        last_increment=inc,
                        newton_steps=newton_steps,
                        supersolution=StatePair(u=x_hat[0], v=x_hat[1]),
                    )
                next_test, gap = it + gap, 2 * gap
            two_prev = two
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
    start: tuple[np.ndarray, np.ndarray] | None = None,
    certify_feasible: bool = False,
) -> SolveOutcome:
    """Minimal solution by the increasing Picard iteration from ``start``,
    (0, 0) by default.

    Each step is one two-field Poisson solve with the sources frozen at the
    previous iterate.  Convergence requires the sup-norm increment to fall
    below ``cfg.tol_sup`` (a bound on the last increment, not on the error:
    see ``SolveConfig``) and the equation residuals to meet the contract
    ``1e-6 * (lam + mu)``, floored at the smallest normal float so that
    subnormal parameters cannot make it unreachable.  Exhausting the budget
    is INCONCLUSIVE.  Two witnesses give a nonexistence verdict: a Picard or
    Newton iterate whose maximum enters the band ``[1 - touch_threshold, inf)``
    (TOUCHED_ONE), and an iterate at which the Newton step is refused for
    curvature <= 0 and a Collatz-Wielandt test proves the linearization
    unstable (UNSTABLE_SUBSOLUTION; see the module notes).

    Near the critical curve, certified Newton steps may
    replace the iterate a Picard step starts from (see the module notes);
    ``newton_steps`` counts them and ``iterations`` still counts loop steps.

    ``certify_feasible`` is for the feasibility probes of ``curve``: the
    loop then also tests extrapolated super-solutions (see the module notes)
    and ends with the verdict FEASIBLE as soon as one passes, with the
    current iterate as ``state`` (a sub-solution below the minimal
    solution, not converged) and the witness as ``supersolution``.
    Without it the verdict is never FEASIBLE: CONVERGED means the contract
    above.

    ``start = (u0, v0)`` should lie below every solution, for instance a
    state the solver converged to at a smaller lam and mu on the same ray
    (with the same profiles): the first step checks ``T(start) >= start``
    node-wise and, if that fails, restarts from (0, 0).

    ``on_step(it, u, v)`` is invoked with every fresh Picard iterate, and
    with a Newton iterate that enters the touch band, mainly for trace
    instrumentation in tests.
    """
    check_parameters(lam, mu)
    if f.values.shape != (mesh.n_nodes,) or g.values.shape != (mesh.n_nodes,):
        raise PreconditionError("profiles must live on the given mesh")
    if start is None:
        x = np.zeros((2, mesh.n_nodes))
    else:
        x = np.stack(start)
        if x.shape != (2, mesh.n_nodes):
            raise PreconditionError("start must be a pair of fields on the given mesh")
    return _iterate(mesh, f, g, lam, mu, cfg, x, on_step=on_step,
                    warm=start is not None, certify=certify_feasible)


def write_solution_csv(path, mesh: Mesh, state: StatePair, fingerprint: str = "") -> None:
    """Solution snapshot: node coordinate(s), u, v."""
    write_node_table(path, mesh, {"u": state.u, "v": state.v}, fingerprint)
