"""Principal eigenvalue of the coupled linearization and stability tests.

Linearizing the system at a state (u, v) couples the two equations through
the off-diagonal weights of ``solver.coupling_weights``

    a12 = 2 * lam * f / (1 - v)^3,    a21 = 2 * mu * g / (1 - u)^3,

giving a non-symmetric block operator J = [[A, -a12], [-a21, A]] with a
unique principal eigenvalue nu1 carrying a strictly positive eigenfunction
pair.  There is no variational characterization for the coupled problem,
but the system is cooperative (Montenegro, Bull. LMS 37, 2005), which
reduces nu1 to a scalar root: below mu1, the principal Dirichlet
eigenvalue, (A - nu)^-1 is positive, and by Perron-Frobenius
(Collatz-Wielandt) J - nu is a nonsingular M-matrix exactly when the
spectral radius of

    K(nu) = (A - nu)^-1 a12 (A - nu)^-1 a21

is below 1.  So nu1 is the unique nu < mu1 with rho(K(nu)) = 1, and
phi1 = K(nu1) phi1, phi2 = (A - nu1)^-1 a21 phi1.  rho is found by power
iteration, each application of K being two shifted solves
(``DirichletLaplacian.shifted_solver``); K is self-adjoint in the product
weighted by w * a21, which gives its Rayleigh quotient.  The root is found
by a safeguarded secant on log rho in s = log(mu1 - nu), where log rho has
slope near -2 both close to mu1 and far below it.  No block matrix is
formed or factorized.  The secant starts at nu = 0 and the power
iteration at x = ones, so runs are repeatable, unless ``linearized_eigen``
is given a start.  K is self-adjoint in the weighted product, so the error
of its Rayleigh quotient is second order in the weighted Perron residual r
(Parlett, *The Symmetric Eigenvalue Problem*, SIAM 1998, sec. 4).  With
need = max(1e-13, 1e-3 |log rho|), until the root test first passes an
evaluation stops once ||r||_L^2 <= 0.1 need rho^2 ||x||_L^2 and
sup|r| <= sqrt(need) rho sup|x|.  Later ones stop on the strict
sup|r| <= need rho sup|x| and the root test must pass again, so the
returned pair meets the contract of strict evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_node_table
from .exceptions import ConvergenceError, NumericsError, PreconditionError
from .mesh import Mesh, principal_eigenpair
from .profiles import Profile
from .solver import StatePair, check_parameters, coupling_weights

_CLASSIFY_EPS = 1e-6
_EIG_RESIDUAL_RTOL = 1e-7  # block residual target, relative to 1 + |nu1|
# coupling scale b below which the gap mu1 - nu1 (about b) is lost in the
# rounding of the shifted solves next to mu1
_WEAK_COUPLING = 1e-7
_POWER_RTOL = 1e-13        # sup-norm Perron residual of K(nu), relative to rho sup|x|
_POWER_MAX = 5_000         # applications of K per eigen solve
_SECANT_MAX = 100          # evaluations of rho per eigen solve
_ROOT_TOL = 1e-13          # root tolerance in nu, relative to 1 + |nu|


# unused: perfbench/tracer.py LAYERS wraps this module attribute as
# stability.factorize, and --trace 1 fails without it; scipy is imported
# only when it is called
def splu(a, **options):
    from scipy.sparse.linalg import splu as factor
    return factor(a, **options)


@dataclass(frozen=True)
class EigenResult:
    """Principal eigenpair of the linearized block operator."""

    nu1: float
    phi1: np.ndarray
    phi2: np.ndarray
    iterations: int


def _principal_block_eigen(
    mesh: Mesh, a12: np.ndarray, a21: np.ndarray, start=None
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """nu1 as the root of rho(K(nu)) = 1; the count is of K applications."""
    op, w = mesh.operator, mesh.weights
    mu1 = principal_eigenpair(op).value
    left = w * a21       # K is self-adjoint in <x, y> = sum(left * x * y)
    x = np.ones(a12.size) if start is None else start[1] / start[1].max()
    applications = 0
    strict = False       # the stop rule of every evaluation after a root test

    def log_rho(nu: float):
        """log rho(K(nu)) and y = (A - nu)^-1 a21 x, with x left as the
        Perron vector (sup 1); (inf, None) when A - nu is not positive
        definite.  Far from the root, log rho is needed only to about
        1e-3 of its size."""
        nonlocal x, applications
        solve = op.shifted_solver(nu)
        if solve is None:
            return math.inf, None
        while applications < _POWER_MAX:
            applications += 1
            y = solve(a21 * x)
            z = solve(a12 * y)
            mass = left @ (x * x)
            rho = (left @ (x * z)) / mass
            r = z - rho * x
            need = max(_POWER_RTOL, 1e-3 * abs(math.log(rho)))
            sup = np.abs(r).max() / (rho * np.abs(x).max())
            if sup <= need or (not strict and sup * sup <= need
                               and left @ (r * r) <= 0.1 * need * rho * rho * mass):
                return math.log(rho), y
            x = z / z.max()
        raise ConvergenceError("power iteration on K(nu) did not converge")

    # bracket in s = log(mu1 - nu): A has nonnegative row sums, so below 0
    # ||(A - nu)^-1||_inf <= 1 / |nu| and rho <= b^2 / nu^2, under 1/4 at
    # nu = -(2b + 1); rho grows without bound as nu -> mu1.  A cold secant
    # starts at nu = 0, the stability threshold; a warm one at its guess
    # when that lies inside the bracket.
    b = math.sqrt(a12.max()) * math.sqrt(a21.max())
    s_neg, s_pos = math.log(mu1 + 2.0 * b + 1.0), -math.inf
    s = math.log(mu1)
    if start is not None and -(2.0 * b + 1.0) < start[0] < mu1:
        s = math.log(mu1 - start[0])
    s_old, g_old, nu_old = math.inf, math.inf, math.inf
    for _ in range(_SECANT_MAX):
        nu = mu1 - math.exp(s)
        g, y = log_rho(nu)
        if g > 0:
            s_pos = s
        elif g < 0:   # at g == 0 a strict evaluation follows at the same s
            s_neg = s
        width = min(abs(nu - nu_old), math.exp(s_neg) - math.exp(s_pos))
        # rho rounds to exactly 1 near the root often enough to test for
        if y is not None and (g == 0 or width <= _ROOT_TOL * (1.0 + abs(nu))):
            if strict:
                # scale phi2 by <phi2, a12 phi2>_w = <phi1, a21 phi1>_w,
                # which holds at the eigenpair because A is symmetric in the
                # quadrature product; unlike 1 / rho it does not blow up an
                # error in nu by 1 / (mu1 - nu)
                scale = math.sqrt((left @ (x * x)) / ((w * a12) @ (y * y)))
                return nu, x, scale * y, applications
            strict = True
        s_new = s + 0.5 * g      # log rho has slope near -2 at both ends
        if math.isfinite(g - g_old) and g != g_old:
            s_new = s - g * (s - s_old) / (g - g_old)
        s_old, g_old, nu_old = s, g, nu
        if not s_pos < s_new < s_neg:
            s_new = 0.5 * (s_pos + s_neg) if s_pos > -math.inf else s + 0.5 * g
        s = s_new
    raise ConvergenceError("secant on rho(K(nu)) = 1 did not converge")


def _weakly_coupled_eigen(
    mesh: Mesh, a12: np.ndarray, a21: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """First-order principal pair when b = sqrt(max a12 * max a21) <= 1e-7.

    At b = 0 the block is diag(A, A), with principal eigenspace
    span{(psi, 0), (0, psi)}.  For small b its two eigenvalues differ by
    about 2b, and the gap mu1 - nu1 of about b is lost in the rounding of
    the shifted solves next to mu1.  First-order perturbation on the
    eigenspace gives nu1 = mu1 - b sqrt(k12 k21) and
    phi2 = c sqrt(k21 / k12) psi, with c = sqrt(max a21 / max a12) and
    k = <psi, (a / max a) psi> / <psi, psi> in the quadrature inner product;
    the residual is of order b.  (mu1, psi) is ``mesh.principal_eigenpair``,
    cached on the operator; its ``iterations`` are the count returned.
    """
    pair = principal_eigenpair(mesh.operator)
    mu1, psi = pair.value, pair.vector
    if not a12.any():   # lam = mu = 0: exactly diag(A, A)
        return mu1, psi, psi, pair.iterations
    mass = mesh.weights * psi * psi
    root12, root21 = math.sqrt(a12.max()), math.sqrt(a21.max())
    k12 = mass @ (a12 / a12.max()) / mass.sum()
    k21 = mass @ (a21 / a21.max()) / mass.sum()
    nu = mu1 - root12 * root21 * math.sqrt(k12 * k21)
    return nu, psi, root21 / root12 * math.sqrt(k21 / k12) * psi, pair.iterations


def linearized_eigen(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    lam: float,
    mu: float,
    state: StatePair,
    start: tuple[float, np.ndarray] | None = None,
) -> EigenResult:
    """Principal eigenpair of the linearization at (u, v).

    Returns the eigenvalue together with the positive pair normalized to
    sup phi1 = 1.  The block residual meets
    ``1e-6 * (1 + |nu1|) * max(1, sup phi2)`` in the sup norm: phi2 grows
    like sqrt(mu / lam) for mu >> lam, and so does the rounding in its
    residual.

    With lam = mu = 0 the block is diag(A, A), whose principal eigenspace is
    two-dimensional; the pair is then (mu1, psi, psi) from the Dirichlet
    eigenpair, and couplings whose gap mu1 - nu1 would sink to rounding
    take the first-order pair next to it (``_weakly_coupled_eigen``).  With
    exactly one of lam, mu zero the block is triangular and has no positive
    eigenpair, which raises PreconditionError.

    ``start = (nu, phi1)``, say the pair of a nearby state on the branch,
    begins the secant at the guess nu (at nu = 0 if nu >= mu1) and the
    power iteration at the positive phi1; only where the solve begins
    changes, not the contract.  The weakly coupled pair ignores it.
    """
    check_parameters(lam, mu)
    if (lam == 0) != (mu == 0):
        raise PreconditionError(
            "exactly one of lam, mu is zero: the linearization is triangular "
            "and has no positive eigenpair"
        )
    a12, a21 = coupling_weights((lam * f.values, mu * g.values), (state.u, state.v))
    if math.sqrt(a12.max()) * math.sqrt(a21.max()) <= _WEAK_COUPLING:
        nu, phi1, phi2, iters = _weakly_coupled_eigen(mesh, a12, a21)
    else:
        nu, phi1, phi2, iters = _principal_block_eigen(mesh, a12, a21, start)
    if not (np.all(phi1 > 0) and np.all(phi2 > 0)):
        raise NumericsError("principal eigenfunction pair not strictly positive")
    scale = phi1.max()
    phi1 = phi1 / scale
    phi2 = phi2 / scale
    res = block_residual(mesh, a12, a21, nu, phi1, phi2)
    if res > 10 * _EIG_RESIDUAL_RTOL * (1.0 + abs(nu)) * max(1.0, phi2.max()):
        raise ConvergenceError(f"block eigen residual {res:.3e} out of contract")
    return EigenResult(nu1=nu, phi1=phi1, phi2=phi2, iterations=iters)


def block_residual(
    mesh: Mesh,
    a12: np.ndarray,
    a21: np.ndarray,
    nu: float,
    phi1: np.ndarray,
    phi2: np.ndarray,
) -> float:
    op = mesh.operator
    r1 = op.apply(phi1) - a12 * phi2 - nu * phi1
    r2 = op.apply(phi2) - a21 * phi1 - nu * phi2
    return float(np.max(np.abs(r1)) + np.max(np.abs(r2)))


def classify(result: EigenResult) -> str:
    """"stable" / "semi-stable" / "unstable" with a 1e-6 dead band."""
    if result.nu1 > _CLASSIFY_EPS:
        return "stable"
    if result.nu1 < -_CLASSIFY_EPS:
        return "unstable"
    return "semi-stable"


def eigen_ratio_check(result: EigenResult, lam: float, mu: float) -> float:
    """min over nodes of phi2/phi1 - mu/lam; nonnegative (to 1e-6) when mu <= lam."""
    if not 0 < mu <= lam:
        raise PreconditionError("requires 0 < mu <= lam (swap roles otherwise)")
    return float(np.min(result.phi2 / result.phi1 - mu / lam))


def stability_inequality_gap(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    lam: float,
    mu: float,
    state: StatePair,
    phi: np.ndarray,
) -> float:
    """Dirichlet energy of phi minus its weighted mass at the state.

    For constant profiles (inf = sup) the coupled linearization admits the
    comparison weight ``2 sqrt(lam mu f g) (1-u)^{-3/2} (1-v)^{-3/2}``, which
    is ``sqrt(a12 a21)``; at any stable state the returned gap is nonnegative
    for every boundary-vanishing field, up to 1e-8 * ||phi||^2.
    """
    if f.inf != f.sup or g.inf != g.sup:
        raise PreconditionError("the inequality check requires constant profiles")
    a12, a21 = coupling_weights((lam * f.values, mu * g.values), (state.u, state.v))
    weight = np.sqrt(a12 * a21)
    energy = mesh.operator.dirichlet_energy(phi)
    mass = float(np.dot(mesh.weights, weight * phi * phi))
    return energy - mass


def write_eigen_csv(path, mesh: Mesh, result: EigenResult, fingerprint: str = "") -> None:
    """Eigenfunction snapshot: node coordinate(s), phi1, phi2."""
    write_node_table(
        path, mesh, {"phi1": result.phi1, "phi2": result.phi2}, fingerprint
    )
