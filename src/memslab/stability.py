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
phi1 = K(nu1) phi1, phi2 = (A - nu1)^-1 a21 phi1.  No block matrix is
formed or factorized.

One loop finds the Perron vector and the root together.  Each pass applies
K(nu) once, y = S a21 x and z = S a12 y with S = (A - nu)^-1 from
``DirichletLaplacian.shifted_solver``.  K is self-adjoint in the product
weighted by L = w * a21, which gives its Rayleigh quotient
rho = <x, z>_L / <x, x>_L, and, as S' = S^2 and S is self-adjoint in the
quadrature product, the Hellmann-Feynman slope
d rho / d nu = 2 <y, z>_w / <x, x>_L at no extra solve.  With them the
pass takes a Newton step on log rho in s = log(mu1 - nu), where log rho
has slope near -2 both close to mu1 and far below it, and sets
x = z / max z.  Every pass narrows a bracket in s: a Rayleigh quotient
above 1 proves rho > 1 (it is at most the top eigenvalue of the
self-adjoint K, which is rho), max z / x < 1 with x > 0 proves rho < 1
(Collatz-Wielandt), and a refused shifted solver counts as rho > 1 and
sends the loop halfway back to the last shift it solved at.  A Newton
step that leaves the bracket halves the way to the end it crosses.
A step within the root tolerance keeps the shift and its solver, so the
last applications converge x at a fixed nu.  The loop stops on
sup|z - rho x| <= 1e-13 rho sup|x| with a nu step within
1e-13 (1 + |nu|), and returns the Newton-corrected nu.  On radial meshes
the factors of A - nu change only when nu moves by about an ulp of the
stiffness diagonal over the weight (1.5e-11 to 3.7e-11 on a 256-node
disk), so the computed rho is a staircase at that scale, and nu1 repeats
between solves that start apart to about 1e-12, not to 1e-13.  By the
self-adjointness the error of rho is second order in the Perron residual
(Parlett, *The Symmetric Eigenvalue Problem*, SIAM 1998, sec. 4).  A cold
solve starts at nu = 0 and x = ones, so runs are repeatable, unless
``linearized_eigen`` is given a start.
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
_POWER_MAX = 5_000         # K applications and refused shifts per eigen solve
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
    # bracket in s = log(mu1 - nu): A has nonnegative row sums, so below 0
    # ||(A - nu)^-1||_inf <= 1 / |nu| and rho <= b^2 / nu^2, under 1/4 at
    # nu = -(2b + 1); rho grows without bound as nu -> mu1.  A cold solve
    # starts at nu = 0, the stability threshold; a warm one at its guess
    # when that lies inside the bracket.
    b = math.sqrt(a12.max()) * math.sqrt(a21.max())
    s_neg, s_pos = math.log(mu1 + 2.0 * b + 1.0), -math.inf
    s = math.log(mu1)
    if start is not None and -(2.0 * b + 1.0) < start[0] < mu1:
        s = math.log(mu1 - start[0])
    held, applications = None, 0    # (s, nu, solver) of the last shift solved at
    for _ in range(_POWER_MAX):
        nu = mu1 - math.exp(s)
        # a step within the root tolerance keeps the shift and its solver
        if held is None or abs(nu - held[1]) > _ROOT_TOL * (1.0 + abs(held[1])):
            solve = op.shifted_solver(nu)
            if solve is None:    # A - nu is not positive definite: rho > 1
                s_pos = s
                s = 0.5 * (s + (s_neg if held is None else held[0]))
                continue
            held = s, nu, solve
        s, nu, solve = held
        applications += 1
        y = solve(a21 * x)
        z = solve(a12 * y)
        mass = left @ (x * x)
        rho = (left @ (x * z)) / mass
        converged = np.abs(z - rho * x).max() <= _POWER_RTOL * rho * np.abs(x).max()
        if rho > 1.0:        # a Rayleigh quotient of K is at most rho(K)
            s_pos = s
        elif x.min() > 0 and (z / x).max() < 1.0:   # Collatz-Wielandt
            s_neg = s
        # Newton on log rho in s, with d rho / d nu = 2 <y, z>_w / <x, x>_L
        s_new = s + math.log(rho) * rho * mass / (2.0 * (w @ (y * z)) * (mu1 - nu))
        if not s_pos < s_new < s_neg:
            s_new = 0.5 * (s + (s_pos if s_new <= s_pos else s_neg))
        nu_new = mu1 - math.exp(s_new)
        if converged and abs(nu_new - nu) <= _ROOT_TOL * (1.0 + abs(nu)):
            # scale phi2 by <phi2, a12 phi2>_w = <phi1, a21 phi1>_w,
            # which holds at the eigenpair because A is symmetric in the
            # quadrature product; unlike 1 / rho it does not blow up an
            # error in nu by 1 / (mu1 - nu)
            scale = math.sqrt(mass / ((w * a12) @ (y * y)))
            return nu_new, x, scale * y, applications
        x = z / z.max()
        s = s_new
    raise ConvergenceError("block eigen solve did not converge")


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
    begins the eigen loop at the shift nu and the Perron vector phi1, which
    must be positive; a nu outside (-(2b + 1), mu1), with b the coupling
    scale, begins at nu = 0 as a cold solve does.  Only where the solve
    begins changes, not the contract.  The weakly coupled pair ignores it.
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
