"""Principal eigenvalue of the coupled linearization and stability tests.

Linearizing the system at a state (u, v) couples the two equations through
the off-diagonal weights

    a12 = 2 * lam * f / (1 - v)^3,    a21 = 2 * mu * g / (1 - u)^3,

giving a non-symmetric block operator with a unique principal eigenvalue
carrying a strictly positive eigenfunction pair.  There is no variational
characterization for the coupled problem, so the eigenvalue is computed by
shift-invert Arnoldi (ARPACK) at a shift below every Gershgorin disc.  There
the shifted block is an irreducible M-matrix, so its inverse is positive and
the principal eigenvalue is the one nearest the shift, with a positive
eigenvector (Perron-Frobenius): one sparse LU and a few dozen solves give
it to rounding.  The fixed all-ones start vector makes runs repeatable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs, splu

from .artifacts import write_node_table
from .exceptions import ConvergenceError, NumericsError, PreconditionError
from .mesh import Mesh, principal_eigenpair
from .profiles import CONSTANT, Profile
from .solver import DELTA_FLOOR, StatePair, check_parameters

_CLASSIFY_EPS = 1e-6
_EIG_RESIDUAL_RTOL = 1e-7  # block residual target, relative to 1 + |nu1|
_WEAK_COUPLING = 1e-7      # coupling scale below which Arnoldi cannot split the pair


@dataclass(frozen=True)
class EigenResult:
    """Principal eigenpair of the linearized block operator."""

    nu1: float
    phi1: np.ndarray
    phi2: np.ndarray
    iterations: int


def coupling_weights(
    f: Profile, g: Profile, lam: float, mu: float, state: StatePair
) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal linearization weights a12, a21 at the given state."""
    dv = np.maximum(1.0 - state.v, DELTA_FLOOR)
    du = np.maximum(1.0 - state.u, DELTA_FLOOR)
    return 2.0 * lam * f.values / dv**3, 2.0 * mu * g.values / du**3


def _principal_block_eigen(
    amat: sp.spmatrix, a12: np.ndarray, a21: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """Shift-invert Arnoldi on [[A, -a12], [-a21, A]] at an M-matrix shift."""
    n = a12.size
    # the similarity diag(1, c) equalizes the coupling maxima: same spectrum,
    # phi2 scaled by 1 / c, so neither component sinks to rounding when
    # lam / mu is extreme
    c = math.sqrt(a21.max()) / math.sqrt(a12.max())
    b12, b21 = a12 * c, a21 / c
    blocks = sp.bmat(
        [
            [amat, sp.diags(-b12)],
            [sp.diags(-b21), amat],
        ],
        format="csc",
    )
    # below every Gershgorin disc: blocks - shift I is an irreducible M-matrix
    shift = -(float(b12.max()) + float(b21.max()) + 1.0)
    lu = splu(blocks - shift * sp.identity(2 * n, format="csc"))
    solves = 0

    def solve(x: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return lu.solve(x)

    resolvent = LinearOperator((2 * n, 2 * n), matvec=solve, dtype=float)
    try:
        theta, vecs = eigs(resolvent, k=1, which="LM", v0=np.ones(2 * n), tol=0)
    except ArpackNoConvergence as exc:
        raise ConvergenceError("block eigen iteration did not converge") from exc
    x = vecs[:, 0].real
    x = x / x[np.argmax(np.abs(x))]
    return shift + 1.0 / float(theta[0].real), x[:n], c * x[n:], solves


def _weakly_coupled_eigen(
    mesh: Mesh, a12: np.ndarray, a21: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, int]:
    """First-order principal pair when b = sqrt(max a12 * max a21) <= 1e-7.

    At b = 0 the block is diag(A, A), with principal eigenspace
    span{(psi, 0), (0, psi)}.  For small b its two eigenvalues differ by
    about 2b, and Arnoldi mixes their vectors once that is at rounding
    level.  First-order perturbation on the eigenspace gives
    nu1 = mu1 - b sqrt(k12 k21) and phi2 = c sqrt(k21 / k12) psi, with
    c = sqrt(max a21 / max a12) and k = <psi, (a / max a) psi> / <psi, psi>
    in the quadrature inner product; the residual is of order b.
    """
    pair = principal_eigenpair(mesh.operator, mesh)
    psi = pair.vector
    if not a12.any():   # lam = mu = 0: exactly diag(A, A)
        return pair.value, psi, psi, pair.iterations
    mass = mesh.weights * psi * psi
    root12, root21 = math.sqrt(a12.max()), math.sqrt(a21.max())
    k12 = mass @ (a12 / a12.max()) / mass.sum()
    k21 = mass @ (a21 / a21.max()) / mass.sum()
    nu = pair.value - root12 * root21 * math.sqrt(k12 * k21)
    return nu, psi, root21 / root12 * math.sqrt(k21 / k12) * psi, pair.iterations


def linearized_eigen(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    lam: float,
    mu: float,
    state: StatePair,
) -> EigenResult:
    """Principal eigenpair of the linearization at (u, v).

    Returns the eigenvalue together with the positive pair normalized to
    sup phi1 = 1.  The block residual meets
    ``1e-6 * (1 + |nu1|) * max(1, sup phi2)`` in the sup norm: phi2 grows
    like sqrt(mu / lam) for mu >> lam, and so does the rounding in its
    residual.

    With lam = mu = 0 the block is diag(A, A), whose principal eigenspace is
    two-dimensional; the pair is then (mu1, psi, psi) from the Dirichlet
    eigenpair, and couplings too weak for Arnoldi to split that eigenspace
    take the first-order pair next to it (``_weakly_coupled_eigen``).  With
    exactly one of lam, mu zero the block is triangular and has no positive
    eigenpair, which raises PreconditionError.
    """
    check_parameters(lam, mu)
    if (lam == 0) != (mu == 0):
        raise PreconditionError(
            "exactly one of lam, mu is zero: the linearization is triangular "
            "and has no positive eigenpair"
        )
    a12, a21 = coupling_weights(f, g, lam, mu, state)
    if math.sqrt(a12.max()) * math.sqrt(a21.max()) <= _WEAK_COUPLING:
        nu, phi1, phi2, iters = _weakly_coupled_eigen(mesh, a12, a21)
    else:
        nu, phi1, phi2, iters = _principal_block_eigen(
            mesh.operator.matrix, a12, a21
        )
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

    For constant profiles the coupled linearization admits the comparison
    weight ``2 sqrt(lam mu f g) (1-u)^{-3/2} (1-v)^{-3/2}``; at any stable
    state the returned gap is nonnegative for every boundary-vanishing
    field, up to 1e-8 * ||phi||^2.
    """
    if f.kind != CONSTANT or g.kind != CONSTANT:
        raise PreconditionError("the inequality check requires constant profiles")
    du = np.maximum(1.0 - state.u, DELTA_FLOOR)
    dv = np.maximum(1.0 - state.v, DELTA_FLOOR)
    weight = 2.0 * np.sqrt(lam * mu * f.param * g.param) * du**-1.5 * dv**-1.5
    energy = mesh.operator.dirichlet_energy(phi)
    mass = float(np.dot(mesh.weights, weight * phi * phi))
    return energy - mass


def write_eigen_csv(path, mesh: Mesh, result: EigenResult, fingerprint: str = "") -> None:
    """Eigenfunction snapshot: node coordinate(s), phi1, phi2."""
    write_node_table(
        path, mesh, {"phi1": result.phi1, "phi2": result.phi2}, fingerprint
    )
