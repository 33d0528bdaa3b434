"""Principal eigenvalue of the coupled linearization and stability tests.

Linearizing the system at a state (u, v) couples the two equations through
the off-diagonal weights

    a12 = 2 * lam * f / (1 - v)^3,    a21 = 2 * mu * g / (1 - u)^3,

giving a non-symmetric block operator with a unique principal eigenvalue
carrying a strictly positive eigenfunction pair.  There is no variational
characterization for the coupled problem, so the eigenvalue is computed by
shifted inverse power iteration: the initial shift makes the shifted block
an irreducible M-matrix (inverse-positive), and Collatz-Wielandt ratios of
the iterates give two-sided eigenvalue brackets that steer re-shifting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .artifacts import write_node_table
from .exceptions import ConvergenceError, NumericsError, PreconditionError
from .mesh import Mesh
from .profiles import CONSTANT, Profile
from .solver import DELTA_FLOOR, StatePair

_CLASSIFY_EPS = 1e-6
_EIG_TOL = 1e-8            # successive eigenvalue estimates
_EIG_RESIDUAL_RTOL = 1e-7  # block residual target, relative to 1 + |nu1|
_EIG_MAX_ITER = 10_000
_RESHIFT_EVERY = 40


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
    """Shifted inverse power iteration on [[A, -a12], [-a21, A]]."""
    n = a12.size
    blocks = sp.bmat(
        [
            [amat, sp.diags(-a12)],
            [sp.diags(-a21), amat],
        ],
        format="csc",
    )
    ident = sp.identity(2 * n, format="csc")

    safe_shift = -(float(a12.max()) + float(a21.max()) + 1.0)
    shift = safe_shift
    lu = splu(blocks - shift * ident)
    x = np.ones(2 * n)
    nu = np.inf

    def residual_ok(nu_est: float, vec: np.ndarray) -> bool:
        r = blocks @ vec - nu_est * vec
        return np.max(np.abs(r)) <= _EIG_RESIDUAL_RTOL * (1.0 + abs(nu_est)) * np.abs(
            vec
        ).max()

    for it in range(1, _EIG_MAX_ITER + 1):
        y = lu.solve(x)
        if not np.all(y > 0):
            # lost inverse positivity: the shift crossed the eigenvalue
            shift = safe_shift
            lu = splu(blocks - shift * ident)
            y = lu.solve(x)
        ratios = y / x
        # Collatz-Wielandt bounds for the resolvent's dominant eigenvalue
        lo, hi = shift + 1.0 / ratios.max(), shift + 1.0 / ratios.min()
        nu_new = shift + float(x @ x) / float(x @ y)
        x = y / np.abs(y).max()
        converged = abs(nu_new - nu) <= _EIG_TOL and residual_ok(nu_new, x)
        nu = nu_new
        if converged:
            break
        if it % _RESHIFT_EVERY == 0 and hi > lo:
            # move the shift just below the certified lower bound
            candidate = lo - 0.05 * (hi - lo) - 1e-9 * (1.0 + abs(lo))
            if candidate > shift:
                shift = candidate
                lu = splu(blocks - shift * ident)
    else:
        raise ConvergenceError("block eigen iteration stagnated")
    return nu, x[:n], x[n:], it


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
    ``1e-6 * (1 + |nu1|)`` in the sup norm.
    """
    if lam < 0 or mu < 0:
        raise PreconditionError("parameters must be nonnegative")
    a12, a21 = coupling_weights(f, g, lam, mu, state)
    amat = mesh.operator.matrix
    nu, phi1, phi2, iters = _principal_block_eigen(amat, a12, a21)
    if not (np.all(phi1 > 0) and np.all(phi2 > 0)):
        raise NumericsError("principal eigenfunction pair not strictly positive")
    scale = phi1.max()
    phi1 = phi1 / scale
    phi2 = phi2 / scale
    res = block_residual(mesh, a12, a21, nu, phi1, phi2)
    if res > 10 * _EIG_RESIDUAL_RTOL * (1.0 + abs(nu)):
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


def scalar_linearized_eigenvalue(mesh: Mesh, weight: np.ndarray) -> float:
    """Principal eigenvalue of -Lap - weight on the mesh (scalar problem).

    Independent oracle for the symmetric reduction: the scalar operator is
    self-adjoint in the quadrature inner product, so the eigenvalue comes
    from ARPACK on the symmetric pencil (K - W diag(weight)) x = nu W x,
    a different code path than the block iteration.
    """
    from scipy.sparse.linalg import eigsh

    kmat = mesh.operator.symmetric_form
    wdiag = sp.diags(mesh.weights)
    pencil = (kmat - wdiag @ sp.diags(weight)).tocsc()
    sigma = -(float(weight.max()) + 1.0)
    vals = eigsh(
        pencil, k=1, M=wdiag.tocsc(), sigma=sigma, which="LM",
        return_eigenvectors=False,
    )
    return float(vals[0])


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
