"""Discrete domains and the Dirichlet Laplacian on them.

Two mesh kinds are supported: radial meshes on the N-ball (fields depend on
|x| only) and cell-centered Cartesian grids on a rectangle.  Both carry
quadrature weights whose sum reproduces the domain measure exactly, and a
finite-volume discretization of -Laplace with homogeneous Dirichlet data
eliminated.  The finite-volume form keeps the operator an M-matrix (discrete
maximum principle) in every dimension and makes it symmetric in the
quadrature inner product.

A Poisson solve is a tridiagonal LDL^T substitution on radial meshes (LAPACK
``dpttrs`` with the factors of a banded Cholesky factorization) and a fast
diagonalization on rectangles: the operator there is the Kronecker sum of
two 1-D operators whose eigenvectors are closed-form sine modes, so a solve
is four dense matrix products with the mode matrices (Lynch, Rice & Thomas,
Numer. Math. 6, 1964).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cholesky_banded, eigvalsh_tridiagonal
from scipy.linalg.lapack import dgbsv, dpttrs
# unused: perfbench/tracer.py LAYERS looks it up, and --trace 1 fails without it
from scipy.sparse.linalg import splu  # noqa: F401

from .artifacts import fingerprint
from .exceptions import ConfigurationError, ConvergenceError, NumericsError

RADIAL = "radial"
RECT = "rect"

_POISSON_RTOL = 1e-10       # linear-solve backward-error contract, sup-norm
_EIG_RESIDUAL_RTOL = 1e-8   # sup-norm eigen residual contract relative to mu1
_EIG_MAX_ITER = 10_000


def unit_ball_volume(dimension: int) -> float:
    """Volume of the unit ball in R^dimension."""
    return math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0 + 1.0)


class DirichletLaplacian:
    """Negative Laplacian with the homogeneous Dirichlet boundary eliminated.

    Internally stored through its symmetric form ``K = W @ A`` where ``W`` is
    the diagonal of quadrature weights: ``K`` is symmetric positive definite
    and tridiagonal (radial) or 5-point (rectangle).  The action of the
    operator itself is ``A u = (K u) / w``.

    A tridiagonal ``K`` is solved as ``K u = w * rhs`` by LDL^T substitution
    (``dpttrs``) with factors converted from a banded Cholesky factor,
    cached on first use and dropped when pickling, so meshes can travel to
    worker processes; ``solve_coupled`` then also solves the two-field
    linearized systems of the minimal-solution iteration in O(n).
    Otherwise ``modes = (qx, qy, eig)`` must diagonalize ``A`` on an
    ``nx x ny`` grid: ``A = Qx Lx Qx^T (+) Qy Ly Qy^T`` with orthonormal
    ``qx``, ``qy`` and ``eig[kx, ky] = Lx[kx] + Ly[ky]``, so
    ``A^-1 r = Qx ((Qx^T R Qy) / eig) Qy^T`` with ``R`` the right-hand
    side reshaped to ``(nx, ny)``.  ``shifted_solver`` solves with
    ``A - nu`` the same way on either kind.
    """

    def __init__(self, sym: sp.spmatrix, weights: np.ndarray, modes=None):
        self._sym = sym.tocsr()
        self._weights = weights
        self._ldl = None          # LDL^T factors (d, e) of K, radial case
        self._modes = modes       # (qx, qy, eig), rectangle case
        self._lowest = None       # mu1, computed on first use
        if modes is not None:
            self._inv_eig = 1.0 / modes[2]
        self._tridiagonal = self._is_tridiagonal(sym)
        if self._tridiagonal:
            self._diag, self._off = self._sym.diagonal(), self._sym.diagonal(1)

    @staticmethod
    def _is_tridiagonal(m: sp.spmatrix) -> bool:
        coo = m.tocoo()
        return bool(np.all(np.abs(coo.row - coo.col) <= 1))

    @property
    def tridiagonal(self) -> bool:
        """Whether ``K`` is tridiagonal, so ``solve_coupled`` applies."""
        return self._tridiagonal

    @property
    def size(self) -> int:
        return self._sym.shape[0]

    @property
    def symmetric_form(self) -> sp.csr_matrix:
        """K = W A, the quadratic form of the Dirichlet energy."""
        return self._sym

    @property
    def matrix(self) -> sp.csr_matrix:
        """The operator A itself, acting on interior node values."""
        return sp.diags(1.0 / self._weights) @ self._sym

    def apply(self, u: np.ndarray) -> np.ndarray:
        return (self._sym @ u) / self._weights

    def dirichlet_energy(self, phi: np.ndarray) -> float:
        """Discrete integral of |grad phi|^2 via summation by parts."""
        return float(phi @ (self._sym @ phi))

    def _ldl_factors(self, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(d, e)`` with ``tridiag(off, diag, off) = L D L^T`` for ``dpttrs``.

        Raises LinAlgError when the matrix is not positive definite.  The
        upper bidiagonal Cholesky factor U gives ``D = diag(U_ii^2)`` and the
        unit lower bidiagonal ``L = U^T D^-1/2`` with subdiagonal
        ``e_i = U_{i,i+1} / U_ii``.  Factorizing through ``cholesky_banded``
        (not ``dpttrf``) keeps the one call that perfbench times as
        ``mesh.factorize``.
        """
        ab = np.zeros((2, self.size))
        ab[1] = diag
        ab[0, 1:] = self._off
        u = cholesky_banded(ab, lower=False)
        return u[1] ** 2, u[0, 1:] / u[1, :-1]

    def _modal_solve(self, rhs: np.ndarray, inv_eig: np.ndarray) -> np.ndarray:
        qx, qy, _ = self._modes
        r = rhs.reshape(inv_eig.shape)
        return (qx @ ((qx.T @ r @ qy) * inv_eig) @ qy.T).ravel()

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve A u = rhs (equivalently K u = w * rhs)."""
        if not self._tridiagonal:
            return self._modal_solve(rhs, self._inv_eig)
        if self._ldl is None:
            self._ldl = self._ldl_factors(self._diag)
        # callers reject non-finite data; dpttrs makes no finiteness scan
        return dpttrs(*self._ldl, self._weights * rhs, overwrite_b=True)[0]

    @property
    def lowest_eigenvalue(self) -> float:
        """mu1, the smallest eigenvalue of A.

        ``eig[0, 0]`` on rectangles; on radial meshes LAPACK bisection on
        the symmetric tridiagonal ``W^-1/2 K W^-1/2``, which is similar to A.
        Neither makes a Poisson solve.
        """
        if self._lowest is None:
            if self._tridiagonal:
                root = np.sqrt(self._weights)
                self._lowest = float(eigvalsh_tridiagonal(
                    self._diag / self._weights, self._off / (root[:-1] * root[1:]),
                    select="i", select_range=(0, 0))[0])
            else:
                self._lowest = float(self._modes[2][0, 0])
        return self._lowest

    def shifted_solver(self, nu: float):
        """Solver ``rhs -> (A - nu)^-1 rhs``, or None when A - nu is not
        positive definite (nu at or above mu1, to rounding).

        One factorization per shift: the LDL^T factors of ``K - nu W`` on
        radial meshes, substituted by ``dpttrs`` as in ``solve``; on
        rectangles ``1 / (eig - nu)`` replaces the inverse eigenvalues of
        ``solve``.  Its solves are not Poisson solves and do not go through
        ``solve``.
        """
        if not self._tridiagonal:
            if not nu < self._modes[2][0, 0]:
                return None
            inv_eig = 1.0 / (self._modes[2] - nu)
            return lambda rhs: self._modal_solve(rhs, inv_eig)
        try:
            d, e = self._ldl_factors(self._diag - nu * self._weights)
        except LinAlgError:
            return None
        return lambda rhs: dpttrs(d, e, self._weights * rhs, overwrite_b=True)[0]

    def solve_coupled(
        self, c12: np.ndarray, c21: np.ndarray, r1: np.ndarray, r2: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Solve ``K d1 - c12 d2 = r1``, ``K d2 - c21 d1 = r2`` (tridiagonal K).

        ``c12`` and ``c21`` are node-wise couplings in the weighted form.  The
        unknowns are ``s = (d1 + d2) / 2`` and ``t = (d1 - d2) / 2``,
        interleaved as ``(s_i, t_i)``, which gives a bandwidth-2 system with
        diagonal blocks ``K - p`` and ``K + p`` (``p = (c12 + c21) / 2``) and
        coupling ``+-q`` (``q = (c12 - c21) / 2``).  With ``c12 == c21`` and
        ``r1 == r2`` the ``t`` rows decouple exactly, so ``t == 0`` and the
        two returned fields are bit-for-bit equal.
        """
        if not self._tridiagonal:
            raise NumericsError("coupled banded solve needs a tridiagonal K")
        off2 = np.repeat(self._off, 2)
        p = 0.5 * (c12 + c21)
        q = 0.5 * (c12 - c21)
        # LAPACK band storage a[i, j] -> ab[4 + i - j, j]; rows 0-1 hold fill-in
        ab = np.zeros((7, 2 * self.size))
        ab[2, 2:] = off2               # s_i <- s_{i+1}, t_i <- t_{i+1}
        ab[3, 1::2] = q                # s_i <- t_i
        ab[4, 0::2] = self._diag - p   # s_i <- s_i
        ab[4, 1::2] = self._diag + p   # t_i <- t_i
        ab[5, 0::2] = -q               # t_i <- s_i
        ab[6, :-2] = off2              # s_i <- s_{i-1}, t_i <- t_{i-1}
        rhs = np.empty(2 * self.size)
        rhs[0::2] = 0.5 * (r1 + r2)
        rhs[1::2] = 0.5 * (r1 - r2)
        *_, st, info = dgbsv(2, 2, ab, rhs, overwrite_ab=True, overwrite_b=True)
        if info != 0:
            raise NumericsError(f"coupled linearized system singular (info={info})")
        s, t = st[0::2], st[1::2]
        return s + t, s - t

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_ldl"] = None
        return state


@dataclass
class Mesh:
    """Discretized domain with quadrature and the Dirichlet Laplacian.

    Fields are 1D arrays over interior nodes.  For radial meshes node i sits
    at radius ``radii[i]``; for rectangles node (ix, iy) is flattened to
    index ``ix * ny + iy`` at the cell center ``(xs[ix], ys[iy])``.
    """

    kind: str
    weights: np.ndarray
    volume: float
    operator: DirichletLaplacian
    dimension: int
    # radial fields
    radius: float | None = None
    radii: np.ndarray | None = None
    spacing: float | None = None
    # rectangle fields
    lx: float | None = None
    ly: float | None = None
    nx: int | None = None
    ny: int | None = None
    hx: float | None = None
    hy: float | None = None
    xs: np.ndarray | None = field(default=None, repr=False)
    ys: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.weights.size

    @property
    def equal_measure_radius(self) -> float:
        """Radius of the ball of this mesh's dimension and measure."""
        dim = self.dimension
        return (self.volume / unit_ball_volume(dim)) ** (1.0 / dim)

    def coordinate_columns(self) -> dict[str, np.ndarray]:
        """Node coordinates by name: ``r`` for radial meshes, ``x, y`` for
        rectangles (cell centers)."""
        if self.kind == RADIAL:
            return {"r": self.radii}
        gx, gy = np.meshgrid(self.xs, self.ys, indexing="ij")
        return {"x": gx.ravel(), "y": gy.ravel()}

    def fingerprint(self) -> str:
        if self.kind == RADIAL:
            tag = f"radial:N={self.dimension}:R={self.radius!r}:n={self.n_nodes}"
        else:
            tag = f"rect:{self.lx!r}x{self.ly!r}:{self.nx}x{self.ny}"
        return fingerprint(tag)


def build_radial(dimension: int, radius: float, nodes: int) -> Mesh:
    """Uniform radial mesh on the ball of the given radius.

    Node i sits at ``r_i = i * h`` with ``h = 2R / (2n - 1)``, so the origin
    is a node and the last quadrature cell ends exactly on the boundary.
    The operator rows are finite-volume fluxes; at the origin the row
    reduces to the regularity limit ``-N u''(0)`` and at the last node the
    boundary flux spans the half cell.

    Parameters
    ----------
    dimension : int
        Space dimension N >= 1 of the ball.
    radius : float
        Ball radius R > 0.
    nodes : int
        Number of interior nodes, >= 16.
    """
    problems = []
    if not (isinstance(dimension, (int, np.integer)) and dimension >= 1):
        problems.append(f"dimension must be an integer >= 1, got {dimension!r}")
    if not (isinstance(radius, (int, float)) and radius > 0):
        problems.append(f"radius must be positive, got {radius!r}")
    if not (isinstance(nodes, (int, np.integer)) and nodes >= 16):
        problems.append(f"nodes must be an integer >= 16, got {nodes!r}")
    if problems:
        raise ConfigurationError("; ".join(problems))

    n = int(nodes)
    N = int(dimension)
    R = float(radius)
    h = 2.0 * R / (2 * n - 1)
    r = h * np.arange(n)

    omega = unit_ball_volume(N)
    # cell edges: 0, h/2, 3h/2, ..., R  (last cell is the boundary half cell)
    edges = np.empty(n + 1)
    edges[0] = 0.0
    edges[1:] = (np.arange(1, n + 1) - 0.5) * h
    edges[n] = R
    w = omega * (edges[1:] ** N - edges[:-1] ** N)

    area = N * omega  # sphere area at rho is area * rho^(N-1)
    s_int = area * edges[1:n] ** (N - 1)   # interfaces between nodes i, i+1
    s_bdy = area * R ** (N - 1)

    diag = np.zeros(n)
    diag[: n - 1] += s_int / h
    diag[1:] += s_int / h
    diag[n - 1] += s_bdy / (h / 2.0)
    off = -s_int / h
    sym = sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csr")

    op = DirichletLaplacian(sym, w)
    mesh = Mesh(
        kind=RADIAL,
        weights=w,
        volume=omega * R ** N,
        operator=op,
        dimension=N,
        radius=R,
        radii=r,
        spacing=h,
    )
    w.flags.writeable = False
    r.flags.writeable = False
    return mesh


def sine_modes(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors (columns) and eigenvalues of the 1-D operator
    ``tridiag(-1, 2, -1) / h^2`` with half-cell Dirichlet closure (diagonal 3
    at both ends) on ``n`` cells.

    Mode k = 1..n is ``sin(pi k (i + 1/2) / n)`` with eigenvalue
    ``(2 - 2 cos(pi k / n)) / h^2``, evaluated as ``4 sin^2(pi k / 2n) / h^2``
    to avoid cancellation at small k.  Columns are normalized numerically,
    since mode n (the alternating vector) has twice the squared norm of the
    others.
    """
    k = np.arange(1, n + 1)
    q = np.sin(np.pi * np.outer(np.arange(n) + 0.5, k) / n)
    q /= np.linalg.norm(q, axis=0)
    return q, (2.0 * np.sin(0.5 * np.pi * k / n) / h) ** 2


def build_rect(lx: float, ly: float, nx: int, ny: int) -> Mesh:
    """Cell-centered grid on the rectangle (0, lx) x (0, ly).

    5-point Laplacian; Dirichlet walls enter through half-cell fluxes, which
    keeps the assembled matrix exactly symmetric with the uniform cell-area
    quadrature.  The operator is the Kronecker sum of two 1-D operators, and
    their sine modes (``sine_modes``) are computed here once for its fast
    diagonalization solve.
    """
    problems = []
    if not (isinstance(lx, (int, float)) and lx > 0):
        problems.append(f"lx must be positive, got {lx!r}")
    if not (isinstance(ly, (int, float)) and ly > 0):
        problems.append(f"ly must be positive, got {ly!r}")
    if not (isinstance(nx, (int, np.integer)) and nx >= 16):
        problems.append(f"nx must be an integer >= 16, got {nx!r}")
    if not (isinstance(ny, (int, np.integer)) and ny >= 16):
        problems.append(f"ny must be an integer >= 16, got {ny!r}")
    if problems:
        raise ConfigurationError("; ".join(problems))

    nx, ny = int(nx), int(ny)
    lx, ly = float(lx), float(ly)
    hx, hy = lx / nx, ly / ny
    xs = (np.arange(nx) + 0.5) * hx
    ys = (np.arange(ny) + 0.5) * hy

    def line(n: int, h: float) -> sp.csr_matrix:
        d = np.full(n, 2.0)
        d[0] = d[-1] = 3.0  # half-cell Dirichlet closure
        return sp.diags([-np.ones(n - 1), d, -np.ones(n - 1)], [-1, 0, 1]) / h**2

    a = sp.kronsum(line(ny, hy), line(nx, hx), format="csr")  # index ix*ny + iy
    w = np.full(nx * ny, hx * hy)
    sym = (a * (hx * hy)).tocsr()

    qx, eig_x = sine_modes(nx, hx)
    qy, eig_y = sine_modes(ny, hy)
    eig = eig_x[:, None] + eig_y[None, :]

    op = DirichletLaplacian(sym, w, modes=(qx, qy, eig))
    mesh = Mesh(
        kind=RECT,
        weights=w,
        volume=lx * ly,
        operator=op,
        dimension=2,
        lx=lx,
        ly=ly,
        nx=nx,
        ny=ny,
        hx=hx,
        hy=hy,
        xs=xs,
        ys=ys,
    )
    for arr in (w, xs, ys, qx, qy, eig):
        arr.flags.writeable = False
    return mesh


def integrate(mesh: Mesh, values: np.ndarray) -> float:
    """Quadrature sum over interior nodes."""
    return float(np.dot(mesh.weights, values))


def solve_poisson(op: DirichletLaplacian, rhs: np.ndarray) -> np.ndarray:
    """Solve -Laplace u = rhs with zero boundary values.

    Raises NumericsError if the algebraic residual exceeds the backward-error
    contract ``1e-10 * (||A||_inf ||u||_inf + ||rhs||_inf)`` (sup-norms),
    which would indicate an assembly bug.  The scale matters: fine radial
    meshes have ``||A||`` near 1e8, so an absolute bound fails on rounding.
    """
    rhs = np.asarray(rhs, dtype=float)
    if not np.all(np.isfinite(rhs)):
        raise NumericsError("right-hand side contains non-finite entries")
    u = op.solve(rhs)
    res = np.max(np.abs(op.apply(u) - rhs), initial=0.0)
    scale = abs(op.matrix).sum(axis=1).max() * np.max(np.abs(u), initial=0.0)
    if not res <= _POISSON_RTOL * (scale + np.max(np.abs(rhs), initial=0.0)):
        raise NumericsError(f"Poisson solve residual {res:.3e} out of contract")
    return u


@dataclass(frozen=True)
class EigenPair:
    """Principal Dirichlet eigenvalue and positive eigenfunction (sup = 1)."""

    value: float
    vector: np.ndarray
    iterations: int


def principal_eigenpair(op: DirichletLaplacian, mesh: Mesh) -> EigenPair:
    """Smallest eigenvalue of -Laplace via inverse power iteration.

    The iteration is deterministic (all-ones start).  The returned
    eigenfunction is strictly positive in the interior and normalized to
    sup = 1; the sup-norm residual satisfies
    ``||A psi - mu1 psi||_inf <= 1e-8 * mu1``.
    """
    w = mesh.weights
    x = np.ones(op.size)
    mu = 0.0
    for it in range(1, _EIG_MAX_ITER + 1):
        y = op.solve(x)
        y /= y.max()
        mu_new = float((y @ (op.symmetric_form @ y)) / (w @ (y * y)))
        x = y
        if abs(mu_new - mu) <= 1e-12 * abs(mu_new):
            res = np.max(np.abs(op.apply(x) - mu_new * x))
            if res <= _EIG_RESIDUAL_RTOL * mu_new:
                mu = mu_new
                break
        mu = mu_new
    else:
        raise ConvergenceError("principal eigenpair iteration stagnated")
    if not np.all(x > 0):
        raise NumericsError("principal eigenfunction not positive in the interior")
    x = x / x.max()
    x.flags.writeable = False
    return EigenPair(value=mu, vector=x, iterations=it)
