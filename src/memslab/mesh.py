"""Discrete domains and the Dirichlet Laplacian on them.

Two mesh kinds are supported: radial meshes on the N-ball (fields depend on
|x| only) and cell-centered Cartesian grids on a rectangle.  Both carry
quadrature weights whose sum reproduces the domain measure exactly, and a
finite-volume discretization of -Laplace with homogeneous Dirichlet data
eliminated.  The finite-volume form keeps the operator an M-matrix (discrete
maximum principle) in every dimension and makes it symmetric in the
quadrature inner product.

A Poisson solve is a flux balance on radial meshes, two running sums and a
scaling with no factorization, and a fast diagonalization on rectangles:
the operator there is the Kronecker sum of two 1-D operators whose
eigenvectors are closed-form sine modes, so a solve is four dense matrix
products with the mode matrices (Lynch, Rice & Thomas, Numer. Math. 6,
1964).  Both are ``DirichletLaplacian.shifted_solver``, the
one solver that dispatches on mesh kind; ``principal_eigenpair``, the one
Dirichlet eigen routine, is the other dispatch: closed forms on rectangles,
inverse iteration with the cached solver on radial meshes.  The operator is
stored as numpy bands and applied with array slices, so Poisson solves,
eigenpairs and Newton steps import no scipy on either kind.  Only shifted
radial solves (nu != 0, used by ``stability``) need LAPACK: an LDL^T
substitution (``dpttrs``) with the factors of a banded Cholesky
factorization, both imported on first use.  Solves and ``apply`` also take
a ``(2, n)`` stack of two fields, each row bit for bit as a single field;
a radial solve runs a stack's two fields as one complex running sum.  The
coupled linearized solve of the Newton finish is conjugate gradients
(Hestenes & Stiefel, J. Res. NBS 49, 1952) on two-field solves, on either
kind: a median of 5-8 steps per coupled solve on radial meshes and about 9
on rectangles.

The hot loop of the minimal-solution iteration allocates little: ``solve``
and ``apply`` write into a caller's ``out=`` array, and the CG vectors of
``solve_coupled`` live in one workspace cached on the operator.  A burst of
64 KB temporaries freed at the top of the heap makes glibc give its pages
back, and the next burst faults them in again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import LinAlgError   # the class scipy.linalg raises

from .artifacts import fingerprint
from .exceptions import ConfigurationError, ConvergenceError, IndefiniteError, NumericsError

_POISSON_RTOL = 1e-10       # linear-solve backward-error contract, sup-norm
_EIG_RESIDUAL_RTOL = 1e-8   # sup-norm eigen residual contract relative to mu1 ...
_EIG_ROUNDING = 8           # ... plus this many eps * ||A||_inf
_EIG_RTOL = 1e-13           # relative width of the mu1 enclosure that ends it
_EIG_MAX_ITER = 10_000
_CG_RTOL = 1e-12            # coupled CG residual target, relative, in the w-norm
_CG_MAX_ITER = 200          # CG steps per coupled solve


# perfbench/tracer.py LAYERS wraps this module attribute as mesh.factorize;
# the shifted radial factorization calls it through the module.  scipy is
# imported on the first call.
def cholesky_banded(ab: np.ndarray, lower: bool = False) -> np.ndarray:
    from scipy.linalg import cholesky_banded as factor
    return factor(ab, lower=lower)


# unused: perfbench/tracer.py LAYERS wraps this module attribute as
# mesh.factorize, and --trace 1 fails without it
def splu(a, **options):
    from scipy.sparse.linalg import splu as factor
    return factor(a, **options)


def _scaled(n: int, scale: float) -> int:
    """Node count n at resolution ``scale``, at least the mesh minimum 16."""
    return max(16, int(round(n * scale)))


def unit_ball_volume(dimension: int) -> float:
    """Volume of the unit ball in R^dimension."""
    return math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0 + 1.0)


class DirichletLaplacian:
    """Negative Laplacian with the homogeneous Dirichlet boundary eliminated.

    Internally stored through its symmetric form ``K = W @ A`` where ``W`` is
    the diagonal of quadrature weights: ``K`` is symmetric positive definite
    and tridiagonal (radial) or 5-point (rectangle).  ``K`` is kept as numpy
    bands: the diagonal and ``(offset, values)`` pairs for the symmetric
    off-diagonals, offset 1 on radial meshes and offsets 1 and ny on
    rectangles (zero across row ends).  The action of the operator itself is
    ``A u = (K u) / w``.

    ``shifted_solver`` is the one place that solves with the operator, and
    ``solve`` is its unshifted solver, cached on first use.  The kind comes
    from construction: without ``modes`` (radial meshes) ``K`` must be a
    tridiagonal flux balance, ``K u = w * rhs`` row by row reading
    ``c_i (u_i - u_{i+1}) - c_{i-1} (u_{i-1} - u_i) = w_i rhs_i`` with
    conductances ``c_i = -off_i > 0``, ``c_{n-1} = diag_{n-1} + off_{n-2}``
    to the boundary, ``c_{-1} = 0`` and ``u_n = 0``.  It is solved by two
    running sums at ``nu = 0`` and by LDL^T substitution (``dpttrs``) with
    factors converted from a banded Cholesky factor otherwise.
    Otherwise ``modes = (qx, qy, eig)`` must diagonalize ``A`` on an
    ``nx x ny`` grid: ``A = Qx Lx Qx^T (+) Qy Ly Qy^T`` with orthonormal
    ``qx``, ``qy`` and ``eig[kx, ky] = Lx[kx] + Ly[ky]``, so
    ``A^-1 r = Qx ((Qx^T R Qy) / eig) Qy^T`` with ``R`` the right-hand side
    reshaped to ``(nx, ny)``.
    ``solve_coupled`` solves the two-field linearized systems of the
    minimal-solution iteration by conjugate gradients on two-field solves,
    the same way on either kind.  Its vectors live in ``_work``, a workspace
    cached on the operator beside ``_solver`` and ``_eigenpair``; so an
    operator is not safe to use from two threads at once.
    """

    def __init__(self, diag: np.ndarray, bands, weights: np.ndarray, modes=None):
        self._diag = diag
        self._bands = bands       # ((offset, values), ...), offsets ascending
        self._weights = weights
        self._modes = modes       # (qx, qy, eig), rectangle case
        # qx^T and qy^T, C-contiguous: OpenBLAS's plain path multiplies
        # by them faster than by the transposed views
        self._qx_t = None if modes is None else np.ascontiguousarray(modes[0].T)
        self._qy_t = None if modes is None else np.ascontiguousarray(modes[1].T)
        self._solver = None       # shifted_solver(0.0), built on first use
        self._eigenpair = None    # principal_eigenpair, computed on first use
        self._work = None         # solve_coupled's (7, 2, n) workspace

    @property
    def size(self) -> int:
        return self._diag.size

    @property
    def norm_inf(self) -> float:
        """||A||_inf, the largest absolute row sum of A."""
        rows = np.abs(self._diag)
        for k, c in self._bands:
            rows[:-k] += np.abs(c)
            rows[k:] += np.abs(c)
        return float(np.max(rows / self._weights))

    def _apply_k(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """K u, written into ``out`` (not u) if given; each row sums its terms
        in ascending column order, as a CSR product would."""
        out = np.empty(np.shape(u)) if out is None else out
        out.fill(0.0)
        term = np.empty_like(out)
        for k, c in reversed(self._bands):
            out[..., k:] += np.multiply(c, u[..., :-k], out=term[..., k:])
        out += np.multiply(self._diag, u, out=term)
        for k, c in self._bands:
            out[..., :-k] += np.multiply(c, u[..., k:], out=term[..., :-k])
        return out

    def apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A u, written into ``out`` (not u) if given; u may be a ``(2, n)``
        stack."""
        out = self._apply_k(u, out)
        return np.divide(out, self._weights, out=out)

    def dirichlet_energy(self, phi: np.ndarray) -> float:
        """Discrete integral of |grad phi|^2 via summation by parts."""
        return float(phi @ self._apply_k(phi))

    def _ldl_factors(self, diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(d, e)`` with ``tridiag(off, diag, off) = L D L^T`` for ``dpttrs``.

        Raises LinAlgError when the matrix is not positive definite.  The
        upper bidiagonal Cholesky factor U gives ``D = diag(U_ii^2)`` and the
        unit lower bidiagonal ``L = U^T D^-1/2`` with subdiagonal
        ``e_i = U_{i,i+1} / U_ii``.  Only shifted solves (nu != 0) factorize;
        doing it through ``cholesky_banded`` (not ``dpttrf``) keeps the one
        call that perfbench times as ``mesh.factorize``.
        """
        (_, off), = self._bands
        ab = np.zeros((2, self.size))
        ab[1] = diag
        ab[0, 1:] = off
        u = cholesky_banded(ab, lower=False)
        return u[1] ** 2, u[0, 1:] / u[1, :-1]

    def solve(self, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Solve A u = rhs (K u = w * rhs); rhs may be a ``(2, n)`` stack.

        With ``out`` (a C-contiguous array of rhs's shape, possibly rhs
        itself) the solution is written there and ``out`` is returned, bit
        for bit the array a call without it returns."""
        if self._solver is None:
            self._solver = self.shifted_solver(0.0)
        return self._solver(rhs, out)

    def shifted_solver(self, nu: float):
        """Solver ``rhs -> (A - nu)^-1 rhs``, or None when A - nu is not
        positive definite (nu at or above mu1, to rounding).

        On rectangles the inverse eigenvalues ``1 / (eig - nu)`` of the modal
        solve; a right-hand side large enough for a partial sum of its mode
        products to overflow is solved divided by a power of two and the
        solution multiplied back, which is exact.  On radial meshes at
        ``nu = 0`` the flux balance: summing rows
        0..i of ``K u = w * rhs`` leaves ``c_i (u_i - u_{i+1})`` equal to the
        running sum of ``w * rhs``, so u is the running sum from the boundary
        of those sums divided by c.  The sums run in a buffer the solver
        owns, so rhs stays intact, and the two fields of a ``(2, n)`` stack
        run as the real and imaginary parts of one complex sum: two scans in
        one loop, as a complex add is two float adds.  A partial sum that
        overflows ends in the centre value as inf or NaN; where that happens
        on finite data, rhs is solved divided by a power of two and the
        solution multiplied back, as on rectangles.  At ``nu != 0`` one
        factorization, the LDL^T factors of ``K - nu W``, substituted by
        ``dpttrs``.  Each row of a ``(2, n)`` or ``(2, nx, ny)`` stack comes
        out bit for bit as its single solve, and, as with ``dpttrs``, a
        solution that overflows gives +-inf with no warning.  ``solve``
        caches the solver at ``nu = 0``; it holds only its
        arrays, not the operator nor itself (no recursion), so neither the
        cache nor the solver at each shift of ``stability`` makes a
        reference cycle that would keep its arrays until a collection.  The
        solvers without LAPACK (rectangles, and radial meshes at ``nu = 0``)
        take the optional ``out`` of ``solve``.
        """
        if self._modes is not None:
            qx, qy, eig = self._modes
            qx_t, qy_t = self._qx_t, self._qy_t
            if not nu < eig[0, 0]:
                return None
            inv_eig = 1.0 / (eig - nu)
            # the mode matrices are orthonormal, so each product grows a sup
            # norm at most by the square root of its side: no partial sum
            # below exceeds nx ny max(1, max inv_eig) max|rhs|, which stays
            # under half the largest float while max|rhs| <= safe
            bound = np.finfo(float).max / (eig.size * max(1.0, inv_eig.max()))
            safe = 2.0 ** (math.frexp(bound)[1] - 2)

            def modal(rhs, out=None):
                top = max(rhs.max(), -rhs.min())
                scaled = safe < top < math.inf   # NaN is not
                if scaled:   # solve rhs / 2^e, then multiply back: exact
                    scale = 2.0 ** math.frexp(top / safe)[1]
                    rhs = rhs / scale
                r = rhs.reshape(rhs.shape[:-1] + inv_eig.shape)
                u = np.matmul(qx_t, r)
                # a right-hand product is one GEMM over every row of the
                # stack; flat is a view of u, so it sees the qx product too
                flat = u.reshape(-1, qy.shape[0])
                m = (flat @ qy).reshape(u.shape)
                m *= inv_eig
                np.matmul(qx, m, out=u)
                if out is None:
                    out = (flat @ qy_t).reshape(rhs.shape)
                else:
                    np.matmul(flat, qy_t, out=out.reshape(flat.shape))
                if scaled:   # an overflow of the solution gives +-inf, quietly
                    with np.errstate(over="ignore"):
                        out *= scale
                return out

            return modal
        w = self._weights
        if nu == 0.0:
            (_, off), = self._bands
            inv_c = 1.0 / np.append(-off, self._diag[-1] + off[-1])
            n = inv_c.size
            # no partial sum of the scans exceeds n max(1, max inv_c)
            # max(1, sum w) max|rhs|, under half the largest float while
            # max|rhs| <= safe
            bound = np.finfo(float).max / (n * max(1.0, inv_c.max()) * max(1.0, w.sum()))
            safe = 2.0 ** (math.frexp(bound)[1] - 2)
            buf = np.empty(2 * n)      # the scans run here, so rhs stays intact
            pair = buf.view(complex)   # a stack's fields as real and imaginary parts
            inv_c_pair = np.repeat(inv_c, 2)   # inv_c for the float view of pair

            def scans(rhs):
                """The flux balance of rhs, solved in buf, and its centre
                values."""
                # each step is nondecreasing in its inputs (the solver notes'
                # order proof), and a complex add is two float adds
                if rhs.ndim == 1:
                    q = np.multiply(w, rhs, out=buf[:n])
                    np.add.accumulate(q, out=q)
                    q *= inv_c
                    tail = q[::-1]
                    np.add.accumulate(tail, out=tail)
                    return q, q[:1]
                first, second = rhs
                np.multiply(w, first, out=pair.real)
                np.multiply(w, second, out=pair.imag)
                np.add.accumulate(pair, out=pair)
                np.multiply(buf, inv_c_pair, out=buf)
                tail = pair[::-1]
                np.add.accumulate(tail, out=tail)
                return buf.reshape(n, 2).T, buf[:2]

            def flux(rhs, out=None):
                with np.errstate(over="ignore", invalid="ignore"):
                    u, centre = scans(rhs)
                    # an overflowed partial sum ends in the centre value as
                    # inf or NaN; callers read a solution's +inf as a touch
                    scale = None
                    if not all(map(math.isfinite, centre.tolist())):
                        top = max(rhs.max(), -rhs.min())
                        if safe < top < math.inf:   # NaN is not
                            scale = 2.0 ** math.frexp(top / safe)[1]
                            u, _ = scans(rhs / scale)
                    out = np.empty(rhs.shape) if out is None else out
                    np.copyto(out, u)
                    if scale is not None:   # multiply back: exact
                        out *= scale
                return out

            return flux
        try:
            d, e = self._ldl_factors(self._diag - nu * self._weights)
        except LinAlgError:
            return None
        from scipy.linalg.lapack import dpttrs
        # callers reject non-finite data; dpttrs makes no finiteness scan
        return lambda rhs: dpttrs(d, e, (w * rhs).T, overwrite_b=True)[0].T

    def solve_coupled(self, a: np.ndarray, r: np.ndarray) -> np.ndarray:
        """Solve ``A d1 - a12 d2 = r1``, ``A d2 - a21 d1 = r2`` by conjugate
        gradients on two-field solves.

        ``a = (a12, a21)`` are nonnegative node-wise couplings and
        ``r = (r1, r2)`` the right-hand sides, both ``(2, n)`` stacks, and so
        is the returned ``d = (d1, d2)``.  With ``S = A^-1`` the system reads
        ``d1 = g1 + S a12 d2``, ``d2 = g2 + S a21 d1`` with ``g = S r``.  In
        ``z = (sqrt(a21) d1, sqrt(a12) d2)`` it becomes
        ``(I - [[0, G], [G^T, 0]]) z = (sqrt(a21) g1, sqrt(a12) g2)`` with
        ``G = sqrt(a21) S sqrt(a12)``, self-adjoint in the w-product with
        eigenvalues ``1 +- sigma``; ``sigma_max^2`` is the spectral radius of
        ``S a12 S a21``, so the operator is positive definite exactly when the
        coupled Jacobian is a nonsingular M-matrix.  NumericsError means no
        solution was certified: IndefiniteError for a step of curvature <= 0
        (``rho(S a12 S a21) >= 1`` up to rounding), NumericsError itself for
        a tolerance missed within the step budget.  Each step makes one
        two-field solve; with equal rows in ``a`` and in ``r`` both rows see
        identical data, so ``d1`` and ``d2`` are bit-for-bit equal.

        The vectors ``s, g, z, res, p, q`` and a scratch ``t`` are the rows
        of ``_work``, one ``(7, 2, n)`` array allocated on the first call
        and again only when the shape of ``r`` changes.  Every call starts
        them afresh, also after a call that raised, and each update is an
        in-place ufunc that rounds as the plain expression does
        (``p *= beta; p += res`` for ``res + beta * p``).  The workspace is
        per operator and not reentrant; no memslab code calls this from two
        threads.  The returned ``d`` is a fresh array, never a view of it.
        """
        w = self._weights
        if self._work is None or self._work.shape[1:] != r.shape:
            self._work = np.empty((7,) + r.shape)
        s, g, z, res, p, q, t = self._work   # t: scratch
        np.sqrt(a, out=s)                    # (sqrt a12, sqrt a21)
        self.solve(r, out=g)
        z.fill(0.0)
        np.multiply(s[::-1], g, out=res)
        p[...] = res
        rr = (np.multiply(res, res, out=t) @ w).sum()
        target = _CG_RTOL * _CG_RTOL * rr
        steps = 0
        while not rr <= target:
            if steps == _CG_MAX_ITER:
                raise NumericsError("coupled conjugate gradients missed the tolerance")
            steps += 1
            self.solve(np.multiply(s, p[::-1], out=t), out=t)
            np.subtract(p, np.multiply(s[::-1], t, out=t), out=q)
            curvature = (np.multiply(p, q, out=t) @ w).sum()
            if not curvature > 0:
                raise IndefiniteError("coupled linearized system not positive definite")
            alpha = rr / curvature
            z += np.multiply(alpha, p, out=t)
            res -= np.multiply(alpha, q, out=t)
            rr, rr_old = (np.multiply(res, res, out=t) @ w).sum(), rr
            p *= rr / rr_old
            p += res
        d = self.solve(np.multiply(s, z[::-1], out=t))
        d += g
        return d


@dataclass
class Mesh:
    """Discretized domain with quadrature and the Dirichlet Laplacian.

    Fields are 1D arrays over interior nodes.  ``coordinates`` holds the
    read-only node coordinate columns by name: ``r`` on radial meshes, where
    node i sits at radius ``radii[i]`` in the cell from ``edges[i]`` to
    ``edges[i + 1]`` (the one copy of the cell edges), and ``x, y`` at the
    cell centres on rectangles, node (ix, iy) flattened to index
    ``ix * ny + iy``.  ``label`` names the domain and its resolution, and
    its digest is the mesh fingerprint.  ``radius``, ``radii`` and ``edges``
    are None on rectangles.
    """

    weights: np.ndarray
    volume: float
    operator: DirichletLaplacian
    dimension: int
    coordinates: dict[str, np.ndarray] = field(repr=False)
    label: str
    radius: float | None = None
    radii: np.ndarray | None = None
    edges: np.ndarray | None = None

    @property
    def n_nodes(self) -> int:
        return self.weights.size

    @property
    def equal_measure_radius(self) -> float:
        """Radius of the ball of this mesh's dimension and measure."""
        dim = self.dimension
        return (self.volume / unit_ball_volume(dim)) ** (1.0 / dim)

    def fingerprint(self) -> str:
        return fingerprint(self.label)


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

    op = DirichletLaplacian(diag, ((1, off),), w)
    for arr in (w, r, edges):
        arr.flags.writeable = False
    return Mesh(
        weights=w,
        volume=omega * R ** N,
        operator=op,
        dimension=N,
        coordinates={"r": r},
        label=f"radial:N={N}:R={R!r}:n={n}",
        radius=R,
        radii=r,
        edges=edges,
    )


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
    gx, gy = np.meshgrid((np.arange(nx) + 0.5) * hx, (np.arange(ny) + 0.5) * hy,
                         indexing="ij")
    x, y = gx.ravel(), gy.ravel()   # cell centres, node ix*ny + iy

    def line(n: int, h: float) -> tuple[np.ndarray, float]:
        """Diagonal and off-diagonal of the 1-D operator, times 1/h^2 (not
        divided by h^2: the tests' scipy.sparse oracle rounds that way)."""
        d = np.full(n, 2.0)
        d[0] = d[-1] = 3.0  # half-cell Dirichlet closure
        scale = 1.0 / h**2
        return d * scale, -scale

    # K = hx hy (Lx (+) Ly), node ix*ny + iy: y neighbours at offset 1 (none
    # across row ends), x neighbours at offset ny
    area = hx * hy
    (dx, cx), (dy, cy) = line(nx, hx), line(ny, hy)
    diag = ((dx[:, None] + dy[None, :]) * area).ravel()
    y_band = np.full((nx, ny), cy * area)
    y_band[:, -1] = 0.0
    y_band = y_band.ravel()[:-1]
    x_band = np.full(nx * ny - ny, cx * area)
    w = np.full(nx * ny, area)

    qx, eig_x = sine_modes(nx, hx)
    qy, eig_y = sine_modes(ny, hy)
    eig = eig_x[:, None] + eig_y[None, :]

    op = DirichletLaplacian(diag, ((1, y_band), (ny, x_band)), w, modes=(qx, qy, eig))
    for arr in (w, x, y, qx, qy, eig):
        arr.flags.writeable = False
    return Mesh(
        weights=w,
        volume=lx * ly,
        operator=op,
        dimension=2,
        coordinates={"x": x, "y": y},
        label=f"rect:{lx!r}x{ly!r}:{nx}x{ny}",
    )


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
    scale = op.norm_inf * np.max(np.abs(u), initial=0.0)
    if not res <= _POISSON_RTOL * (scale + np.max(np.abs(rhs), initial=0.0)):
        raise NumericsError(f"Poisson solve residual {res:.3e} out of contract")
    return u


@dataclass(frozen=True)
class EigenPair:
    """Principal Dirichlet eigenvalue and positive eigenfunction (sup = 1);
    ``iterations`` counts the solves that made it, 0 for a closed form."""

    value: float
    vector: np.ndarray
    iterations: int


def principal_eigenpair(op: DirichletLaplacian) -> EigenPair:
    """Principal Dirichlet eigenpair: mu1 and the positive eigenfunction psi,
    normalized to sup = 1; computed once per operator and cached on it.

    On rectangles both are closed forms: ``eig[0, 0]`` and the product of
    the first sine modes, with ``iterations = 0``.  On radial meshes they
    come from inverse iteration with the cached solver ``op.solve`` from the
    all-ones start.  Since A^-1 is positive, each step ``y = A^-1 x`` with
    ``x > 0`` encloses mu1 in ``[min x/y, max x/y]`` (Collatz-Wielandt); the
    iteration stops once that interval's relative width is at most 1e-13
    and returns its upper end as mu1 and ``y / max y`` as psi.  The
    enclosure is of the rounded solves, so mu1 is not a certified upper
    bound: against a long-double enclosure around the same psi it lies
    within about 1e-11 relative of the true value, on either side
    (5.4e-12 below on the 16384-node disk, 7e-13 above on the 4096-node
    one).  The residual meets
    ``||A psi - mu1 psi||_inf <= 1e-8 mu1 + 8 eps ||A||_inf``, the
    backward-error scale of ``solve_poisson``.
    """
    if op._eigenpair is not None:
        return op._eigenpair
    if op._modes is None:
        x = np.ones(op.size)
        for it in range(1, _EIG_MAX_ITER + 1):
            y = op.solve(x)
            ratio = x / y
            mu1 = float(ratio.max())
            if mu1 - ratio.min() <= _EIG_RTOL * mu1:
                break
            x = y / y.max()
        else:
            raise ConvergenceError("inverse iteration for the Dirichlet eigenpair stalled")
    else:
        qx, qy, eig = op._modes
        mu1, it = float(eig[0, 0]), 0
        y = np.outer(qx[:, 0], qy[:, 0]).ravel()
    y /= y.max()
    if not np.all(y > 0):
        raise NumericsError("principal eigenfunction not positive in the interior")
    res = np.max(np.abs(op.apply(y) - mu1 * y))
    eps = np.finfo(float).eps
    if not res <= _EIG_RESIDUAL_RTOL * mu1 + _EIG_ROUNDING * eps * op.norm_inf:
        raise NumericsError(f"Dirichlet eigen residual {res:.3e} out of contract")
    y.flags.writeable = False
    op._eigenpair = EigenPair(value=mu1, vector=y, iterations=it)
    return op._eigenpair
