import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve
from scipy.special import jn_zeros

from memslab import (
    ConfigurationError,
    build_radial,
    build_rect,
    integrate,
    principal_eigenpair,
    solve_poisson,
    unit_ball_volume,
)
from memslab import mesh as mesh_module
from memslab.exceptions import IndefiniteError, NumericsError
from memslab.mesh import sine_modes

from conftest import oracle_matrix, oracle_symmetric_form, rect_grid


class TestQuadrature:
    @pytest.mark.parametrize(
        "dim,radius,nodes,volume",
        [
            (1, 1.0, 64, 2.0),
            (2, 1.0, 256, math.pi),
            (3, 1.5, 128, 4.0 / 3.0 * math.pi * 1.5**3),
            (8, 1.0, 512, math.pi**4 / 24.0),  # closed-form 8-ball volume
        ],
    )
    def test_weights_sum_to_volume(self, dim, radius, nodes, volume):
        mesh = build_radial(dim, radius, nodes)
        assert mesh.weights.sum() == pytest.approx(volume, rel=1e-10)
        assert mesh.volume == pytest.approx(volume, rel=1e-12)

    @pytest.mark.parametrize("lx,ly,nx,ny", [(1.0, 1.0, 64, 64), (2.0, 1.0, 128, 64)])
    def test_rect_weights(self, lx, ly, nx, ny):
        mesh = build_rect(lx, ly, nx, ny)
        assert mesh.weights.sum() == pytest.approx(lx * ly, rel=1e-10)

    def test_radii_strictly_increasing(self):
        mesh = build_radial(3, 2.0, 64)
        assert np.all(np.diff(mesh.radii) > 0)
        assert mesh.radii[0] == 0.0
        assert mesh.radii[-1] < mesh.radius

    def test_radial_cell_edges(self):
        # the one copy of the cells that symmetrize reads: the weights are
        # their shell measures, bit for bit, and nothing can move them
        mesh = build_radial(3, 2.0, 64)
        edges = mesh.edges
        assert edges[0] == 0.0 and edges[-1] == mesh.radius
        assert np.all(edges[:-1] <= mesh.radii) and np.all(mesh.radii < edges[1:])
        np.testing.assert_array_equal(
            mesh.weights,
            mesh_module.unit_ball_volume(3) * (edges[1:] ** 3 - edges[:-1] ** 3))
        assert not edges.flags.writeable

    def test_integrate_constants(self, disk256):
        assert integrate(disk256, np.ones(disk256.n_nodes)) == pytest.approx(
            math.pi, rel=1e-10
        )
        assert integrate(disk256, np.zeros(disk256.n_nodes)) == 0.0

    def test_integrate_eigenfunction_closed_form(self, interval256):
        # int_{-1}^{1} cos(pi x / 2) dx = 4 / pi
        pair = principal_eigenpair(interval256.operator)
        assert integrate(interval256, pair.vector) == pytest.approx(
            4.0 / math.pi, rel=1e-3
        )


class TestMeshData:
    """What a builder records: coordinate columns and the fingerprint label."""

    def test_fingerprints_pinned(self):
        # curve.csv records the mesh fingerprint: a refactor must not move it
        assert build_radial(2, 1.0, 64).fingerprint() == "bf3b21eaa605caf1"
        assert build_radial(3, 1.5, 48).fingerprint() == "9665af29e2dcc8ce"
        assert build_rect(2.0, 0.5, 16, 40).fingerprint() == "2e2798782da46508"

    def test_radial_coordinates_are_the_radii(self, disk256):
        assert list(disk256.coordinates) == ["r"]
        assert disk256.coordinates["r"] is disk256.radii

    def test_rect_coordinates_in_node_order(self):
        # node ix * ny + iy sits at the centre of cell (ix, iy)
        rect = build_rect(2.0, 0.5, 16, 40)
        assert list(rect.coordinates) == ["x", "y"]
        assert rect.radius is rect.radii is rect.edges is None
        ix, iy = np.divmod(np.arange(rect.n_nodes), 40)
        np.testing.assert_array_equal(rect.coordinates["x"], (ix + 0.5) * (2.0 / 16))
        np.testing.assert_array_equal(rect.coordinates["y"], (iy + 0.5) * (0.5 / 40))

    @pytest.mark.parametrize("mesh", [build_radial(2, 1.0, 64), build_rect(2.0, 0.5, 16, 40)])
    def test_coordinates_read_only(self, mesh):
        for column in mesh.coordinates.values():
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1.0


class TestValidation:
    @pytest.mark.parametrize(
        "args",
        [(0, 1.0, 64), (2, -1.0, 64), (2, 1.0, 8), (2, 0.0, 64)],
    )
    def test_bad_radial(self, args):
        with pytest.raises(ConfigurationError):
            build_radial(*args)

    @pytest.mark.parametrize(
        "args",
        [(0.0, 1.0, 64, 64), (1.0, 1.0, 8, 64), (1.0, -2.0, 64, 64)],
    )
    def test_bad_rect(self, args):
        with pytest.raises(ConfigurationError):
            build_rect(*args)


def assert_self_adjoint(mesh, rng):
    """<A u, v>_w = <u, A v>_w through ``apply`` on random fields, to
    rounding: 1e-13 of ||A||_inf ||u||_inf <|v|, 1>_w bounds the terms."""
    op, w = mesh.operator, mesh.weights
    for _ in range(5):
        u, v = rng.uniform(-1.0, 1.0, (2, mesh.n_nodes))
        lhs, rhs = w @ (op.apply(u) * v), w @ (u * op.apply(v))
        scale = op.norm_inf * np.abs(u).max() * (w @ np.abs(v))
        assert abs(lhs - rhs) <= 1e-13 * scale


class TestOperator:
    def test_rect_matrix_exactly_symmetric(self, square64, rng):
        assert_self_adjoint(square64, rng)
        assert_self_adjoint(build_rect(2.0, 0.5, 16, 40), rng)

    def test_radial_symmetric_in_quadrature_inner_product(self, disk256, rng):
        assert_self_adjoint(disk256, rng)
        assert_self_adjoint(build_radial(8, 1.0, 512), rng)

    def test_action_on_ones(self, disk256):
        # zero in the deep interior, nonnegative near the boundary
        action = disk256.operator.apply(np.ones(disk256.n_nodes))
        assert np.max(np.abs(action[:-1])) <= 1e-9
        assert action[-1] > 0

    def test_origin_row_matches_regularity_limit(self):
        # first row must be the one-sided limit 2N (u0 - u1) / h^2
        for dim in (1, 2, 3, 8):
            mesh = build_radial(dim, 1.0, 32)
            # a[0, j] is the first entry of A e_j
            a00, a01 = mesh.operator.apply(np.eye(2, mesh.n_nodes))[:, 0]
            h = mesh.radii[1]
            assert a00 == pytest.approx(2.0 * dim / h**2, rel=1e-12)
            assert a01 == pytest.approx(-2.0 * dim / h**2, rel=1e-12)

    def test_inverse_positivity(self, disk256, rng):
        # (-Lap)^(-1) maps nonnegative nonzero fields to strictly positive ones
        for _ in range(5):
            rhs = np.zeros(disk256.n_nodes)
            idx = rng.integers(0, disk256.n_nodes, size=3)
            rhs[idx] = rng.uniform(0.5, 2.0, size=3)
            u = solve_poisson(disk256.operator, rhs)
            assert np.all(u > 0)

    def test_positive_definite(self, disk256):
        assert principal_eigenpair(disk256.operator).value > 0


class TestPoisson:
    def test_zero_rhs(self, disk256):
        u = solve_poisson(disk256.operator, np.zeros(disk256.n_nodes))
        assert np.all(u == 0.0)

    def test_quadratic_solution_disk(self, disk256):
        # -Lap (1 - r^2) = 4 in two dimensions
        u = solve_poisson(disk256.operator, np.full(disk256.n_nodes, 4.0))
        err = np.max(np.abs(u - (1.0 - disk256.radii**2)))
        assert err < 5e-5  # O(h^2) at n = 256

    def test_eigen_relation(self, disk256):
        pair = principal_eigenpair(disk256.operator)
        u = solve_poisson(disk256.operator, pair.value * pair.vector)
        assert np.max(np.abs(u - pair.vector)) < 1e-7

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_second_order_convergence(self, dim):
        errors = []
        for n in (128, 256, 512):
            mesh = build_radial(dim, 1.0, n)
            u = solve_poisson(mesh.operator, np.full(n, 2.0 * dim))
            errors.append(np.max(np.abs(u - (1.0 - mesh.radii**2))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_fine_disk_residual_contract(self):
        # ||A||_inf ~ 1.3e8 here; an absolute residual bound fails on rounding
        disk = build_radial(2, 1.0, 4096)
        u = solve_poisson(disk.operator, np.ones(disk.n_nodes))
        assert np.max(np.abs(u - (1.0 - disk.radii**2) / 4.0)) < 1e-7

    def test_rect_matches_direct_solve(self, rng):
        # unequal sides and node counts expose axis, ordering and mode
        # normalization mistakes that a square hides
        rect = build_rect(2.0, 0.5, 16, 40)
        op = rect.operator
        rhs = rng.uniform(-1.0, 1.0, rect.n_nodes)
        u = op.solve(rhs)
        direct = spsolve(oracle_matrix(rect).tocsc(), rhs)
        assert np.max(np.abs(u - direct)) <= 1e-12 * np.max(np.abs(direct))
        np.testing.assert_array_equal(solve_poisson(op, rhs), u)

    def test_rect_manufactured_solution(self, square64):
        x, y = square64.coordinates["x"], square64.coordinates["y"]
        exact = np.sin(np.pi * x) * np.sin(np.pi * y)
        u = solve_poisson(square64.operator, 2.0 * np.pi**2 * exact)
        assert np.max(np.abs(u - exact)) < 5e-4


# one radial mesh per tested dimension, at ragged node counts
ORDER_MESHES = [build_radial(dim, 1.0, n)
                for dim, n in ((1, 16), (2, 37), (3, 64), (8, 29))]


class TestRadialSolve:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_matches_direct_solve(self, dim, rng):
        mesh = build_radial(dim, 1.0, 257)
        op = mesh.operator
        rhs = rng.uniform(-1.0, 1.0, op.size)
        direct = spsolve(oracle_matrix(mesh).tocsc(), rhs)
        assert np.max(np.abs(op.solve(rhs) - direct)) <= 1e-10 * np.max(np.abs(direct))

    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    def test_shifted_solver(self, dim, rng):
        mesh = build_radial(dim, 1.0, 257)
        op = mesh.operator
        nu = 0.5 * principal_eigenpair(op).value
        rhs = rng.uniform(-1.0, 1.0, op.size)
        direct = spsolve((oracle_matrix(mesh) - nu * sp.identity(op.size)).tocsc(), rhs)
        u = op.shifted_solver(nu)(rhs)
        assert np.max(np.abs(u - direct)) <= 1e-10 * np.max(np.abs(direct))
        assert op.shifted_solver(principal_eigenpair(op).value * (1.0 + 1e-9)) is None

    # increments near rounding, as between late Picard iterates: a solver
    # whose rounding has no fixed sign (a dense modal solve, say) fails here
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(mesh=st.sampled_from(ORDER_MESHES), seed=st.integers(0, 2**32 - 1),
           exponent=st.integers(-17, -12), sparsity=st.sampled_from([1, 2, 8]))
    def test_order_preserving_exactly(self, mesh, seed, exponent, sparsity):
        rng = np.random.default_rng(seed)
        op = mesh.operator
        b = rng.uniform(0.0, 1.0, op.size)
        delta = rng.uniform(0.0, 1.0, op.size) * 10.0**exponent
        delta[rng.integers(0, sparsity, op.size) != 0] = 0.0
        assert np.all(op.solve(b + delta) >= op.solve(b))


BAND_MESHES = {
    "disk256": lambda: build_radial(2, 1.0, 256),
    "ball1": lambda: build_radial(1, 1.0, 512),
    "ball3": lambda: build_radial(3, 1.0, 512),
    "ball8": lambda: build_radial(8, 1.0, 512),
    "square64": lambda: build_rect(1.0, 1.0, 64, 64),
    "rect16x40": lambda: build_rect(2.0, 0.5, 16, 40),
}


class TestBands:
    """The numpy bands of K against the scipy.sparse assembly."""

    @pytest.mark.parametrize("name", BAND_MESHES)
    def test_bands_match_sparse_assembly_bitwise(self, name):
        mesh = BAND_MESHES[name]()
        op, oracle = mesh.operator, oracle_symmetric_form(mesh)
        np.testing.assert_array_equal(op._diag, oracle.diagonal())
        offsets = [k for k, _ in op._bands]
        assert offsets == ([1] if mesh.radii is not None else [1, rect_grid(mesh)[1]])
        for k, values in op._bands:
            np.testing.assert_array_equal(values, oracle.diagonal(k))
            np.testing.assert_array_equal(values, oracle.diagonal(-k))
        # no entry of the oracle lies off the stored bands: the bands hold
        # all of its nonzeros
        on_bands = np.count_nonzero(op._diag) + 2 * sum(
            np.count_nonzero(values) for _, values in op._bands)
        assert oracle.count_nonzero() == on_bands

    @pytest.mark.parametrize("name", BAND_MESHES)
    def test_apply_matches_csr_product(self, name, rng):
        mesh = BAND_MESHES[name]()
        oracle = oracle_symmetric_form(mesh)
        u = rng.uniform(-1.0, 1.0, (2, mesh.n_nodes))
        expected = (oracle @ u.T).T / mesh.weights
        row_scale = (abs(oracle) @ np.abs(u).T).T / mesh.weights
        assert np.all(np.abs(mesh.operator.apply(u) - expected) <= 1e-15 * row_scale)
        energy = u[0] @ (oracle @ u[0])
        assert mesh.operator.dirichlet_energy(u[0]) == pytest.approx(energy, rel=1e-14)
        norm = abs(oracle.multiply(1.0 / mesh.weights[:, None])).sum(axis=1).max()
        assert mesh.operator.norm_inf == pytest.approx(norm, rel=1e-15)


COUPLED_MESHES = ["disk256", "rect16x40"]


@pytest.fixture(scope="module")
def rect16x40():
    return build_rect(2.0, 0.5, 16, 40)


@pytest.fixture(scope="module")
def square32():
    return build_rect(1.0, 1.0, 32, 32)


@pytest.fixture(scope="module")
def ball8():
    return build_radial(8, 1.0, 512)


class TestStackedSolve:
    """A ``(2, n)`` stack is solved and applied row by row, bit for bit."""

    @pytest.mark.parametrize("name", ["disk256", "rect16x40", "ball8"])
    def test_rows_equal_single_field_calls(self, request, name, rng):
        op = request.getfixturevalue(name).operator
        stack = rng.uniform(0.0, 1.0, (2, op.size))
        shifted = op.shifted_solver(0.5 * principal_eigenpair(op).value)
        for call in (op.solve, shifted, op.apply):
            out = call(stack)
            assert out.shape == stack.shape
            for row, field in zip(out, stack):
                np.testing.assert_array_equal(row, call(field))

    @pytest.mark.parametrize("name", ["disk256", "rect16x40", "ball8"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_out_equals_fresh_result(self, request, name, stacked, rng):
        op = request.getfixturevalue(name).operator
        rhs = rng.uniform(-1.0, 1.0, (2, op.size) if stacked else op.size)
        for call in (op.solve, op.apply):
            expected = call(rhs)
            out = np.full_like(rhs, np.nan)   # stale contents must not leak in
            assert call(rhs, out=out) is out
            np.testing.assert_array_equal(out, expected)
        expected = op.solve(rhs)
        assert op.solve(rhs, out=rhs) is rhs
        np.testing.assert_array_equal(rhs, expected)

    @pytest.mark.parametrize("layout", ["mixed sign", "rows reversed", "nodes reversed"])
    def test_radial_stack_layouts(self, disk256, layout, rng):
        # the paired scans of a (2, n) stack read any sign and any strides,
        # each row bit for bit the two running sums of its single field
        op = disk256.operator
        (_, off), = op._bands
        inv_c = 1.0 / np.append(-off, op._diag[-1] + off[-1])

        def running_sums(rhs):
            return np.cumsum((np.cumsum(disk256.weights * rhs) * inv_c)[::-1])[::-1]

        stack = rng.uniform(-1.0 if layout == "mixed sign" else 0.0, 1.0, (2, op.size))
        if layout == "rows reversed":
            stack = stack[::-1]
        elif layout == "nodes reversed":
            stack = stack[:, ::-1]
        expected = np.stack([running_sums(row) for row in stack])
        for row, field in zip(expected, stack):
            np.testing.assert_array_equal(op.solve(field), row)
        np.testing.assert_array_equal(op.solve(stack), expected)
        np.testing.assert_array_equal(op.solve(stack, out=np.empty((2, op.size))), expected)

    @pytest.mark.parametrize("stacked", [False, True])
    def test_radial_overflow_gives_inf_quietly(self, disk256, stacked):
        # the unit disk's solution of 1e308 is 1e308 times the torsion
        # function (sup 1/4), but the first running sum of w rhs would
        # overflow without the power-of-two scaling; pyproject turns every
        # RuntimeWarning into an error, so a warning fails this test
        op = disk256.operator
        shape = (2, op.size) if stacked else op.size
        rhs = np.full(shape, 1e308)
        expected = op.solve(rhs / 2.0**64) * 2.0**64
        assert expected.max() == pytest.approx(0.25e308, rel=1e-3)
        np.testing.assert_array_equal(op.solve(rhs), expected)
        np.testing.assert_array_equal(op.solve(rhs, out=np.empty_like(rhs)), expected)
        np.testing.assert_array_equal(op.solve(rhs, out=rhs), expected)
        # on a disk of radius 100 the solution itself overflows: +inf, quietly
        wide = build_radial(2, 100.0, 64).operator
        assert np.all(wide.solve(np.full((2, 64) if stacked else 64, 1e308)) == np.inf)
        # so do mixed signs: the running sum over the inner 7/8 overflows
        rhs = np.full(shape, 1e308)
        rhs[..., -op.size // 8:] *= -1.0
        expected = op.solve(rhs / 2.0**64) * 2.0**64
        assert np.all(np.isfinite(expected))
        np.testing.assert_array_equal(op.solve(rhs), expected)

    @pytest.mark.parametrize("name", ["disk256", "square64"])
    def test_solvers_free_without_a_collection(self, request, name):
        # the eigen loop of stability builds a shifted solver at each new
        # shift, so one per K application until the shift settles: one
        # caught in a reference cycle keeps its arrays until the cyclic
        # collector runs
        op = request.getfixturevalue(name).operator
        gc.disable()
        try:
            for nu in (0.0, 0.5 * principal_eigenpair(op).value):
                ref = weakref.ref(op.shifted_solver(nu))
                assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("stacked", [False, True])
    def test_rect_overflow_scales_exactly_quietly(self, square64, stacked):
        # the unit square's solution of 1e308 is below 1e307, but the mode
        # products' partial sums would overflow without the power-of-two
        # scaling; a warning would be an error here, as in the radial twin
        op = square64.operator
        shape = (2, op.size) if stacked else op.size
        rhs = np.full(shape, 1e308)
        expected = op.solve(rhs / 2.0**64) * 2.0**64
        assert np.all(np.isfinite(expected))
        np.testing.assert_array_equal(op.solve(rhs), expected)
        np.testing.assert_array_equal(op.solve(rhs, out=np.empty_like(rhs)), expected)
        np.testing.assert_array_equal(op.solve(rhs, out=rhs), expected)
        # on a 100 x 100 square the solution itself overflows: +inf, quietly
        wide = build_rect(100.0, 100.0, 16, 16).operator
        assert np.all(wide.solve(np.full((2, 256) if stacked else 256, 1e308)) == np.inf)


class TestCoupledSolve:
    @staticmethod
    def dense(mesh, a, r):
        amat = oracle_matrix(mesh).toarray()
        jac = np.block([[amat, -np.diag(a[0])], [-np.diag(a[1]), amat]])
        return np.linalg.solve(jac, r.ravel()).reshape(2, mesh.n_nodes)

    def test_matches_dense_solve(self, rng):
        mesh = build_radial(2, 1.0, 40)
        op, w = mesh.operator, mesh.weights
        a = rng.uniform(0.0, 0.02, (2, op.size)) / w
        r = rng.uniform(-1.0, 1.0, (2, op.size)) / w
        np.testing.assert_allclose(op.solve_coupled(a, r), self.dense(mesh, a, r),
                                   rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("name", COUPLED_MESHES)
    def test_symmetric_data_bitwise(self, request, name, rng):
        mesh = request.getfixturevalue(name)
        c = rng.uniform(0.0, 0.01, mesh.n_nodes)
        r = rng.uniform(0.0, 1.0, mesh.n_nodes)
        w = mesh.weights
        d1, d2 = mesh.operator.solve_coupled(np.stack([c, c]) / w, np.stack([r, r]) / w)
        np.testing.assert_array_equal(d1, d2)

    def test_newton_step_nonnegative_on_ball_n8(self, ball8):
        # K's diagonal spans 1.4e-17 to 5.0e4 (origin weight 3.4e-24); at the
        # 12th Picard iterate, lam = mu = 4.0 < lam* = 4.444, J is a
        # nonsingular M-matrix and r >= 0, so d >= 0 node-wise
        op = ball8.operator
        u = np.zeros(ball8.n_nodes)
        for _ in range(12):
            u = op.solve(4.0 / (1.0 - u) ** 2)
        src = 4.0 / (1.0 - u) ** 2
        a, r = np.stack([2.0 * src / (1.0 - u)] * 2), np.stack([src - op.apply(u)] * 2)
        assert np.all(r >= 0)
        d1, d2 = op.solve_coupled(a, r)
        np.testing.assert_array_equal(d1, d2)
        assert np.all(d1 >= 0)
        res = op.apply(d1) - a[0] * d2 - r[0]
        assert np.max(np.abs(res)) <= 1e-8 * np.max(np.abs(r[0]))

    def test_rectangle_matches_sparse_solve(self, rng):
        mesh = build_rect(2.0, 0.5, 16, 40)
        op = mesh.operator
        # a below mu1 / 2, so rho(K(0)) < 1/4; the indicator of the left half
        # zeroes a12 on the right half
        bound = 0.5 * principal_eigenpair(op).value
        left = np.repeat(np.arange(16) < 8, 40)
        a = np.stack([left * rng.uniform(0.0, bound, op.size),
                      rng.uniform(0.0, bound, op.size)])
        r = rng.uniform(-1.0, 1.0, (2, op.size)) / mesh.weights
        amat = oracle_matrix(mesh)
        jac = sp.bmat([[amat, -sp.diags(a[0])], [-sp.diags(a[1]), amat]], format="csc")
        expected = spsolve(jac, r.ravel())
        d = op.solve_coupled(a, r).ravel()
        assert np.max(np.abs(d - expected)) <= 1e-10 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name", ["disk256", "square32"])
    def test_workspace_keeps_no_state(self, request, name, rng, monkeypatch):
        # the CG buffers are cached on the operator: a call's d must depend
        # on its own data only, also after calls that raised mid-iteration
        mesh = request.getfixturevalue(name)
        op, w = mesh.operator, mesh.weights
        mu1 = principal_eigenpair(op).value
        shape = (2, op.size)
        a, r = rng.uniform(0.0, 0.4 * mu1, shape), rng.uniform(-1.0, 1.0, shape) / w
        a2, r2 = rng.uniform(0.0, 0.2 * mu1, shape), rng.uniform(0.0, 1.0, shape) / w
        first = op.solve_coupled(a, r)

        def same_again():
            d = op.solve_coupled(a, r)
            np.testing.assert_array_equal(d, first)
            assert not np.shares_memory(d, op._work)

        op.solve_coupled(a2, r2)
        same_again()
        # past the fold; with this r the curvature turns negative at CG step
        # 3 on both meshes, after z, res and p were updated
        with pytest.raises(IndefiniteError):
            op.solve_coupled(np.full_like(a, 1.01 * mu1), r)
        same_again()
        monkeypatch.setattr(mesh_module, "_CG_MAX_ITER", 1)
        with pytest.raises(NumericsError, match="missed the tolerance"):
            op.solve_coupled(a2, r2)
        monkeypatch.undo()
        same_again()

    @pytest.mark.parametrize("name", COUPLED_MESHES)
    def test_past_fold_raises(self, request, name):
        # a12 = a21 = 1.2 mu1: rho(K(0)) = 1.44, J is not an M-matrix; the
        # solver's nonexistence test runs on exactly this error
        mesh = request.getfixturevalue(name)
        a = np.full((2, mesh.n_nodes), 1.2 * principal_eigenpair(mesh.operator).value)
        with pytest.raises(IndefiniteError):
            mesh.operator.solve_coupled(a, np.ones((2, mesh.n_nodes)))


class TestEigenpair:
    def test_interval(self, interval256):
        pair = principal_eigenpair(interval256.operator)
        assert pair.value == pytest.approx(math.pi**2 / 4.0, rel=0.005)

    def test_disk(self, disk256):
        pair = principal_eigenpair(disk256.operator)
        assert pair.value == pytest.approx(float(jn_zeros(0, 1)[0] ** 2), rel=0.005)

    def test_square(self, square64):
        pair = principal_eigenpair(square64.operator)
        assert pair.value == pytest.approx(2.0 * math.pi**2, rel=0.005)

    def test_normalization_positivity_residual(self, disk256):
        pair = principal_eigenpair(disk256.operator)
        assert pair.vector.max() == 1.0
        assert np.all(pair.vector > 0)
        res = disk256.operator.apply(pair.vector) - pair.value * pair.vector
        assert np.max(np.abs(res)) <= 1e-8 * pair.value

    def test_fine_disk(self):
        # ||A||_inf is about 2e9 here, so eps ||A||_inf exceeds 1e-8 mu1 and
        # a residual bound of 1e-8 mu1 alone is out of reach
        disk = build_radial(2, 1.0, 16384)
        op = disk.operator
        pair = principal_eigenpair(op)
        assert pair.iterations <= 25
        assert pair.vector.max() == 1.0
        assert np.all(pair.vector > 0)
        res = np.max(np.abs(op.apply(pair.vector) - pair.value * pair.vector))
        assert res <= 1e-8 * pair.value + 8 * np.finfo(float).eps * op.norm_inf

    @pytest.mark.parametrize("dim,nodes", [(2, 4096), (2, 16384), (1, 512), (3, 512),
                                           (8, 512), (10, 512)])
    def test_value_in_oracle_enclosure(self, dim, nodes):
        # one step of inverse iteration with an independent sparse solve:
        # A^-1 is positive, so mu1 lies in [min psi/y, max psi/y]
        mesh = build_radial(dim, 1.0, nodes)
        pair = principal_eigenpair(mesh.operator)
        ratio = pair.vector / spsolve(oracle_matrix(mesh).tocsc(), pair.vector)
        slack = 5e-11 * pair.value
        assert ratio.min() - slack <= pair.value <= ratio.max() + slack

    def test_rectangle_closed_form(self):
        # mu2 / mu1 is about 1.0008 here, out of reach of plain iteration
        mesh = build_rect(10.0, 0.1, 16, 16)
        op = mesh.operator
        pair = principal_eigenpair(op)
        _, _, hx, hy = rect_grid(mesh)
        (qx, ex), (qy, ey) = sine_modes(16, hx), sine_modes(16, hy)
        assert pair.value == ex[0] + ey[0]
        assert pair.iterations == 0
        psi = np.outer(qx[:, 0] / qx[:, 0].max(), qy[:, 0] / qy[:, 0].max()).ravel()
        assert np.max(np.abs(pair.vector - psi)) <= 1e-15
        res = np.max(np.abs(op.apply(pair.vector) - pair.value * pair.vector))
        assert res <= 1e-8 * pair.value + 8 * np.finfo(float).eps * op.norm_inf


def test_equal_measure_radius():
    assert build_radial(3, 1.5, 48).equal_measure_radius == 1.5
    rect = build_rect(2.0, 1.0, 32, 16)
    assert rect.dimension == 2
    assert rect.equal_measure_radius == pytest.approx(math.sqrt(2.0 / math.pi))


def test_volume_helper():
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    assert unit_ball_volume(8) == pytest.approx(math.pi**4 / 24.0)
