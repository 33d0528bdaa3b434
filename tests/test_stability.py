import numpy as np
import pytest
import scipy.linalg as sl
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import eigsh

from memslab import PreconditionError, build_radial, build_rect, principal_eigenpair
from memslab.mesh import DirichletLaplacian
from memslab.profiles import constant_profile, power_profile, tabulated_profile
from memslab.solver import StatePair, coupling_weights, minimal_solve
from memslab.stability import (
    EigenResult,
    block_residual,
    classify,
    eigen_ratio_check,
    linearized_eigen,
    stability_inequality_gap,
    write_eigen_csv,
)

from conftest import oracle_matrix, oracle_symmetric_form


def scalar_linearized_eigenvalue(mesh, weight):
    """Principal eigenvalue of -Lap - weight on the mesh (scalar problem).

    Independent oracle for the symmetric reduction: the scalar operator is
    self-adjoint in the quadrature inner product, so the eigenvalue comes
    from symmetric Lanczos on the pencil (K - W diag(weight)) x = nu W x,
    a different code path than the block solve.
    """
    kmat = oracle_symmetric_form(mesh)
    wdiag = sp.diags(mesh.weights)
    pencil = (kmat - wdiag @ sp.diags(weight)).tocsc()
    sigma = -(float(weight.max()) + 1.0)
    vals = eigsh(
        pencil, k=1, M=wdiag.tocsc(), sigma=sigma, which="LM",
        return_eigenvectors=False,
    )
    return float(vals[0])


def dense_block_eigenvalue(mesh, a12, a21):
    """Smallest real part of the spectrum of [[A, -a12], [-a21, A]].

    Independent oracle for the block solve: a dense QR eigensolve of the
    whole block, with no shift, power iteration or root search.
    """
    amat = oracle_matrix(mesh).toarray()
    block = np.block([[amat, -np.diag(a12)], [-np.diag(a21), amat]])
    return float(np.min(sl.eigvals(block).real))


def _strips_square():
    # f = g = indicator of {x < 0.15} u {x > 0.85}: two far-apart strips
    # give a second eigenvalue of the block next to nu1
    mesh = build_rect(1.0, 1.0, 24, 24)
    gx = np.repeat((np.arange(24) + 0.5) / 24, 24)
    f = tabulated_profile(mesh, ((gx < 0.15) | (gx > 0.85)).astype(float))
    return mesh, f, f


def _wide_rect():
    mesh = build_rect(2.0, 0.5, 32, 16)
    return mesh, constant_profile(mesh, 1.0), constant_profile(mesh, 0.5)


def _power_ball():
    mesh = build_radial(3, 1.0, 128)
    return mesh, power_profile(mesh, 2.0), constant_profile(mesh, 1.0)


# lam* of the strips square on theta = 1 from an rtol 1e-6 bisection
STRIPS_LAM_STAR = 16.974086864275886


@pytest.fixture(scope="module")
def disk():
    return build_radial(2, 1.0, 256)


@pytest.fixture(scope="module")
def one(disk):
    return constant_profile(disk, 1.0)


@pytest.fixture(scope="module")
def zero_state(disk):
    return StatePair(u=np.zeros(disk.n_nodes), v=np.zeros(disk.n_nodes))


@pytest.fixture(scope="module")
def mu1(disk):
    return principal_eigenpair(disk.operator).value


class TestLinearizedEigen:
    def test_uncoupled_reduces_to_dirichlet_eigenpair(self, disk, one, zero_state, mu1):
        # diag(A, A): the pair is the Dirichlet one, not an arbitrary vector
        # of the two-dimensional eigenspace
        res = linearized_eigen(disk, one, one, 0.0, 0.0, zero_state)
        pair = principal_eigenpair(disk.operator)
        assert res.nu1 == mu1 == pair.value
        assert np.array_equal(res.phi1, res.phi2)
        np.testing.assert_array_equal(res.phi1, pair.vector)

    @pytest.mark.parametrize("lam, mu", [
        (1e-15, 1e-15), (1e-30, 0.5), (0.5, 1e-30), (1e-8, 1e-8), (1e-7, 1e-7),
        (1e-14, 0.5),
    ])
    def test_weak_coupling_closed_form(self, disk, one, zero_state, mu1, lam, mu):
        # couplings at or below rounding: the pair stays positive and exact
        res = linearized_eigen(disk, one, one, lam, mu, zero_state)
        assert res.nu1 == pytest.approx(mu1 - 2.0 * np.sqrt(lam * mu), abs=1e-9)
        np.testing.assert_allclose(res.phi2 / res.phi1, np.sqrt(mu / lam), rtol=1e-6)

    @pytest.mark.parametrize("lam, mu", [(1e-14, 0.5), (1e-7, 1e-7)])
    def test_weak_coupling_fine_mesh(self, lam, mu):
        # on 1024 nodes nu1 carries a rounding error of about 1e-11 next to a
        # gap mu1 - nu1 of about 1e-7; phi2 taken as (A - nu1)^-1 a21 phi1
        # without the <phi2, a12 phi2>_w = <phi1, a21 phi1>_w scale is off by
        # 1e-5 relative here
        fine = build_radial(2, 1.0, 1024)
        one = constant_profile(fine, 1.0)
        zero = StatePair(u=np.zeros(fine.n_nodes), v=np.zeros(fine.n_nodes))
        mu1 = principal_eigenpair(fine.operator).value
        res = linearized_eigen(fine, one, one, lam, mu, zero)
        assert res.nu1 == pytest.approx(mu1 - 2.0 * np.sqrt(lam * mu), abs=1e-9)
        np.testing.assert_allclose(res.phi2 / res.phi1, np.sqrt(mu / lam), rtol=1e-6)

    @pytest.mark.parametrize("lam, mu", [
        (0.0, 0.5), (0.5, 0.0), (float("nan"), 0.5), (0.5, float("inf")),
    ])
    def test_rejects_reducible_or_non_finite(self, disk, one, zero_state, lam, mu):
        # one zero makes the block triangular: no positive eigenpair exists
        with pytest.raises(PreconditionError):
            linearized_eigen(disk, one, one, lam, mu, zero_state)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.5])
    def test_zero_state_shifts_by_twice_t(self, disk, one, zero_state, mu1, t):
        res = linearized_eigen(disk, one, one, t, t, zero_state)
        assert res.nu1 == pytest.approx(mu1 - 2.0 * t, abs=1e-6)

    def test_zero_state_asymmetric_closed_form(self, disk, one, zero_state, mu1):
        # nu1 = mu1 - 2 sqrt(lam mu), phi2/phi1 = sqrt(mu/lam) at the zero state
        lam, mu = 0.8, 0.2
        res = linearized_eigen(disk, one, one, lam, mu, zero_state)
        assert res.nu1 == pytest.approx(mu1 - 2.0 * np.sqrt(lam * mu), abs=1e-6)
        ratio = res.phi2 / res.phi1
        np.testing.assert_allclose(ratio, np.sqrt(mu / lam), atol=1e-5)

    def test_minimal_branch_is_stable(self, disk, one):
        out = minimal_solve(disk, one, one, 0.4, 0.4)
        res = linearized_eigen(disk, one, one, 0.4, 0.4, out.state)
        assert res.nu1 > 0
        assert np.all(res.phi1 > 0) and np.all(res.phi2 > 0)
        assert res.phi1.max() == 1.0

    def test_block_residual_contract(self, disk, one):
        out = minimal_solve(disk, one, one, 0.5, 0.3)
        res = linearized_eigen(disk, one, one, 0.5, 0.3, out.state)
        a12, a21 = coupling_weights(
            (0.5 * one.values, 0.3 * one.values), (out.state.u, out.state.v))
        op = disk.operator
        r1 = op.apply(res.phi1) - a12 * res.phi2 - res.nu1 * res.phi1
        r2 = op.apply(res.phi2) - a21 * res.phi1 - res.nu1 * res.phi2
        total = np.max(np.abs(r1)) + np.max(np.abs(r2))
        assert total <= 1e-6 * (1.0 + abs(res.nu1))

    def test_ten_ball_state_meets_the_contract(self):
        # the quadrature weights of the 512-node 10-ball are tiny near the
        # origin, where a12 peaks at 5.6e5: a power iteration stopped on the
        # w-weighted residual norm left an error at node 0, and the block
        # residual missed its contract (2.98e-5 against 2.88e-5); the
        # sup-norm stop test meets it with room (6.5e-8)
        ball = build_radial(10, 1.0, 512)
        one = constant_profile(ball, 1.0)
        lam = 5.777656722759934
        state = minimal_solve(ball, one, one, lam, lam).state
        res = linearized_eigen(ball, one, one, lam, lam, state)
        assert res.nu1 == pytest.approx(27.80194106, rel=1e-9)
        a12, a21 = coupling_weights((lam * one.values, lam * one.values),
                                    (state.u, state.v))
        total = block_residual(ball, a12, a21, res.nu1, res.phi1, res.phi2)
        assert total <= 1e-6 * (1.0 + res.nu1)

    @pytest.mark.parametrize("lam", [0.3, 0.5, 0.78])
    def test_refused_shift_reads_as_rho_above_one(self, disk, one, monkeypatch, lam):
        # no shifted solver above the true nu1, where rho(K(nu)) > 1 holds:
        # the eigen loop takes the refusal as rho > 1 and finds the same
        # root.  At nu = 0 a refusal would be false for a stable state
        state = minimal_solve(disk, one, one, lam, lam).state
        nu1 = linearized_eigen(disk, one, one, lam, lam, state).nu1
        shifted_solver, refused = DirichletLaplacian.shifted_solver, []

        def refusing(self, nu):
            if nu > nu1:
                refused.append(nu)
                return None
            return shifted_solver(self, nu)

        monkeypatch.setattr(DirichletLaplacian, "shifted_solver", refusing)
        res = linearized_eigen(disk, one, one, lam, lam, state)
        assert refused
        assert res.nu1 == pytest.approx(nu1, rel=1e-13, abs=0)

    def test_scalar_consistency(self, disk, one):
        # symmetric data: block eigenvalue equals the scalar linearized one
        out = minimal_solve(disk, one, one, 0.5, 0.5)
        res = linearized_eigen(disk, one, one, 0.5, 0.5, out.state)
        weight, _ = coupling_weights(
            (0.5 * one.values, 0.5 * one.values), (out.state.u, out.state.v))
        nu_scalar = scalar_linearized_eigenvalue(disk, weight)
        assert res.nu1 == pytest.approx(nu_scalar, abs=1e-8)

    @pytest.mark.parametrize("case, lam, mu", [
        *(pytest.param(_strips_square, t * STRIPS_LAM_STAR, t * STRIPS_LAM_STAR,
                       id=f"strips-{t}") for t in (0.9, 0.99, 0.999)),
        pytest.param(_wide_rect, 2.0, 1.5, id="wide"),
        pytest.param(_power_ball, 1.0, 0.5, id="ball3-power"),
    ])
    def test_matches_dense_block_spectrum(self, case, lam, mu):
        mesh, f, g = case()
        out = minimal_solve(mesh, f, g, lam, mu)
        assert out.converged
        res = linearized_eigen(mesh, f, g, lam, mu, out.state)
        a12, a21 = coupling_weights(
            (lam * f.values, mu * g.values), (out.state.u, out.state.v))
        assert res.nu1 == pytest.approx(
            dense_block_eigenvalue(mesh, a12, a21), rel=1e-10)
        # Collatz-Wielandt: for any positive pair, the node-wise ratios
        # (J phi) / phi bracket nu1.  Slack: 64 rounding units of the
        # largest row sum of |J|, the scale of the error in J phi
        op = mesh.operator
        ratios = np.concatenate([
            (op.apply(res.phi1) - a12 * res.phi2) / res.phi1,
            (op.apply(res.phi2) - a21 * res.phi1) / res.phi2,
        ])
        row_sum = abs(oracle_matrix(mesh)).sum(axis=1).max() + max(a12.max(), a21.max())
        slack = 64 * np.finfo(float).eps * row_sum
        assert ratios.min() - slack <= res.nu1 <= ratios.max() + slack

    def test_monotone_loss_of_stability(self, disk, one):
        nus = []
        for lam in (0.3, 0.55, 0.75):
            out = minimal_solve(disk, one, one, lam, lam)
            nus.append(linearized_eigen(disk, one, one, lam, lam, out.state).nu1)
        assert nus[0] > nus[1] > nus[2]


SMALL_DISK = build_radial(2, 1.0, 32)
SQUARE16 = build_rect(1.0, 1.0, 16, 16)
# log-uniform over [1e-30, 10]: b = 2 sqrt(lam mu) falls on both sides of
# the weak-coupling threshold 1e-7
LOG_PARAMETER = st.floats(np.log(1e-30), np.log(10.0)).map(np.exp)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mesh=st.sampled_from([SMALL_DISK, SQUARE16]), lam=LOG_PARAMETER,
       mu=LOG_PARAMETER)
@example(mesh=SQUARE16, lam=1e-14, mu=0.5)   # b just above the threshold
@example(mesh=SQUARE16, lam=10.0, mu=10.0)   # nu1 < 0
@example(mesh=SMALL_DISK, lam=1e-30, mu=1e-30)
def test_zero_state_closed_form_property(mesh, lam, mu):
    # constant profiles at the zero state: nu1 = mu1 - 2 sqrt(lam mu) and
    # phi2 / phi1 = sqrt(mu / lam) exactly, on either eigen path
    one = constant_profile(mesh, 1.0)
    zero = StatePair(u=np.zeros(mesh.n_nodes), v=np.zeros(mesh.n_nodes))
    mu1 = principal_eigenpair(mesh.operator).value
    res = linearized_eigen(mesh, one, one, lam, mu, zero)
    assert res.nu1 == pytest.approx(mu1 - 2.0 * np.sqrt(lam * mu), abs=1e-9)
    np.testing.assert_allclose(res.phi2 / res.phi1, np.sqrt(mu / lam), rtol=1e-6)


# the feasible end of the theta = 1 ray with f = g = 1 (rtol 1e-6 rays): a
# pair with max(lam, mu) below it is feasible for every f, g <= 1
DISK_LAM_STAR, SQUARE_LAM_STAR = 0.7889121003438502, 2.67355874775476
HALF_INDICATOR = tabulated_profile(SQUARE16, np.repeat(np.arange(16) < 8, 16).astype(float))


@pytest.mark.parametrize("mesh", [SQUARE16, SMALL_DISK], ids=["square16", "disk32"])
def test_hellmann_feynman_slope(mesh):
    # the Newton step of the eigen loop rests on
    # d rho(K(nu)) / d nu = 2 <y, z>_w / <x, x>_L at the Perron vector x of
    # K(nu), with y = S a21 x, z = S a12 y, S = (A - nu)^-1 and L = w a21:
    # K' = S^2 a12 S a21 + S a12 S^2 a21, S is self-adjoint in the
    # quadrature product and K in L.  Checked at a stable state against a
    # central difference of the dense spectral radius
    one = constant_profile(mesh, 1.0)
    lam_star = DISK_LAM_STAR if mesh is SMALL_DISK else SQUARE_LAM_STAR
    lam, mu = 0.8 * lam_star, 0.5 * lam_star
    state = minimal_solve(mesh, one, one, lam, mu).state
    res = linearized_eigen(mesh, one, one, lam, mu, state)
    assert res.nu1 > 0
    a12, a21 = coupling_weights((lam * one.values, mu * one.values), (state.u, state.v))
    x, w = res.phi1, mesh.weights
    solve = mesh.operator.shifted_solver(res.nu1)
    y = solve(a21 * x)
    z = solve(a12 * y)
    slope = 2.0 * (w @ (y * z)) / ((w * a21) @ (x * x))
    amat = oracle_matrix(mesh).toarray()

    def rho(nu):
        inv = np.linalg.inv(amat - nu * np.eye(mesh.n_nodes))
        return np.abs(np.linalg.eigvals(inv @ (a12[:, None] * inv) * a21)).max()

    h = 1e-4 * (principal_eigenpair(mesh.operator).value - res.nu1)
    difference = (rho(res.nu1 + h) - rho(res.nu1 - h)) / (2.0 * h)
    assert slope == pytest.approx(difference, rel=1e-6)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(["disk", "square", "square-indicator"]),
       t=st.floats(0.01, 0.999), theta=st.floats(np.log(0.2), np.log(5.0)).map(np.exp))
@example(case="disk", t=0.999, theta=1.0)
@example(case="square-indicator", t=0.999, theta=0.2)
def test_nu1_inside_the_collatz_wielandt_bracket(case, t, theta):
    # J = [[A, -a12], [-a21, A]] is a Z-matrix, so for any positive pair phi
    # min (J phi)/phi <= nu1 <= max (J phi)/phi over both fields and all
    # nodes; each computed ratio is widened by the rounding of one apply
    # (|A| phi from the scipy oracle) and nu1 by the loop's root tolerance
    mesh, lam_star = ((SMALL_DISK, DISK_LAM_STAR) if case == "disk"
                      else (SQUARE16, SQUARE_LAM_STAR))
    one = constant_profile(mesh, 1.0)
    f = HALF_INDICATOR if case == "square-indicator" else one
    lam = t * lam_star / max(1.0, theta)
    out = minimal_solve(mesh, f, one, lam, theta * lam)
    assert out.converged
    res = linearized_eigen(mesh, f, one, lam, theta * lam, out.state)
    a = np.stack(coupling_weights((lam * f.values, theta * lam * one.values),
                                  (out.state.u, out.state.v)))
    phi = np.stack([res.phi1, res.phi2])
    other = phi[::-1]
    ratio = (mesh.operator.apply(phi) - a * other) / phi
    eps = np.finfo(float).eps
    abs_a_phi = np.stack([abs(oracle_matrix(mesh)) @ row for row in phi])
    slack = 8 * eps * (abs_a_phi + a * other) / phi + 2 * eps * np.abs(ratio)
    root = 1e-13 * (1.0 + abs(res.nu1))
    lower, upper = (ratio - slack).min(), (ratio + slack).max()
    assert lower - root <= res.nu1 <= upper + root
    assert lower > 0   # the minimal branch below lam* is stable
    # and a second, independent way: the dense spectrum of the block
    assert res.nu1 == pytest.approx(dense_block_eigenvalue(mesh, *a), rel=1e-10)


@pytest.mark.parametrize("case, lam0, lam", [
    pytest.param(lambda: build_radial(2, 1.0, 4096), 0.7, 0.75, id="disk4096-0.7"),
    pytest.param(lambda: build_radial(2, 1.0, 4096), 0.75, 0.788, id="disk4096"),
    pytest.param(lambda: build_rect(1.0, 1.0, 16, 16), 2.0, 2.6, id="square16"),
    pytest.param(lambda: build_rect(2.0, 0.5, 16, 40), 1.5, 2.0, id="wide"),
    pytest.param(lambda: build_radial(10, 1.0, 512), 0.95 * 5.777656722759934,
                 5.777656722759934, id="ball10"),
])
def test_warm_start_agrees_with_cold(case, lam0, lam):
    # the pair of a smaller lam on the ray starts the solve at the larger:
    # the same nu1 to 1e-12 relative, in no more applications of K.  On the
    # disk the guess lies farther from the root than the cold start at 0
    # (nu1 2.83 -> 2.05 and 2.05 -> 0.43), so there the warm start has only
    # to break even
    mesh = case()
    one = constant_profile(mesh, 1.0)
    near = linearized_eigen(mesh, one, one, lam0, lam0,
                            minimal_solve(mesh, one, one, lam0, lam0).state)
    state = minimal_solve(mesh, one, one, lam, lam).state
    cold = linearized_eigen(mesh, one, one, lam, lam, state)
    warm = linearized_eigen(mesh, one, one, lam, lam, state, start=(near.nu1, near.phi1))
    assert warm.nu1 == pytest.approx(cold.nu1, rel=1e-12, abs=0)
    np.testing.assert_allclose(warm.phi1, cold.phi1, rtol=0, atol=1e-9)
    assert warm.iterations <= cold.iterations


def test_start_above_mu1_is_a_cold_start(disk, one, mu1):
    # a guess at or above mu1 begins at nu = 0; with x = ones as well the
    # solve is the cold one, bit for bit
    state = minimal_solve(disk, one, one, 0.6, 0.5).state
    cold = linearized_eigen(disk, one, one, 0.6, 0.5, state)
    ones = np.ones(disk.n_nodes)
    for guess in (mu1, mu1 + 1.0, np.inf):
        warm = linearized_eigen(disk, one, one, 0.6, 0.5, state, start=(guess, ones))
        assert warm.nu1 == cold.nu1 and warm.iterations == cold.iterations
        np.testing.assert_array_equal(warm.phi2, cold.phi2)


class TestClassify:
    def test_bands(self):
        phi = np.ones(4)
        assert classify(EigenResult(nu1=5.8, phi1=phi, phi2=phi, iterations=1)) == "stable"
        assert classify(EigenResult(nu1=1e-9, phi1=phi, phi2=phi, iterations=1)) == "semi-stable"
        assert classify(EigenResult(nu1=-0.3, phi1=phi, phi2=phi, iterations=1)) == "unstable"


class TestEigenRatio:
    def test_symmetric_case(self, disk, one):
        out = minimal_solve(disk, one, one, 0.5, 0.5)
        res = linearized_eigen(disk, one, one, 0.5, 0.5, out.state)
        assert eigen_ratio_check(res, 0.5, 0.5) >= -1e-6

    def test_asymmetric_minimal_solution(self, disk, one):
        lam, mu = 0.6, 0.3
        out = minimal_solve(disk, one, one, lam, mu)
        res = linearized_eigen(disk, one, one, lam, mu, out.state)
        assert eigen_ratio_check(res, lam, mu) >= -1e-6

    def test_zero_state_ratio_is_one(self, disk, one, zero_state):
        res = linearized_eigen(disk, one, one, 0.4, 0.4, zero_state)
        np.testing.assert_allclose(res.phi2 / res.phi1, 1.0, atol=1e-6)

    def test_requires_mu_below_lam(self, disk, one, zero_state):
        res = linearized_eigen(disk, one, one, 0.3, 0.6, zero_state)
        with pytest.raises(PreconditionError):
            eigen_ratio_check(res, 0.3, 0.6)


class TestStabilityInequality:
    def test_zero_field(self, disk, one, zero_state):
        gap = stability_inequality_gap(
            disk, one, one, 0.5, 0.5, zero_state, np.zeros(disk.n_nodes)
        )
        assert gap == 0.0

    def test_zero_state_eigenfield_closed_form(self, disk, one, zero_state, mu1):
        t = 0.4
        psi1 = principal_eigenpair(disk.operator).vector
        gap = stability_inequality_gap(disk, one, one, t, t, zero_state, psi1)
        expected = (mu1 - 2.0 * t) * float(np.dot(disk.weights, psi1**2))
        assert gap == pytest.approx(expected, rel=1e-9)

    def test_nonnegative_at_stable_state(self, disk, one, rng):
        out = minimal_solve(disk, one, one, 0.5, 0.5)
        r = disk.radii / disk.radius
        for _ in range(20):
            c, s = rng.uniform(0.0, 0.8), rng.uniform(0.1, 0.4)
            phi = (1.0 - r**2) * np.exp(-(((r - c) / s) ** 2))
            gap = stability_inequality_gap(disk, one, one, 0.5, 0.5, out.state, phi)
            norm2 = float(np.dot(disk.weights, phi * phi))
            assert gap >= -1e-8 * norm2

    def test_accepts_tabulated_constant(self, disk, one, zero_state):
        # constancy is read from the values, not from how the profile was built
        flat = tabulated_profile(disk, np.ones(disk.n_nodes))
        psi1 = principal_eigenpair(disk.operator).vector
        gap = stability_inequality_gap(disk, flat, flat, 0.4, 0.4, zero_state, psi1)
        assert gap == stability_inequality_gap(disk, one, one, 0.4, 0.4, zero_state, psi1)

    def test_requires_constant_profiles(self, disk, zero_state):
        fpow = power_profile(disk, 1.0)
        with pytest.raises(PreconditionError):
            stability_inequality_gap(
                disk, fpow, fpow, 0.3, 0.3, zero_state, np.zeros(disk.n_nodes)
            )


def test_eigen_csv(disk, one, zero_state, tmp_path):
    res = linearized_eigen(disk, one, one, 0.2, 0.2, zero_state)
    path = tmp_path / "eig.csv"
    write_eigen_csv(path, disk, res, fingerprint="beef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_fingerprint: beef"
    assert lines[1] == "r,phi1,phi2"
    assert len(lines) == 2 + disk.n_nodes
