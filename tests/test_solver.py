import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import spsolve
from scipy.special import jn_zeros

import memslab.mesh
import memslab.solver
from memslab import PreconditionError, build_radial, build_rect, principal_eigenpair
from memslab.mesh import DirichletLaplacian
from memslab.profiles import constant_profile, tabulated_profile
from memslab.solver import (
    DELTA_FLOOR,
    NonexistenceReason,
    SolveConfig,
    StatePair,
    Verdict,
    _coefficients,
    _unstable_subsolution,
    certify_stable_start,
    certify_supersolution,
    coupling_weights,
    minimal_solve,
    residual,
    source,
    write_solution_csv,
)

from conftest import oracle_matrix

# frozen from a 4096-node radial run (tools/make_goldens.py)
GOLDEN_DISK_SUP_U_HALF = 0.1619976976289698
# lam*(1) of the unit square with f = g = 1 on n x n cells, bisected to 1e-6
SQUARE_LAM_STAR = {32: 2.682186, 64: 2.684353}
# lam*(1) of the 1024-node unit disk with f = g = 1, bisected to 1e-10
DISK1024_LAM_STAR = 0.7892289676346309
# lam*(1) of the 4096-node unit disk with f = g = 1, to ten digits
DISK4096_LAM_STAR = 0.7892292496
# lam*(0.3) of the 4096-node unit disk with f = g = 1, bisected to 1e-3
DISK_LAM_STAR_03 = 1.3366087081835367


def monotone_watch(mesh):
    """on_step callback asserting that every iterate is node-wise >= the
    previous one, exactly (no rounding slack).  It keeps copies: the solver
    reuses the arrays it hands to on_step for later iterates."""
    prev = {"u": np.zeros(mesh.n_nodes), "v": np.zeros(mesh.n_nodes)}

    def watch(it, u, v):
        assert np.all(u >= prev["u"])
        assert np.all(v >= prev["v"])
        prev["u"], prev["v"] = u.copy(), v.copy()

    return watch


class TestMinimalSolve:
    def test_zero_parameters(self, disk256, ones_disk):
        out = minimal_solve(disk256, ones_disk, ones_disk, 0.0, 0.0)
        assert out.verdict is Verdict.CONVERGED
        assert out.iterations == 1
        assert out.state.sup() == (0.0, 0.0)

    def test_half_lambda_golden(self, disk256, ones_disk):
        out = minimal_solve(disk256, ones_disk, ones_disk, 0.5, 0.5)
        assert out.converged
        np.testing.assert_array_equal(out.state.u, out.state.v)
        assert out.state.u.max() == pytest.approx(GOLDEN_DISK_SUP_U_HALF, rel=1e-4)

    def test_above_upper_bound_nonexistence(self, disk256, ones_disk):
        # 0.9 exceeds 4 mu1 / 27 ~ 0.857 on the unit disk
        assert 0.9 > 4.0 * float(jn_zeros(0, 1)[0] ** 2) / 27.0
        out = minimal_solve(disk256, ones_disk, ones_disk, 0.9, 0.9)
        assert out.verdict is Verdict.NONEXISTENCE_SUSPECTED
        assert out.reason is NonexistenceReason.UNSTABLE_SUBSOLUTION

    def test_far_above_critical_touches(self):
        # 1.28 lam*(0.3) on the 4096-node disk: an iterate enters the touch
        # band at loop step 5, before the first Newton try, so touch is the
        # witness
        disk = build_radial(2, 1.0, 4096)
        one = constant_profile(disk, 1.0)
        lam = 1.28 * DISK_LAM_STAR_03
        out = minimal_solve(disk, one, one, lam, 0.3 * lam)
        assert out.verdict is Verdict.NONEXISTENCE_SUSPECTED
        assert out.reason is NonexistenceReason.TOUCHED_ONE
        assert out.iterations == 5 and out.newton_steps == 0

    def test_converged_contract(self, disk256, ones_disk):
        lam, mu = 0.55, 0.3
        out = minimal_solve(disk256, ones_disk, ones_disk, lam, mu)
        assert out.converged
        res = residual(disk256, ones_disk, ones_disk, lam, mu, out.state)
        assert max(res) <= 1e-6 * (lam + mu)
        assert out.state.u.max() <= 1.0 - DELTA_FLOOR
        assert np.all(out.state.u >= 0) and np.all(out.state.v >= 0)

    def test_negative_parameters_rejected(self, disk256, ones_disk):
        with pytest.raises(PreconditionError):
            minimal_solve(disk256, ones_disk, ones_disk, -0.1, 0.2)

    def test_monotone_increase_exact(self, disk256, ones_disk):
        out = minimal_solve(disk256, ones_disk, ones_disk, 0.6, 0.4,
                            on_step=monotone_watch(disk256))
        assert out.converged

    @pytest.mark.parametrize("n, factor, verdict", [
        (n, factor, verdict)
        for n in (32, 64)
        for factor, verdict in [
            (0.5, Verdict.CONVERGED),
            (0.99, Verdict.CONVERGED),
            (0.999, Verdict.CONVERGED),
            (1.001, Verdict.NONEXISTENCE_SUSPECTED),
            (1.05, Verdict.NONEXISTENCE_SUSPECTED),
        ]
    ])
    def test_monotone_increase_exact_rect(self, n, factor, verdict):
        # the fast-diagonalization solve has no sign-fixed factors, so the
        # node-wise increase is checked right up to either side of lam*
        square = build_rect(1.0, 1.0, n, n)
        one = constant_profile(square, 1.0)
        lam = factor * SQUARE_LAM_STAR[n]
        out = minimal_solve(square, one, one, lam, lam, on_step=monotone_watch(square))
        assert out.verdict is verdict
        if verdict is Verdict.NONEXISTENCE_SUSPECTED:
            assert out.reason is NonexistenceReason.UNSTABLE_SUBSOLUTION

    def test_symmetric_reduction_bitwise(self, disk256, ones_disk):
        seen = []
        minimal_solve(
            disk256, ones_disk, ones_disk, 0.7, 0.7,
            on_step=lambda it, u, v: seen.append(np.array_equal(u, v)),
        )
        assert len(seen) > 1 and all(seen)

    def test_symmetric_reduction_bitwise_rect(self):
        square = build_rect(1.0, 1.0, 32, 32)
        one = constant_profile(square, 1.0)
        seen = []
        out = minimal_solve(
            square, one, one, 2.6, 2.6,
            on_step=lambda it, u, v: seen.append(np.array_equal(u, v)),
        )
        assert out.converged
        assert len(seen) == out.iterations > 1 and all(seen)

    def test_ordering_lemma(self, disk256, ones_disk, rng):
        # mu u / lam <= v <= u for every converged run with mu <= lam
        for _ in range(10):
            lam = rng.uniform(0.05, 16.0 / 27.0)
            mu = lam * rng.uniform(0.05, 1.0)
            out = minimal_solve(disk256, ones_disk, ones_disk, lam, mu)
            assert out.converged
            u, v = out.state.u, out.state.v
            assert np.min(u - v) >= -1e-8
            assert np.min(v - (mu / lam) * u) >= -1e-8

    def test_parameter_monotonicity(self, disk256, ones_disk):
        big = minimal_solve(disk256, ones_disk, ones_disk, 0.6, 0.5)
        small = minimal_solve(disk256, ones_disk, ones_disk, 0.45, 0.3)
        assert big.converged and small.converged
        assert np.all(small.state.u <= big.state.u + 1e-12)
        assert np.all(small.state.v <= big.state.v + 1e-12)

    def test_domain_monotonicity(self, ones_disk, disk256):
        # minimal solution on the half ball sits below the unit-ball one
        half = build_radial(2, 0.5, 128)
        one_half = constant_profile(half, 1.0)
        lam = 0.5
        inner = minimal_solve(half, one_half, one_half, lam, lam)
        outer = minimal_solve(disk256, ones_disk, ones_disk, lam, lam)
        assert inner.converged and outer.converged
        outer_at_inner = np.interp(half.radii, disk256.radii, outer.state.u)
        assert np.all(inner.state.u <= outer_at_inner + 1e-6)

    def test_inconclusive_when_budget_tiny(self, disk256, ones_disk):
        out = minimal_solve(
            disk256, ones_disk, ones_disk, 0.7, 0.7,
            SolveConfig(max_iter=3),
        )
        assert out.verdict is Verdict.INCONCLUSIVE
        assert out.iterations == 3
        assert out.last_increment is not None

    # the loop's five exits on the 256-node disk with f = g = 1, each pinned
    # bit for bit: (lam = mu, max_iter, certify_feasible) ->
    # (verdict, reason, iterations, newton_steps, last_increment, final_residual)
    @pytest.mark.parametrize("lam, max_iter, certify, expected", [
        (0.78, 10_000, False, (Verdict.CONVERGED, None, 20, 3, 4.728550884181004e-12,
                               (3.856115426970064e-11, 3.856115426970064e-11))),
        (0.7, 10_000, True, (Verdict.FEASIBLE, None, 3, 0, 0.02482707441475049, None)),
        (3.0, 10_000, False, (Verdict.NONEXISTENCE_SUSPECTED,
                              NonexistenceReason.TOUCHED_ONE, 2, 0, 4.795345680417561, None)),
        (0.8, 10_000, False, (Verdict.NONEXISTENCE_SUSPECTED,
                              NonexistenceReason.UNSTABLE_SUBSOLUTION, 13, 1,
                              0.014947657694065364, None)),
        (0.7, 3, False, (Verdict.INCONCLUSIVE, None, 3, 0, 0.02482707441475049, None)),
    ], ids=["converged", "feasible", "touched-one", "unstable-subsolution", "inconclusive"])
    def test_every_exit_pinned(self, disk256, ones_disk, lam, max_iter, certify, expected):
        out = minimal_solve(disk256, ones_disk, ones_disk, lam, lam,
                            SolveConfig(max_iter=max_iter), certify_feasible=certify)
        assert (out.verdict, out.reason, out.iterations, out.newton_steps,
                out.last_increment, out.final_residual) == expected
        assert (out.state is None) is (out.verdict in (Verdict.NONEXISTENCE_SUSPECTED,
                                                       Verdict.INCONCLUSIVE))
        assert (out.supersolution is None) is (out.verdict is not Verdict.FEASIBLE)


def picard_only(mesh, f, g, lam, mu, cfg=SolveConfig()):
    """Reference loop: the plain Jacobi Picard iteration, no Newton steps."""
    op = mesh.operator
    u = v = np.zeros(mesh.n_nodes)
    for _ in range(cfg.max_iter):
        u_new = op.solve(lam * f.values / (1.0 - v) ** 2)
        v_new = op.solve(mu * g.values / (1.0 - u) ** 2)
        if 1.0 - max(u_new.max(), v_new.max()) < cfg.touch_threshold:
            return Verdict.NONEXISTENCE_SUSPECTED, None
        inc = max(np.max(np.abs(u_new - u)), np.max(np.abs(v_new - v)))
        u, v = u_new, v_new
        state = StatePair(u=u, v=v)
        if inc <= cfg.tol_sup and max(residual(mesh, f, g, lam, mu, state)) <= (
            1e-6 * (lam + mu)
        ):
            return Verdict.CONVERGED, state
    return Verdict.INCONCLUSIVE, None


class TestNewtonFinish:
    @pytest.mark.parametrize("theta, lam, verdict", [
        (1.0, 0.78, Verdict.CONVERGED),
        (1.0, 0.785, Verdict.CONVERGED),
        # past lam*(theta) the linearization stops being an M-matrix along
        # the iteration; a Newton step taken without the d >= 0 certificate
        # breaks the node-wise increase here
        (1.0, 0.8, Verdict.NONEXISTENCE_SUSPECTED),
        (0.5, 1.15, Verdict.NONEXISTENCE_SUSPECTED),
        (2.0, 0.58, Verdict.NONEXISTENCE_SUSPECTED),
    ])
    def test_monotone_increase_exact(self, disk256, ones_disk, theta, lam, verdict):
        out = minimal_solve(
            disk256, ones_disk, ones_disk, lam, theta * lam,
            on_step=monotone_watch(disk256),
        )
        assert out.verdict is verdict
        assert out.newton_steps > 0 or verdict is not Verdict.CONVERGED

    @pytest.mark.parametrize("lam", [0.78, 0.785])
    def test_symmetric_reduction_bitwise(self, disk256, ones_disk, lam):
        seen = []
        out = minimal_solve(
            disk256, ones_disk, ones_disk, lam, lam,
            on_step=lambda it, u, v: seen.append(np.array_equal(u, v)),
        )
        assert out.newton_steps > 0
        assert len(seen) == out.iterations and all(seen)

    @pytest.mark.parametrize("theta, lam_star", [(1.0, 0.78923), (0.5, 1.08844)])
    def test_verdicts_match_picard(self, theta, lam_star):
        # lam_star: this mesh's critical parameter on the ray, to about 1e-5
        mesh = build_radial(2, 1.0, 1024)
        one = constant_profile(mesh, 1.0)
        newton_used = 0
        verdicts = set()
        for factor in (0.9, 0.99, 0.997, 0.9995, 1.0005, 1.003, 1.01, 1.1):
            lam = factor * lam_star
            out = minimal_solve(mesh, one, one, lam, theta * lam)
            verdict, state = picard_only(mesh, one, one, lam, theta * lam)
            assert out.verdict is verdict, factor
            verdicts.add(verdict)
            newton_used += out.newton_steps
            if state is not None:
                assert np.max(np.abs(out.state.u - state.u)) <= 1e-8
                assert np.max(np.abs(out.state.v - state.v)) <= 1e-8
        assert verdicts == {Verdict.CONVERGED, Verdict.NONEXISTENCE_SUSPECTED}
        assert newton_used > 0

    def test_ball_n8_takes_newton(self):
        # lam* = 4.444 on this ball; its origin weight is 3.4e-24, and the
        # CG Newton system keeps d >= 0 there, so the finish is not refused
        ball = build_radial(8, 1.0, 512)
        one = constant_profile(ball, 1.0)
        out = minimal_solve(ball, one, one, 4.3, 4.3, on_step=monotone_watch(ball))
        assert out.converged
        assert out.newton_steps > 0
        assert out.iterations < 40   # pure Picard takes 40 loop steps here

    def test_rectangle_takes_newton(self):
        square = build_rect(1.0, 1.0, 24, 24)
        one = constant_profile(square, 1.0)
        out = minimal_solve(square, one, one, 2.6, 2.6)  # lam* ~ 2.68 here
        assert out.converged
        assert out.newton_steps > 0
        assert out.iterations < 60   # pure Picard takes 60 loop steps here

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(t=st.one_of(st.floats(0.5, 0.999), st.floats(1.001, 1.1)))
    def test_rectangle_verdict_matches_side(self, t):
        # rectangle Newton steps solve J d = r by CG: on either side of lam*
        # the verdict is still the side t is on, and every iterate still
        # increases node-wise with no slack
        square = build_rect(1.0, 1.0, 32, 32)
        one = constant_profile(square, 1.0)
        lam = t * SQUARE_LAM_STAR[32]
        out = minimal_solve(square, one, one, lam, lam, on_step=monotone_watch(square))
        if t < 1.0:
            assert out.converged
            assert max(residual(square, one, one, lam, lam, out.state)) <= 1e-6 * 2 * lam
        else:
            assert out.verdict is Verdict.NONEXISTENCE_SUSPECTED


class TestNonexistenceCertificate:
    def test_fires_long_before_touch(self):
        # lam*(1 + 1e-6) on the 1024-node disk: the Picard loop alone
        # crawls through the fold's bottleneck for 1418 loop steps before
        # it touches; the Collatz-Wielandt test at the refused Newton step
        # ends the probe at loop step 49
        mesh = build_radial(2, 1.0, 1024)
        one = constant_profile(mesh, 1.0)
        lam = DISK1024_LAM_STAR * (1.0 + 1e-6)
        out = minimal_solve(mesh, one, one, lam, lam)
        assert out.verdict is Verdict.NONEXISTENCE_SUSPECTED
        assert out.reason is NonexistenceReason.UNSTABLE_SUBSOLUTION
        assert out.iterations <= 0.1 * 1418
        below = minimal_solve(mesh, one, one, lam / (1.0 + 2e-6), lam / (1.0 + 2e-6))
        assert below.converged


class TestRefusals:
    """Checks that refuse a Newton step or end the Collatz-Wielandt test
    early.  At lam = mu = 0.78 on the 256-node disk the solve converges in
    20 loop steps, 3 of them Newton steps; with its first Newton step
    refused it ends Newton there and converges by Picard steps alone."""

    def _picard_finish(self, disk256, ones_disk, newton):
        out = minimal_solve(disk256, ones_disk, ones_disk, 0.78, 0.78)
        assert out.converged
        assert out.iterations == 93 and out.newton_steps == 0
        assert np.max(np.abs(out.state.u - newton.state.u)) <= 3.7e-10
        assert np.max(np.abs(out.state.v - newton.state.v)) <= 3.7e-10

    def test_cg_missing_its_tolerance_refuses(self, disk256, ones_disk, monkeypatch):
        newton = minimal_solve(disk256, ones_disk, ones_disk, 0.78, 0.78)
        assert newton.iterations == 20 and newton.newton_steps == 3
        monkeypatch.setattr(memslab.mesh, "_CG_MAX_ITER", 0)
        self._picard_finish(disk256, ones_disk, newton)

    @pytest.mark.parametrize("entry", [-1.0, np.nan])
    def test_step_not_nonnegative_refuses(self, disk256, ones_disk, monkeypatch, entry):
        newton = minimal_solve(disk256, ones_disk, ones_disk, 0.78, 0.78)
        calls = []

        def solve_coupled(self, a, r):
            calls.append(1)
            return np.full_like(r, entry)

        monkeypatch.setattr(DirichletLaplacian, "solve_coupled", solve_coupled)
        self._picard_finish(disk256, ones_disk, newton)
        assert len(calls) == 1   # one refused step ends Newton for the solve

    def _coupling_calls(self, monkeypatch):
        calls = []

        def counted(coeff, x):
            calls.append(1)
            return coupling_weights(coeff, x)

        monkeypatch.setattr(memslab.solver, "coupling_weights", counted)
        return calls

    def test_unstable_test_needs_a_nonzero_residual(self, disk256, ones_disk, monkeypatch):
        # x = T(prev) with x == prev: the residual F(x) - F(prev) is 0
        state = minimal_solve(disk256, ones_disk, ones_disk, 0.5, 0.5).state
        x = np.stack([state.u, state.v])
        calls = self._coupling_calls(monkeypatch)
        coeff = _coefficients(ones_disk, ones_disk, 0.5, 0.5)
        assert not _unstable_subsolution(disk256.operator, coeff, x, x.copy(),
                                         np.empty_like(x))
        assert not calls   # refused before the couplings

    def test_unstable_test_needs_a_positive_start(self, disk256, ones_disk, monkeypatch):
        # prev = 0 makes the residual >= 0 and nonzero; the zero entry of
        # x[1], the Perron test's first z, ends it before any solve
        state = minimal_solve(disk256, ones_disk, ones_disk, 0.5, 0.5).state
        x = np.stack([state.u, state.v])
        x[1, 0] = 0.0
        calls = self._coupling_calls(monkeypatch)
        monkeypatch.setattr(DirichletLaplacian, "solve", None)   # any solve fails
        coeff = _coefficients(ones_disk, ones_disk, 0.5, 0.5)
        assert not _unstable_subsolution(disk256.operator, coeff, x, np.zeros_like(x),
                                         np.empty_like(x))
        assert len(calls) == 1


def _indicator_square():
    """The 32^2 square with f the indicator of its left half (so f = 0 on
    half the nodes) and g = 1."""
    square = build_rect(1.0, 1.0, 32, 32)
    left = np.repeat((np.arange(32) + 0.5) / 32 < 0.5, 32).astype(float)
    return square, tabulated_profile(square, left), constant_profile(square, 1.0)


class TestFeasibilityCertificate:
    def test_ends_feasible_probe_early(self):
        # 0.5 lam*(1) on the 4096-node disk: a plain solve converges in 14
        # loop steps; the super-solution test passes at loop step 3
        disk = build_radial(2, 1.0, 4096)
        one = constant_profile(disk, 1.0)
        lam = 0.5 * DISK4096_LAM_STAR
        plain = minimal_solve(disk, one, one, lam, lam)
        out = minimal_solve(disk, one, one, lam, lam, certify_feasible=True)
        assert plain.converged and plain.iterations == 14
        assert plain.supersolution is None
        assert out.verdict is Verdict.FEASIBLE
        assert out.iterations <= 5

    @pytest.mark.parametrize("case", ["disk4096", "indicator-square32"])
    def test_witness_is_a_supersolution(self, case):
        # checked apart from the package's solves: A^-1 by a sparse LU on the
        # independently assembled operator matrix.  On the indicator square the certificate fires
        # although the defect of the witness vanishes, up to rounding, at
        # the nodes where f = 0
        if case == "disk4096":
            mesh = build_radial(2, 1.0, 4096)
            f = g = constant_profile(mesh, 1.0)
            lam = 0.5 * DISK4096_LAM_STAR
        else:
            mesh, f, g = _indicator_square()
            lam = 3.0
            assert np.any(f.values == 0)
        out = minimal_solve(mesh, f, g, lam, lam, certify_feasible=True)
        assert out.verdict is Verdict.FEASIBLE
        big_u, big_v = out.supersolution.u, out.supersolution.v
        assert min(big_u.min(), big_v.min()) >= 0
        assert max(big_u.max(), big_v.max()) < 1.0 - SolveConfig().touch_threshold
        a = oracle_matrix(mesh).tocsc()
        t_u = spsolve(a, lam * f.values / (1.0 - big_v) ** 2)
        t_v = spsolve(a, lam * g.values / (1.0 - big_u) ** 2)
        assert np.all(t_u <= big_u) and np.all(t_v <= big_v)
        # the state is a Picard iterate: below the minimal solution, which
        # lies below the witness
        plain = minimal_solve(mesh, f, g, lam, lam)
        assert plain.converged
        assert np.all(out.state.u <= plain.state.u) and np.all(plain.state.u <= big_u)
        assert np.all(out.state.v <= plain.state.v) and np.all(plain.state.v <= big_v)


class TestWarmStart:
    def test_matches_cold_solve(self, disk256, ones_disk):
        # the converged state at 0.99 lam on the ray lies below the minimal
        # solution at lam, so the solve from it meets the same contract and
        # lands on the same state
        lam, theta = 0.78, 0.8
        low = minimal_solve(disk256, ones_disk, ones_disk, 0.99 * lam, 0.99 * theta * lam)
        cold = minimal_solve(disk256, ones_disk, ones_disk, lam, theta * lam)
        warm = minimal_solve(disk256, ones_disk, ones_disk, lam, theta * lam,
                             start=(low.state.u, low.state.v))
        assert cold.converged and warm.converged
        contract = 1e-6 * (1.0 + theta) * lam
        assert max(warm.final_residual) <= contract
        assert np.max(np.abs(warm.state.u - cold.state.u)) <= 1e-9
        assert np.max(np.abs(warm.state.v - cold.state.v)) <= 1e-9

    @pytest.mark.parametrize("mesh_name", ["disk256", "square64"])
    def test_non_subsolution_start_falls_back(self, request, mesh_name):
        # the minimal solution at a larger lam is a strict super-solution at
        # lam: the first step sees T(start) < start and restarts from (0, 0),
        # so the solve repeats the cold one bit for bit
        mesh = request.getfixturevalue(mesh_name)
        one = constant_profile(mesh, 1.0)
        lam = 0.4 * principal_eigenpair(mesh.operator).value / 8.0
        high = minimal_solve(mesh, one, one, 1.5 * lam, 1.5 * lam)
        cold = minimal_solve(mesh, one, one, lam, lam)
        warm = minimal_solve(mesh, one, one, lam, lam, start=(high.state.u, high.state.v))
        assert high.converged and cold.converged and warm.converged
        assert warm.iterations == cold.iterations
        np.testing.assert_array_equal(warm.state.u, cold.state.u)
        np.testing.assert_array_equal(warm.state.v, cold.state.v)

    def test_start_must_live_on_the_mesh(self, disk256, ones_disk):
        with pytest.raises(PreconditionError):
            minimal_solve(disk256, ones_disk, ones_disk, 0.5, 0.5,
                          start=(np.zeros(3), np.zeros(3)))


class TestStableStart:
    def test_passes_at_a_stable_state(self, disk256, ones_disk):
        # the minimal solution below lam* is stable: rho(K(0)) < 1 there
        lam = 0.9 * DISK4096_LAM_STAR
        out = minimal_solve(disk256, ones_disk, ones_disk, lam, lam)
        assert out.converged
        x = np.stack([out.state.u, out.state.v])
        assert certify_stable_start(disk256, ones_disk, ones_disk, lam, lam, x, x[1])

    def test_refuses_at_the_fold(self):
        # at the upper window end lam_hat (1 + 0.4 rtol) of a two-level ray,
        # the 64-node fold state on the 2,048-node disk has rho(K(0)) just
        # above 1 (1.0003); the Picard step y that certifies the lower end
        # lam_hat (1 - 0.4 rtol), lowered along the null vector, is stable
        from memslab.curve import (CurveConfig, _below_fold, _coarse_prediction, _prolong,
                                   probe_budget)

        mesh = build_radial(2, 1.0, 2048)
        one = constant_profile(mesh, 1.0)
        cfg = CurveConfig()
        _, fold = _coarse_prediction(mesh, one, one, 1.0, cfg)
        x = _prolong(fold.x, fold, mesh)
        lo, lam = fold.lam * (1.0 - 0.4 * cfg.rtol), fold.lam * (1.0 + 0.4 * cfg.rtol)
        y = certify_supersolution(mesh, one, one, lo, lo, x, probe_budget(cfg.solve))
        s, phi = _below_fold(y, fold, mesh)
        # max(K z / z) bounds rho from above whatever the positive z; from
        # z = 1, far from the Perron vector, min(K z / z) falls below 1
        for z in (phi[1], np.ones(mesh.n_nodes)):
            assert not certify_stable_start(mesh, one, one, lam, lam, x, z)
        assert certify_stable_start(mesh, one, one, lam, lam, s, phi[1])
        assert np.all(s < y)

    def test_refusals(self, disk256, ones_disk):
        # a state touching 1, or a start field that is not positive, proves nothing
        x = np.zeros((2, disk256.n_nodes))
        z = np.ones(disk256.n_nodes)
        assert certify_stable_start(disk256, ones_disk, ones_disk, 0.1, 0.1, x, z)
        x[0, 3] = 1.0
        assert not certify_stable_start(disk256, ones_disk, ones_disk, 0.1, 0.1, x, z)
        x[0, 3], z[3] = 0.0, 0.0
        assert not certify_stable_start(disk256, ones_disk, ones_disk, 0.1, 0.1, x, z)
        with pytest.raises(PreconditionError):
            certify_stable_start(disk256, ones_disk, ones_disk, -0.1, 0.1, x, z + 1.0)


class TestCertifySupersolution:
    def test_returns_the_picard_step_it_certified(self, disk256, ones_disk):
        # the solution x at lam passes at 0.9 lam, where T(x) = 0.9 x with
        # f = g = 1, and the certificate returns that T(x); at lam itself
        # T(x) = x is not strictly below x
        lam = 0.8 * DISK4096_LAM_STAR
        out = minimal_solve(disk256, ones_disk, ones_disk, lam, lam)
        x = np.stack([out.state.u, out.state.v])
        y = certify_supersolution(disk256, ones_disk, ones_disk, 0.9 * lam, 0.9 * lam, x)
        coeff = np.stack([0.9 * lam * ones_disk.values] * 2)
        np.testing.assert_array_equal(y, disk256.operator.solve(source(coeff, x[::-1])))
        np.testing.assert_allclose(y, 0.9 * x, rtol=1e-6)
        assert certify_supersolution(disk256, ones_disk, ones_disk, lam, lam, x) is None


class TestSupersolutionDescend:
    """The quadratic shape (1 - (r/R)^2) / 3 is a discrete super-solution at
    lam = mu = 8N/27, the constant of the box ``curve.lower_bound`` certifies
    on the unit ball for N <= 2."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_quadratic_signed_defect(self, dim):
        # -Lap w = 2N/3 >= (8N/27)/(1-w)^2 node-wise, equality at the origin
        mesh = build_radial(dim, 1.0, 256)
        one = constant_profile(mesh, 1.0)
        lam = 8.0 * dim / 27.0
        w = (1.0 - (mesh.radii / mesh.radius) ** 2) / 3.0
        state = StatePair(u=w, v=w)
        defect = mesh.operator.apply(w) - lam / (1.0 - w) ** 2
        assert np.min(defect) >= -1e-8
        res = residual(mesh, one, one, lam, lam, state)
        assert max(res) < np.max(np.abs(mesh.operator.apply(w)))  # sanity


class TestResidual:
    def test_zero_state_zero_parameters(self, disk256, ones_disk):
        zero = StatePair(u=np.zeros(disk256.n_nodes), v=np.zeros(disk256.n_nodes))
        assert residual(disk256, ones_disk, ones_disk, 0.0, 0.0, zero) == (0.0, 0.0)

    def test_solution_snapshot_csv(self, disk256, ones_disk, tmp_path):
        out = minimal_solve(disk256, ones_disk, ones_disk, 0.4, 0.4)
        path = tmp_path / "solution.csv"
        write_solution_csv(path, disk256, out.state, fingerprint="cafe")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_fingerprint: cafe"
        assert lines[1] == "r,u,v"
        assert len(lines) == 2 + disk256.n_nodes

    def test_solution_snapshot_csv_rect(self, tmp_path):
        rect = build_rect(2.0, 1.0, 16, 20)
        u = np.arange(rect.n_nodes, dtype=float)
        path = tmp_path / "solution.csv"
        write_solution_csv(path, rect, StatePair(u=u, v=2.0 * u))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,u,v"
        assert len(lines) == 1 + rect.n_nodes
        rows = [[float(c) for c in line.split(",")] for line in lines[1:]]
        hx, hy, ny = 2.0 / 16, 1.0 / 20, 20
        assert rows[1] == [hx / 2, 1.5 * hy, 1.0, 2.0]
        assert rows[ny] == [1.5 * hx, hy / 2, 20.0, 40.0]


class TestSolveConfig:
    def test_validation(self):
        with pytest.raises(PreconditionError):
            SolveConfig(tol_sup=0.0)
        with pytest.raises(PreconditionError):
            SolveConfig(tol_sup=1e-3, touch_threshold=1e-6)
        for touch in (1.0, 1.5, float("inf")):
            with pytest.raises(PreconditionError):
                SolveConfig(touch_threshold=touch)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5])
    def test_max_iter_must_be_positive_integer(self, max_iter):
        with pytest.raises(PreconditionError):
            SolveConfig(max_iter=max_iter)
