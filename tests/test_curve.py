import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import jn_zeros

from memslab import ConfigurationError, build_radial, build_rect, principal_eigenpair
from memslab.acceptance import GOLDEN_DISK_LAM_STAR
from memslab.curve import (
    BoundReport,
    CurveConfig,
    RaySample,
    Witness,
    bound_report,
    ray_upper_bound,
    check_theta_grid,
    compare_symmetrized,
    dimension_constant,
    extremal_on_ray,
    lower_bound,
    lower_bound_power,
    probe_budget,
    upper_bound,
    write_bounds_json,
    write_trace_csv,
)
from memslab.profiles import constant_profile, power_profile, tabulated_profile
from memslab.solver import SolveConfig

FAST = CurveConfig(rtol=2e-3)


@pytest.fixture(scope="module")
def disk():
    return build_radial(2, 1.0, 256)


@pytest.fixture(scope="module")
def one(disk):
    return constant_profile(disk, 1.0)


class TestBoundArithmetic:
    def test_dimension_constant(self):
        assert dimension_constant(1) == pytest.approx(8.0 / 27.0)   # (6N-8)/9 < 0
        assert dimension_constant(2) == pytest.approx(16.0 / 27.0)
        assert dimension_constant(3) == pytest.approx(10.0 / 9.0)   # max{24/27, 10/9}

    def test_lower_bound_unit_disk(self):
        a_f, a_g = lower_bound(1.0, 1.0, math.pi, 2)
        assert a_f == pytest.approx(16.0 / 27.0)
        assert a_g == pytest.approx(16.0 / 27.0)

    def test_lower_bound_scales_with_sup(self):
        a_f, _ = lower_bound(0.5, 1.0, math.pi, 2)
        assert a_f == pytest.approx(32.0 / 27.0)

    def test_lower_bound_rejects_zero_sup(self):
        with pytest.raises(ConfigurationError):
            lower_bound(0.0, 1.0, math.pi, 2)

    def test_power_bound_examples(self):
        a, b = lower_bound_power(0.0, 0.0, 1.0, 2)
        assert a == pytest.approx(16.0 / 27.0)  # max{16/27, 4/9}
        a, b = lower_bound_power(2.0, 2.0, 1.0, 2)
        assert a == b == pytest.approx(64.0 / 27.0)  # max{64/27, 16/9}

    def test_power_bound_alpha_zero_matches_constant_bound(self):
        # r^0 = 1 on the unit ball: both formulas must coincide
        for dim in (1, 2, 3, 5):
            a_pow, _ = lower_bound_power(0.0, 0.0, 1.0, dim)
            ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
            a_gen, _ = lower_bound(1.0, 1.0, ball, dim)
            assert a_pow == pytest.approx(a_gen, rel=1e-12)

    def test_upper_bound(self):
        j01sq = float(jn_zeros(0, 1)[0] ** 2)
        uf, ug = upper_bound(j01sq, 1.0, 1.0)
        assert uf == pytest.approx(4.0 * j01sq / 27.0)
        assert uf == pytest.approx(0.8568, abs=1e-4)
        uf, ug = upper_bound(j01sq, 0.0, 1.0)
        assert uf is None and ug is not None
        uf, _ = upper_bound(math.pi**2 / 4.0, 1.0, 1.0)
        assert uf == pytest.approx(math.pi**2 / 27.0)

    def test_report_fields(self, disk, one):
        rep = bound_report(disk, one, one)
        assert isinstance(rep, BoundReport)
        assert rep.c_n == pytest.approx(16.0 / 27.0)
        assert rep.a_f <= rep.upper_f
        assert rep.equal_measure_radius == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["disk", "rect"])
    def test_report_mu1_matches_power_iteration(self, disk, kind):
        mesh = disk if kind == "disk" else build_rect(2.0, 0.5, 16, 40)
        one = constant_profile(mesh, 1.0)
        # mu1 is the upper end of the Collatz-Wielandt enclosure (radial) or
        # the sine modes' closed form (rectangles); the Rayleigh quotient of
        # psi is computed apart from both
        psi = principal_eigenpair(mesh.operator).vector
        expected = mesh.operator.dirichlet_energy(psi) / (mesh.weights @ (psi * psi))
        assert bound_report(mesh, one, one).mu1 == pytest.approx(expected, rel=1e-10)

    def test_report_power_profile_has_no_upper(self, disk):
        fpow = power_profile(disk, 2.0)
        rep = bound_report(disk, fpow, fpow)
        assert rep.upper_f is None and rep.upper_g is None
        assert ray_upper_bound(rep, 1.0) is None
        assert ray_upper_bound(bound_report(disk, constant_profile(disk, 1.0), fpow),
                               1.0) is None

    def test_ray_upper_bound_arms(self, disk, one):
        # the product bound in the middle, each single-equation cap at an end
        rep = bound_report(disk, one, constant_profile(disk, 0.5))
        mu1 = rep.mu1 * (1.0 + 1e-9)
        assert ray_upper_bound(rep, 1.0) == 4.0 * mu1 / (27.0 * math.sqrt(0.5))
        assert ray_upper_bound(rep, 1e-4) == mu1           # lam < mu1 / inf f
        assert ray_upper_bound(rep, 1e4) == mu1 / (1e4 * 0.5)  # mu < mu1 / inf g
        # on the diagonal of the symmetric reduction it is the eigenvalue corner
        assert ray_upper_bound(bound_report(disk, one, one), 1.0) == pytest.approx(
            bound_report(disk, one, one).upper_f, rel=2e-9)

    @pytest.mark.parametrize("theta", [0.05, 0.2, 1.0, 4.0, 20.0])
    def test_ray_upper_bound_holds_off_the_diagonal(self, disk, one, theta):
        # the eigenvalue corner lay below lam* off the diagonal (0.857 against
        # 1.544 at theta = 0.2); the coupled bound lies above the whole bracket
        s = extremal_on_ray(disk, one, one, theta, FAST)
        assert s.lower_cert <= s.lam_lo < s.lam_hi <= s.upper_cert
        assert 0.55 < s.lam_star / s.upper_cert < 0.93   # 0.59 at theta = 20


class TestExtremalOnRay:
    def test_unit_disk_bracket_and_golden(self, disk, one):
        s = extremal_on_ray(disk, one, one, 1.0, FAST)
        assert 16.0 / 27.0 <= s.lam_star <= s.upper_cert
        assert s.lam_star == pytest.approx(GOLDEN_DISK_LAM_STAR, rel=0.005)
        assert s.lower_cert <= s.lam_star * (1.0 + s.bracket_width)
        assert s.lam_star <= s.upper_cert * (1.0 + s.bracket_width)
        assert s.mu_star == s.lam_star

    def test_scaling_law(self):
        # lam*(B_R) = lam*(B_1) / R^2
        samples = {}
        for radius in (0.5, 1.0, 2.0):
            mesh = build_radial(2, radius, 256)
            one = constant_profile(mesh, 1.0)
            samples[radius] = extremal_on_ray(mesh, one, one, 1.0, FAST)
        products = [s.lam_star * r**2 for r, s in samples.items()]
        assert max(products) / min(products) <= 1.01
        assert samples[0.5].lam_star >= samples[1.0].lam_star

    def test_lower_set_in_theta(self, disk, one):
        s1 = extremal_on_ray(disk, one, one, 1.0, FAST)
        s4 = extremal_on_ray(disk, one, one, 4.0, FAST)
        assert s4.lam_star <= s1.lam_star

    def test_power_profile_ray_uses_expansion(self, disk):
        # inf f = 0: no upper certificate, bracket found by doubling
        fpow = power_profile(disk, 2.0)
        s = extremal_on_ray(disk, fpow, fpow, 1.0, FAST)
        assert s.upper_cert is None
        assert s.lam_star >= 64.0 / 27.0  # certified lower box
        assert s.lower_cert == pytest.approx(16.0 / 27.0)  # measure-based bound

    def test_rejects_bad_theta(self, disk, one):
        for theta in (0.0, math.nan, math.inf):
            with pytest.raises(ConfigurationError):
                extremal_on_ray(disk, one, one, theta, FAST)

    def test_newton_step_into_touch_band_ends_probe(self):
        # the probe at lam = 0.7637870, warm-started from a certified feasible
        # iterate, makes a Newton step to max z = 1.13; z lies below every
        # solution, so it is a touch witness that ends the probe after 8 steps
        ball = build_radial(1, 1.0, 512)
        one = constant_profile(ball, 1.0)
        s = extremal_on_ray(ball, one, one, 0.158)
        assert s.iterations_total <= 150
        assert s.touched_probes == 3
        assert s.lam_star == pytest.approx(0.7452212809532319, rel=1e-12)


class TestTraceCurve:
    def test_monotone_and_symmetric(self, disk, one):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        rays = [extremal_on_ray(disk, one, one, theta, FAST) for theta in grid]
        lams = [s.lam_star for s in rays]
        slack = 2.0 * max(s.bracket_width for s in rays)
        assert all(b <= a * (1.0 + slack) for a, b in zip(lams, lams[1:]))
        # swap symmetry of the two components: mu*(theta) = lam*(1/theta)
        assert rays[-1].mu_star == pytest.approx(rays[0].lam_star, rel=slack)

    def test_grid_validation(self):
        check_theta_grid([0.5, 1, 2.0])
        with pytest.raises(ConfigurationError):
            check_theta_grid([1.0, 0.5])
        with pytest.raises(ConfigurationError):
            check_theta_grid([-1.0, 0.5])
        for grid in ([math.nan], [1.0, math.inf], [], [1.0, "2"], [10**400]):
            with pytest.raises(ConfigurationError):
                check_theta_grid(grid)

    def test_grid_validation_upper_end(self):
        # the fractions of approach_extremal lie in the open interval (0, 1)
        check_theta_grid([0.25, 0.5, 0.99], 1.0)
        for grid in ([0.5, 1.0], [1], [0.5, 10**400], ["0.5"], []):
            with pytest.raises(ConfigurationError):
                check_theta_grid(grid, 1.0)

    @pytest.mark.parametrize("rtol", [0.0, -1e-3, 1.0, math.nan])
    def test_config_rejects_bad_rtol(self, rtol):
        with pytest.raises(ConfigurationError):
            CurveConfig(rtol=rtol)


class TestCompareSymmetrized:
    def test_radial_problem_identical(self, disk, one):
        # rearranging an already-radial setup reproduces the same ray
        s_orig, s_star = compare_symmetrized(disk, one, one, disk, 1.0, FAST)
        assert s_orig.lam_star == pytest.approx(
            s_star.lam_star, rel=2 * max(s_orig.bracket_width, s_star.bracket_width)
        )

    def test_square_dominates_disk(self):
        rect = build_rect(1.0, 1.0, 32, 32)
        disk = build_radial(2, (1.0 / math.pi) ** 0.5, 128)
        f = constant_profile(rect, 1.0)
        s_orig, s_star = compare_symmetrized(rect, f, f, disk, 1.0, FAST)
        slack = 2.0 * max(s_orig.bracket_width, s_star.bracket_width)
        assert s_orig.lam_star >= s_star.lam_star * (1.0 - slack)

    def test_indicator_profile(self):
        rect = build_rect(1.0, 1.0, 32, 32)
        disk = build_radial(2, (1.0 / math.pi) ** 0.5, 128)
        f = tabulated_profile(rect, (rect.coordinates["x"] < 0.5).astype(float))
        g = constant_profile(rect, 1.0)
        s_orig, s_star = compare_symmetrized(rect, f, g, disk, 1.0, FAST)
        slack = 2.0 * max(s_orig.bracket_width, s_star.bracket_width)
        assert s_orig.lam_star >= s_star.lam_star * (1.0 - slack)

    def test_measure_mismatch(self, disk, one):
        rect = build_rect(2.0, 1.0, 32, 16)
        with pytest.raises(ConfigurationError):
            compare_symmetrized(rect, constant_profile(rect, 1.0),
                                constant_profile(rect, 1.0), disk, 1.0, FAST)


class TestSerialization:
    def test_trace_csv(self, disk, one, tmp_path):
        rays = [extremal_on_ray(disk, one, one, theta, FAST) for theta in (0.5, 1.0)]
        path = tmp_path / "curve.csv"
        write_trace_csv(path, rays, disk, one, one, fingerprint="f00d")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_fingerprint: f00d"
        header = lines[2].split(",")
        assert header == ["theta", "lambda_star", "mu_star", "bracket_width",
                          "lower_cert", "upper_cert", "solver_iters_total",
                          "unresolved_probes", "newton_steps", "supersolution_probes",
                          "unstable_probes", "touched_probes", "upper_unverified",
                          "lambda_lo", "lambda_hi", "lo_witness", "hi_witness"]
        assert len(lines) == 3 + 2
        # the integer columns, and at least one probe ended by the certificate
        rows = [dict(zip(header, line.split(","))) for line in lines[3:]]
        assert all(int(r["supersolution_probes"]) >= 1 for r in rows)
        for ray, row in zip(rays, rows):
            assert (float(row["lambda_lo"]), float(row["lambda_hi"])) == (ray.lam_lo,
                                                                           ray.lam_hi)
            assert int(row["lo_witness"]) in (Witness.CONVERGED, Witness.SUPERSOLUTION)
            assert int(row["hi_witness"]) in (Witness.TOUCHED, Witness.UNSTABLE)

    def test_trace_csv_without_upper_cert(self, disk, one, tmp_path):
        half = constant_profile(disk, 0.5)
        ray = RaySample(theta=1.0, lam_lo=1.25, lam_hi=1.75,
                        lo_witness=Witness.CONVERGED, hi_witness=Witness.UNRESOLVED,
                        lower_cert=0.5, upper_cert=None, iterations_total=7)
        path = tmp_path / "curve.csv"
        write_trace_csv(path, [ray], disk, one, half)
        lines = path.read_text().splitlines()
        assert lines[0] == (f"# mesh: {disk.fingerprint()} "
                            f"profiles: {one.fingerprint()},{half.fingerprint()}")
        assert lines[2] == "1.0,1.5,1.5,0.3333333333333333,0.5,,7,0,0,0,0,0,1,1.25,1.75,1,0"

    def test_bounds_json(self, disk, one, tmp_path):
        import json

        rep = bound_report(disk, one, one)
        path = tmp_path / "bounds.json"
        write_bounds_json(path, rep, fingerprint="f00d")
        data = json.loads(path.read_text())
        assert data["config_fingerprint"] == "f00d"
        assert data["c_n"] == pytest.approx(16.0 / 27.0)


class TestBudgetHonesty:
    def test_unresolved_probes_keep_bracket(self):
        # starve the oracle: unresolved probes must widen, never mis-shrink.
        # At theta = 4 a budget of 2 (a probe gets 32 steps) resolves the
        # first 9 probes, most feasible ones by the super-solution
        # certificate; the 10th, mid-bisection at a bracket width of about
        # 6e-3, needs more than 32
        mesh = build_radial(2, 1.0, 64)
        one = constant_profile(mesh, 1.0)
        cfg = CurveConfig(rtol=1e-6, solve=SolveConfig(max_iter=2))
        s = extremal_on_ray(mesh, one, one, 4.0, cfg)
        assert s.unresolved_probes >= 1
        assert s.bracket_width > cfg.rtol
        assert s.lam_star > s.lower_cert * 0.99
        # both ends are probe verdicts: the unresolved probe is neither
        assert s.lo_witness is Witness.SUPERSOLUTION
        assert s.hi_witness is Witness.TOUCHED

    def test_one_solve_per_probe(self, monkeypatch):
        # the starved ray above has an unresolved probe: it is not retried
        import memslab.curve as curve_mod

        mesh = build_radial(2, 1.0, 64)
        one = constant_profile(mesh, 1.0)
        lams = []
        real = curve_mod.minimal_solve

        def recording(mesh, f, g, lam, *args, **kwargs):
            lams.append(lam)
            return real(mesh, f, g, lam, *args, **kwargs)

        monkeypatch.setattr(curve_mod, "minimal_solve", recording)
        cfg = CurveConfig(rtol=1e-6, solve=SolveConfig(max_iter=2))
        s = extremal_on_ray(mesh, one, one, 4.0, cfg)
        assert s.unresolved_probes >= 1
        assert all(a != b for a, b in zip(lams, lams[1:]))

    def test_a_lam_probed_twice_counts_both_verdicts(self, monkeypatch):
        # the 9-ball has no coarse fold, so its walk starts at the coarse
        # ray's lam_star; at theta = 0.2 a budget of 2 (32 steps a probe)
        # leaves that first probe unresolved, the walk steps down to a
        # feasible end and back up to the same lam, feasible from the new
        # start.  The unresolved verdict counts, and the feasible one is the
        # witness of that lam
        import memslab.curve as curve_mod

        mesh = build_radial(9, 1.0, 2048)
        one = constant_profile(mesh, 1.0)
        lams, real = [], curve_mod.minimal_solve

        def recording(m, f, g, lam, *args, **kwargs):
            if m is mesh:
                lams.append(lam)
            return real(m, f, g, lam, *args, **kwargs)

        monkeypatch.setattr(curve_mod, "minimal_solve", recording)
        s = extremal_on_ray(mesh, one, one, 0.2, CurveConfig(solve=SolveConfig(max_iter=2)))
        assert len(lams) == 5 and lams[2] == lams[0] < s.lam_lo
        assert s.unresolved_probes == 1
        assert (s.supersolution_probes, s.unstable_probes, s.touched_probes) == (3, 0, 1)
        assert s.lo_witness is Witness.SUPERSOLUTION and s.hi_witness is Witness.TOUCHED

    def test_unresolved_expansion_marks_upper_unverified(self):
        # g = r^2 vanishes at the origin, so the ray has no certified upper
        # end and the expansion doubles from the lower corner; at
        # theta = 0.251 lam* lies 0.6% above four times that corner, and a
        # budget of 1 (a probe gets 16 steps) leaves the probe there
        # unresolved.  Bisection below it finds only feasible probes, so no
        # probe ever showed the upper end infeasible, and indeed it is not
        mesh = build_radial(2, 1.0, 64)
        one = constant_profile(mesh, 1.0)
        g = power_profile(mesh, 2.0)
        starved = CurveConfig(rtol=1e-3, solve=SolveConfig(max_iter=1))
        s = extremal_on_ray(mesh, one, g, 0.251, starved)
        assert s.upper_unverified and s.hi_witness is Witness.UNRESOLVED
        assert s.unresolved_probes >= 1
        assert s.lam_hi == 4.0 * s.lower_cert
        full = extremal_on_ray(mesh, one, g, 0.251, CurveConfig(rtol=1e-3))
        assert not full.upper_unverified
        assert full.lam_lo > 4.0 * s.lower_cert


class TestIntervalPipeline:
    def test_dimension_one_sandwich(self):
        # the full pipeline on the symmetric interval: lam* in [8/27, pi^2/27]
        mesh = build_radial(1, 1.0, 256)
        one = constant_profile(mesh, 1.0)
        s = extremal_on_ray(mesh, one, one, 1.0, FAST)
        assert 8.0 / 27.0 <= s.lam_star <= math.pi**2 / 27.0 + 1e-3


class TestMeshConvergence:
    def test_lambda_star_stable_under_refinement(self):
        values = []
        for n in (512, 1024):
            mesh = build_radial(2, 1.0, n)
            one = constant_profile(mesh, 1.0)
            values.append(extremal_on_ray(mesh, one, one, 1.0, FAST).lam_star)
        assert abs(values[1] - values[0]) / values[0] <= 0.005


class TestHigherDimensions:
    @pytest.mark.parametrize("dim", [3, 5, 8])
    def test_bound_sandwich_across_dimensions(self, dim):
        mesh = build_radial(dim, 1.0, 256)
        one = constant_profile(mesh, 1.0)
        s = extremal_on_ray(mesh, one, one, 1.0, FAST)
        assert s.lower_cert <= s.lam_star * (1.0 + s.bracket_width)
        assert s.lam_star <= s.upper_cert * (1.0 + s.bracket_width)

    def test_critical_dimension_touches_certificate(self):
        # at dimension 8 the certificate constant is the critical value
        # itself (the cusp shape is extremal), so the numerical critical
        # parameter lands within a fraction of a percent of 40/9
        mesh = build_radial(8, 1.0, 256)
        one = constant_profile(mesh, 1.0)
        s = extremal_on_ray(mesh, one, one, 1.0, FAST)
        assert s.lam_star == pytest.approx(40.0 / 9.0, rel=2e-3)
        assert s.lam_star <= 40.0 / 9.0 + 1e-6  # approached from below

    def test_certificate_refusals_pinned(self, monkeypatch):
        # near the critical parameter of the 8-ball the solver refuses Newton
        # steps and a Perron test fails to certify instability: the refusal
        # branches run, and the ray still comes out bit for bit the same
        from memslab import solver

        refused, uncertified = [], []
        newton_step, unstable = solver._newton_step, solver._unstable_subsolution

        def counted_newton_step(*args):
            step = newton_step(*args)
            refused.append(step is None)
            return step

        def counted_unstable(*args):
            proof = unstable(*args)
            uncertified.append(not proof)
            return proof

        monkeypatch.setattr(solver, "_newton_step", counted_newton_step)
        monkeypatch.setattr(solver, "_unstable_subsolution", counted_unstable)
        mesh = build_radial(8, 1.0, 128)
        one = constant_profile(mesh, 1.0)
        s = extremal_on_ray(mesh, one, one, 0.5, CurveConfig(rtol=1e-7))
        assert sum(refused) >= 1 and sum(uncertified) >= 1
        assert s == RaySample(
            theta=0.5, lam_lo=6.098952519047208, lam_hi=6.098953005770014,
            lo_witness=Witness.CONVERGED, hi_witness=Witness.TOUCHED,
            lower_cert=4.444444444444445, upper_cert=8.527371271544206,
            iterations_total=816, unresolved_probes=0, newton_steps=38,
            supersolution_probes=5, unstable_probes=0, touched_probes=10)

    def test_infeasible_lower_corner_is_the_upper_end(self, monkeypatch):
        # on the 8-ball the box constant is the continuum lam* itself, above
        # the discrete one: the corner probe is infeasible, so it is the upper
        # end, and the walk steps down once to a feasible lower end
        import memslab.curve as curve_mod

        lams, real = [], curve_mod.minimal_solve

        def recording(mesh, f, g, lam, *args, **kwargs):
            lams.append(lam)
            return real(mesh, f, g, lam, *args, **kwargs)

        monkeypatch.setattr(curve_mod, "minimal_solve", recording)
        mesh = build_radial(8, 1.0, 128)
        one = constant_profile(mesh, 1.0)
        s = extremal_on_ray(mesh, one, one, 1.0, CurveConfig(rtol=1e-6))
        assert lams[:2] == [s.lower_cert, 0.5 * s.lower_cert]
        assert s.upper_cert not in lams and s.lam_hi < s.lower_cert
        assert s == RaySample(
            theta=1.0, lam_lo=4.443600972493488, lam_hi=4.443605211046006,
            lo_witness=Witness.CONVERGED, hi_witness=Witness.UNSTABLE,
            lower_cert=4.444444444444445, upper_cert=6.029762051804261,
            iterations_total=621, unresolved_probes=0, newton_steps=30,
            supersolution_probes=7, unstable_probes=2, touched_probes=3)


class TestWalk:
    """The walk that finds both ends of an analytic ray, on the 64-node disk."""

    @pytest.fixture()
    def probes(self, monkeypatch):
        """The lams a ray probes, in order; once ``probes.at`` is set to a
        pair (lam, mu), every probe solves there instead."""
        import memslab.curve as curve_mod

        class Probes(list):
            at = None

        probes, real = Probes(), curve_mod.minimal_solve

        def patched(mesh, f, g, lam, mu, *args, **kwargs):
            probes.append(lam)
            lam, mu = (lam, mu) if probes.at is None else probes.at
            return real(mesh, f, g, lam, mu, *args, **kwargs)

        monkeypatch.setattr(curve_mod, "minimal_solve", patched)
        return probes

    @pytest.fixture(scope="class")
    def disk64(self):
        return build_radial(2, 1.0, 64)

    def test_no_feasible_probe_raises(self, disk64, probes):
        # every probe solves at a parameter far past lam*: the walk goes down
        # from the corner, its step squares, and lam reaches 0
        from memslab import ConvergenceError

        one = constant_profile(disk64, 1.0)
        probes.at = (1e6, 1e6)
        with pytest.raises(ConvergenceError, match="no feasible parameter"):
            extremal_on_ray(disk64, one, one, 1.0)
        corner = probes[0]
        assert probes[:9] == [corner * 0.5 ** k for k in range(9)]
        assert probes[9] == probes[8] / 4.0 and probes[10] == probes[9] / 16.0
        assert 0.0 < probes[-1] and len(probes) < 60

    def test_every_probe_feasible_raises(self, disk64, probes):
        # every probe solves at a small parameter: from the corner the walk
        # goes to the certified upper end, then doubles, then squares its
        # step until lam overflows
        from memslab import UnboundedRayError

        one = constant_profile(disk64, 1.0)
        probes.at = (1e-3, 1e-3)
        with pytest.raises(UnboundedRayError, match="no infeasible parameter"):
            extremal_on_ray(disk64, one, one, 1.0)
        upper = ray_upper_bound(bound_report(disk64, one, one), 1.0)
        assert probes[1] == upper and probes[2] == 2.0 * upper
        assert probes[-1] < math.inf and len(probes) < 60

    def test_unresolved_lower_corner_walks_down(self, disk64, monkeypatch):
        # the corner probe runs out of budget: it sets no end, and the walk
        # steps down to a feasible lower end, then up to the certified upper
        # end
        import memslab.curve as curve_mod

        one = constant_profile(disk64, 1.0)
        corner = bound_report(disk64, one, one).a_f
        lams, real = [], curve_mod.minimal_solve

        def starved_corner(mesh, f, g, lam, mu, cfg, **kwargs):
            lams.append(lam)
            if lam == corner:
                cfg = replace(cfg, max_iter=1)
            return real(mesh, f, g, lam, mu, cfg, **kwargs)

        monkeypatch.setattr(curve_mod, "minimal_solve", starved_corner)
        s = extremal_on_ray(disk64, one, one, 1.0)
        assert lams[:3] == [corner, 0.5 * corner, s.upper_cert]
        assert s == RaySample(
            theta=1.0, lam_lo=0.788839769021003, lam_hi=0.7893870395462526,
            lo_witness=Witness.SUPERSOLUTION, hi_witness=Witness.UNSTABLE,
            lower_cert=0.5925925925925926, upper_cert=0.8567013141519626,
            iterations_total=102, unresolved_probes=1, newton_steps=7,
            supersolution_probes=5, unstable_probes=6, touched_probes=1)
        assert len(lams) == 13


def _step_profile(mesh, edge):
    """1 inside r < edge and 0.5 outside, a jump the coarse radii miss."""
    return tabulated_profile(mesh, np.where(mesh.radii < edge, 1.0, 0.5))


SWEEP = (0.2, 0.3, 0.45, 0.7, 1.0, 1.6, 2.5, 4.0)   # disk-sweep's grid


class TestTwoLevel:
    @pytest.fixture(scope="class")
    def disk2k(self):
        return build_radial(2, 1.0, 2048)

    @pytest.fixture()
    def fine_probes(self, disk2k, monkeypatch):
        """The lam of every probe on the fine mesh, in order."""
        import memslab.curve as curve_mod

        lams, real = [], curve_mod.minimal_solve

        def recording(mesh, f, g, lam, *args, **kwargs):
            if mesh is disk2k:
                lams.append(lam)
            return real(mesh, f, g, lam, *args, **kwargs)

        monkeypatch.setattr(curve_mod, "minimal_solve", recording)
        return lams

    def test_prediction_needs_a_large_radial_mesh(self, disk2k):
        from memslab.curve import _coarse_prediction

        for mesh in (build_radial(2, 1.0, 2047), build_rect(1.0, 1.0, 64, 64)):
            one = constant_profile(mesh, 1.0)
            assert _coarse_prediction(mesh, one, one, 1.0, CurveConfig()) is None
        one = constant_profile(disk2k, 1.0)
        assert _coarse_prediction(disk2k, one, one, 1.0, CurveConfig(rtol=5e-6)) is None
        # with no previous ray, the 64-node fold is polished from a coarse ray
        lam_c, fold = _coarse_prediction(disk2k, one, one, 1.0, CurveConfig())
        assert lam_c == fold.lam == pytest.approx(GOLDEN_DISK_LAM_STAR, rel=5e-4)
        assert fold.x.shape == fold.phi.shape == (2, 64) and fold.phi.min() > 0

    def test_two_probes_when_the_prediction_holds(self, disk2k, fine_probes):
        # the lower end is certified from the fold state, two solves and no
        # minimal_solve, and counts as a super-solution probe; the upper end
        # is the one probe left
        one = constant_profile(disk2k, 1.0)
        s = extremal_on_ray(disk2k, one, one, 1.0)
        assert fine_probes == [s.lam_hi]
        assert s.lam_lo == s.fold.lam * (1.0 - 0.4 * CurveConfig().rtol)
        assert s.bracket_width == pytest.approx(8e-4, rel=1e-9)
        assert s.lo_witness is Witness.SUPERSOLUTION and s.supersolution_probes == 1
        assert s.hi_witness in (Witness.TOUCHED, Witness.UNSTABLE)

    def test_a_sweep_continues_the_fold(self, disk2k, fine_probes, monkeypatch):
        import memslab.curve as curve_mod

        one = constant_profile(disk2k, 1.0)
        first = extremal_on_ray(disk2k, one, one, 1.0)
        rays, real = [], curve_mod._bracket

        def recording(mesh, *args):
            rays.append(mesh.n_nodes)
            return real(mesh, *args)

        monkeypatch.setattr(curve_mod, "_bracket", recording)
        fine_probes.clear()
        s = extremal_on_ray(disk2k, one, one, 1.6, previous=first)
        assert rays == [2048]   # no coarse ray: the fold came from first's
        assert fine_probes == [s.lam_hi] and s.lo_witness is Witness.SUPERSOLUTION
        assert s.fold.lam < first.fold.lam
        # a previous ray without a fold starts from a coarse ray again
        rays.clear()
        again = extremal_on_ray(disk2k, one, one, 1.6, previous=replace(first, fold=None))
        assert rays == [64, 2048] and again.fold is not None

    def test_upper_probe_starts_below_the_fold(self, disk2k, monkeypatch):
        # the upper probe starts from the Picard step of the lower end's
        # certificate lowered along the fold's null vector, certified stable
        # there; without the certificate it starts from (0, 0), takes more
        # loop steps and ends on the same bracket
        import memslab.curve as curve_mod
        from memslab.solver import certify_supersolution

        starts, real = [], curve_mod.minimal_solve

        def recording(mesh, f, g, lam, *args, start=None, **kwargs):
            if mesh is disk2k:
                starts.append(start)
            return real(mesh, f, g, lam, *args, start=start, **kwargs)

        monkeypatch.setattr(curve_mod, "minimal_solve", recording)
        one = constant_profile(disk2k, 1.0)
        s = extremal_on_ray(disk2k, one, one, 1.0)
        (start,) = starts
        x = curve_mod._prolong(s.fold.x, s.fold, disk2k)
        y = certify_supersolution(disk2k, one, one, s.lam_lo, s.lam_lo, x,
                                  probe_budget(CurveConfig().solve))
        np.testing.assert_array_equal(start, curve_mod._below_fold(y, s.fold, disk2k)[0])
        starts.clear()
        monkeypatch.setattr(curve_mod, "certify_stable_start", lambda *args: False)
        cold = extremal_on_ray(disk2k, one, one, 1.0)
        assert starts == [None]
        assert (cold.lam_lo, cold.lam_hi) == (s.lam_lo, s.lam_hi)
        assert s.iterations_total < cold.iterations_total

    def test_upper_probes_keep_their_start_in_a_boundary_layer(self, disk2k, monkeypatch):
        # with g = r^2 the linear prolongation of the 64-node fold state
        # misses the boundary layer, and lowered by 7% it failed T(s) >= s
        # on 4 of these 8 rays; the certificate's Picard step smooths it, so
        # every fine upper probe of the sweep keeps its start
        import memslab.curve as curve_mod
        from memslab.solver import source

        starts, real = [], curve_mod.minimal_solve

        def recording(mesh, f, g, lam, mu, *args, start=None, **kwargs):
            if mesh is disk2k and start is not None:
                starts.append((lam, mu, np.stack(start)))
            return real(mesh, f, g, lam, mu, *args, start=start, **kwargs)

        monkeypatch.setattr(curve_mod, "minimal_solve", recording)
        f, g = constant_profile(disk2k, 1.0), power_profile(disk2k, 2.0)
        ray = None
        for theta in (0.2, 0.3, 0.45, 0.7, 1.0, 1.6, 2.5, 4.0):   # disk-sweep's grid
            ray = extremal_on_ray(disk2k, f, g, theta, previous=ray)
        assert len(starts) == 8
        for lam, mu, s in starts:
            coeff = np.stack([lam * f.values, mu * g.values])
            assert np.all(disk2k.operator.solve(source(coeff, s[::-1])) >= s)

    def test_failed_fold_solve_keeps_the_coarse_ray(self, disk2k, fine_probes,
                                                    monkeypatch):
        # no fold: the coarse ray's lam_star predicts, and both ends are probed
        import memslab.curve as curve_mod

        monkeypatch.setattr(curve_mod, "fold_point", lambda *args: None)
        one = constant_profile(disk2k, 1.0)
        s = extremal_on_ray(disk2k, one, one, 1.0)
        assert s.fold is None and fine_probes == [s.lam_lo, s.lam_hi]
        assert s.bracket_width == pytest.approx(8e-4, rel=1e-9)
        assert s.lo_witness is Witness.SUPERSOLUTION
        assert s.hi_witness in (Witness.TOUCHED, Witness.UNSTABLE)

    @pytest.mark.parametrize("edge, walks", [(0.3, 5), (0.5, 2)])
    def test_window_walks_to_a_certified_bracket(self, disk2k, fine_probes, edge,
                                                 walks):
        # the 64-node fold misses the step's edge: it lies 0.4% below lam*
        # (edge 0.3), so from the certified lower end the window walks up 5
        # times, or 0.2% above it (edge 0.5), where the certificate fails and
        # the window walks down twice; each walk is one fine probe
        import memslab.curve as curve_mod

        f, one = _step_profile(disk2k, edge), constant_profile(disk2k, 1.0)
        s = extremal_on_ray(disk2k, f, one, 1.0)
        assert len(fine_probes) == 1 + walks
        assert s.lo_witness in (Witness.CONVERGED, Witness.SUPERSOLUTION)
        assert s.hi_witness in (Witness.TOUCHED, Witness.UNSTABLE)
        assert s.bracket_width <= CurveConfig().rtol
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curve_mod, "_coarse_prediction", lambda *args: None)
            bisection = extremal_on_ray(disk2k, f, one, 1.0)
        assert s.lam_lo < bisection.lam_hi and bisection.lam_lo < s.lam_hi

    def test_too_many_walks_double_the_window(self, disk2k, fine_probes, monkeypatch):
        # after _MAX_WALKS moves each move squares the step, and the
        # bisection starts from the walk's ends: no corner is probed
        import memslab.curve as curve_mod

        monkeypatch.setattr(curve_mod, "_MAX_WALKS", 2)
        f, one = _step_profile(disk2k, 0.3), constant_profile(disk2k, 1.0)
        s = extremal_on_ray(disk2k, f, one, 1.0)
        step = (1.0 + 0.4e-3) / (1.0 - 0.4e-3)
        ratios = [b / a for a, b in zip(fine_probes, fine_probes[1:5])]
        assert ratios == pytest.approx([step, step, step ** 2, step ** 4], rel=1e-12)
        assert s.lower_cert not in fine_probes and s.upper_cert not in fine_probes
        assert s.lo_witness in (Witness.CONVERGED, Witness.SUPERSOLUTION)
        assert s.hi_witness in (Witness.TOUCHED, Witness.UNSTABLE)
        assert s.bracket_width <= CurveConfig().rtol

    def test_unresolved_probe_is_the_upper_end(self, disk2k, fine_probes, monkeypatch):
        # a budget of 1 (a probe gets 16 loop steps) and no stable start
        # leave the first probe above the certified lower end unresolved: it
        # ends the walk as the upper end, and the bracket is one step wide
        import memslab.curve as curve_mod

        monkeypatch.setattr(curve_mod, "certify_stable_start", lambda *args: False)
        one = constant_profile(disk2k, 1.0)
        starved = CurveConfig(solve=SolveConfig(max_iter=1))
        s = extremal_on_ray(disk2k, one, one, 0.5, starved)
        assert fine_probes == [s.lam_hi]
        assert (s.lam_lo, s.lam_hi) == (1.087896899052898, 1.0887675648384545)
        assert s.lo_witness is Witness.SUPERSOLUTION and s.upper_unverified
        assert s.iterations_total == 17 and s.unresolved_probes == 1

    @pytest.mark.parametrize("exit", ["singular", "step cap", "final check"])
    def test_failed_fold_solve_falls_back_to_the_coarse_ray(self, disk2k, exit,
                                                            monkeypatch):
        # each failure exit of fold_point returns None, both for the fold
        # tried from the loose bracket and for the one tried at the end of the
        # same bisection, and the prediction is the coarse ray's lam_star
        import memslab.curve as curve_mod

        one = constant_profile(disk2k, 1.0)
        twin = curve_mod._coarse_twin(disk2k, one, one)
        ray = curve_mod._bracket(twin.mesh, twin.f, twin.g, 1.0, CurveConfig(
            rtol=curve_mod._WINDOW * curve_mod._COARSE_RAY_RTOL))[0]
        real_solve, real_fold = curve_mod._solve_jacobian, curve_mod.fold_point

        def singular(*args):
            raise np.linalg.LinAlgError("injected singular Schur complement")

        def sign_change(schur, s_t, a, r):
            # the null vector's first estimate changes sign halfway out
            y = real_solve(schur, s_t, a, r)
            if len(r) == 1:
                y[0, :, 32:] *= -1.0
            return y

        if exit == "singular":
            monkeypatch.setattr(curve_mod, "_solve_jacobian", singular)
        elif exit == "step cap":
            monkeypatch.setattr(curve_mod, "_FOLD_STEPS", 1)
        else:   # one step, after which phi is not positive
            monkeypatch.setattr(curve_mod, "_FOLD_RTOL", math.inf)
            monkeypatch.setattr(curve_mod, "_solve_jacobian", sign_change)
        folds = []

        def recording(*args):
            folds.append(real_fold(*args))
            return folds[-1]

        monkeypatch.setattr(curve_mod, "fold_point", recording)
        assert curve_mod._coarse_prediction(disk2k, one, one, 1.0,
                                            CurveConfig()) == (ray.lam_star, None)
        assert folds == [None, None]

    def test_failed_coarse_ray_falls_back_to_bisection(self, disk2k, monkeypatch):
        import memslab.curve as curve_mod
        from memslab import ConvergenceError

        one = constant_profile(disk2k, 1.0)
        real = curve_mod._bracket

        def coarse_fails(mesh, *args):
            if mesh is not disk2k:
                raise ConvergenceError("injected coarse failure")
            return real(mesh, *args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(curve_mod, "_coarse_prediction", lambda *args: None)
            bisection = extremal_on_ray(disk2k, one, one, 1.0)
        monkeypatch.setattr(curve_mod, "_bracket", coarse_fails)
        s = extremal_on_ray(disk2k, one, one, 1.0)
        assert s == bisection and s.fold is None

    def test_a_sweep_builds_one_twin(self, disk2k, monkeypatch):
        # the coarse mesh, restricted profiles and dense matrices are built
        # once and travel with the folds; only the first ray runs a coarse
        # ray, and each later one starts from the secant through the two
        # folds before it
        import memslab.curve as curve_mod

        twins, probes, schur = [], [], []
        real_twin, real_solve, real_schur = (curve_mod._coarse_twin, curve_mod.minimal_solve,
                                             curve_mod._solve_jacobian)

        def twin(*args):
            twins.append(real_twin(*args))
            return twins[-1]

        def probe(mesh, *args, **kwargs):
            probes[-1] += mesh is not disk2k
            return real_solve(mesh, *args, **kwargs)

        def solve(*args):
            schur[-1] += 1
            return real_schur(*args)

        monkeypatch.setattr(curve_mod, "_coarse_twin", twin)
        monkeypatch.setattr(curve_mod, "minimal_solve", probe)
        monkeypatch.setattr(curve_mod, "_solve_jacobian", solve)
        one = constant_profile(disk2k, 1.0)
        rays = []
        for theta in SWEEP:
            probes.append(0)
            schur.append(0)
            rays.append(extremal_on_ray(disk2k, one, one, theta,
                                        previous=rays[-1] if rays else None))
        assert len(twins) == 1 and all(s.fold.twin is twins[0] for s in rays)
        # the first coarse ray stops once the fold solves from its 1e-2
        # bracket: 9 probes where bisecting to 4e-4 took 14
        assert probes == [9, 0, 0, 0, 0, 0, 0, 0]
        # the Schur-complement solves of each fold solve, 1 + 2 a Newton
        # step: continued from the fold before alone, the later rays took 11
        assert schur == [9, 11, 7, 7, 7, 9, 9, 9]
        assert rays[0].fold.before is None
        for before, s in zip(rays, rays[1:]):
            assert s.fold.before.theta == before.theta and s.fold.before.before is None
        # other profile objects, even of equal values, get their own twin
        other = constant_profile(disk2k, 1.0)
        extremal_on_ray(disk2k, other, other, 4.0, previous=rays[-1])
        assert len(twins) == 2
        # a repeated theta leaves no secant to draw, and the next ray
        # continues from the fold alone
        again = extremal_on_ray(disk2k, one, one, 4.0, previous=rays[-1])
        assert extremal_on_ray(disk2k, one, one, 5.0, previous=again).fold is not None

    def test_failed_loose_fold_continues_the_bisection(self, disk2k, monkeypatch):
        # the fold tried from the 1e-2 bracket fails: the same bisection goes
        # on to 4e-4, probing no lam twice and exactly the lam a coarse ray
        # at 4e-4 probes, and the prediction is the fold from its end
        import memslab.curve as curve_mod

        one = constant_profile(disk2k, 1.0)
        twin = curve_mod._coarse_twin(disk2k, one, one)
        lams, real_solve, real_fold = [], curve_mod.minimal_solve, curve_mod.fold_point

        def probe(mesh, f, g, lam, *args, **kwargs):
            lams.append(lam)
            return real_solve(mesh, f, g, lam, *args, **kwargs)

        monkeypatch.setattr(curve_mod, "minimal_solve", probe)
        ray, warm = curve_mod._bracket(twin.mesh, twin.f, twin.g, 1.0, CurveConfig(rtol=4e-4))
        today = curve_mod._fold_inside(twin, 1.0, ray.lam_lo, ray.lam_hi, warm)
        straight, lams[:] = list(lams), []
        folds = []

        def first_fails(start, theta):
            folds.append(None if not folds else real_fold(start, theta))
            return folds[-1]

        monkeypatch.setattr(curve_mod, "fold_point", first_fails)
        lam_c, fold = curve_mod._coarse_prediction(disk2k, one, one, 1.0, CurveConfig())
        assert lams == straight and len(set(lams)) == len(lams) == 12
        assert len(folds) == 2 and lam_c == fold.lam == today.lam

    def test_fold_solve_needs_a_small_step_and_residual(self, disk2k):
        # from the theta = 1 fold with lam set where the first Newton step
        # at theta = 1.6 keeps it, |d lam| alone accepted that lam after one
        # step, with sup |A x - lam s(x)| = 0.067; the true fold is
        # 0.6166986107 (the twin of any disk with f = g = 1 is this one)
        import memslab.curve as curve_mod
        from memslab.solver import source

        one = constant_profile(disk2k, 1.0)
        _, fold = curve_mod._coarse_prediction(disk2k, one, one, 1.0, CurveConfig())
        out = curve_mod.fold_point(replace(fold, lam=0.6238788458), 1.6)
        if out is not None:
            assert out.lam == pytest.approx(0.6166986107, rel=1e-9)
            coeff = np.stack([fold.twin.f.values, 1.6 * fold.twin.g.values])
            residual = out.x @ fold.twin.a_t - out.lam * source(coeff, out.x[::-1])
            assert abs(residual).max() < 1e-8


@pytest.mark.parametrize("g_power", [0.0, 2.0])
@pytest.mark.parametrize("theta", [0.3, 1.0, 3.0])
def test_fold_slope_matches_a_central_difference(theta, g_power):
    # at a fold the adjoint null vector is W phi[::-1], so differentiating
    # A x - lam s(x, theta) = 0 along the fold gives the slope of the
    # critical curve with no solve: kappa = d log lam / d log theta =
    # -<w phi_1, s_2> / <w, phi_2 s_1 + phi_1 s_2>; it lies in [-1, 0], is
    # -1/2 at theta = 1 with f = g, and matches the folds at theta e^(+-h)
    import memslab.curve as curve_mod
    from memslab.solver import source

    mesh = build_radial(2, 1.0, 2048)
    f, g = constant_profile(mesh, 1.0), power_profile(mesh, g_power)
    _, fold = curve_mod._coarse_prediction(mesh, f, g, theta, CurveConfig())
    twin, (phi1, phi2) = fold.twin, fold.phi
    s1, s2 = source(np.stack([twin.f.values, theta * twin.g.values]), fold.x[::-1])
    w = twin.mesh.weights
    kappa = -(w @ (phi1 * s2)) / (w @ (phi2 * s1 + phi1 * s2))
    assert -1.0 <= kappa <= 0.0
    if theta == 1.0 and g_power == 0.0:
        assert kappa == pytest.approx(-0.5, abs=1e-8)
    h = 1e-3
    up, down = (curve_mod.fold_point(fold, theta * math.exp(e)) for e in (h, -h))
    assert kappa == pytest.approx(math.log(up.lam / down.lam) / (2.0 * h), abs=1e-8)
