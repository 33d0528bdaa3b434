import math

import numpy as np
import pytest
from scipy.special import jn_zeros

from memslab import ConfigurationError, build_radial, build_rect, principal_eigenpair
from memslab.curve import (
    BoundReport,
    CurveConfig,
    CurveTrace,
    RaySample,
    bound_report,
    compare_symmetrized,
    dimension_constant,
    extremal_on_ray,
    lower_bound,
    lower_bound_power,
    trace_curve,
    upper_bound,
    write_bounds_json,
    write_trace_csv,
)
from memslab.profiles import constant_profile, power_profile, tabulated_profile

# frozen from a 4096-node radial run (tools/make_goldens.py)
GOLDEN_DISK_LAM_STAR = 0.7892086977942018

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
        expected = principal_eigenpair(mesh.operator, mesh).value
        assert bound_report(mesh, one, one).mu1 == pytest.approx(expected, rel=1e-8)

    def test_report_power_profile_has_no_upper(self, disk):
        fpow = power_profile(disk, 2.0)
        rep = bound_report(disk, fpow, fpow)
        assert rep.upper_f is None and rep.upper_g is None


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


class TestTraceCurve:
    def test_single_ray_matches(self, disk, one):
        trace = trace_curve(disk, one, one, [1.0], FAST)
        direct = extremal_on_ray(disk, one, one, 1.0, FAST)
        assert trace.samples[0].lam_star == direct.lam_star

    def test_monotone_and_symmetric(self, disk, one):
        grid = [0.25, 0.5, 1.0, 2.0, 4.0]
        trace = trace_curve(disk, one, one, grid, FAST)
        lams = [s.lam_star for s in trace.samples]
        slack = 2.0 * max(s.bracket_width for s in trace.samples)
        assert all(b <= a * (1.0 + slack) for a, b in zip(lams, lams[1:]))
        # swap symmetry of the two components: mu*(theta) = lam*(1/theta)
        assert trace.samples[-1].mu_star == pytest.approx(
            trace.samples[0].lam_star, rel=slack
        )

    def test_grid_validation(self, disk, one):
        with pytest.raises(ConfigurationError):
            trace_curve(disk, one, one, [1.0, 0.5], FAST)
        with pytest.raises(ConfigurationError):
            trace_curve(disk, one, one, [-1.0, 0.5], FAST)
        for grid in ([math.nan], [1.0, math.inf]):
            with pytest.raises(ConfigurationError):
                trace_curve(disk, one, one, grid, FAST)

    @pytest.mark.parametrize("rtol", [0.0, -1e-3, 1.0, math.nan])
    def test_config_rejects_bad_rtol(self, rtol):
        with pytest.raises(ConfigurationError):
            CurveConfig(rtol=rtol)

    def test_parallel_matches_serial(self, one):
        mesh = build_radial(2, 1.0, 64)
        p = constant_profile(mesh, 1.0)
        grid = [0.5, 1.0, 2.0]
        serial = trace_curve(mesh, p, p, grid, CurveConfig(rtol=2e-3))
        parallel = trace_curve(mesh, p, p, grid, CurveConfig(rtol=2e-3), workers=3)
        for a, b in zip(serial.samples, parallel.samples):
            assert a.lam_star == b.lam_star


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
        gx, _ = np.meshgrid(rect.xs, rect.ys, indexing="ij")
        f = tabulated_profile(rect, (gx < 0.5).astype(float).ravel())
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
        trace = trace_curve(disk, one, one, [0.5, 1.0], FAST)
        path = tmp_path / "curve.csv"
        write_trace_csv(path, trace, fingerprint="f00d")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_fingerprint: f00d"
        header = lines[2].split(",")
        assert header == ["theta", "lambda_star", "mu_star", "bracket_width",
                          "lower_cert", "upper_cert", "solver_iters_total",
                          "unresolved_probes", "newton_steps", "upper_unverified"]
        assert len(lines) == 3 + 2

    def test_trace_csv_without_upper_cert(self, tmp_path):
        ray = RaySample(theta=1.0, lam_star=1.5, mu_star=1.5, bracket_width=1e-3,
                        lower_cert=0.5, upper_cert=None, iterations_total=7)
        path = tmp_path / "curve.csv"
        write_trace_csv(path, CurveTrace((ray,), "m", ("f", "g")))
        lines = path.read_text().splitlines()
        assert lines[0] == "# mesh: m profiles: f,g"
        assert lines[2] == "1.0,1.5,1.5,0.001,0.5,,7,0,0,0"

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
        # starve the oracle: unresolved probes must widen, never mis-shrink
        mesh = build_radial(2, 1.0, 64)
        one = constant_profile(mesh, 1.0)
        from memslab.solver import SolveConfig

        cfg = CurveConfig(rtol=1e-4, solve=SolveConfig(max_iter=15))
        s = extremal_on_ray(mesh, one, one, 1.0, cfg)
        assert s.unresolved_probes >= 1
        assert s.bracket_width > cfg.rtol
        assert s.lam_star > s.lower_cert * 0.99

    def test_unresolved_expansion_marks_upper_unverified(self):
        # at theta = 0.145 lam* lies 0.04% below twice the upper corner, so
        # the expansion probe there needs 41 steps to touch; a budget of
        # 2 (escalated to 8, 32) resolves the lower and corner probes only
        mesh = build_radial(2, 1.0, 64)
        one = constant_profile(mesh, 1.0)
        from memslab.solver import SolveConfig

        starved = CurveConfig(rtol=1e-3, solve=SolveConfig(max_iter=2))
        s = extremal_on_ray(mesh, one, one, 0.145, starved)
        assert s.upper_unverified
        assert s.unresolved_probes >= 1
        upper_end = s.lam_star * (1.0 + 0.5 * s.bracket_width)
        assert upper_end == pytest.approx(2.0 * s.upper_cert, rel=1e-12)
        full = extremal_on_ray(mesh, one, one, 0.145, CurveConfig(rtol=1e-3))
        assert not full.upper_unverified
        assert full.lam_star < 2.0 * s.upper_cert


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
