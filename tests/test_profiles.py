import math

import numpy as np
import pytest

from memslab import ConfigurationError, HypothesisError, build_radial, build_rect, integrate
from memslab.curve import bound_report, lower_bound, lower_bound_power
from memslab.profiles import (
    constant_profile,
    load_tabulated,
    power_profile,
    symmetrize,
    tabulated_profile,
)


class TestConstant:
    def test_all_ones(self, disk256):
        p = constant_profile(disk256, 1.0)
        assert np.all(p.values == 1.0)
        assert p.sup == p.inf == 1.0

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_rejects_out_of_range(self, disk256, bad):
        with pytest.raises(HypothesisError):
            constant_profile(disk256, bad)

    def test_half(self, square64):
        p = constant_profile(square64, 0.5)
        assert p.values.max() == p.values.min() == 0.5


class TestPower:
    def test_alpha_zero_is_constant_one(self, disk256):
        p = power_profile(disk256, 0.0)
        assert np.all(p.values == 1.0)

    def test_direct_evaluation(self, disk256):
        p = power_profile(disk256, 2.0)
        i = np.argmin(np.abs(disk256.radii - 0.5))
        assert p.values[i] == pytest.approx(disk256.radii[i] ** 2)

    def test_integral_closed_form(self, disk256):
        # int_disk |x| dx = 2 pi / 3
        p = power_profile(disk256, 1.0)
        assert integrate(disk256, p.values) == pytest.approx(
            2.0 * math.pi / 3.0, rel=1e-4
        )

    def test_negative_exponent_rejected(self, disk256):
        with pytest.raises(HypothesisError):
            power_profile(disk256, -1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 1e6])
    def test_non_finite_or_vanishing_rejected(self, disk256, alpha):
        # 1e6 is finite, but r^alpha underflows to 0 at every node
        with pytest.raises(HypothesisError):
            power_profile(disk256, alpha)

    def test_overflowing_normalization_builds(self):
        # R^alpha overflows a float, but (r/R)^alpha never forms it: the
        # values lie in [0, 1], are positive near the boundary, and sup is 1
        mesh = build_radial(2, 2.0, 32)
        p = power_profile(mesh, 1100.0)
        assert p.sup == 1.0
        assert p.inf == 0.0
        assert 0.0 < p.values[-1] < 1.0

    def test_large_ball_rescaled(self):
        mesh = build_radial(2, 2.0, 64)
        p = power_profile(mesh, 2.0)
        assert np.array_equal(p.values, (mesh.radii / 2.0) ** 2)
        assert p.values.max() < p.sup == 1.0

    def test_requires_radial(self, square64):
        with pytest.raises(ConfigurationError):
            power_profile(square64, 1.0)

    def test_small_ball_sup_is_r_to_alpha(self):
        # on R = 0.5 the profile is the raw r^2, whose supremum is R^2; the
        # lower box a_f = c_N (omega / |B|)^(2/N) / sup f grows 4x with it and
        # stays inside the certified power box
        mesh = build_radial(2, 0.5, 64)
        p = power_profile(mesh, 2.0)
        assert p.sup == 0.25
        assert p.values.max() <= p.sup
        a_f = bound_report(mesh, p, p).a_f
        a_unit, _ = lower_bound(1.0, 1.0, mesh.volume, 2)   # with sup f = 1
        assert a_f == pytest.approx(4.0 * a_unit, rel=1e-15)
        assert a_f < lower_bound_power(2.0, 2.0, 0.5, 2)[0]


class TestTabulated:
    def test_validates_bounds(self, disk256):
        with pytest.raises(HypothesisError):
            tabulated_profile(disk256, np.full(disk256.n_nodes, 1.5))
        with pytest.raises(HypothesisError):
            tabulated_profile(disk256, np.zeros(disk256.n_nodes))
        one_nan = np.full(disk256.n_nodes, 0.5)
        one_nan[7] = math.nan
        with pytest.raises(HypothesisError, match="lie in"):
            tabulated_profile(disk256, one_nan)

    def test_csv_roundtrip(self, disk256, tmp_path):
        values = 0.5 + 0.25 * np.cos(disk256.radii)
        path = tmp_path / "profile.csv"
        with open(path, "w") as fh:
            fh.write("index,value\n")
            for i, v in enumerate(values):
                fh.write(f"{i},{float(v)!r}\n")
        p = load_tabulated(disk256, path)
        np.testing.assert_array_equal(p.values, values)

    def test_csv_incomplete_rejected(self, disk256, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("0,0.5\n1,0.5\n")
        with pytest.raises(ConfigurationError):
            load_tabulated(disk256, path)

    def test_csv_skips_headers_comments_and_blank_rows(self, tmp_path):
        # a header may repeat in any case, a comment or blank row may sit
        # anywhere; rows keep their extra cells, and their order is free
        mesh = build_radial(2, 1.0, 16)
        rows = [f"{i},{i / 16!r},extra" for i in reversed(range(16))]
        path = tmp_path / "profile.csv"
        path.write_text("# comment\nindex,value\n\n" + "\n".join(rows[:8])
                        + "\n  INDEX ,x\n#9,oops\n" + "\n".join(rows[8:]) + "\n")
        p = load_tabulated(mesh, path)
        np.testing.assert_array_equal(p.values, np.arange(16) / 16)

    @pytest.mark.parametrize("text, error, message", [
        # the line number counts physical lines, a quoted cell's newline too
        ("index,value\n0,0.5\n1\n", ConfigurationError,
         "line 3: expected a node index and a value"),
        ('"0","0.5"\n"1\n",0.5\n1,0.5\n', ConfigurationError,
         "line 4: node 1 given twice"),
        # the first fault in file order wins: a repeat before a short row,
        # a bad value before a repeat
        ("0,0.5\n0,0.5\n1\n", ConfigurationError, "line 2: node 0 given twice"),
        ("0,0.5\n1,half\n0,0.5\n", ValueError,
         "could not convert string to float: 'half'"),
        ("0,0.5\nx1,0.5\n", ValueError, "invalid literal for int() with base 10: 'x1'"),
        ("x1\n", ConfigurationError, "line 1: expected a node index and a value"),
        ("0,0.5\n1,0.5\n", ConfigurationError, "must cover node indices 0..15"),
        ("".join(f"{i},0.5\n" for i in range(1, 17)), ConfigurationError,
         "must cover node indices 0..15"),
        ("".join(f"{i},0.5\n" for i in range(15)) + "99999999999999999999,0.5\n",
         ConfigurationError, "must cover node indices 0..15"),
    ])
    def test_csv_faults_name_their_line(self, tmp_path, text, error, message):
        mesh = build_radial(2, 1.0, 16)
        path = tmp_path / "profile.csv"
        path.write_text(text)
        with pytest.raises(error) as info:
            load_tabulated(mesh, path)
        assert str(info.value).endswith(message)
        if error is ConfigurationError:
            assert str(info.value).startswith(f"profile file {path} ")


class TestFingerprint:
    def test_same_data_same_fingerprint(self):
        disk = build_radial(2, 1.0, 64)
        assert (constant_profile(disk, 1.0).fingerprint()
                == power_profile(disk, 0.0).fingerprint())

    def test_sup_past_last_node_changes_fingerprint(self):
        # the power profile's supremum R^2 is reached at r = R, past the last
        # node; a tabulated copy of its values knows only their maximum
        mesh = build_radial(2, 0.5, 64)
        p = power_profile(mesh, 2.0)
        t = tabulated_profile(mesh, p.values)
        assert np.array_equal(t.values, p.values)
        assert t.sup == p.values.max() < p.sup == 0.25
        assert t.fingerprint() != p.fingerprint()


@pytest.fixture(scope="module")
def square_and_disk():
    rect = build_rect(1.0, 1.0, 64, 64)
    disk = build_radial(2, (1.0 / math.pi) ** 0.5, 256)
    return rect, disk


class TestSymmetrize:
    def test_constant_maps_to_constant(self, square_and_disk):
        rect, disk = square_and_disk
        star = symmetrize(constant_profile(rect, 0.7), rect, disk)
        np.testing.assert_allclose(star.values, 0.7, atol=1e-12)

    def test_indicator_maps_to_centered_ball(self, square_and_disk):
        rect, disk = square_and_disk
        ind = (rect.coordinates["x"] < 0.25).astype(float)  # measure 1/4
        star = symmetrize(tabulated_profile(rect, ind), rect, disk)
        r_ball = math.sqrt(0.25 / math.pi)
        h = disk.radii[1]
        inside = disk.radii < r_ball - h
        outside = disk.radii > r_ball + h
        np.testing.assert_allclose(star.values[inside], 1.0, atol=1e-12)
        np.testing.assert_allclose(star.values[outside], 0.0, atol=1e-12)

    def test_sup_and_integral_preserved(self, square_and_disk, rng):
        rect, disk = square_and_disk
        x, y = rect.coordinates["x"], rect.coordinates["y"]
        vals = 0.5 + 0.5 * np.sin(3 * x) * np.cos(2 * y)
        vals = np.clip(vals, 0.0, 1.0)
        p = tabulated_profile(rect, vals)
        star = symmetrize(p, rect, disk)
        assert integrate(disk, star.values) == pytest.approx(
            integrate(rect, p.values), rel=1e-10
        )
        assert star.values.max() == pytest.approx(p.values.max(), abs=2e-3)

    def test_output_non_increasing(self, square_and_disk, rng):
        rect, disk = square_and_disk
        vals = rng.uniform(0.0, 1.0, rect.n_nodes)
        star = symmetrize(tabulated_profile(rect, vals), rect, disk)
        assert np.all(np.diff(star.values) <= 1e-14)

    def test_equimeasurable(self, square_and_disk, rng):
        rect, disk = square_and_disk
        x, y = rect.coordinates["x"], rect.coordinates["y"]
        vals = np.clip(0.5 + 0.4 * np.sin(4 * x + y), 0.0, 1.0)
        p = tabulated_profile(rect, vals)
        star = symmetrize(p, rect, disk)
        two_cells = 2.0 * max(rect.weights.max(), disk.weights.max())
        for t in rng.uniform(0.05, 0.95, 20):
            m_in = rect.weights[p.values > t].sum()
            m_out = disk.weights[star.values > t].sum()
            assert abs(m_in - m_out) <= two_cells

    def test_idempotent_on_radial_non_increasing(self):
        disk = build_radial(2, 1.0, 256)
        p = tabulated_profile(disk, 1.0 - (disk.radii / disk.radius) ** 2)
        again = symmetrize(p, disk, disk)
        assert np.max(np.abs(again.values - p.values)) < 5e-3

    def test_dimension_mismatch_rejected(self):
        # the 3-ball of radius 3/4 and the disk of radius 3/4 have equal measure
        ball = build_radial(3, 0.75, 48)
        disk = build_radial(2, 0.75, 64)
        assert disk.volume == pytest.approx(ball.volume, rel=1e-12)
        with pytest.raises(ConfigurationError, match="dimension"):
            symmetrize(power_profile(ball, 2.0), ball, disk)

    def test_rectangle_target_rejected(self, square_and_disk):
        rect, _ = square_and_disk
        with pytest.raises(ConfigurationError, match="radial"):
            symmetrize(constant_profile(rect, 1.0), rect, rect)

    def test_measure_mismatch_rejected(self, square_and_disk):
        rect, _ = square_and_disk
        wrong = build_radial(2, 1.0, 64)
        with pytest.raises(ConfigurationError):
            symmetrize(constant_profile(rect, 1.0), rect, wrong)
