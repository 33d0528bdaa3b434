import dataclasses
import math

import numpy as np
import pytest

from memslab import PreconditionError, build_radial, build_rect
from memslab.curve import CurveConfig, probe_budget
from memslab.diagnostics import (
    approach_extremal,
    moser_integrals,
    singular_residual,
    write_approach_csv,
)
from memslab.profiles import constant_profile, tabulated_profile
from memslab.solver import StatePair, minimal_solve
from memslab.stability import linearized_eigen


@pytest.fixture(scope="module")
def disk():
    return build_radial(2, 1.0, 256)


@pytest.fixture(scope="module")
def one(disk):
    return constant_profile(disk, 1.0)


class TestMoserIntegrals:
    def test_zero_state_gives_volume(self, disk):
        zero = StatePair(u=np.zeros(disk.n_nodes), v=np.zeros(disk.n_nodes))
        x, y = moser_integrals(disk, zero, 2.0)
        assert x == pytest.approx(math.pi, rel=1e-10)
        assert y == pytest.approx(math.pi, rel=1e-10)

    def test_alpha_at_most_one_rejected(self, disk):
        zero = StatePair(u=np.zeros(disk.n_nodes), v=np.zeros(disk.n_nodes))
        with pytest.raises(PreconditionError):
            moser_integrals(disk, zero, 1.0)

    def test_finite_and_dominating_volume(self, disk, one):
        out = minimal_solve(disk, one, one, 0.7, 0.7)
        x, y = moser_integrals(disk, out.state, 2.0)
        assert np.isfinite(x) and np.isfinite(y)
        assert x >= disk.volume and y >= disk.volume

    def test_overflow_reported_as_inf(self, disk):
        near_one = np.full(disk.n_nodes, 1.0 - 1e-10)
        state = StatePair(u=near_one, v=near_one)
        x, y = moser_integrals(disk, state, 200.0)
        assert x == math.inf and y == math.inf


class TestSingularResidual:
    def test_dimension_eight_second_order(self):
        coarse = singular_residual(8, 512)
        fine = singular_residual(8, 1024)
        assert 3.5 <= coarse / fine <= 4.5

    def test_dimension_two_identity_also_holds(self):
        # the pointwise identity is algebraic in the dimension
        coarse = singular_residual(2, 512)
        fine = singular_residual(2, 1024)
        assert 3.5 <= coarse / fine <= 4.5

    def test_magnitude_is_truncation_level(self):
        assert singular_residual(8, 512) < 0.05

    def test_rejects_dimension_one(self):
        with pytest.raises(PreconditionError):
            singular_residual(1, 512)


@pytest.fixture(scope="module")
def record(disk, one):
    return approach_extremal(
        disk, one, one, 1.0, [0.25, 0.5, 0.75, 0.9, 0.99], 2.0,
        CurveConfig(rtol=2e-3),
    )


class TestApproachExtremal:

    def test_all_fractions_recorded(self, record):
        assert [s.t for s in record.samples] == [0.25, 0.5, 0.75, 0.9, 0.99]

    def test_sup_u_monotone_and_regular(self, record):
        sups = [s.sup_u for s in record.samples]
        assert all(b > a for a, b in zip(sups, sups[1:]))
        assert sups[-1] <= 0.95  # smooth regime on the disk

    def test_stability_positive_on_branch(self, record):
        assert all(s.nu1 > 0 for s in record.samples)
        nus = [s.nu1 for s in record.samples]
        assert all(b < a for a, b in zip(nus, nus[1:]))

    def test_integrals_grow_toward_the_curve(self, record):
        xs = [s.x_integral for s in record.samples]
        assert all(x >= math.pi for x in xs)
        assert xs[-1] > xs[0]

    def test_fraction_validation(self, disk, one):
        with pytest.raises(PreconditionError):
            approach_extremal(disk, one, one, 1.0, [0.5, 0.5], 2.0)
        with pytest.raises(PreconditionError):
            approach_extremal(disk, one, one, 1.0, [0.5, 1.0], 2.0)

    def test_csv(self, record, tmp_path):
        path = tmp_path / "approach.csv"
        write_approach_csv(path, record, fingerprint="dead")
        lines = path.read_text().splitlines()
        assert lines[0] == "# config_fingerprint: dead"
        assert lines[1] == "t,lambda,sup_u,sup_v,nu1,X,Y,iters"
        assert len(lines) == 2 + len(record.samples)

        sample = dataclasses.replace(record.samples[0], nu1=np.float64(2.5))
        write_approach_csv(path, dataclasses.replace(record, samples=(sample,)))
        lines = path.read_text().splitlines()
        assert lines[1].split(",")[4] == "2.5"


def test_continued_sweep_matches_cold_solves():
    # the branch-stability anchor: the 64^2 square, f the indicator of
    # x < 0.55, g = 1, theta = 1.  Each fraction's branch and eigen solves
    # start from the previous fraction's; a cold minimal_solve and
    # linearized_eigen at the same (lam, mu) agree to the solver tolerance.
    # Measured: sup u 1.5e-10 relative and nu1 1.2e-10 below t = 0.99,
    # 2.9e-9 and 5.3e-8 at t = 0.999, where nu1 is small; the bounds allow
    # about ten times that
    square = build_rect(1.0, 1.0, 64, 64)
    one = constant_profile(square, 1.0)
    f = tabulated_profile(square, np.repeat((np.arange(64) + 0.5) / 64 < 0.55, 64)
                          .astype(float))
    fractions = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.999]
    cfg = CurveConfig()
    record = approach_extremal(square, f, one, 1.0, fractions, 2.0, cfg)
    assert [s.t for s in record.samples] == fractions
    continued = cold = 0
    for s in record.samples:
        out = minimal_solve(square, f, one, s.lam, s.mu, probe_budget(cfg.solve))
        eig = linearized_eigen(square, f, one, s.lam, s.mu, out.state)
        sup_tol, nu_tol = (1e-9, 1e-9) if s.t < 0.99 else (3e-8, 5e-7)
        assert s.sup_u == pytest.approx(out.state.sup()[0], rel=sup_tol, abs=0)
        assert s.nu1 == pytest.approx(eig.nu1, rel=nu_tol, abs=0)
        continued += s.iterations
        cold += out.iterations
    assert continued < cold
