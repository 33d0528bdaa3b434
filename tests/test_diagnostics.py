import dataclasses
import math

import numpy as np
import pytest

from memslab import PreconditionError, build_radial
from memslab.curve import CurveConfig
from memslab.diagnostics import (
    approach_extremal,
    moser_integrals,
    singular_residual,
    write_approach_csv,
)
from memslab.profiles import constant_profile
from memslab.solver import StatePair, minimal_solve


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
