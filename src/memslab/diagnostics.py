"""Observables along the approach to the critical curve.

Tracks the minimal branch at fractions of the critical parameter, recording
suprema, the principal eigenvalue of the linearization, and the two weighted
integrals that govern the regularity analysis.  Also validates the explicit
cusp identity: u = 1 - r^(2/3) satisfies -Lap u = ((6N-8)/9) r^(-4/3)
pointwise, which the discrete operator must reproduce at second order away
from the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .curve import CurveConfig, check_theta_grid, extremal_on_ray, probe_budget
from .exceptions import ConfigurationError, ConvergenceError, PreconditionError
from .mesh import Mesh, build_radial, integrate
from .profiles import Profile
from .solver import StatePair, Verdict, minimal_solve
from .stability import linearized_eigen


@dataclass(frozen=True)
class ApproachSample:
    t: float
    lam: float
    mu: float
    sup_u: float
    sup_v: float
    nu1: float
    x_integral: float
    y_integral: float
    iterations: int


@dataclass(frozen=True)
class ApproachRecord:
    theta: float
    lam_star: float
    alpha: float
    samples: tuple[ApproachSample, ...]


def moser_integrals(mesh: Mesh, state: StatePair, alpha: float) -> tuple[float, float]:
    """The two weighted integrals of the regularity argument, alpha > 1:

        X = int (1-u)^((-2 alpha - 1)/2) (1-v)^(-3/2)
        Y = int (1-u)^(-alpha - 1)       (1-v)^((-alpha - 3)/2)

    States too close to 1 overflow to +inf, reported as a sentinel.
    """
    if not alpha > 1:
        raise PreconditionError("alpha must exceed 1")
    du = 1.0 - state.u
    dv = 1.0 - state.v
    with np.errstate(over="ignore"):
        x_val = integrate(mesh, du ** ((-2.0 * alpha - 1.0) / 2.0) * dv**-1.5)
        y_val = integrate(mesh, du ** (-alpha - 1.0) * dv ** ((-alpha - 3.0) / 2.0))
    return float(x_val), float(y_val)


def approach_extremal(
    mesh: Mesh,
    f: Profile,
    g: Profile,
    theta: float,
    fractions,
    alpha: float,
    cfg: CurveConfig = CurveConfig(),
) -> ApproachRecord:
    """Sweep the minimal branch at the given fractions of the critical point.

    Fractions must pass ``check_theta_grid`` inside (0, 1): a non-empty,
    strictly increasing list of numbers.  They and alpha > 1 are checked
    before the ray runs.  A branch solve that does not converge below
    t = 0.99 raises ConvergenceError: a nonexistence verdict there means the
    critical parameter was overestimated, an inconclusive one that the solve
    budget ran out.  At t >= 0.99 the sample is skipped.

    The sweep continues along the branch.  Each branch solve starts from the
    last converged state, which lies below every solution at a larger
    fraction (minimal solutions increase along the ray), as
    ``minimal_solve``'s start must.  Each eigen solve starts from the last
    phi1 and nu1 extrapolated linearly in t from the last two samples; a
    start changes where a solve begins, not its contract.
    """
    if not alpha > 1:
        raise PreconditionError("alpha must exceed 1")
    try:
        check_theta_grid(fractions, 1.0)
    except ConfigurationError as exc:
        raise PreconditionError(f"fractions {exc}") from exc

    ray = extremal_on_ray(mesh, f, g, theta, cfg)
    lam_star = ray.lam_lo   # stay pessimistic: sweep below the feasible end

    budget = probe_budget(cfg.solve)
    samples, start, phi1 = [], None, None
    for t in fractions:
        lam = t * lam_star
        mu = theta * lam
        out = minimal_solve(mesh, f, g, lam, mu, budget, start=start)
        if out.verdict is not Verdict.CONVERGED:
            if t < 0.99:
                cause = ("critical parameter likely overestimated"
                         if out.verdict is Verdict.NONEXISTENCE_SUSPECTED
                         else "solve budget exhausted")
                raise ConvergenceError(
                    f"minimal solve failed at fraction {t} ({out.verdict.value}); {cause}"
                )
            continue
        start = (out.state.u, out.state.v)
        eig_start = None
        if samples:
            last, slope = samples[-1], 0.0
            if len(samples) > 1:
                slope = (last.nu1 - samples[-2].nu1) / (last.t - samples[-2].t)
            eig_start = (last.nu1 + slope * (t - last.t), phi1)
        eig = linearized_eigen(mesh, f, g, lam, mu, out.state, start=eig_start)
        phi1 = eig.phi1
        x_val, y_val = moser_integrals(mesh, out.state, alpha)
        su, sv = out.state.sup()
        samples.append(
            ApproachSample(
                t=t, lam=lam, mu=mu, sup_u=su, sup_v=sv, nu1=eig.nu1,
                x_integral=x_val, y_integral=y_val, iterations=out.iterations,
            )
        )
    return ApproachRecord(
        theta=theta, lam_star=lam_star, alpha=alpha, samples=tuple(samples)
    )


def singular_residual(dimension: int, nodes: int) -> float:
    """Sup defect of the cusp identity on the annulus 0.1 <= r <= 0.9.

    Applies the discrete operator to 1 - r^(2/3) on the unit ball and
    compares with ((6N-8)/9) r^(-4/3) node-wise; decays at second order
    under refinement.
    """
    if dimension < 2:
        raise PreconditionError("the cusp identity needs dimension >= 2")
    mesh = build_radial(dimension, 1.0, nodes)
    r = mesh.radii
    u = 1.0 - r ** (2.0 / 3.0)
    lhs = mesh.operator.apply(u)
    window = (r >= 0.1) & (r <= 0.9)
    rhs = ((6.0 * dimension - 8.0) / 9.0) * r[window] ** (-4.0 / 3.0)
    return float(np.max(np.abs(lhs[window] - rhs)))


def write_approach_csv(path, record: ApproachRecord, fingerprint: str = "") -> None:
    """Columns: t, lambda, sup_u, sup_v, nu1, X, Y, iters."""
    write_csv(
        path,
        ["t", "lambda", "sup_u", "sup_v", "nu1", "X", "Y", "iters"],
        ((s.t, s.lam, s.sup_u, s.sup_v, s.nu1, s.x_integral, s.y_integral,
          s.iterations) for s in record.samples),
        fingerprint,
    )
