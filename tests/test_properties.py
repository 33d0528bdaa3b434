"""Property tests: every float parameter is either accepted or rejected with
a documented input error, never a numerical failure; the minimal solution
increases with the parameter along a ray; a converged state is ordered,
u >= v >= (mu/lam) u, when mu <= lam; no probe below lam* ends by the
nonexistence certificate, and none above it by the feasibility certificate;
lam*(theta) does not increase when the domain grows at equal spacing; a
two-level ray's bracket overlaps the bisection bracket and ends in probe
verdicts inside the analytic certificates; the 64-node fold continued in
theta lies inside the coarse bisection bracket, and on a 9-ball, which has
no fold to resolve, the fold solve is rejected; the
decreasing rearrangement of a profile on a rectangle is equimeasurable
with it; and the CLI answers every small config with an exit code of its
contract, never a traceback.

Hypothesis draws from all floats, NaN and the infinities included, mixed
with the range where solves converge so that the eigen solve and whole rays
run too.  A PreconditionError or ConfigurationError is the documented
rejection; any other exception (NumericsError, ConvergenceError) fails the
test.  The mesh is small, the examples few and fixed
(derandomized), and everything runs in-process.
"""

import functools
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from memslab import ConfigurationError, PreconditionError, build_radial, build_rect, integrate
from memslab.cli import main
import memslab.curve as curve
from memslab.curve import CurveConfig, Witness, extremal_on_ray, lower_bound
from memslab.profiles import constant_profile, power_profile, symmetrize, tabulated_profile
import memslab.solver as solver
from memslab.solver import SolveConfig, Verdict, minimal_solve
from memslab.stability import linearized_eigen

DISK = build_radial(2, 1.0, 32)
ONE = constant_profile(DISK, 1.0)
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)
PARAMETER = st.one_of(st.floats(0.0, 1.0), ANY_FLOAT)
THETA = st.one_of(st.floats(1e-3, 1e3), ANY_FLOAT)
FEW = settings(max_examples=40, deadline=None, derandomize=True, database=None)
BUDGET = SolveConfig(max_iter=500)


def _finite_nonnegative(*values):
    return all(0 <= x < math.inf for x in values)


@FEW
@given(lam=PARAMETER, mu=PARAMETER)
@example(lam=math.nan, mu=0.1)
@example(lam=math.inf, mu=0.1)
@example(lam=0.0, mu=0.5)
@example(lam=0.171875, mu=2.6754998413539926e-101)   # coupling below rounding
@example(lam=1e-30, mu=0.5)
@example(lam=0.0, mu=5.722234971514097e307)   # the first solve overflows
@example(lam=1.7976931348623157e308, mu=1.7976931348623157e308)
def test_minimal_solve_and_eigen_accept_or_reject(lam, mu):
    try:
        out = minimal_solve(DISK, ONE, ONE, lam, mu, BUDGET)
    except PreconditionError:
        assert not _finite_nonnegative(lam, mu)
        return
    assert _finite_nonnegative(lam, mu)
    if out.converged:
        try:
            eig = linearized_eigen(DISK, ONE, ONE, lam, mu, out.state)
        except PreconditionError:
            assert (lam == 0) != (mu == 0)
            return
        assert math.isfinite(eig.nu1)
        assert np.all(eig.phi1 > 0) and np.all(eig.phi2 > 0)


def test_subnormal_parameters_converge():
    # 1e-6 * (lam + mu) underflows to 0 here; the residual bound is floored
    out = minimal_solve(DISK, ONE, ONE, 5e-324, 5e-324)
    assert out.converged
    assert out.iterations <= 3


@FEW
@given(theta=THETA)
@example(theta=math.nan)
@example(theta=math.inf)
@example(theta=5e-324)
@example(theta=1.7976931348623157e308)
def test_ray_accepts_or_rejects(theta):
    cfg = CurveConfig(rtol=1e-2)
    try:
        ray = extremal_on_ray(DISK, ONE, ONE, theta, cfg)
    except ConfigurationError:
        assert not 0 < theta < math.inf
        return
    assert 0 < ray.lam_star < math.inf


MONOTONE_MESHES = {
    "disk64": build_radial(2, 1.0, 64),
    "square16": build_rect(1.0, 1.0, 16, 16),
}
_FRACTION_GAP = 1e-4   # far above the solver's truncation error of u


@functools.cache
def _feasible_end(name):
    """The feasible end of the theta = 1 bracket: a probe converged there."""
    mesh = MONOTONE_MESHES[name]
    one = constant_profile(mesh, 1.0)
    ray = extremal_on_ray(mesh, one, one, 1.0)
    return ray.lam_star * (1.0 - 0.5 * ray.bracket_width)


@st.composite
def _fraction_pairs(draw):
    t2 = draw(st.floats(_FRACTION_GAP, 0.999))
    return draw(st.floats(0.0, t2 - _FRACTION_GAP)), t2


@pytest.mark.parametrize("name", MONOTONE_MESHES)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(pair=_fraction_pairs())
@example(pair=(0.99, 0.999))
def test_minimal_solution_increases_with_lambda(name, pair):
    # t1 < t2 on the ray mu = lam gives u1 <= u2 and v1 <= v2 node-wise, with
    # no slack; from 0.9 of lam* on, the solve ends in CG Newton steps
    mesh, lam_star = MONOTONE_MESHES[name], _feasible_end(name)
    one = constant_profile(mesh, 1.0)
    low, high = (minimal_solve(mesh, one, one, t * lam_star, t * lam_star) for t in pair)
    assert low.converged and high.converged
    assert np.all(high.state.u >= low.state.u)
    assert np.all(high.state.v >= low.state.v)
    assert high.newton_steps > 0 or pair[1] < 0.9


ORDERING_MESHES = {
    **{f"ball{dim}": build_radial(dim, 1.0, 32) for dim in (1, 2, 3, 9)},
    "square16": build_rect(1.0, 1.0, 16, 16),
    "rect2x0.5": build_rect(2.0, 0.5, 16, 16),
}


@FEW
@given(name=st.sampled_from(sorted(ORDERING_MESHES)), s=st.floats(1e-3, 3.0),
       t=st.floats(1e-3, 1.0))
def test_converged_state_is_ordered(name, s, t):
    # f = g = 1 and mu = t lam <= lam: every converged state has
    # u >= v >= (mu / lam) u, to the bounds of acceptance.ordering.  lam runs
    # to 3 times the certified box corner, so draws near and past lam* occur
    mesh = ORDERING_MESHES[name]
    one = constant_profile(mesh, 1.0)
    lam = s * lower_bound(1.0, 1.0, mesh.volume, mesh.dimension)[0]
    mu = t * lam
    out = minimal_solve(mesh, one, one, lam, mu, BUDGET)
    if out.converged:
        u, v = out.state.u, out.state.v
        assert np.min(u - v) >= -1e-8
        assert np.min(v - (mu / lam) * u) >= -1e-8


CERTIFICATE_MESHES = {
    "disk256": build_radial(2, 1.0, 256),
    "square32": build_rect(1.0, 1.0, 32, 32),
}


@pytest.mark.parametrize("name", CERTIFICATE_MESHES)
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(theta=st.floats(0.2, 5.0), t=st.floats(0.5, 0.9999))
@example(theta=1.0, t=0.9999)
def test_no_certificate_below_lambda_star(name, theta, t):
    # the bracket's feasible end a is a converged probe, so t a lies below
    # lam*: a probe there, cold or warm-started from the state at t a / 2,
    # converges and never ends by the unstable-subsolution certificate
    mesh = CERTIFICATE_MESHES[name]
    one = constant_profile(mesh, 1.0)
    ray = extremal_on_ray(mesh, one, one, theta, CurveConfig(rtol=1e-5))
    lam = t * ray.lam_star * (1.0 - 0.5 * ray.bracket_width)
    low = minimal_solve(mesh, one, one, 0.5 * lam, 0.5 * theta * lam)
    cold = minimal_solve(mesh, one, one, lam, theta * lam)
    warm = minimal_solve(mesh, one, one, lam, theta * lam,
                         start=(low.state.u, low.state.v))
    assert low.converged and cold.converged and warm.converged


@pytest.mark.parametrize("name", CERTIFICATE_MESHES)
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(theta=st.floats(0.2, 5.0), t=st.floats(1.0001, 1.3), s=st.floats(0.5, 0.9999))
@example(theta=1.0, t=1.0001, s=0.9999)
def test_supersolution_certificate_only_below_lambda_star(name, theta, t, s):
    # the bracket's infeasible end b is a probe shown infeasible, so no
    # probe at t b may end by the super-solution certificate; below the
    # feasible end a, a probe the certificate ends must converge when it is
    # solved without it, cold or warm-started from the state at s a / 2
    mesh = CERTIFICATE_MESHES[name]
    one = constant_profile(mesh, 1.0)
    ray = extremal_on_ray(mesh, one, one, theta, CurveConfig(rtol=1e-5))
    above = t * ray.lam_star * (1.0 + 0.5 * ray.bracket_width)
    out = minimal_solve(mesh, one, one, above, theta * above, certify_feasible=True)
    assert out.verdict is Verdict.NONEXISTENCE_SUSPECTED
    lam = s * ray.lam_star * (1.0 - 0.5 * ray.bracket_width)
    low = minimal_solve(mesh, one, one, 0.5 * lam, 0.5 * theta * lam)
    for start in (None, (low.state.u, low.state.v)):
        out = minimal_solve(mesh, one, one, lam, theta * lam, start=start,
                            certify_feasible=True)
        if out.verdict is Verdict.FEASIBLE:
            assert minimal_solve(mesh, one, one, lam, theta * lam, start=start).converged
        else:
            assert out.converged


_SPACING = st.floats(0.02, 0.2)


@st.composite
def _nested_meshes(draw):
    """Two meshes of equal spacing, the first's domain inside the second's:
    balls of one dimension with n1 < n2 nodes (node i at i h), or
    rectangles with nx1 <= nx2 and ny1 <= ny2, not both equal (cell centres
    on one grid)."""
    if draw(st.booleans()):
        dim = draw(st.sampled_from((1, 2, 3, 9)))
        n1 = draw(st.integers(16, 47))
        n2 = draw(st.integers(n1 + 1, 48))
        h = draw(_SPACING)
        return tuple(build_radial(dim, h * (2 * n - 1) / 2, n) for n in (n1, n2))
    nx1, ny1 = draw(st.integers(16, 24)), draw(st.integers(16, 24))
    nx2, ny2 = draw(st.integers(nx1, 24)), draw(st.integers(ny1, 24))
    assume((nx1, ny1) != (nx2, ny2))
    hx, hy = draw(_SPACING), draw(_SPACING)
    return tuple(build_rect(nx * hx, ny * hy, nx, ny)
                 for nx, ny in ((nx1, ny1), (nx2, ny2)))


@FEW
@given(meshes=_nested_meshes(),
       theta=st.floats(math.log(0.2), math.log(5.0)).map(math.exp),
       cf=st.floats(0.1, 1.0), cg=st.floats(0.1, 1.0))
def test_critical_parameter_decreases_with_the_domain(meshes, theta, cf, cg):
    # the larger mesh's solution restricted to the smaller one is a discrete
    # super-solution there (the half-cell Dirichlet closure only adds
    # nonnegative (u_i + u_i+1) / h^2 terms), so whatever is feasible on the
    # larger mesh is feasible on the smaller: the larger mesh's feasible end
    # lies below the smaller one's infeasible end
    small, large = (
        extremal_on_ray(m, constant_profile(m, cf), constant_profile(m, cg), theta,
                        CurveConfig(rtol=1e-2))
        for m in meshes)
    assert not small.upper_unverified
    assert large.lam_lo <= small.lam_hi


TWO_LEVEL_MESHES = {dim: build_radial(dim, 1.0, 2048) for dim in (1, 2, 3)}


@st.composite
def _two_level_rays(draw, kinds=("constant", "power", "tabulated")):
    """A 2,048-node unit ball of dimension 1, 2 or 3, two profiles on it
    (constant, power, or a tabulated bump over a floor; of the given
    ``kinds``) and a theta."""
    mesh = TWO_LEVEL_MESHES[draw(st.sampled_from(sorted(TWO_LEVEL_MESHES)))]

    def profile():
        kind = draw(st.sampled_from(kinds))
        if kind == "constant":
            return constant_profile(mesh, draw(st.floats(0.1, 1.0)))
        if kind == "power":
            return power_profile(mesh, draw(st.floats(0.0, 3.0)))
        floor, centre = draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 1.0))
        width = draw(st.floats(0.05, 0.5))
        bump = np.exp(-((mesh.radii - centre) / width) ** 2)
        return tabulated_profile(mesh, floor + (1.0 - floor) * bump)

    f, g = profile(), profile()
    return mesh, f, g, draw(st.floats(math.log(0.2), math.log(5.0)).map(math.exp))


@FEW
@given(case=_two_level_rays())
def test_two_level_ray_is_certified(case):
    mesh, f, g, theta = case
    predictions = []
    real = curve._coarse_prediction
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curve, "_coarse_prediction",
                   lambda *args: predictions.append(real(*args)) or predictions[-1])
        two = extremal_on_ray(mesh, f, g, theta)
        mp.setattr(curve, "_coarse_prediction", lambda *args: None)
        bisection = extremal_on_ray(mesh, f, g, theta)
    assert predictions[-1] is not None   # the fine ray's; the coarse ray's is None
    assert two.lam_lo <= bisection.lam_hi and bisection.lam_lo <= two.lam_hi
    assert two.lo_witness in (Witness.CONVERGED, Witness.SUPERSOLUTION)
    assert two.hi_witness in (Witness.TOUCHED, Witness.UNSTABLE) or two.upper_unverified
    if two.upper_cert is not None:
        assert two.lower_cert <= two.lam_lo and two.lam_hi <= two.upper_cert


@FEW
@given(case=_two_level_rays(),
       ratio=st.floats(math.log(1 / 1.6), math.log(1.6)).map(math.exp))
def test_continued_fold_lies_inside_the_coarse_bracket(case, ratio):
    # two independent ways to lam* on the 64-node coarse twin: the fold
    # continued from the ray at theta * ratio, as along a sweep, and bisection
    mesh, f, g, theta = case
    _, start = curve._coarse_prediction(mesh, f, g, theta * ratio, CurveConfig())
    # a branch that ends by touching 1 (g of 1e-44 where u nears 1, say)
    # has no fold to continue: there the coarse ray's lam_star predicts
    assume(start is not None)
    fold = curve.fold_point(start, theta)
    assert fold is not None
    twin = start.twin
    ray = extremal_on_ray(twin.mesh, twin.f, twin.g, theta, CurveConfig(rtol=1e-4))
    assert not ray.upper_unverified
    assert ray.lam_lo <= fold.lam <= ray.lam_hi


@FEW
@given(case=_two_level_rays(kinds=("constant", "power")), eps=st.floats(0.03, 0.3))
def test_certified_stable_start_lies_below_the_minimal_solution(case, eps):
    # a state s with T(s) >= s and rho(K(0)) < 1 certified lies below every
    # solution (solver notes), here the fold state lowered by eps of its sup
    # along the null vector, just below the coarse fold on the fine mesh
    mesh, f, g, theta = case
    _, fold = curve._coarse_prediction(mesh, f, g, theta, CurveConfig())
    assume(fold is not None)
    x, phi = (curve._prolong(c, fold, mesh) for c in (fold.x, fold.phi))
    s = x - eps * (x.max() / phi.max()) * phi
    lam, mu = (1.0 - 1e-3) * fold.lam, (1.0 - 1e-3) * fold.lam * theta
    out = minimal_solve(mesh, f, g, lam, mu)
    assume(out.converged)
    t = solver._picard(mesh.operator, solver._coefficients(f, g, lam, mu), s)
    assume(np.all(t >= s) and solver.certify_stable_start(mesh, f, g, lam, mu, s, phi[1]))
    assert np.all(s <= np.stack([out.state.u, out.state.v]))


def test_fold_is_rejected_on_the_nine_ball():
    # N >= 8: the 64-node fold solve fails, and each ray of a sweep is the
    # coarse-ray prediction's, as if there were no fold solve
    mesh = build_radial(9, 1.0, 2048)
    one = constant_profile(mesh, 1.0)
    first = extremal_on_ray(mesh, one, one, 1.0)
    second = extremal_on_ray(mesh, one, one, 1.6, previous=first)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curve, "fold_point", lambda *args: None)
        fallback = [extremal_on_ray(mesh, one, one, theta) for theta in (1.0, 1.6)]
    assert first.fold is None and second.fold is None
    assert [first, second] == fallback
    assert all(not s.upper_unverified and s.bracket_width <= 1e-3 for s in fallback)


@st.composite
def _rect_profiles(draw):
    """A small rectangle and a tabulated profile on it: a few drawn values
    (so that plateaus of equal values occur) scattered over the cells, or
    uniform noise below a drawn maximum."""
    nx, ny = draw(st.integers(16, 20)), draw(st.integers(16, 20))
    rect = build_rect(draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)), nx, ny)
    palette = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    assume(max(palette) > 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        values = rng.choice(palette, rect.n_nodes)
        assume(values.any())
    else:
        values = rng.uniform(0.0, max(palette), rect.n_nodes)
    return rect, tabulated_profile(rect, values), palette


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(case=_rect_profiles(), levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_symmetrize_is_equimeasurable(case, levels):
    rect, p, palette = case
    disk = build_radial(2, rect.equal_measure_radius, 64)
    star = symmetrize(p, rect, disk)
    two_cells = 2.0 * max(rect.weights.max(), disk.weights.max())

    def measure_above(mesh, values, t):
        return mesh.weights[values > t].sum()

    # with no rounding margin: shells inside a plateau reproduce its value
    # exactly, so the level sets at palette values match too
    for t in levels + palette:
        m_out = measure_above(disk, star.values, t)
        m_in = measure_above(rect, p.values, t)
        assert m_in - two_cells <= m_out <= m_in + two_cells
    assert integrate(disk, star.values) == pytest.approx(
        integrate(rect, p.values), rel=1e-10)
    assert np.all(np.diff(star.values) <= 0)


_CLI_COMMANDS = ("solve", "eigen", "curve", "extremal", "bounds", "symmetrize")
_CLI_SCALE = st.floats(1e-3, 30.0)
_CLI_CONSTANT = st.builds(lambda c: {"kind": "constant", "value": c}, st.floats(0.1, 1.0))
_CLI_PROFILE = st.one_of(   # power profiles need a radial mesh
    _CLI_CONSTANT, st.builds(lambda a: {"kind": "power", "alpha": a}, st.floats(0.0, 4.0)))
_DISK64 = {"kind": "radial", "dimension": 2, "radius": 1.0, "nodes": 64}


@st.composite
def _cli_runs(draw):
    """A command and a small config for it: a 16-32-node ball or a 16^2
    rectangle, constant or power profiles, parameters across 1e-3...30 and a
    solve budget down to one loop step."""
    profile = _CLI_PROFILE
    if draw(st.booleans()):
        domain = {"kind": "radial", "dimension": draw(st.sampled_from((1, 2, 3, 8, 9))),
                  "radius": draw(st.sampled_from((0.5, 1.0, 2.0))),
                  "nodes": draw(st.integers(16, 32))}
    else:
        domain = {"kind": "rect", "lx": 1.0, "ly": draw(st.sampled_from((0.5, 1.0))),
                  "nx": 16, "ny": 16}
        profile = _CLI_CONSTANT
    config = {
        "domain": domain, "f": draw(profile), "g": draw(profile),
        "lambda": draw(_CLI_SCALE), "mu": draw(_CLI_SCALE), "theta": draw(_CLI_SCALE),
        "theta_grid": sorted(draw(st.lists(_CLI_SCALE, min_size=1, max_size=2,
                                           unique=True))),
        "fractions": [0.5, 0.9], "target_nodes": 16,
        "solver": {"max_iter": draw(st.integers(1, 200))},
        "curve": {"rtol": draw(st.sampled_from((1e-2, 1e-4)))},
    }
    return draw(st.sampled_from(_CLI_COMMANDS)), config


@FEW
@given(run=_cli_runs())
@example(run=("extremal", {"domain": _DISK64, "theta": 1.0, "fractions": [0.5, 0.9],
                           "solver": {"max_iter": 1}}))   # a starved branch solve
@example(run=("check", {"criteria": 5}))
@example(run=("check", {"criteria": [["x"]]}))
@example(run=("bounds", {"domain": {**_DISK64, "dimension": 2.5}}))
@example(run=("solve", {"domain": {**_DISK64, "nodes": 32.9}, "lambda": 0.5, "mu": 0.5,
                        "solver": {"max_iter": 2.7}}))
def test_cli_exits_inside_contract(run):
    command, config = run
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        code = main([command, "--config", str(path), "--out", str(Path(tmp) / "out")])
    assert code in (0, 2, 3, 4, 5)
