"""Permittivity profiles and their decreasing rearrangement.

A profile is a sampled nonnegative field bounded by 1 that is positive on a
node set of positive measure.  The rearrangement maps a profile on any mesh
onto the radial mesh of the equal-measure ball, sorting quadrature cells by
value and averaging the resulting step function over radial shells, so the
output is radially non-increasing and equimeasurable with the input.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import fingerprint
from .exceptions import ConfigurationError, HypothesisError
from .mesh import Mesh, unit_ball_volume


@dataclass(frozen=True)
class Profile:
    """Sampled permittivity on a mesh: the read-only node ``values`` and
    ``sup``, their least upper bound over the continuum domain.  ``inf`` is
    the least node value, which is exact for every constructor below: a
    power profile's infimum sits at the origin, a node of every radial
    mesh."""

    values: np.ndarray
    sup: float

    @property
    def inf(self) -> float:
        return float(self.values.min())

    def fingerprint(self) -> str:
        return fingerprint(repr(self.sup), np.ascontiguousarray(self.values).tobytes())


def _validate(values: np.ndarray, weights: np.ndarray) -> None:
    if not np.all((values >= 0) & (values <= 1)):   # NaN fails both tests
        raise HypothesisError("profile values must lie in [0, 1]")
    if float(weights[values > 0].sum()) <= 0:
        raise HypothesisError("profile must be positive on a set of positive measure")


def constant_profile(mesh: Mesh, c: float) -> Profile:
    """Profile identically equal to c, 0 < c <= 1."""
    if not (0.0 < c <= 1.0):
        raise HypothesisError(f"constant profile value must be in (0, 1], got {c!r}")
    values = np.full(mesh.n_nodes, float(c))
    values.flags.writeable = False
    return Profile(values=values, sup=float(c))


def power_profile(mesh: Mesh, alpha: float) -> Profile:
    """Radial power profile, alpha >= 0: ``r^alpha`` on balls of radius
    R <= 1, and ``(r/R)^alpha`` on balls of radius R > 1, so the values stay
    <= 1.  ``sup`` is ``min(1, R)^alpha``, reached at r = R, past the last
    node.
    """
    if mesh.radii is None:
        raise ConfigurationError("power profiles require a radial mesh")
    if not 0 <= alpha < math.inf:
        raise HypothesisError(f"power exponent must be finite and >= 0, got {alpha!r}")
    values = (mesh.radii / max(mesh.radius, 1.0)) ** alpha
    _validate(values, mesh.weights)
    values.flags.writeable = False
    return Profile(values=values, sup=float(min(1.0, mesh.radius) ** alpha))


def tabulated_profile(mesh: Mesh, values: np.ndarray) -> Profile:
    """Profile from raw node values (validated against the hypotheses)."""
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.n_nodes,):
        raise ConfigurationError(
            f"expected {mesh.n_nodes} values, got shape {values.shape}"
        )
    _validate(values, mesh.weights)
    values = values.copy()
    values.flags.writeable = False
    return Profile(values=values, sup=float(values.max()))


def load_tabulated(mesh: Mesh, path) -> Profile:
    """Load a tabulated profile from CSV with columns (node index, value); a
    row without both cells or with a repeated index is rejected.  Blank,
    ``#`` comment and ``index`` header rows are skipped; only a row whose
    first cell is not an integer is tested for that."""
    raw = {}
    with open(path, newline="") as fh:
        rows = csv.reader(fh.readlines())   # the lines iterating fh gives
        for row in rows:
            try:
                index = int(row[0])
            except (IndexError, ValueError):
                if not row or row[0].startswith("#") or row[0].strip().lower() == "index":
                    continue
                if len(row) > 1:
                    raise
            if len(row) < 2 or index in raw:
                fault = ("expected a node index and a value" if len(row) < 2
                         else f"node {index} given twice")
                raise ConfigurationError(f"profile file {path} line {rows.line_num}: {fault}")
            raw[index] = float(row[1])
    n = mesh.n_nodes
    # n distinct integers from 0 to n - 1 are exactly 0..n-1
    if len(raw) != n or min(raw) != 0 or max(raw) != n - 1:
        raise ConfigurationError(
            f"profile file {path} must cover node indices 0..{n - 1}"
        )
    values = np.empty(n)
    values[np.fromiter(raw, int, n)] = np.fromiter(raw.values(), float, n)
    return tabulated_profile(mesh, values)


def symmetrize(profile: Profile, source: Mesh, target: Mesh) -> Profile:
    """Decreasing rearrangement onto the radial mesh of the equal-measure ball.

    Sorts the source quadrature cells by value (descending, ties broken by
    node index), accumulates their measure, and averages the resulting step
    function of measure over the target's radial shells.  The output is
    exactly non-increasing in radius, takes a value the input holds on a
    plateau exactly on every shell inside that plateau, preserves the
    integral to rounding, and is equimeasurable with the input up to cell
    granularity.
    """
    if target.radii is None:
        raise ConfigurationError("rearrangement target must be a radial mesh")
    if target.dimension != source.dimension:
        raise ConfigurationError(
            f"target dimension {target.dimension} differs from the source's "
            f"{source.dimension}"
        )
    r_equal = source.equal_measure_radius
    if abs(target.radius - r_equal) > 1e-8 * r_equal:
        raise ConfigurationError(
            f"target radius {target.radius} does not match the equal-measure "
            f"radius {r_equal}"
        )

    vals = profile.values
    order = np.lexsort((np.arange(vals.size), -vals))
    sv = vals[order]
    sw = source.weights[order]
    cum = np.concatenate([[0.0], np.cumsum(sw)])
    cum_integral = np.concatenate([[0.0], np.cumsum(sv * sw)])

    # measure of the centered ball through each target cell edge
    ball = unit_ball_volume(target.dimension)
    m_edges = np.minimum(ball * target.edges**target.dimension, cum[-1])

    out = np.diff(np.interp(m_edges, cum, cum_integral)) / np.diff(m_edges)
    # each shell average lies between the values of the sorted cells the
    # shell overlaps; clamping to them undoes the rounding, so a shell
    # inside a plateau gets the plateau value exactly, and an outer shell
    # (later cells, smaller values) never exceeds an inner one
    first = np.minimum(np.searchsorted(cum, m_edges[:-1], side="right"), sv.size) - 1
    last = np.searchsorted(cum, m_edges[1:], side="left") - 1
    out = np.clip(out, sv[last], sv[first])
    out.flags.writeable = False
    return Profile(values=out, sup=float(out.max()))
