import numpy as np
import pytest
import scipy.sparse as sp

from memslab import build_radial, build_rect, unit_ball_volume
from memslab.profiles import constant_profile


def rect_grid(mesh):
    """``(nx, ny, hx, hy)`` of a rectangle, exactly, from its cell centres:
    the first centre sits half a cell from each wall, and the first column
    of nodes shares its x."""
    x, y = mesh.coordinates["x"], mesh.coordinates["y"]
    ny = int(np.count_nonzero(x == x[0]))
    return mesh.n_nodes // ny, ny, 2.0 * x[0], 2.0 * y[0]


def oracle_symmetric_form(mesh):
    """K = W A assembled with scipy.sparse, apart from the package's numpy
    bands: ``sp.diags`` of the finite-volume fluxes on radial meshes, and on
    rectangles the ``sp.kronsum`` of the two 1-D operators times the cell
    area."""
    if mesh.radii is not None:
        n, dim, radius, h = mesh.n_nodes, mesh.dimension, mesh.radius, mesh.radii[1]
        edges = np.empty(n + 1)
        edges[0] = 0.0
        edges[1:] = (np.arange(1, n + 1) - 0.5) * h
        edges[n] = radius
        area = dim * unit_ball_volume(dim)
        s_int = area * edges[1:n] ** (dim - 1)
        diag = np.zeros(n)
        diag[: n - 1] += s_int / h
        diag[1:] += s_int / h
        diag[n - 1] += area * radius ** (dim - 1) / (h / 2.0)
        off = -s_int / h
        return sp.diags([off, diag, off], offsets=[-1, 0, 1], format="csr")

    def line(n, h):
        d = np.full(n, 2.0)
        d[0] = d[-1] = 3.0
        return sp.diags([-np.ones(n - 1), d, -np.ones(n - 1)], [-1, 0, 1]) / h**2

    nx, ny, hx, hy = rect_grid(mesh)
    a = sp.kronsum(line(ny, hy), line(nx, hx), format="csr")
    return (a * (hx * hy)).tocsr()


def oracle_matrix(mesh):
    """The operator A = W^-1 K of ``oracle_symmetric_form`` as a CSR matrix."""
    return (sp.diags(1.0 / mesh.weights) @ oracle_symmetric_form(mesh)).tocsr()


@pytest.fixture(scope="session")
def disk256():
    return build_radial(2, 1.0, 256)


@pytest.fixture(scope="session")
def interval256():
    return build_radial(1, 1.0, 256)


@pytest.fixture(scope="session")
def square64():
    return build_rect(1.0, 1.0, 64, 64)


@pytest.fixture(scope="session")
def ones_disk(disk256):
    return constant_profile(disk256, 1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
