import numpy as np
import pytest

from fess import EvalGrid, PlanarCoord, SpatialFunctionalDataset

# Each family as an expression on a fresh array: the reference that the
# in-place families of fess.variogram._CORR must equal bit for bit.
FRESH_CORR = {
    "exponential": lambda u: np.exp(-u),
    "spherical": lambda u: np.where(u <= 1.0, 1.0 - 1.5 * u + 0.5 * u**3, 0.0),
    "gaussian": lambda u: np.exp(-(u**2)),
}


@pytest.fixture
def unit_grid():
    return EvalGrid(np.linspace(0.0, 1.0, 21))


def make_dataset(curves, xy=None, grid=None):
    curves = np.asarray(curves, dtype=float)
    n, m = curves.shape
    if grid is None:
        grid = EvalGrid(np.arange(float(m)))
    if xy is None:
        xy = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    locs = tuple(PlanarCoord(float(x), float(y)) for x, y in xy)
    return SpatialFunctionalDataset(grid, locs, curves)


def random_dataset(rng, n, m, spread=100.0):
    xy = rng.uniform(0.0, spread, size=(n, 2))
    curves = rng.standard_normal((n, m))
    return make_dataset(curves, xy=xy)


def tied_dataset(rng, n, m, spread=100.0):
    """Random dataset whose rows tie on the keys of the canonical row order.

    Rows ``i``, ``i + n//3`` and ``i + 2 n//3`` share a site, and rows ``i``
    and ``i + 2 n//3`` are identical in every value.
    """
    xy = rng.uniform(0.0, spread, size=(n, 2))
    curves = rng.standard_normal((n, m))
    k = n // 3
    xy[k:2 * k] = xy[:k]
    xy[2 * k:3 * k] = xy[:k]
    curves[2 * k:3 * k] = curves[:k]
    return make_dataset(curves, xy=xy)


def repeated_lattice_dataset(seed):
    """Independent N(0, 1) curves on 6 levels at a 15 x 15 lattice of 100 km
    spacing whose first 10 sites appear twice (235 curves).

    The default first lag bin, [0, 66) km, holds only the 10 coincident
    pairs, so its center is 0.
    """
    axis = np.arange(15) * 100.0
    xy = np.array([(x, y) for x in axis for y in axis])
    xy = np.vstack([xy, xy[:10]])
    curves = np.random.default_rng(seed).standard_normal((len(xy), 6))
    return SpatialFunctionalDataset(EvalGrid(np.linspace(0.0, 1.0, 6)), xy, curves)
