import numpy as np
import pytest

from fess import EvalGrid, PlanarCoord, SpatialFunctionalDataset


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
