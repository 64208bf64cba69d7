"""Each public constructor and function rejects its invalid inputs with
its own message: one row per check that no other test reaches."""

import math
import re

import numpy as np
import pytest

from fess import (
    EmpiricalVariogram,
    EvalGrid,
    FBoxplotSummary,
    Far1Spec,
    FidelityMetrics,
    GaussFieldSpec,
    GeoCoord,
    LagBins,
    SpatialFunctionalDataset,
    TraceCovModel,
    ValidationError,
    empirical_trace_variogram,
    ess_functional,
    ess_scalar,
    marginal_ess,
    trapz_inner,
)
from fess.far1 import basis_matrix

GRID = EvalGrid(np.linspace(0.0, 1.0, 3))
MODEL = TraceCovModel("exponential", 1.0, 10.0)
ONE_SITE = np.zeros((1, 2))


def _dataset(xy=ONE_SITE, curves=np.zeros((1, 3))):
    return SpatialFunctionalDataset(GRID, xy, curves)


def _variogram(centers=(1.0, 2.0), gamma=(0.5, 1.0), counts=(3, 4), sigma0=None):
    return EmpiricalVariogram(np.array(centers), np.array(gamma), np.array(counts), sigma0)


def _summary(lower, upper):
    band = np.zeros(3)
    return FBoxplotSummary(np.ones(2), 0, lower, upper, band, band, band, band, [])


# name: (call, message)
_CASES = {
    "GeoCoord non-finite": (lambda: GeoCoord(math.nan, 0.0), "coordinates must be finite"),
    "dataset locations of another type": (
        lambda: _dataset(xy=[(0.0, 0.0)]),
        "locations must be an (n, 2) array or PlanarCoord instances"),
    "dataset 1-d curves": (lambda: _dataset(curves=np.zeros(3)), "curves must be a 2-d matrix"),
    "dataset without curves": (lambda: _dataset(curves=np.zeros((0, 3))),
                               "dataset needs at least one curve"),
    "dataset locations off the curves": (lambda: _dataset(xy=np.zeros((2, 2))),
                                         "2 locations for 1 curves (must match)"),
    "trapz_inner off the grid": (lambda: trapz_inner(np.zeros(2), np.zeros(3), GRID),
                                 "curve values must conform to the grid"),
    "ess_scalar not square": (lambda: ess_scalar(np.ones(3)), "R must be a square matrix"),
    "ess_functional not square": (lambda: ess_functional(np.zeros((2, 3)), MODEL),
                                  "distance matrix must be square"),
    "ess_functional negative distance": (
        lambda: ess_functional(np.array([[0.0, -1.0], [-1.0, 0.0]]), MODEL),
        "distances must be finite and non-negative"),
    "EvalGrid span beyond the float range": (lambda: EvalGrid([-1e308, 1e308]),
                                             "grid span from -1e+308 to 1e+308 exceeds"),
    "EvalGrid middle weight beyond the float range": (
        lambda: EvalGrid([-1e308, 0.0, 1e308]), "grid span from -1e+308 to 1e+308 exceeds"),
    "basis_matrix unknown basis": (lambda: basis_matrix("legendre", 2, GRID.points),
                                   "unknown basis 'legendre'; expected one of"),
    "basis_matrix no fourier terms": (lambda: basis_matrix("fourier", 0, GRID.points),
                                      "n_terms must be a positive integer"),
    "basis_matrix no cosine terms": (lambda: basis_matrix("cosine", 0, GRID.points),
                                     "n_terms must be a positive integer"),
    "basis_matrix negative terms": (lambda: basis_matrix("cosine", -1, GRID.points),
                                    "n_terms must be a positive integer"),
    "Far1Spec non-finite": (lambda: Far1Spec([math.nan], [1.0], GRID),
                            "lambdas and etas must be finite"),
    "marginal_ess coefficient": (lambda: marginal_ess(1.0, 5),
                                 "autoregressive coefficient must lie in [0, 1)"),
    "GaussFieldSpec 2-d weights": (lambda: GaussFieldSpec(MODEL, [[1.0, 2.0]], GRID),
                                   "weights must be a finite 1-d sequence"),
    "GaussFieldSpec unknown basis": (
        lambda: GaussFieldSpec(MODEL, [1.0], GRID, basis="legendre"),
        "unknown basis 'legendre'"),
    "LagBins.equal_width zero lag": (lambda: LagBins.equal_width(0.0),
                                     "max_lag must be positive and finite"),
    "EmpiricalVariogram lengths": (lambda: _variogram(counts=(3,)),
                                   "centers, gamma, counts must be equal-length 1-d"),
    "EmpiricalVariogram non-finite center": (lambda: _variogram(centers=(1.0, math.inf)),
                                             "bin centers must be finite"),
    "EmpiricalVariogram infinite value": (lambda: _variogram(gamma=(0.5, math.inf)),
                                          "variogram values must not be infinite"),
    "EmpiricalVariogram negative count": (lambda: _variogram(counts=(3, -1)),
                                          "pair counts must be non-negative"),
    "EmpiricalVariogram occupied bin without value": (
        lambda: _variogram(gamma=(0.5, math.nan)), "occupied bins must carry a value"),
    "EmpiricalVariogram empty bin with value": (lambda: _variogram(counts=(3, 0)),
                                                "empty bins must not carry a value"),
    "EmpiricalVariogram negative sigma0": (lambda: _variogram(sigma0=-1.0),
                                           "sigma0 must be non-negative"),
    "empirical_trace_variogram one curve": (
        lambda: empirical_trace_variogram(_dataset(), LagBins.equal_width(1.0)),
        "empirical estimation needs at least 2 curves"),
    "FBoxplotSummary inverted band": (lambda: _summary(np.ones(3), np.zeros(3)),
                                      "central band is inverted"),
    "FidelityMetrics negative": (lambda: FidelityMetrics(-1.0, 1.0, 0.0, 0.0, 0.5),
                                 "metrics must be non-negative and finite"),
    "FidelityMetrics cip above 1": (lambda: FidelityMetrics(0.0, 0.0, 0.0, 0.0, 1.5),
                                    "cip is a proportion in [0, 1]"),
    "FidelityMetrics sup below RMS": (lambda: FidelityMetrics(1.0, 0.5, 0.0, 0.0, 0.5),
                                      "sup discrepancy cannot be below the RMS"),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_rejects_with_its_message(case):
    call, message = _CASES[case]
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()
