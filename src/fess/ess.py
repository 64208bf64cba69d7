"""Effective sample size for scalar and functional spatial data.

The scalar ESS of a correlated sample is ``n^2 / (1' R 1)`` for the
correlation matrix ``R``. Its functional counterpart replaces the
correlation by the trace-covariogram evaluated at the inter-site
distances:

    ess = n^2 * cov_tr(0) / sum_ij cov_tr(||s_i - s_j||)

Under a non-negative trace-covariogram the value lies in [1, n]: n for
independent curves, 1 under perfect dependence. The plug-in pipeline
estimates it from data by composing the empirical trace-variogram, a
parametric fit, and the formula above.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    _NOT_A_PAIR,
    SpatialFunctionalDataset,
    _canonical_order,
    _max_pair_distance,
    _pair_blocks,
    _sorted_sum,
)
from .errors import EstimationError, ValidationError
from .variogram import (
    FitOptions,
    LagBins,
    TraceCovModel,
    default_lag_bins,
    empirical_trace_variogram,
    fit_model,
    model_trace_cov,
)


@dataclass(frozen=True)
class EssReport:
    """Effective sample size of ``n`` curves under a covariance model."""

    n: int
    ess: float
    model: TraceCovModel
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not (self.ess > 0 and math.isfinite(self.ess)):
            raise ValidationError("ess must be positive and finite")
        if self.n < 1:
            raise ValidationError("n must be at least 1")
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def ratio(self) -> float:
        return self.ess / self.n

    @property
    def recommended_subsample(self) -> int:
        """Smallest integer subsample size covering the ESS."""
        return int(math.ceil(self.ess))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "ess": self.ess,
            "ratio": self.ratio,
            "recommended_subsample": self.recommended_subsample,
            "model": self.model.to_dict(),
            "warnings": list(self.warnings),
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def ess_scalar(R: np.ndarray) -> float:
    """Scalar effective sample size ``n^2 / (1' R 1)``.

    ``R`` must be a symmetric correlation matrix with unit diagonal.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValidationError("R must be a square matrix")
    if not np.allclose(R, R.T, rtol=0.0, atol=1e-9):
        raise ValidationError("R must be symmetric")
    if not np.allclose(np.diag(R), 1.0, rtol=0.0, atol=1e-9):
        raise ValidationError("R must have unit diagonal")
    n = R.shape[0]
    total = _sorted_sum(R)
    if total <= 0:
        raise ValidationError(
            f"inadmissible correlation structure: 1'R1 = {total:g} <= 0"
        )
    return n * n / total


def _validate_distance_matrix(D: np.ndarray) -> np.ndarray:
    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise ValidationError("distance matrix must be square")
    if not np.all(np.isfinite(D)) or np.any(D < 0):
        raise ValidationError("distances must be finite and non-negative")
    if np.any(np.diag(D) != 0):
        raise ValidationError("distance matrix must have zero diagonal")
    if not np.array_equal(D, D.T):
        raise ValidationError("distance matrix must be symmetric")
    return D


def _ess_report(n: int, model: TraceCovModel, denom: float) -> EssReport:
    """``n^2 cov_tr(0) / denom`` for the double sum ``denom`` over n sites."""
    if denom <= 0:
        raise EstimationError(
            f"non-positive trace-covariogram mass ({denom:g}); ess undefined"
        )
    ess = n * n * (model.sill + model.nugget) / denom
    warnings = ()
    if ess > n * (1.0 + 1e-12):
        warnings = (
            "ess exceeds the nominal sample size (negative covariogram values)",
        )
    return EssReport(n=n, ess=ess, model=model, warnings=warnings)


def ess_functional(D: np.ndarray, model: TraceCovModel) -> EssReport:
    """Functional ESS of the site set ``D`` under a covariance model.

    ``D`` is the matrix of pairwise distances (km). The diagonal enters
    the double sum at distance zero, where the trace-covariogram equals
    sill + nugget.
    """
    D = _validate_distance_matrix(D)
    return _ess_report(D.shape[0], model, _sorted_sum(model_trace_cov(model, D)))


def _covariogram_mass(dataset: SpatialFunctionalDataset, model: TraceCovModel) -> float:
    """``sum_ij cov_tr(d_ij)`` as ``n cov_tr(0)`` plus twice the pairs ``i < j``.

    Summed over canonical row blocks in block order, so the value is
    bitwise invariant under row relabelling. Coincident sites enter at
    distance zero and so carry the nugget, as the diagonal does.
    """
    xy = dataset.xy[_canonical_order(dataset)]
    upper = 0.0
    for _, _, d in _pair_blocks(xy, dataset.n_levels):
        upper += float(np.sum(model_trace_cov(model, d[d != _NOT_A_PAIR])))
    return dataset.n_curves * (model.sill + model.nugget) + 2.0 * upper


def ess_plugin(
    dataset: SpatialFunctionalDataset,
    family: str,
    bins: LagBins | None = None,
    opts: FitOptions | None = None,
) -> EssReport:
    """Plug-in functional ESS estimate from a dataset.

    Pipeline: empirical trace-variogram on binned lags, least-squares fit
    of the requested family, then the functional ESS under the fitted
    model. The report embeds the fitted model; fit warnings propagate.
    Every pair stage streams over row blocks, so memory stays O(n m).
    """
    if bins is None:
        bins = default_lag_bins(_max_pair_distance(dataset))
    ev = empirical_trace_variogram(dataset, bins)
    fit = fit_model(ev, family, opts)
    report = _ess_report(dataset.n_curves, fit.model, _covariogram_mass(dataset, fit.model))
    return EssReport(
        n=report.n,
        ess=report.ess,
        model=fit.model,
        warnings=fit.warnings + report.warnings,
    )
