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

import math
from dataclasses import dataclass

import numpy as np

from .dataset import (
    _NOT_A_PAIR,
    SpatialFunctionalDataset,
    _check_threads,
    _pair_map,
    _pair_spans,
    _sorted_sum,
)
from .errors import ValidationError
from .variogram import (
    _CORR,
    LagBins,
    TraceCovModel,
    _check_nugget,
    _family,
    default_lag_bins,
    empirical_trace_variogram,
    fit_model,
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


def _unit_parts(model: TraceCovModel) -> tuple[float, float]:
    """Sill and nugget times the power of two that puts the larger in [0.5, 1).

    The scaling is exact and the ESS is scale-free, so sums in these units
    give the ESS bit for bit without overflowing near the float limit. Plain
    floats, not a model: a subnormal sill beside a large nugget may scale to 0.
    """
    e = -math.frexp(max(model.sill, model.nugget))[1]
    return math.ldexp(model.sill, e), math.ldexp(model.nugget, e)


def _ess_report(n: int, model: TraceCovModel, denom: float, warnings=()) -> EssReport:
    """``n^2 cov_tr(0) / denom`` for the double sum ``denom`` over n sites,
    in the units of :func:`_unit_parts`.

    Every family's trace-covariogram lies in [0, cov_tr(0)] with
    cov_tr(0) > 0, so ``n cov_tr(0) <= denom <= n^2 cov_tr(0)`` and the ESS
    lies in [1, n]; it is kept there, since the quotient may round past n
    when no pair correlates. ``warnings`` (the fit's, say) go into the
    report.
    """
    sill, nugget = _unit_parts(model)
    ess = float(np.clip(n * n * (sill + nugget) / denom, 1, n))  # a NaN stays NaN
    return EssReport(n=n, ess=ess, model=model, warnings=warnings)


def ess_functional(D: np.ndarray, model: TraceCovModel) -> EssReport:
    """Functional ESS of the site set ``D`` under a covariance model.

    ``D`` is the matrix of pairwise distances (km). The diagonal enters
    the double sum at distance zero, where the trace-covariogram equals
    sill + nugget.
    """
    D = _validate_distance_matrix(D)
    sill, nugget = _unit_parts(model)
    # in place on the one n x n quotient. The nugget goes only where D == 0:
    # adding 0.0 elsewhere could only turn a -0.0 into 0.0, which no sum sees
    cov = _CORR[model.family](D / model.range_km)
    cov *= sill
    np.add(cov, nugget, out=cov, where=D == 0.0)
    return _ess_report(D.shape[0], model, _sorted_sum(cov))


def _plugin_ess(
    dataset: SpatialFunctionalDataset,
    families: list[str],
    bins: LagBins | None = None,
    nugget: str = "zero",
    threads: int | None = None,
) -> list[EssReport]:
    """Plug-in functional ESS of ``dataset`` under each family, in order.

    One empirical trace-variogram on ``bins`` (default: ``default_lag_bins``)
    is fitted by every family under the ``nugget`` choice of
    :func:`fit_model`. ``sum_ij cov_tr(d_ij)`` is ``n cov_tr(0)`` plus twice
    the pairs ``i < j``, summed for all fitted models in one pass over the
    canonical pair blocks, added in block order (bitwise invariant under row
    relabelling); each block adds ``sill * sum corr(d / range)`` over its
    pairs and the nugget once per coincident pair, as the diagonal carries
    it, in the units of :func:`_unit_parts`. A block allocates one
    scratch array for all the models: each model divides the block's
    distances by its range into it, and the family's correlation
    overwrites it in place before it is summed. Both pair passes run on
    ``threads`` workers (default: the usable cores); the reports do not
    depend on their number.

    The pairs' distances depend only on the sites and the block layout,
    so ``_pair_map`` keeps, under ``"distances"`` and keyed by the block
    spans, each block's pair distances, compressed and read-only, and its
    count of coincident pairs: 8 bytes a pair, 4 n (n - 1) bytes for n
    sites (0.6 MB at n = 400, 100 MB at n = 5000).
    """
    # reject a bad family, nugget or thread count before the O(n^2) pair passes
    for family in families:
        _family(family)
    _check_nugget(nugget)
    _check_threads(threads)
    if bins is None:
        bins = default_lag_bins(dataset)
    ev = empirical_trace_variogram(dataset, bins, threads=threads)
    fits = [fit_model(ev, family, nugget) for family in families]
    models = [(fit.model, *_unit_parts(fit.model)) for fit in fits]

    n = dataset.n_curves

    def derive(d):
        d = d[d != _NOT_A_PAIR]
        d.flags.writeable = False
        return d, int(np.count_nonzero(d == 0.0))

    def block_sums(block, head, tail):
        d, coincident = block
        u = np.empty_like(d)
        sums = []
        for model, sill, nugget in models:
            corr = _CORR[model.family](np.divide(d, model.range_km, out=u))
            sums.append(sill * float(np.sum(corr)) + nugget * coincident)
        return sums

    keep = ("distances", _pair_spans(n, dataset.n_levels), 4 * n * (n - 1), derive)
    upper = [0.0] * len(fits)
    for sums in _pair_map(block_sums, dataset, keep, threads=threads):
        for k, value in enumerate(sums):
            upper[k] += value
    reports = []
    for fit, (_, sill, nugget), pairs in zip(fits, models, upper):
        mass = n * (sill + nugget) + 2.0 * pairs
        reports.append(_ess_report(n, fit.model, mass, fit.warnings))
    return reports


def ess_plugin(
    dataset: SpatialFunctionalDataset,
    family: str,
    bins: LagBins | None = None,
    nugget: str = "zero",
) -> EssReport:
    """Plug-in functional ESS estimate from a dataset.

    Pipeline: empirical trace-variogram on binned lags, least-squares fit
    of the requested family with the nugget ``"zero"`` or ``"free"``, then
    the functional ESS under the fitted model. The report embeds the
    fitted model; fit warnings propagate.
    Every pair stage streams over row blocks and runs on the usable cores;
    the report does not depend on their number. A one-shot estimate
    needs O(n m) memory for the streamed blocks; the ESS sum adds one
    scratch array of a block's pair distances per worker, which each
    family's correlation overwrites in place. Repeated estimates at the
    same sites keep the pairs' bin slots at their bins, at most about
    n**2 / 2 bytes, and their distances, 4 n**2 bytes (11.4 and 100 MB at
    n = 5000 on uniform sites and default bins; the slots hold only the
    pairs of each block's row tiles), and then compute no
    distances (see :func:`fess.dataset._pair_map`).
    Both tables live in the one record kept for the last site set
    (:func:`fess.dataset._site_record`), beside the factor of
    :func:`fess.far1.gauss_field_simulate`; a call at other sites drops
    all three.
    """
    return _plugin_ess(dataset, [family], bins, nugget)[0]
