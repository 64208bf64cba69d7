"""Band-depth functional boxplots and subsample-fidelity metrics.

Curves are ordered center-outward by modified band depth (pairs, J = 2):
the depth of a curve is the average, over all unordered pairs of curves,
of the fraction of grid points where it lies inside the pair's envelope.
The boxplot summary is the deepest curve (the functional median), the
envelope of the deepest half (the 50% central region), a whisker fence
at 1.5 band heights, and the envelope of the non-outlying curves.

Five scalar metrics compare a subsample's boxplot against the full
sample's: median discrepancies (RMS and sup), central-region width
discrepancies (mean and sup), and the central inclusion proportion.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import SpatialFunctionalDataset, _frozen_array
from .errors import ValidationError
from .rng import derived_rng

FENCE_FACTOR = 1.5


def mbd(dataset: SpatialFunctionalDataset) -> np.ndarray:
    """Modified band depth (J = 2) of every curve, each in [0, 1].

    Equivalent to enumerating all unordered curve pairs and averaging the
    fraction of grid points where the curve lies inside the pair band
    (band edges count as inside; pairs containing the curve itself are
    included and always contain it). Computed per grid point from ranks,
    with integer pair counts so the result matches brute-force
    enumeration exactly.
    """
    X = dataset.curves
    n, m = X.shape
    if n < 2:
        raise ValidationError("band depth needs at least 2 curves")
    total_pairs = n * (n - 1) // 2
    order = np.argsort(X, axis=0, kind="stable")
    ranked = np.take_along_axis(X, order, axis=0)
    pos = np.arange(n)[:, None]
    # In each sorted column, the values equal to the one at position p
    # occupy positions first[p]..last[p]: ``below = first`` values lie
    # strictly under it and ``above = n - 1 - last`` strictly over it.
    starts = np.ones((n, m), dtype=bool)
    starts[1:] = ranked[1:] != ranked[:-1]
    ends = np.ones((n, m), dtype=bool)
    ends[:-1] = starts[1:]
    below = np.maximum.accumulate(np.where(starts, pos, 0), axis=0)
    last = np.minimum.accumulate(np.where(ends, pos, n - 1)[::-1], axis=0)[::-1]
    above = n - 1 - last
    # A pair band misses the value only if both members sit strictly on
    # the same side of it.
    ranked_counts = total_pairs - below * (below - 1) // 2 - above * (above - 1) // 2
    pair_counts = np.empty_like(ranked_counts)
    np.put_along_axis(pair_counts, order, ranked_counts, axis=0)
    counts = pair_counts.sum(axis=1)
    return counts / (total_pairs * m)


@dataclass(frozen=True, eq=False)
class FBoxplotSummary:
    """Functional boxplot summary of one dataset."""

    depths: np.ndarray
    median_index: int
    central_lower: np.ndarray
    central_upper: np.ndarray
    fence_lower: np.ndarray
    fence_upper: np.ndarray
    nonout_lower: np.ndarray
    nonout_upper: np.ndarray
    outliers: np.ndarray

    def __post_init__(self):
        for name in (
            "depths",
            "central_lower",
            "central_upper",
            "fence_lower",
            "fence_upper",
            "nonout_lower",
            "nonout_upper",
        ):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))
        object.__setattr__(self, "outliers", _frozen_array(self.outliers, dtype=np.int64))
        if np.any(self.central_lower > self.central_upper):
            raise ValidationError("central band is inverted")

    @property
    def central_width(self) -> np.ndarray:
        return self.central_upper - self.central_lower


def functional_boxplot(dataset: SpatialFunctionalDataset) -> FBoxplotSummary:
    """Build the boxplot summary of a dataset (n >= 2 curves).

    The central region keeps the ceil(n/2) deepest curves; curves tied
    in depth with the cutoff are all kept, so equal-depth curves are
    never split apart arbitrarily. Outliers are the curves exceeding the
    fence (central band inflated by 1.5 band heights) at any grid point.
    """
    X = dataset.curves
    n = X.shape[0]
    depths = mbd(dataset)
    median_index = int(np.argmax(depths))  # ties: smallest index

    k = math.ceil(n / 2)
    cutoff = np.sort(depths)[n - k]  # k-th largest depth
    central = depths >= cutoff
    central_lower = X[central].min(axis=0)
    central_upper = X[central].max(axis=0)

    height = central_upper - central_lower
    fence_lower = central_lower - FENCE_FACTOR * height
    fence_upper = central_upper + FENCE_FACTOR * height

    out_mask = np.any((X < fence_lower) | (X > fence_upper), axis=1)
    outliers = np.flatnonzero(out_mask)
    keep = ~out_mask
    nonout_lower = X[keep].min(axis=0)
    nonout_upper = X[keep].max(axis=0)

    return FBoxplotSummary(
        depths=depths,
        median_index=median_index,
        central_lower=central_lower,
        central_upper=central_upper,
        fence_lower=fence_lower,
        fence_upper=fence_upper,
        nonout_lower=nonout_lower,
        nonout_upper=nonout_upper,
        outliers=outliers,
    )


@dataclass(frozen=True)
class FidelityMetrics:
    """How closely a subsample's boxplot tracks the full sample's.

    ``md_l2``/``md_sup``: RMS and sup discrepancy between the median
    curves. ``crd_mean``/``crd_sup``: mean and sup discrepancy between
    the central-region widths. ``cip``: fraction of subsample curves
    lying inside the full sample's central band at every grid point.
    """

    md_l2: float
    md_sup: float
    crd_mean: float
    crd_sup: float
    cip: float

    def __post_init__(self):
        vals = (self.md_l2, self.md_sup, self.crd_mean, self.crd_sup, self.cip)
        if any(not (v >= 0 and math.isfinite(v)) for v in vals):
            raise ValidationError("metrics must be non-negative and finite")
        if self.cip > 1.0:
            raise ValidationError("cip is a proportion in [0, 1]")
        if self.md_sup < self.md_l2 * (1.0 - 1e-12):
            raise ValidationError("sup discrepancy cannot be below the RMS")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.md_l2, self.md_sup, self.crd_mean, self.crd_sup, self.cip)


def _metrics_from_summaries(
    full: SpatialFunctionalDataset,
    full_summary: FBoxplotSummary,
    sub: SpatialFunctionalDataset,
    sub_summary: FBoxplotSummary,
) -> tuple[FidelityMetrics, float]:
    med_full = full.curves[full_summary.median_index]
    med_sub = sub.curves[sub_summary.median_index]
    diff = med_full - med_sub
    width_diff = np.abs(full_summary.central_width - sub_summary.central_width)
    inside = np.all(
        (sub.curves >= full_summary.central_lower)
        & (sub.curves <= full_summary.central_upper),
        axis=1,
    )
    metrics = FidelityMetrics(
        md_l2=float(np.sqrt(np.mean(diff**2))),
        md_sup=float(np.max(np.abs(diff))),
        crd_mean=float(np.mean(width_diff)),
        crd_sup=float(np.max(width_diff)),
        cip=float(np.mean(inside)),
    )
    return metrics, float(np.mean(np.abs(diff)))


def fidelity_metrics(
    full: SpatialFunctionalDataset, sub: SpatialFunctionalDataset
) -> FidelityMetrics:
    """Five-number fidelity comparison of ``sub`` against ``full``."""
    if not np.array_equal(full.grid.points, sub.grid.points):
        raise ValidationError("datasets must share the same evaluation grid")
    metrics, _ = _metrics_from_summaries(
        full, functional_boxplot(full), sub, functional_boxplot(sub)
    )
    return metrics


@dataclass(frozen=True, eq=False)
class SubsampleExperiment:
    """Replicated subsample-fidelity experiment results."""

    size: int
    reps: int
    seed: int
    replicates: tuple[FidelityMetrics, ...]
    means: FidelityMetrics
    median_band_halfwidth: float

    def to_dict(self) -> dict:
        return {
            "size": self.size,
            "reps": self.reps,
            "seed": self.seed,
            "means": asdict(self.means),
            "median_band_halfwidth": self.median_band_halfwidth,
        }


def subsample_experiment(
    full: SpatialFunctionalDataset, size: int, reps: int, seed: int
) -> SubsampleExperiment:
    """Draw ``reps`` uniform without-replacement subsamples and score them.

    Replicate ``r`` uses a generator derived from ``(seed, r)``, so the
    draws do not depend on evaluation order. Besides the per-replicate
    metrics and their arithmetic means, reports the mean absolute
    discrepancy between the full median and the subsample medians,
    averaged over replicates (the half-width of a median uncertainty
    band).
    """
    n = full.n_curves
    if not 2 <= size <= n:
        raise ValidationError(f"subsample size must lie in [2, {n}], got {size}")
    if reps < 1:
        raise ValidationError("need at least one replicate")
    full_summary = functional_boxplot(full)
    all_metrics: list[FidelityMetrics] = []
    mads: list[float] = []
    for r in range(int(reps)):
        idx = derived_rng(seed, r).choice(n, size=int(size), replace=False)
        sub = full.subset(idx)
        metrics, mad = _metrics_from_summaries(
            full, full_summary, sub, functional_boxplot(sub)
        )
        all_metrics.append(metrics)
        mads.append(mad)
    stack = np.array([m.as_tuple() for m in all_metrics])
    means = FidelityMetrics(*(float(v) for v in stack.mean(axis=0)))
    return SubsampleExperiment(
        size=int(size),
        reps=int(reps),
        seed=int(seed),
        replicates=tuple(all_metrics),
        means=means,
        median_band_halfwidth=float(np.mean(mads)),
    )
