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

The subsample experiment scores its replicates in fixed-size batches,
ranked by the full sample's dense column ranks, through one stacked pass
of the depth, central-band and metric code that ``functional_boxplot``
and ``fidelity_metrics`` run on one sample, with the batches spread over
worker threads: no result depends on the batch size or the thread count.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import (
    SpatialFunctionalDataset,
    _check_threads,
    _chunk_map,
    _frozen_array,
    _is_integer,
    _positive_int,
)
from .errors import ValidationError
from .rng import _entropy, _stream

FENCE_FACTOR = 1.5

# Values per batch of subsample replicates (B replicates of s curves on m
# grid points: B * s * m, or one replicate). At n = 600, m = 22, s = 106
# larger budgets ran no faster and raised the peak memory 2-3x.
_BATCH_ELEMENTS = 2**15


def _band_depths(K: np.ndarray) -> np.ndarray:
    """Modified band depths of each sample in a stack ``K`` of shape
    ``(..., m, n)``: n curves on m grid points, ranked along the last axis.

    Only the order of the values matters, so ``K`` may hold values or any
    ranks that keep their order and their ties.
    """
    m, n = K.shape[-2:]
    if n < 2:
        raise ValidationError("band depth needs at least 2 curves")
    total_pairs = n * (n - 1) // 2
    # Positions and pair counts in int32 while n (n - 1), the largest
    # intermediate, fits, summed over the grid in int64; the in-place steps
    # below keep the temporaries few and small, so that a stack of batches
    # reuses the same heap memory instead of fresh pages.
    dtype = np.int32 if n * (n - 1) < 2**31 else np.int64
    order = np.argsort(K, axis=-1, kind="stable")
    # the sorted rows; a sort is cheaper than gathering them by ``order``,
    # and only which neighbours are equal is read of them
    ranked = np.sort(K, axis=-1)
    pos = np.arange(n, dtype=dtype)
    # In each sorted row, the values equal to the one at position p
    # occupy positions first[p]..last[p]: ``below = first`` values lie
    # strictly under it and ``above = n - 1 - last`` strictly over it.
    starts = np.ones(K.shape, dtype=bool)
    np.not_equal(ranked[..., 1:], ranked[..., :-1], out=starts[..., 1:])
    ends = np.ones(K.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    below = np.zeros(K.shape, dtype=dtype)
    np.copyto(below, pos, where=starts)
    np.maximum.accumulate(below, axis=-1, out=below)
    above = np.full(K.shape, n - 1, dtype=dtype)
    np.copyto(above, pos, where=ends)
    np.minimum.accumulate(above[..., ::-1], axis=-1, out=above[..., ::-1])
    np.subtract(n - 1, above, out=above)
    # A pair band misses the value only if both members sit strictly on
    # the same side of it: below (below - 1) / 2 pairs under it, above
    # (above - 1) / 2 over it. ``below`` then ``above`` are reused in place.
    missed = below - 1
    missed *= below
    missed //= 2
    np.subtract(above, 1, out=below)
    below *= above
    below //= 2
    missed += below
    np.subtract(total_pairs, missed, out=missed)
    # back to the curves' positions: one flat scatter, with each row's
    # offset added to its positions, costs a third of put_along_axis
    order += np.arange(0, order.size, n).reshape(*order.shape[:-1], 1)
    above.reshape(-1)[order.reshape(-1)] = missed.reshape(-1)
    return above.sum(axis=-2, dtype=np.int64) / (total_pairs * m)


def mbd(dataset: SpatialFunctionalDataset) -> np.ndarray:
    """Modified band depth (J = 2) of every curve, each in [0, 1].

    Equivalent to enumerating all unordered curve pairs and averaging the
    fraction of grid points where the curve lies inside the pair band
    (band edges count as inside; pairs containing the curve itself are
    included and always contain it). Computed per grid point from ranks,
    with integer pair counts so the result matches brute-force
    enumeration exactly.
    """
    return _band_depths(dataset.curves.T)


def _central_band(X: np.ndarray, depths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Central band of each sample in a stack, as ``functional_boxplot``
    defines it: ``X`` is ``(..., n, m)`` and ``depths`` ``(..., n)``."""
    n = depths.shape[-1]
    cutoff = np.sort(depths, axis=-1)[..., n - math.ceil(n / 2), None]
    central = (depths >= cutoff)[..., None]
    lower = np.where(central, X, np.inf).min(axis=-2)
    upper = np.where(central, X, -np.inf).max(axis=-2)
    if np.any(lower > upper):
        raise ValidationError("central band is inverted")
    return lower, upper


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
    depths = mbd(dataset)
    median_index = int(np.argmax(depths))  # ties: smallest index
    central_lower, central_upper = _central_band(X, depths)

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


def _fidelity_rows(
    full: SpatialFunctionalDataset,
    full_summary: FBoxplotSummary,
    X: np.ndarray,
    depths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity metrics of a stack ``X`` of B subsamples, ``(B, s, m)``.

    ``depths`` ``(B, s)`` are their band depths. Returns the ``(B, 5)``
    metric rows and the ``(B,)`` mean absolute discrepancies between the
    full median and each subsample median.
    """
    median = np.argmax(depths, axis=-1)[:, None, None]  # ties: smallest index
    diff = full.curves[full_summary.median_index] - np.take_along_axis(X, median, 1)[:, 0]
    lower, upper = _central_band(X, depths)
    width_diff = np.abs(full_summary.central_width - (upper - lower))
    inside = np.all(
        (X >= full_summary.central_lower) & (X <= full_summary.central_upper), axis=-1
    )
    rows = np.stack(
        [np.sqrt(np.mean(diff**2, axis=-1)), np.max(np.abs(diff), axis=-1),
         np.mean(width_diff, axis=-1), np.max(width_diff, axis=-1), np.mean(inside, axis=-1)],
        axis=-1,
    )
    return rows, np.mean(np.abs(diff), axis=-1)


def fidelity_metrics(
    full: SpatialFunctionalDataset, sub: SpatialFunctionalDataset
) -> FidelityMetrics:
    """Five-number fidelity comparison of ``sub`` against ``full``."""
    if not np.array_equal(full.grid.points, sub.grid.points):
        raise ValidationError("datasets must share the same evaluation grid")
    rows, _ = _fidelity_rows(full, functional_boxplot(full), sub.curves[None], mbd(sub)[None])
    return FidelityMetrics(*(float(v) for v in rows[0]))


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
    full: SpatialFunctionalDataset, size: int, reps: int, seed: int,
    threads: int | None = None,
) -> SubsampleExperiment:
    """Draw ``reps`` uniform without-replacement subsamples and score them.

    Replicate ``r`` uses a generator derived from ``(seed, r)``, so the
    draws do not depend on evaluation order. Besides the per-replicate
    metrics and their arithmetic means, reports the mean absolute
    discrepancy between the full median and the subsample medians,
    averaged over replicates (the half-width of a median uncertainty
    band). Replicates are scored in batches of ``_BATCH_ELEMENTS`` values,
    bit for bit as ``fidelity_metrics`` scores each one. The batches run
    on ``threads`` workers (default: the usable cores; see
    :func:`fess.dataset._worker_count`), each taking one contiguous run
    of them; the results are assembled in replicate order, so no output
    depends on the batch size or the thread count.
    """
    if not _is_integer(size):
        raise ValidationError(f"size must be an integer, got {size!r}")
    reps = _positive_int(reps, "reps")
    _check_threads(threads)
    n, m = full.curves.shape
    if not 2 <= size <= n:
        raise ValidationError(f"subsample size must lie in [2, {n}], got {size}")
    (seed,) = _entropy(seed)  # checked once; each replicate adds its index
    full_summary = functional_boxplot(full)
    # Dense column ranks of the full sample sort and tie within any subsample
    # as the values do; 8- or 16-bit ranks make the stable sorts radix sorts.
    order = np.argsort(full.curves.T, axis=-1, kind="stable")
    ranked = np.take_along_axis(full.curves.T, order, axis=-1)
    steps = np.zeros(order.shape, dtype=np.int64)
    steps[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    ranks = np.empty(order.shape, dtype=np.min_scalar_type(n - 1))
    np.put_along_axis(ranks, order, np.cumsum(steps, axis=-1), axis=-1)
    batch = max(1, _BATCH_ELEMENTS // (size * m))

    def run(firsts):
        out = []
        for first in firsts:
            draws = range(first, min(first + batch, reps))
            idx = np.stack([_stream([seed, r]).choice(n, size, replace=False) for r in draws])
            X = full.subset(idx.ravel()).curves.reshape(*idx.shape, m)
            depths = _band_depths(ranks[:, idx].transpose(1, 0, 2))
            out.append(_fidelity_rows(full, full_summary, X, depths))
        return out

    scored = _chunk_map(run, list(range(0, reps, batch)), threads)
    rows = np.concatenate([r for r, _ in scored])
    return SubsampleExperiment(
        size=int(size),
        reps=reps,
        seed=seed,
        replicates=tuple(FidelityMetrics(*row) for row in rows.tolist()),
        means=FidelityMetrics(*rows.mean(axis=0).tolist()),
        median_band_halfwidth=float(np.mean(np.concatenate([mad for _, mad in scored]))),
    )
