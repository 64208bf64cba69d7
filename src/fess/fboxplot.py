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

Depths are computed from the curves' dense ranks at each grid point
(``_dense_ranks``): one sort of packed ``rank, position`` keys per row
gives each curve's pair count from its sorted position, and a second sort
returns the counts to the curves, in integers, so every depth equals
brute-force enumeration. The central band is the least and greatest value
of the central curves at each grid point (``_central_band``), for the
boxplot and for every subsample alike.

The subsample experiment scores its replicates in fixed-size batches, in
the full sample's dense ranks, through the one stacked pass of the depth
and metric code that ``fidelity_metrics`` runs on one sample: no result
depends on the batch size. Replicate ``r``'s subsample is defined as
``derived_rng(seed, r).choice(n, size, replace=False)``; the draws are
computed for a chunk of replicates at once (``rng._replicate_choices``),
index for index, taking numpy's own per-replicate call only for a
replicate that Lemire's method would redraw and for numpy's tail-shuffle
case (``n > 10000`` and ``size > n // 50``).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import SpatialFunctionalDataset, _frozen_array, _is_integer, _mean, _positive_int
from .errors import ValidationError
from .rng import _entropy, _replicate_choices

FENCE_FACTOR = 1.5

# Values per batch of subsample replicates (B replicates of s curves on m
# grid points: B * s * m, or one replicate). At n = 600, m = 22, s = 106
# (1000 replicates, one thread, 2 cores) budgets of 2**14 to 2**17 ran
# within one another's spread (medians 75, 67, 64 and 58 ms, quartile
# ranges about 15 ms), while the traced peak grew 0.9 -> 2.8 MB.
_BATCH_ELEMENTS = 2**15

# Working bytes per chunk of replicate draws, reckoned as n + 64 * size a
# replicate (see ``rng._replicate_choices``); each chunk is whole batches.
# At n = 600, m = 22, s = 106 (1000 replicates, one thread, 2 cores)
# budgets of 2**19 to 2**22 (70 to 560 replicates a chunk) ran in medians
# of 89, 80, 76 and 74 ms, while the traced peak of the serial loop grew
# 0.8 -> 2.6 MB; 2**21 draws 280 replicates a chunk at 1.7 MB.
_DRAW_BYTES = 2**21


def _dense_ranks(values: np.ndarray) -> np.ndarray:
    """Dense ranks of ``values`` along the last axis: 0 for the least, one
    more at each greater distinct value, so equal values (``0.0`` and
    ``-0.0`` too) share a rank. The type is the narrowest unsigned one that
    holds the count of values less one.
    """
    n = values.shape[-1]
    # numpy's default sort: the order among ties does not change a dense rank
    order = np.argsort(values, axis=-1)
    ranked = np.take_along_axis(values, order, axis=-1)
    steps = np.zeros(order.shape, dtype=np.min_scalar_type(n - 1))
    np.not_equal(ranked[..., 1:], ranked[..., :-1], out=steps[..., 1:])
    np.cumsum(steps, axis=-1, out=steps)
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps, axis=-1)
    return ranks


def _band_depths(ranks: np.ndarray) -> np.ndarray:
    """Modified band depths of each sample in a stack ``ranks`` of shape
    ``(..., m, s)``: s curves on m grid points, ranked along the last axis.

    ``ranks`` are unsigned integers that order and tie as the curves'
    values do at each grid point: ``_dense_ranks`` of the values, or the
    full sample's dense ranks of a subsample's curves.
    """
    m, s = ranks.shape[-2:]
    if s < 2:
        raise ValidationError("band depth needs at least 2 curves")
    total_pairs = s * (s - 1) // 2
    # Each row is sorted by the keys ``rank << b | position``: unique, so
    # their order does not depend on the sort algorithm, and the low b bits
    # say which curve sits where. The keys then hold ``position << c |
    # pair count``, which a second sort puts back in the curves' order.
    b = (s - 1).bit_length()
    c = total_pairs.bit_length()
    # 32-bit keys where both layouts fit in them, 64-bit ones otherwise
    key = np.uint32 if b + max(8 * ranks.dtype.itemsize, c) <= 32 else np.uint64
    keys = ranks.astype(key, order="C")
    keys <<= b
    keys |= np.arange(s, dtype=key)
    keys.sort(axis=-1)
    ranked = keys >> b
    tie = np.flatnonzero(ranked[..., 1:] == ranked[..., :-1])
    tie += tie // (s - 1)  # position p ties with p + 1, flat in the stack
    # A pair band misses the value at sorted position p, with no ties, only
    # if both members lie on the same side of it: C(p, 2) pairs under it,
    # C(s - 1 - p, 2) over it.
    p = np.arange(s, dtype=np.int64)
    keys &= (1 << b) - 1
    keys <<= c
    keys |= (total_pairs - p * (p - 1) // 2 - (s - 1 - p) * (s - 2 - p) // 2).astype(key)
    if tie.size:
        # a run of equal ranks at positions first..last has first values
        # under each member and s - 1 - last over it
        cut = np.flatnonzero(np.diff(tie) != 1)
        first = tie[np.r_[0, cut + 1]]
        last = tie[np.r_[cut, tie.size - 1]] + 1
        size = last - first + 1
        below = first % s
        above = s - 1 - last % s
        pairs = total_pairs - below * (below - 1) // 2 - above * (above - 1) // 2
        members = np.arange(size.sum()) + np.repeat(first - np.cumsum(size) + size, size)
        flat = keys.reshape(-1)
        flat[members] = flat[members] >> c << c | np.repeat(pairs, size).astype(key)
    keys.sort(axis=-1)
    keys &= (1 << c) - 1
    return keys.sum(axis=-2, dtype=np.int64) / (total_pairs * m)


def mbd(dataset: SpatialFunctionalDataset) -> np.ndarray:
    """Modified band depth (J = 2) of every curve, each in [0, 1].

    Equivalent to enumerating all unordered curve pairs and averaging the
    fraction of grid points where the curve lies inside the pair band
    (band edges count as inside; pairs containing the curve itself are
    included and always contain it). Computed per grid point from the
    curves' dense ranks, with integer pair counts so the result matches
    brute-force enumeration exactly.
    """
    return _band_depths(_dense_ranks(dataset.curves.T))


def _central(depths: np.ndarray) -> np.ndarray:
    """Which curves of each sample in a stack of ``depths`` ``(..., s)`` lie
    in its central region: the ceil(s/2) deepest, and every curve tied in
    depth with the last of them."""
    s = depths.shape[-1]
    cutoff = np.sort(depths, axis=-1)[..., s - math.ceil(s / 2), None]
    return depths >= cutoff


def _central_band(X: np.ndarray, central: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest value, at each grid point, of the ``central``
    ``(B, s)`` curves of each sample in a stack ``X`` ``(B, s, m)``: two
    ``(B, m)`` arrays.

    One sample's band is reduced over its rows in row order, so where an
    edge is a zero it takes the sign of the last central curve's zero, as
    ``fboxplot.csv`` reports it. ``reduceat`` does not fold long runs row
    by row and may take the other zero; the metrics, which read only the
    stack's band widths as absolute differences, cannot show it.
    """
    picked = X[central]
    if len(X) == 1:
        return picked.min(axis=0)[None], picked.max(axis=0)[None]
    starts = np.r_[0, np.cumsum(central.sum(axis=-1))[:-1]]
    return np.minimum.reduceat(picked, starts), np.maximum.reduceat(picked, starts)


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
    (central_lower,), (central_upper,) = _central_band(X[None], _central(depths)[None])

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


def _inside(summary: FBoxplotSummary, curves: np.ndarray) -> np.ndarray:
    """Which of ``curves`` ``(..., m)`` lie in the summary's central band at
    every grid point."""
    return np.all((curves >= summary.central_lower) & (curves <= summary.central_upper), axis=-1)


def _fidelity_rows(
    full: SpatialFunctionalDataset,
    full_summary: FBoxplotSummary,
    X: np.ndarray,
    ranks: np.ndarray,
    inside: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fidelity metrics of a stack ``X`` of B subsamples, ``(B, s, m)``.

    ``ranks`` ``(B, m, s)`` order and tie as their values do at each grid
    point; ``inside`` ``(B, s)`` flags the curves in the full sample's
    central band (see ``_inside``). Returns the ``(B, 5)``
    metric rows and the ``(B,)`` mean absolute discrepancies between the
    full median and each subsample median.
    """
    depths = _band_depths(ranks)
    median = np.argmax(depths, axis=-1)  # ties: smallest index
    diff = full.curves[full_summary.median_index] - X[np.arange(len(X)), median]
    lower, upper = _central_band(X, _central(depths))
    width_diff = np.abs(full_summary.central_width - (upper - lower))
    sup = np.max(np.abs(diff), axis=-1)
    # the RMS of diff / 2**e, with |diff| < 2**e, times 2**e: both scalings
    # are exact, and the scaled squares, in [0, 1), do not overflow, nor all
    # flush to zero, at any scale of the curves
    e = np.frexp(sup)[1]
    rms = np.ldexp(np.sqrt(np.mean(np.ldexp(diff, -e[:, None]) ** 2, axis=-1)), e)
    rows = np.stack(
        [rms, sup, np.mean(width_diff, axis=-1), np.max(width_diff, axis=-1),
         np.mean(inside, axis=-1)],
        axis=-1,
    )
    return rows, np.mean(np.abs(diff), axis=-1)


def fidelity_metrics(
    full: SpatialFunctionalDataset, sub: SpatialFunctionalDataset
) -> FidelityMetrics:
    """Five-number fidelity comparison of ``sub`` against ``full``."""
    if not np.array_equal(full.grid.points, sub.grid.points):
        raise ValidationError("datasets must share the same evaluation grid")
    full_summary = functional_boxplot(full)
    rows, _ = _fidelity_rows(
        full, full_summary, sub.curves[None], _dense_ranks(sub.curves.T)[None],
        _inside(full_summary, sub.curves)[None],
    )
    return FidelityMetrics(*(float(v) for v in rows[0]))


@dataclass(frozen=True, eq=False)
class SubsampleExperiment:
    """Replicated subsample-fidelity experiment results.

    ``replicates`` is the read-only ``(reps, 5)`` table of each replicate's
    metrics, its columns in ``FidelityMetrics`` field order.
    """

    size: int
    reps: int
    seed: int
    replicates: np.ndarray
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

    Replicate ``r`` draws ``derived_rng(seed, r).choice(n, size,
    replace=False)``, so the draws do not depend on evaluation order. They
    are computed for a chunk of replicates at once, with the same integer
    arithmetic and the same indices (see :mod:`fess.rng`); a replicate
    that Lemire's method would redraw, and every replicate of numpy's
    tail-shuffle case (``n > 10000`` and ``size > n // 50``), take numpy's
    own per-replicate call. Besides the per-replicate
    metrics and their arithmetic means, reports the mean absolute
    discrepancy between the full median and the subsample medians,
    averaged over replicates (the half-width of a median uncertainty
    band). Replicates are scored in batches of ``_BATCH_ELEMENTS`` values,
    bit for bit as ``fidelity_metrics`` scores each one, so no output
    depends on the batch size. A batch gathers its replicates' curve rows,
    ranks and central-band flags from the full sample by the draws, ``(B,
    size, ...)`` each; it builds no dataset.
    """
    if not _is_integer(size):
        raise ValidationError(f"size must be an integer, got {size!r}")
    reps = _positive_int(reps, "reps")
    n, m = full.curves.shape
    if not 2 <= size <= n:
        raise ValidationError(f"subsample size must lie in [2, {n}], got {size}")
    (seed,) = _entropy(seed)  # checked once; each replicate adds its index
    full_summary = functional_boxplot(full)
    # The full sample's dense ranks at each grid point order and tie any
    # subsample's values as the values do, and its flags say which curves
    # lie in its central band; each batch gathers both, with the curves,
    # by its draws.
    ranks = np.ascontiguousarray(_dense_ranks(full.curves.T).T)  # (n, m): a draw's ranks are rows
    inside = _inside(full_summary, full.curves)
    batch = max(1, _BATCH_ELEMENTS // (size * m))
    chunk = batch * max(1, _DRAW_BYTES // (batch * (n + 64 * size)))  # whole batches
    scored = []
    for start in range(0, reps, chunk):
        drawn = _replicate_choices(seed, start, min(start + chunk, reps), n, size)
        for b in range(0, len(drawn), batch):
            idx = drawn[b:b + batch]
            X = full.curves.take(idx, axis=0)
            R = ranks.take(idx, axis=0).transpose(0, 2, 1)
            scored.append(_fidelity_rows(full, full_summary, X, R, inside[idx]))
    rows = np.concatenate([r for r, _ in scored])
    return SubsampleExperiment(
        size=int(size),
        reps=reps,
        seed=seed,
        replicates=_frozen_array(rows),
        means=FidelityMetrics(*_mean(rows, axis=0).tolist()),
        median_band_halfwidth=float(_mean(np.concatenate([mad for _, mad in scored]))),
    )
