"""Trace-variogram estimation and parametric covariance fitting.

The spatial dependence of a functional dataset is summarized by the
trace-covariogram ``cov_tr(h)``, the integral over the curve domain of
the pointwise covariance between two curves a distance ``h`` apart, and
by the trace-variogram ``gamma_tr(h) = cov_tr(0) - cov_tr(h)``. This
module estimates the empirical versions on binned lag distances,
evaluates the three standard parametric families (exponential,
spherical, gaussian), and fits family parameters to the empirical
variogram by least squares.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import (
    SpatialFunctionalDataset,
    _column_means,
    _frozen_array,
    _pair_map,
    _pair_spans,
    _parse_cell,
    _positive_int,
    _read_csv_rows,
    _site_record,
    _sorted_sum,
    _write_csv,
)
from .errors import EstimationError, ValidationError


def _spherical_corr(u):
    # 1 - 1.5 u + 0.5 u**3 within the range, 0 past it or at NaN: the
    # ufuncs of np.where(u <= 1.0, 1.0 - 1.5 * u + 0.5 * u**3, 0.0), in its order
    outside = ~(u <= 1.0)
    cube = np.power(u, 3)
    cube *= 0.5
    np.subtract(1.0, np.multiply(u, 1.5, out=u), out=u)
    u += cube
    np.copyto(u, 0.0, where=outside)
    return u


# Correlation of each family as a function of ``u = h / range``: the one
# definition that the model, the fit objective, the ESS and the simulator
# share. Each overwrites its float array ``u`` (0-d included) with the
# correlation and returns it, so callers pass a freshly computed
# ``h / range``, never an array they keep.
_CORR = {
    "exponential": lambda u: np.exp(np.negative(u, out=u), out=u),
    "spherical": _spherical_corr,
    "gaussian": lambda u: np.exp(np.negative(np.square(u, out=u), out=u), out=u),
}
FAMILIES = tuple(_CORR)

# Range is fitted on a log scale within these bounds, relative to the
# largest lag.
_RANGE_LOWER_REL = 1e-6
_RANGE_UPPER_REL = 1e3
_LOG_RANGE_LO = math.log(_RANGE_LOWER_REL)
_LOG_RANGE_HI = math.log(_RANGE_UPPER_REL)
# Least fitted sill, relative to the largest empirical value.
_SILL_FLOOR = math.exp(-60.0)


@dataclass(frozen=True, eq=False)
class LagBins:
    """Distance bins for empirical estimation.

    ``edges`` are increasing bin boundaries in km (``edges[0] >= 0``);
    bin ``l`` covers ``[edges[l], edges[l+1])``, with the last bin closed
    on the right. Bin centers are the edge midpoints.
    """

    edges: np.ndarray
    centers: np.ndarray = field(init=False, repr=False, compare=False)
    # bin width when the edges equal ``np.linspace`` between the first and
    # last edge, so arithmetic binning gives ``np.digitize``'s slots; None
    # otherwise
    _width: float | None = field(init=False, repr=False, compare=False)
    # lower and upper bound of each slot: ``_lower[s] <= h < _upper[s]``
    # for slots 1 to len(self); the last bin's upper bound is the float
    # after the last edge, so the bin is closed on the right
    _lower: np.ndarray = field(init=False, repr=False, compare=False)
    _upper: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValidationError("need at least one bin (two edges)")
        if not np.all(np.isfinite(edges)):
            raise ValidationError("bin edges must be finite")
        if edges[0] < 0:
            raise ValidationError("bin edges must be non-negative")
        if not np.all(np.diff(edges) > 0):
            raise ValidationError("bin edges must be strictly increasing")
        object.__setattr__(self, "edges", _frozen_array(edges))
        object.__setattr__(
            self, "centers", _frozen_array((edges[:-1] + edges[1:]) / 2.0)
        )
        # slot 0 is never looked up in _lower
        object.__setattr__(self, "_lower", _frozen_array(np.append(0.0, edges[:-1])))
        object.__setattr__(
            self, "_upper", _frozen_array(np.append(edges[:-1], np.nextafter(edges[-1], np.inf)))
        )
        # On linspace edges the arithmetic index is within one slot of the
        # true one, which one comparison with each neighbouring edge corrects
        object.__setattr__(
            self, "_width",
            (edges[-1] - edges[0]) / len(self)
            if np.array_equal(edges, np.linspace(edges[0], edges[-1], edges.size))
            else None,
        )

    def __len__(self) -> int:
        return self.edges.size - 1

    @classmethod
    def equal_width(cls, max_lag: float, n_bins: int = 15) -> "LagBins":
        if not (max_lag > 0 and math.isfinite(max_lag)):
            raise ValidationError("max_lag must be positive and finite")
        return cls(np.linspace(0.0, max_lag, _positive_int(n_bins, "n_bins") + 1))

    def index_of(self, h: np.ndarray) -> np.ndarray:
        """Bin index per distance, -1 for out-of-range distances; NaN is rejected."""
        h = np.asarray(h, dtype=float)
        if np.any(np.isnan(h)):
            raise ValidationError("distances must not be NaN")
        idx = self._slots(h) - 1
        idx[idx == len(self)] = -1
        return idx

    def _slots(self, h: np.ndarray) -> np.ndarray:
        """Bin index plus one per distance: 0 below the first edge and
        ``len(self) + 1`` past the last.

        Equal-width edges are binned arithmetically, other edges by
        ``np.searchsorted`` on the upper slot bounds; both give the same
        slots.
        """
        if self._width is None:
            return self._digitize_slots(h)
        return self._arithmetic_slots(h)

    def _digitize_slots(self, h: np.ndarray) -> np.ndarray:
        return np.searchsorted(self._upper, h, side="right")

    def _arithmetic_slots(self, h: np.ndarray) -> np.ndarray:
        # floor((h - edges[0]) / width) + 1 within [1, bins], then one step
        # down below the slot's lower bound or up at or past its upper bound
        t = np.subtract(h, self.edges[0])
        t /= self._width
        t += 1.0
        np.clip(t, 1.0, len(self), out=t)
        slots = t.astype(np.intp)
        slots -= h < self._lower[slots]
        slots += h >= self._upper[slots]
        return slots


def default_lag_bins(dataset: SpatialFunctionalDataset, n_bins: int = 15) -> LagBins:
    """Equal-width bins spanning (0, half the largest distance between sites].

    The largest distance is the kept :func:`fess.dataset._site_record`'s, and
    the bins of the last few ``(max_lag, n_bins)`` are shared, so repeated
    calls at the same sites compute and check neither again.
    """
    dmax = _site_record(dataset.xy.tobytes()).diameter
    if dmax <= 0:
        raise ValidationError("all locations coincide; no positive lags to bin")
    return _equal_width_bins(dmax / 2.0, _positive_int(n_bins, "n_bins"))


# LagBins are frozen with read-only arrays, so callers may share them
_equal_width_bins = functools.lru_cache(maxsize=8)(LagBins.equal_width)


def _family(name) -> str:
    fam = str(name).lower()
    if fam not in _CORR:
        raise ValidationError(f"unknown family {name!r}; expected one of {FAMILIES}")
    return fam


def _check_nugget(nugget) -> None:
    if nugget not in ("zero", "free"):
        raise ValidationError("nugget must be 'zero' or 'free'")


@dataclass(frozen=True)
class TraceCovModel:
    """Parametric trace-covariogram: family plus (sill, range, nugget).

    ``cov_tr(h) = sill * corr(h / range_km)`` for ``h > 0`` and
    ``sill + nugget`` at ``h = 0``. Units: sill and nugget carry
    curve-units squared times grid units; the range is in km.
    """

    family: str
    sill: float
    range_km: float
    nugget: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "family", _family(self.family))
        if not (self.sill > 0 and math.isfinite(self.sill)):
            raise ValidationError("sill must be positive and finite")
        if not (self.range_km > 0 and math.isfinite(self.range_km)):
            raise ValidationError("range must be positive and finite")
        if not (self.nugget >= 0 and math.isfinite(self.nugget)):
            raise ValidationError("nugget must be non-negative and finite")

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "sill": self.sill,
            "range": self.range_km,
            "nugget": self.nugget,
        }


def model_trace_cov(model: TraceCovModel, h):
    """Trace-covariogram of ``model`` at distance(s) ``h >= 0`` (km).

    The nugget contributes only at ``h == 0`` exactly. A negative or NaN
    distance is rejected.
    """
    h_arr = np.asarray(h, dtype=float)
    if not np.all(h_arr >= 0):
        raise ValidationError("distances must be non-negative (and not NaN)")
    # a fresh array for _CORR to overwrite: a 0-d quotient would be a numpy scalar
    u = np.divide(h_arr, model.range_km, out=np.empty(h_arr.shape))
    c = model.sill * _CORR[model.family](u)
    c = c + np.where(h_arr == 0.0, model.nugget, 0.0)
    return float(c) if np.isscalar(h) or h_arr.ndim == 0 else c


def model_trace_variogram(model: TraceCovModel, h):
    """Trace-variogram ``cov_tr(0) - cov_tr(h)``; zero at ``h = 0``."""
    return model_trace_cov(model, 0.0) - model_trace_cov(model, h)


@dataclass(frozen=True, eq=False)
class EmpiricalVariogram:
    """Binned empirical trace-variogram (or covariogram) estimates.

    ``gamma[l]`` is the estimate at ``centers[l]`` from ``counts[l]``
    unordered pairs; occupied bins report their mean pair distance as the
    center, and bins with zero pairs carry NaN at the edge midpoint.
    ``sigma0`` is the at-zero trace variance from the i = j terms (may be
    ``None`` when the record was reloaded from a CSV export, which does
    not carry it).
    """

    centers: np.ndarray
    gamma: np.ndarray
    counts: np.ndarray
    sigma0: float | None

    def __post_init__(self):
        centers = _frozen_array(self.centers)
        gamma = _frozen_array(self.gamma)
        counts = _frozen_array(self.counts, dtype=np.int64)
        if not (centers.shape == gamma.shape == counts.shape) or centers.ndim != 1:
            raise ValidationError("centers, gamma, counts must be equal-length 1-d")
        if not np.all(np.isfinite(centers)):
            raise ValidationError("bin centers must be finite")
        if np.any(np.isinf(gamma)):
            raise ValidationError("variogram values must not be infinite")
        if np.any(counts < 0):
            raise ValidationError("pair counts must be non-negative")
        if np.any(np.isnan(gamma) & (counts > 0)):
            raise ValidationError("occupied bins must carry a value")
        if np.any(~np.isnan(gamma) & (counts == 0)):
            raise ValidationError("empty bins must not carry a value")
        if self.sigma0 is not None and not (
            self.sigma0 >= 0 and math.isfinite(self.sigma0)
        ):
            raise ValidationError("sigma0 must be non-negative")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "counts", counts)

    @property
    def occupied(self) -> np.ndarray:
        return self.counts > 0

    def to_csv(self, path) -> None:
        """Write ``h,gamma,count`` rows (NaN marks empty bins)."""
        _write_csv(path, ["h", "gamma", "count"], [self.centers, self.gamma, self.counts])

    @classmethod
    def from_csv(cls, path) -> "EmpiricalVariogram":
        path = Path(path)
        header, *rows = _read_csv_rows(path) or [None]
        if header is None or [h.strip() for h in header[:3]] != ["h", "gamma", "count"]:
            raise ValidationError(f"{path}: expected header 'h,gamma,count'")
        if not rows:
            raise ValidationError(f"{path}: no variogram rows")
        centers, gamma, counts = [], [], []
        for r, row in enumerate(rows, start=1):
            if len(row) < 3:
                raise ValidationError(f"row {r}: expected 3 cells, found {len(row)}")
            centers.append(_parse_cell(row[0], r, "h"))
            # NaN is how to_csv marks an empty bin; other values must be finite
            nan = row[1].strip().lower() == "nan"
            gamma.append(math.nan if nan else _parse_cell(row[1], r, "gamma"))
            count = _parse_cell(row[2], r, "count")
            if not (count >= 0 and count.is_integer() and count < 2.0**63):
                raise ValidationError(
                    f"row {r}, column 'count': expected a non-negative integer, "
                    f"found {row[2]!r}"
                )
            counts.append(int(count))
        return cls(centers, gamma, counts, sigma0=None)


_TOO_LARGE = "curves too large: their pair sums exceed the float range; rescale the curves"

# Height of the row tiles in which the variogram computes a block's pair
# values: each tile computes only the columns from its first pair to its
# last in-bin column, so a block taller than a tile skips most of its
# lower triangle (the blocks of n = 400-600 sites on 22 levels are
# 79-171 rows tall; at n = 5000 only the last 23 of 275 are taller than
# 32). Each tile costs about 15 us of call overhead (two einsums and the
# pair-value ufuncs) whatever its width. A warm variogram pass, timed
# against whole blocks in one process, alternating (2 cores, Python 3.11,
# numpy 2.4, 40 rounds each), ran at these shares of the whole-block time
# with tiles of 24, 32, 40, 48 and 64 rows: 0.88, 0.85, 0.84, 0.85 and
# 0.86 at the benchmark's 400 oracle sites on one thread, 0.81, 0.79,
# 0.87, 0.81 and 0.83 at its 600 GODAS sites on two.
_PAIR_TILE_ROWS = 32


def _binned_pair_stats(
    dataset: SpatialFunctionalDataset, bins: LagBins, from_gram, divisor, threads
) -> EmpiricalVariogram:
    """Per-bin means of the pair values, each divided by ``divisor``.

    The pairs stream in the canonical row blocks of ``_pair_map`` on
    ``threads`` workers. Each block's pair values come from a Gram kernel
    on the mean-centred curves, run per row tile of the block:
    ``from_gram(g, a2, b2)`` overwrites the inner products ``g = a . W b``
    of a tile's head rows against its tail columns, with their squared
    W-norms ``a2`` and ``b2``, with the pair values. The kernel is one
    ``np.einsum("mk,mc->kc")`` per tile over level-major rows, whose
    stride along the levels is a row of the gathered curves: einsum's
    multiply-add loop adds each entry's products one level at a time, in
    grid order. The norms are ``np.einsum("mk,mk->k")`` over the same
    rows, summed in the same order, so a curve paired with an equal curve
    has ``g`` equal to both norms bit for bit (on rows contiguous along
    the levels, einsum would take its dot kernel, which sums in lanes).
    BLAS stays out: its blocked FMA sums change the bits of most entries
    and of the norms, and its threads would compete with the workers. The
    per-block ``np.bincount`` results are added in block order, which
    depends only on the data, so results are bitwise invariant under row
    relabelling and do not depend on ``threads``. ``sigma0`` is the mean
    of the kernel's squared norms, the i = j terms.

    The bin of each pair depends only on the sites and the bins, so
    ``_pair_map`` keeps, under ``"slots"`` and keyed by the bin edges and
    the block layout, each block's bin slots (:meth:`LagBins._slots` of
    its distances, in the smallest unsigned type holding every slot: one
    byte a pair up to 254 bins), its tiles and its per-bin pair counts and
    distance sums, all read-only. A block is cut into tiles of
    ``_PAIR_TILE_ROWS`` rows; a tile ``(r0, r1, c0, c1)`` spans the
    block's rows ``r0:r1`` and columns ``c0:c1``, from its first pair
    (column ``c0 = r0 + 1``) to one past its last column that holds a pair
    in a bin (``c1 = c0`` where there is none). The slots are the tiles'
    in row-major order, concatenated, and the pass computes pair values on
    the tiles only, into one buffer in that order: every entry outside
    them is not a pair or is out of the bins, and each bin still adds its
    entries in the block's row-major order, so the per-bin sums keep their
    bits.
    The slots take at most about n**2 / 2 bytes for n sites, less where
    the bins end short of the farthest pairs.
    """
    if dataset.n_curves < 2:
        raise ValidationError("empirical estimation needs at least 2 curves")
    n_bins = len(bins)
    m = dataset.n_levels
    n = dataset.n_curves
    # C-ordered level-major rows: the weighted centred curves, the centred
    # curves, then their squared W-norms; a norm beyond the float range is
    # refused below
    rows = np.empty((2 * m + 1, n))
    dev_w, dev = rows[:m], rows[m:-1]
    with np.errstate(over="ignore"):
        np.subtract(dataset.curves.T, _column_means(dataset.curves)[:, None], out=dev)
        np.multiply(dev, dataset.grid.quad_weights[:, None], out=dev_w)
        np.einsum("mk,mk->k", dev_w, dev, out=rows[-1])
    # No step of the kernel exceeds 4 max |a|^2, and sigma0 sums the |a|^2;
    # Python floats make an infinite bound without a numpy warning. A bin's
    # sum of pairs may still overflow: it is checked once the pass is done.
    norms = rows[-1].tolist()
    if not math.isfinite(4.0 * max(norms) + sum(norms)):
        raise ValidationError(_TOO_LARGE)
    spans = _pair_spans(n, m)
    dtype = np.min_scalar_type(n_bins + 1)
    size = sum((i1 - i0) * (n - i0) for i0, i1 in spans) * dtype.itemsize

    # slots 0 and n_bins + 1 collect the pairs outside the bins and the
    # entries that are not pairs, and are dropped
    def derive(d):
        slots = bins._slots(d.ravel())
        counts = np.bincount(slots, minlength=n_bins + 2)[1:-1]
        hsums = np.bincount(slots, weights=d.ravel(), minlength=n_bins + 2)[1:-1]
        counts.flags.writeable = hsums.flags.writeable = False
        b, w = d.shape
        slots = slots.astype(dtype).reshape(b, w)
        binned = (slots > 0) & (slots <= n_bins)
        # each row tile's columns, from its first pair (row r's are right
        # of column r) to its last column with a pair in a bin
        tiles = []
        for r0 in range(0, b, _PAIR_TILE_ROWS):
            r1, c0 = min(r0 + _PAIR_TILE_ROWS, b), r0 + 1
            cols = np.flatnonzero(np.any(binned[r0:r1, c0:], axis=0))
            tiles.append((r0, r1, c0, c0 + (int(cols[-1]) + 1 if cols.size else 0)))
        kept = np.concatenate([slots[r0:r1, c0:c1].ravel() for r0, r1, c0, c1 in tiles])
        kept.flags.writeable = False
        return kept, tuple(tiles), counts, hsums

    def block_stats(block, head, tail):
        slots, tiles, counts, hsums = block
        # the tiles' pair values in slot order
        values = np.empty(slots.size)
        end = 0
        for r0, r1, c0, c1 in tiles:
            start, end = end, end + (r1 - r0) * (c1 - c0)
            if start < end:
                a, b = head[:, r0:r1], tail[:, c0:c1]
                g = values[start:end].reshape(r1 - r0, c1 - c0)
                np.einsum("mk,mc->kc", a[:m], b[m:-1], out=g)
                from_gram(g, a[-1][:, None], b[-1])
        return np.bincount(slots, weights=values, minlength=n_bins + 2)[1:-1], counts, hsums

    keep = ("slots", bins.edges.tobytes(), size, derive)
    sums = np.zeros(n_bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    hsums = np.zeros(n_bins)
    with np.errstate(over="ignore"):
        for v, c, h in _pair_map(block_stats, dataset, keep, rows, threads):
            sums += v
            counts += c
            hsums += h
    if not np.all(np.isfinite(sums)):
        raise ValidationError(_TOO_LARGE)
    occ = counts > 0
    if not np.any(occ):
        occupancy = ", ".join(
            f"[{lo:g}, {hi:g}): 0" for lo, hi in zip(bins.edges[:-1], bins.edges[1:])
        )
        raise EstimationError(
            f"no location pair falls in any lag bin (occupancy: {occupancy})"
        )
    # Report each occupied bin at its mean pair distance rather than the
    # edge midpoint: the pair-distance density grows with h, so the
    # midpoint systematically understates where the estimate lives and
    # biases fitted ranges low. Empty bins keep the midpoint.
    centers = np.array(bins.centers)
    centers[occ] = hsums[occ] / counts[occ]
    values = np.full(n_bins, np.nan)
    values[occ] = sums[occ] / (divisor * counts[occ])
    sigma0 = _sorted_sum(rows[-1]) / dataset.n_curves
    return EmpiricalVariogram(centers, values, counts, sigma0)


def _squared_distances(g, a2, b2):
    # |a - b|^2 = |a|^2 + |b|^2 - 2 a.Wb in place of g, exactly 0 for equal
    # curves and clipped at 0 where rounding would make it negative
    g *= -2.0
    g += a2
    g += b2
    return np.maximum(g, 0.0, out=g)


def empirical_trace_variogram(
    dataset: SpatialFunctionalDataset, bins: LagBins, threads: int | None = None
) -> EmpiricalVariogram:
    """Empirical trace-variogram on binned lags.

    For each bin, half the average squared function-space distance over
    the unordered curve pairs whose separation falls in the bin, reported
    at the bin's mean pair distance. ``sigma0`` is the average squared
    distance of the curves to their pointwise mean (the i = j trace
    variance). The pair stage runs on ``threads`` worker threads (default:
    the usable cores); the result is the same for any thread count.
    """
    return _binned_pair_stats(dataset, bins, _squared_distances, 2.0, threads)


def empirical_trace_covariogram(
    dataset: SpatialFunctionalDataset, bins: LagBins
) -> EmpiricalVariogram:
    """Empirical trace-covariogram on binned lags.

    For each bin, the average inner product of mean-centered curve pairs,
    reported at the bin's mean pair distance; the at-zero value
    ``sigma0`` uses the i = j terms only and therefore matches the
    ``sigma0`` of :func:`empirical_trace_variogram`. The pair stage runs
    on the usable cores; the result does not depend on their number.
    """
    return _binned_pair_stats(dataset, bins, lambda g, a2, b2: g, 1, None)


@dataclass(frozen=True)
class FitResult:
    model: TraceCovModel
    sse: float
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        """The fitted model as ``{family, sill, range, nugget, sse}``."""
        return {**self.model.to_dict(), "sse": self.sse}


# Log ranges (normalized units) searched for the first profile minimum:
# 128 points per decade over the 9 decades of the range box. A spherical
# misfit can dip just past an occupied lag, over a few hundredths of a
# log unit; 8 and 32 points per decade stepped over such dips.
_LOG_RANGE_GRID = np.linspace(_LOG_RANGE_LO, _LOG_RANGE_HI, 9 * 128 + 1)
# Misfit differences below this, relative to the least grid misfit or to
# the data's sum of squares, are rounding: grid misfits within it of the
# least one tie, and a refinement must gain more than it.
_SSE_RTOL = 1e-12
# The refinement evaluates this many equally spaced log ranges per round
# and stops once its bracket is at most _ZOOM_WIDTH wide.
_ZOOM_POINTS = 65
_ZOOM_WIDTH = 1e-10


class _Zoom(NamedTuple):
    x: float  # least point of the last round
    fun: float  # its misfit
    nfev: int  # calls of the misfit, one per round


def minimize(misfit, lo: float, hi: float) -> _Zoom:
    """Least of ``misfit`` over the bracket ``[lo, hi]`` by zooming.

    ``misfit`` maps an array of points to their values. Each round
    evaluates ``_ZOOM_POINTS`` equally spaced points of the bracket and
    narrows it to the neighbours of the least one (the first among equal
    values), until the bracket is at most ``_ZOOM_WIDTH`` wide: 7 rounds
    for two cells of the range grid. Returns the least point of the last
    round.
    """
    nfev = 0
    while True:
        x = np.linspace(lo, hi, _ZOOM_POINTS)
        f = misfit(x)
        nfev += 1
        j = int(np.argmin(f))
        if hi - lo <= _ZOOM_WIDTH:
            return _Zoom(float(x[j]), float(f[j]), nfev)
        lo, hi = x[max(j - 1, 0)], x[min(j + 1, _ZOOM_POINTS - 1)]


def _profile(fam, hn, gn, log_range, free_nugget):
    """Least-squares ``(sill, nugget, sse)`` at each of the ``log_range``.

    For a fixed range the model ``nugget + sill * (1 - corr(h / range))``
    is linear in sill and nugget, so both are solved in closed form, in
    normalized units. The sill is at least ``_SILL_FLOOR``; with a free
    nugget the two-column solution is used only when both its values are
    positive, the zero-nugget one otherwise.
    """
    f = _CORR[fam](hn[None, :] / np.exp(log_range)[:, None])
    np.subtract(1.0, f, out=f)
    # f > 0 at the largest lag (hn = 1) for every range in the box
    sill = np.maximum(f @ gn / np.einsum("rb,rb->r", f, f), _SILL_FLOOR)
    nugget = np.zeros_like(sill)
    if free_nugget:
        fc = f - np.mean(f, axis=1, keepdims=True)
        sxx = np.einsum("rb,rb->r", fc, fc)
        # a constant column (every lag past the range) fixes no slope
        slope = np.divide(
            fc @ (gn - np.mean(gn)), sxx, out=np.zeros_like(sxx), where=sxx > 0
        )
        level = np.mean(gn) - slope * np.mean(f, axis=1)
        both = (slope >= _SILL_FLOOR) & (level > 0)
        sill = np.where(both, slope, sill)
        nugget = np.where(both, level, 0.0)
        gn = gn - nugget[:, None]
    # with the nugget fixed at zero its term is left out: gn - 0.0 is gn bit for bit
    resid = np.subtract(gn, np.multiply(f, sill[:, None], out=f), out=f)
    return sill, nugget, np.einsum("rb,rb->r", resid, resid)


def fit_model(ev: EmpiricalVariogram, family: str, nugget: str = "zero") -> FitResult:
    """Least-squares fit of a parametric family to an empirical variogram.

    Minimizes the sum of squared discrepancies between the empirical
    values and the model trace-variogram at the occupied bin centers,
    over sill > 0 and range > 0, with the nugget frozen at 0
    (``nugget="zero"``) or fitted, >= 0 (``nugget="free"``). By variable
    projection: for a fixed range, sill and nugget solve a linear least-
    squares problem in closed form, so only the range is searched. The
    first minimum of the misfit over a fixed log-range grid (the smallest
    range among misfits equal up to rounding) is refined by zooming into
    the neighbouring grid cells (:func:`minimize`) until the bracket is at
    most 1e-10 wide; the refined range is kept only when its misfit is
    lower by more than rounding. Deterministic. Returns the fitted model
    with the achieved objective value (``inf`` beyond the float range); a
    free nugget is kept only when it lowers the normalized objective by
    more than 1e-9 of the normalized data's sum of squares, so the choice
    does not depend on the data's scale; a range at the lower or upper end
    of its box carries the warning "range pinned at lower bound" or
    "range pinned at upper bound". Occupied bins centred at lag 0 exactly
    (coincident sites alone) are left out, with a warning giving their
    pair count; a negative center is rejected.

    Raises :class:`EstimationError` if the variogram is zero in every
    occupied bin (no covariance to fit).
    """
    fam = _family(family)
    _check_nugget(nugget)
    occ = ev.occupied
    if np.any(ev.centers[occ] < 0):
        raise ValidationError("bin centers must not be negative for fitting")
    # A bin of coincident pairs only sits at lag 0, where every model's
    # trace-variogram is 0 whatever its parameters: it fits none of them.
    at_zero = occ & (ev.centers == 0.0)
    notes = ()
    if np.any(at_zero):
        occ = occ & ~at_zero
        pairs = int(np.sum(ev.counts[at_zero]))
        notes = (f"{pairs} coincident pairs at lag 0 left out of the fit",)
    if int(np.count_nonzero(occ)) < 3:
        raise ValidationError("fitting needs at least 3 occupied bins")
    h = ev.centers[occ]
    g = ev.gamma[occ]

    h_scale = float(np.max(h))
    g_scale = float(np.max(np.abs(g)))
    spread = float(np.max(g) - np.min(g))

    if g_scale == 0.0:
        raise EstimationError("empirical variogram is zero: the curves do not vary")
    if spread <= 1e-12 * g_scale:
        # Flat variogram: the range is unidentifiable, pin it and report
        # the mean level as the sill.
        sill = max(float(np.mean(g)), np.finfo(float).tiny)
        model = TraceCovModel(fam, sill, _RANGE_LOWER_REL * h_scale, 0.0)
        resid = g - model_trace_variogram(model, h)
        return FitResult(
            model,
            float(np.dot(resid, resid)),
            notes + ("flat empirical variogram: range pinned at lower bound",),
        )

    # Fit in normalized units (lags / h_scale, values / g_scale) so the
    # tiny sills of real trace-variograms stay well-conditioned.
    hn, gn = h / h_scale, g / g_scale
    log_range, sill, nug, sse = _fit_once(fam, hn, gn, False)
    if nugget == "free":
        # Keep the nugget only when freeing it improves the fit by more than
        # numerical noise relative to the data's total sum of squares.
        free = _fit_once(fam, hn, gn, True)
        if sse > free[3] + 1e-9 * float(np.dot(gn, gn)):
            log_range, sill, nug, sse = free
    model = TraceCovModel(fam, g_scale * sill, h_scale * math.exp(log_range), g_scale * nug)
    try:
        sse *= g_scale**2
    except OverflowError:  # g_scale**2 is beyond the float range, the SSE may not be
        sse = sse * g_scale * g_scale
    if log_range <= _LOG_RANGE_LO + 1e-9:
        notes += ("range pinned at lower bound",)
    elif log_range >= _LOG_RANGE_HI - 1e-9:
        # a near-linear variogram: only sill / range is identified
        notes += ("range pinned at upper bound",)
    return FitResult(model, sse, notes)


def _fit_once(fam, hn, gn, free_nugget) -> tuple[float, float, float, float]:
    """``(log_range, sill, nugget, sse)`` of the least-squares fit to the
    normalized lags ``hn`` and values ``gn``."""
    sse_grid = _profile(fam, hn, gn, _LOG_RANGE_GRID, free_nugget)[2]
    # the first minimum: the smallest range among misfits equal to the
    # least one up to rounding, so a last-bit change in the variogram does
    # not move the fit to a distant range
    i = int(np.argmax(sse_grid <= np.min(sse_grid) * (1.0 + _SSE_RTOL)))
    log_range = float(_LOG_RANGE_GRID[i])
    run = minimize(
        lambda x: _profile(fam, hn, gn, x, free_nugget)[2],
        _LOG_RANGE_GRID[max(i - 1, 0)],
        _LOG_RANGE_GRID[min(i + 1, _LOG_RANGE_GRID.size - 1)],
    )
    # a gain relative to the misfit would chase rounding noise where the
    # variogram is fitted exactly, so it is relative to the data instead
    if run.fun < sse_grid[i] - _SSE_RTOL * float(np.dot(gn, gn)):
        log_range = run.x
    profile = _profile(fam, hn, gn, np.array([log_range]), free_nugget)
    return (log_range, *(float(v[0]) for v in profile))
