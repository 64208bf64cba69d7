"""Spatially indexed functional samples.

Containers for curve datasets observed on a shared evaluation grid at
planar locations, plus the geometric preparation steps they need:
sinusoidal projection of geographic coordinates, pairwise distances,
trapezoidal inner products, and wide-CSV ingestion/export.

All containers are immutable after construction (array buffers are set
read-only), so they are safe to share between threads.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

EARTH_RADIUS_KM = 6371.0088


def _frozen_array(values, dtype=float) -> np.ndarray:
    # a C-ordered copy whatever the input's layout: the pair stages and the
    # column means reduce in memory order, so the layout would fix their bits
    out = np.array(values, dtype=dtype, order="C")
    out.flags.writeable = False
    return out


def _sorted_sum(values: np.ndarray) -> float:
    # Summing in ascending value order makes reductions independent of the
    # row labelling of the input, so permuting a dataset's rows reproduces
    # results bit for bit.
    return float(np.sum(np.sort(np.asarray(values, dtype=float), axis=None)))


def _mean(values: np.ndarray, axis=None) -> np.ndarray:
    """``np.mean`` taken in units of the power of two of the largest
    |value|: the scalings are exact short of subnormals, so a mean keeps
    its bits, and its sum cannot overflow."""
    e = np.frexp(np.max(np.abs(values), axis=axis))[1]
    return np.ldexp(np.mean(np.ldexp(values, -e), axis=axis), e)


def _column_means(matrix: np.ndarray) -> np.ndarray:
    return _mean(np.sort(matrix, axis=0), axis=0)


@dataclass(frozen=True, eq=False)
class EvalGrid:
    """Ordered abscissae shared by every curve in a dataset.

    Parameters
    ----------
    points : array_like
        Strictly increasing evaluation points (at least two), in the
        units of the curve argument (e.g. depth in meters).
    """

    points: np.ndarray
    quad_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or pts.size < 2:
            raise ValidationError("grid needs at least 2 points in a 1-d array")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("grid points must be finite")
        # no step or weight exceeds the span; a Python float takes it unwarned
        if not math.isfinite(float(pts[-1]) - float(pts[0])):
            raise ValidationError(
                f"grid span from {pts[0]:g} to {pts[-1]:g} exceeds the float range"
            )
        if not np.all(np.diff(pts) > 0):
            raise ValidationError("grid points must be strictly increasing")
        object.__setattr__(self, "points", _frozen_array(pts))
        # Trapezoidal-rule weights: exact for piecewise-linear integrands.
        w = np.empty_like(pts)
        w[0] = (pts[1] - pts[0]) / 2.0
        w[-1] = (pts[-1] - pts[-2]) / 2.0
        w[1:-1] = (pts[2:] - pts[:-2]) / 2.0
        object.__setattr__(self, "quad_weights", _frozen_array(w))

    def __len__(self) -> int:
        return self.points.size

    @property
    def span(self) -> float:
        return float(self.points[-1] - self.points[0])


@dataclass(frozen=True)
class GeoCoord:
    """Geographic coordinate in decimal degrees."""

    lon: float
    lat: float

    def __post_init__(self):
        if not (math.isfinite(self.lon) and math.isfinite(self.lat)):
            raise ValidationError("coordinates must be finite")
        if not -180.0 <= self.lon <= 180.0:
            raise ValidationError(f"longitude {self.lon} outside [-180, 180]")
        if not -90.0 <= self.lat <= 90.0:
            raise ValidationError(f"latitude {self.lat} outside [-90, 90]")


@dataclass(frozen=True)
class PlanarCoord:
    """Planar coordinate in kilometers."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError("planar coordinates must be finite")


def project_sinusoidal(p: GeoCoord, lon0: float) -> PlanarCoord:
    """Project a geographic coordinate onto the plane (sinusoidal, km).

    Equal-area projection about the central meridian ``lon0``:
    ``x = R (lon - lon0) cos(lat)``, ``y = R lat`` with angles in radians,
    ``lon - lon0`` wrapped into [-180, 180) degrees, and R the mean Earth
    radius 6371.0088 km; ``lon = 180`` is taken as -180, the same
    meridian. The one-site case of :func:`_sinusoidal_xy`.
    """
    x, y = _sinusoidal_xy(np.array([p.lon]), np.array([p.lat]), lon0)[0].tolist()
    return PlanarCoord(x, y)


def _sinusoidal_xy(lon: np.ndarray, lat: np.ndarray, lon0: float) -> np.ndarray:
    """The ``(n, 2)`` planar km of :func:`project_sinusoidal` at the sites
    ``lon``, ``lat``; the sites are not checked."""
    # Wrap the offset into [-180, 180) so that sites on either side of the
    # antimeridian stay neighbours. fmod is exact, and so is moving its
    # result of (-360, 360) into [-180, 180) (Sterbenz's lemma), so offsets
    # already in range pass through unchanged. 180 is folded onto -180
    # first: the two subtractions of lon0 may round apart, which would make
    # one meridian two.
    dlon = np.fmod(np.where(lon == 180.0, -180.0, lon) - float(lon0), 360.0)
    dlon[dlon >= 180.0] -= 360.0
    dlon[dlon < -180.0] += 360.0
    lam = np.radians(dlon)
    phi = np.radians(lat)
    # math.cos: numpy's cos may be a SIMD routine whose last bits depend on
    # the CPU
    cos_phi = np.fromiter(map(math.cos, phi.tolist()), float, phi.size)
    return np.column_stack([EARTH_RADIUS_KM * lam * cos_phi, EARTH_RADIUS_KM * phi])


def _as_xy(locs) -> np.ndarray:
    """Read-only ``(n, 2)`` float array of planar km, ``n >= 1``, all finite.

    Accepts an ``(n, 2)`` array or a sequence of :class:`PlanarCoord`.
    """
    if not isinstance(locs, np.ndarray):
        locs = list(locs)
        if not all(isinstance(p, PlanarCoord) for p in locs):
            raise ValidationError(
                "locations must be an (n, 2) array or PlanarCoord instances"
            )
        # one pass over the coordinates in C, rather than a list of tuples
        xy = np.fromiter(itertools.chain.from_iterable((p.x, p.y) for p in locs),
                         float, 2 * len(locs)).reshape(-1, 2)
        xy.flags.writeable = False
    else:
        xy = _frozen_array(locs)
    if xy.size == 0:
        raise ValidationError("need at least one location")
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValidationError("expected an (n, 2) coordinate array")
    if not np.all(np.isfinite(xy)):
        raise ValidationError("planar coordinates must be finite")
    return xy


@dataclass(frozen=True, eq=False)
class SpatialFunctionalDataset:
    """``n`` curves on a common grid, each tagged with a planar location.

    ``curves`` is the n-by-m matrix whose row ``i`` holds the curve
    observed at ``xy[i]`` (planar km) evaluated on ``grid``. ``xy`` may be
    given as an ``(n, 2)`` array or a sequence of :class:`PlanarCoord`; it
    is stored as a read-only ``(n, 2)`` array.
    """

    grid: EvalGrid
    xy: np.ndarray
    curves: np.ndarray
    warnings: tuple[str, ...] = ()
    lon0: float | None = None

    def __post_init__(self):
        xy = _as_xy(self.xy)
        curves = np.asarray(self.curves, dtype=float)
        if curves.ndim != 2:
            raise ValidationError("curves must be a 2-d matrix")
        n, m = curves.shape
        if n < 1:
            raise ValidationError("dataset needs at least one curve")
        if m != len(self.grid):
            raise ValidationError(
                f"curves have {m} columns but the grid has {len(self.grid)} points"
            )
        if not np.all(np.isfinite(curves)):
            bad = np.argwhere(~np.isfinite(curves))[0]
            raise ValidationError(
                f"non-finite curve value at row {bad[0]}, grid index {bad[1]}"
            )
        if xy.shape[0] != n:
            raise ValidationError(
                f"{xy.shape[0]} locations for {n} curves (must match)"
            )
        object.__setattr__(self, "xy", xy)
        object.__setattr__(self, "curves", _frozen_array(curves))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def n_curves(self) -> int:
        return self.curves.shape[0]

    @property
    def n_levels(self) -> int:
        return self.curves.shape[1]

    def subset(self, indices) -> "SpatialFunctionalDataset":
        """New dataset of the given rows (order as given), built and checked
        as any dataset is; it keeps the grid and ``lon0`` and no warnings.
        The indices must be integers: a boolean mask or float positions are
        rejected, not cast.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1 or idx.size < 1:
            raise ValidationError("subset needs a non-empty index vector")
        if idx.dtype.kind not in "iu":
            raise ValidationError(f"subset indices must be integers, got dtype {idx.dtype}")
        if idx.min() < 0 or idx.max() >= self.n_curves:
            raise ValidationError("subset index out of range")
        return SpatialFunctionalDataset(self.grid, self.xy[idx], self.curves[idx], lon0=self.lon0)


def pairwise_distances(locs) -> np.ndarray:
    """Symmetric matrix of Euclidean distances (km) between locations.

    Accepts a sequence of :class:`PlanarCoord` or an ``(n, 2)`` array.
    """
    xy = _as_xy(locs)
    return _site_distances(xy, xy)


# Row-block budget of the streamed pair stages: a block of b rows against
# the w columns right of its first row is sized so that b * w * m is about
# this many values. The pair kernels form no b x w x m array, so each of a
# block's b x w pair arrays holds about 2**20 / m float64s (380 KB at
# m = 22); the variogram's pair values take no more. These timings
# predate the variogram's row tiles (fess.variogram._PAIR_TILE_ROWS),
# which change only how much of each block its Gram computes. At
# n = 5000, m = 22 on 2 cores (Python 3.11, numpy 2.4), 2**20 ran the
# variogram pass fastest on 2 threads: 0.20-0.21 s one-shot and
# 0.08-0.10 s from kept slots, against 0.26-0.33 and 0.10-0.12 s at 2**19
# and 0.24-0.25 and 0.09-0.11 s at 2**21; on 1 thread the three sizes
# tied (0.32-0.42 and 0.13-0.15 s).
# The ESS sum took 0.08-0.09 s one-shot on 2 threads (0.10-0.13 s on 1)
# and 0.02-0.05 s from kept distances, within noise of the neighbouring
# sizes. Smaller blocks gained nothing from a second thread at 2**18,
# because their many small numpy calls hold the GIL.
_PAIR_BLOCK_ELEMENTS = 2**20

# Fewest pair blocks per worker thread. Starting and feeding threads
# costs more than it saves on small passes: with m = 22 on 2 cores,
# 2 threads ran the variogram of n = 400-600 sites (3-5 blocks) 0.95x as
# fast as 1 thread, n = 1000-1400 (12-23 blocks) 1.0-1.6x from run to
# run, and n = 1700-5000 (33-262 blocks) 1.6-1.7x as fast; the ESS sum
# gained 1.2-1.5x from n = 1700 on.
_MIN_BLOCKS_PER_WORKER = 16

# Marks block entries that are not pairs (the diagonal and below it). It
# never exceeds a real distance: LagBins._slots puts it in slot 0, which
# the variogram drops, and the ESS sum compresses it away.
_NOT_A_PAIR = -1.0


class _SiteRecord(NamedTuple):
    """What fess keeps of a site set, whatever its curves."""

    order: np.ndarray  # rows sorted by x, then y, equal sites in row order
    tied: np.ndarray  # positions in ``order`` of sites equal to a neighbour
    groups: np.ndarray  # the run of equal sites of each, numbered in order
    diameter: float  # the largest distance between two sites
    # stage name -> (key, value): what a stage keeps of these sites for its
    # later calls, valid for an equal key. Each entry is replaced whole, so a
    # thread reads either an old entry or a new one, never a partial one.
    kept: dict


def _site_ties(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, same)`` of the ``(n, 2)`` sites ``xy``: the rows sorted by
    x, then y, equal sites in row order (a stable ``np.lexsort``), and
    whether each sorted site after the first equals the one before it.

    The one rule by which sites are the same: equal x and equal y, so 0.0
    equals -0.0 (the sort ranks them alike, so equal sites are adjacent).
    """
    order = np.lexsort((xy[:, 1], xy[:, 0]))
    x, y = xy[order].T
    return order, (x[1:] == x[:-1]) & (y[1:] == y[:-1])


@functools.lru_cache(maxsize=1)
def _site_record(sites: bytes) -> _SiteRecord:
    """The :class:`_SiteRecord` of the ``(n, 2)`` float site array ``sites``.

    Keyed by the array's bytes, so the one kept record is that of the last
    site set, in its row order: a call at other sites drops it, with all
    that its stages kept. Its arrays are read-only and O(n).
    """
    xy = np.frombuffer(sites).reshape(-1, 2)
    order, same = _site_ties(xy)
    tied = np.flatnonzero(np.append(same, False) | np.insert(same, 0, False))
    first = np.insert(~same, 0, True)
    groups = np.cumsum(first)[tied]
    for a in (order, tied, groups):
        a.flags.writeable = False
    return _SiteRecord(order, tied, groups, _max_site_distance(xy[order[first]]), {})


# Largest table a pair stage keeps of a site set between passes: with one
# byte a pair, the variogram's bin slots of about 23 000 sites; with eight,
# the ESS sum's distances of about 8000.
_MAX_KEPT_TABLE_BYTES = 1 << 28


def _canonical_order(dataset: "SpatialFunctionalDataset", sites: _SiteRecord) -> np.ndarray:
    """Row order that depends only on the rows' contents.

    Rows are sorted by x, then y, then the curve values in grid order, so
    duplicate sites are ordered too; rows equal in every key are
    interchangeable. Pair stages that run over rows in this order and
    reduce in a fixed block order give results that are bitwise invariant
    under row relabelling. The site order comes from ``sites``, the
    :func:`_site_record` of the dataset's sites; the curves are sorted only
    where sites tie, which gives the permutation of one ``np.lexsort`` over
    all the keys.
    """
    if not sites.tied.size:
        return sites.order
    order = sites.order.copy()
    rows = order[sites.tied]
    order[sites.tied] = rows[np.lexsort((*dataset.curves[rows].T[::-1], sites.groups))]
    return order


def _max_site_distance(xy: np.ndarray) -> float:
    """Largest distance between two of the distinct sites ``xy``, sorted by
    x, then y (0 for a single site).

    The farthest pair of a planar set are vertices of its convex hull, so
    only hull vertices are compared, with the expression of the pair
    blocks: the result is the pair maximum bit for bit. A site whose y is
    neither a running maximum nor a running minimum of y, from the left
    or from the right, has a higher and a lower site strictly left of it
    (the sites are distinct and sorted) and a higher and a lower site at
    or right of its x, so it lies between two segments of sites and is
    no hull vertex. Only the running extremes, in sorted order, go to a
    monotone chain (Andrew 1979), which keeps the strict hull vertices,
    collinear sets included.
    """
    if len(xy) == 1:
        return 0.0
    y = xy[:, 1]
    rev = y[::-1]
    keep = (y == np.maximum.accumulate(y)) | (y == np.minimum.accumulate(y))
    keep |= ((rev == np.maximum.accumulate(rev)) | (rev == np.minimum.accumulate(rev)))[::-1]
    sites = xy[keep].tolist()

    def half_hull(points):
        chain = []
        for p in points:
            while len(chain) >= 2 and (
                (chain[-1][0] - chain[-2][0]) * (p[1] - chain[-2][1])
                - (chain[-1][1] - chain[-2][1]) * (p[0] - chain[-2][0])
            ) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    hull = np.array(half_hull(sites) + half_hull(sites[::-1]))
    # row blocks of about _PAIR_BLOCK_ELEMENTS distances, so a hull of many
    # vertices (sites on a circle) never forms its dense distance matrix
    k = max(1, _PAIR_BLOCK_ELEMENTS // len(hull))
    return float(max(
        np.max(_site_distances(hull[i:i + k], hull)) for i in range(0, len(hull), k)
    ))


def _pair_spans(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """Row spans ``(i0, i1)`` of the canonical pair blocks of n rows of m values.

    Block ``(i0, i1)`` pairs rows ``i0 <= k < i1`` with the rows right of
    them; together the blocks cover every pair ``i < j`` once. Blocks are
    sized by ``_PAIR_BLOCK_ELEMENTS``. The spans are computed once per
    shape and block size, since every pair pass and kept-table key of an
    estimate asks for them.
    """
    return _spans(n, m, _PAIR_BLOCK_ELEMENTS)


@functools.lru_cache(maxsize=8)
def _spans(n: int, m: int, block: int) -> tuple[tuple[int, int], ...]:
    spans = []
    i0 = 0
    while i0 < n - 1:
        i1 = min(n - 1, i0 + max(1, block // ((n - i0) * m)))
        spans.append((i0, i1))
        i0 = i1
    return tuple(spans)


def _site_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the sites ``a`` (rows) and ``b`` (columns).

    ``sqrt(dx*dx + dy*dy)`` in place: symmetric in the two sites, and under
    half the time of ``np.hypot``, whose guards against overflow planar
    distances in km do not need.
    """
    dx = a[:, 0][:, None] - b[:, 0][None, :]
    dy = a[:, 1][:, None] - b[:, 1][None, :]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _positive_int(value, name: str) -> int:
    """``value`` as an int, if it is an integer of at least 1."""
    if not _is_integer(value) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _non_negative_int(value, name: str) -> int:
    """``value`` as an int, if it is an integer of at least 0."""
    if not _is_integer(value) or value < 0:
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def _check_threads(threads) -> None:
    """Reject a thread count other than ``None`` or an integer >= 1."""
    if threads is not None:
        _positive_int(threads, "threads")


def _worker_count(threads: int | None, n_blocks: int) -> int:
    """Threads for ``n_blocks`` blocks: ``threads`` (default: the usable
    cores), capped so that each thread gets ``_MIN_BLOCKS_PER_WORKER``."""
    _check_threads(threads)
    if threads is None:
        try:
            threads = len(os.sched_getaffinity(0))
        except AttributeError:  # platforms without CPU affinity
            threads = os.cpu_count() or 1
    return max(1, min(int(threads), n_blocks // _MIN_BLOCKS_PER_WORKER))


def _block_distances(xy: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Distances of pair block ``(i0, i1)`` of the sites ``xy``: ``d[k, c]``
    between sites ``i0 + k`` and ``i0 + c``, ``_NOT_A_PAIR`` where ``c <= k``."""
    d = _site_distances(xy[i0:i1], xy[i0:])
    # row k's non-pairs are its first k + 1 entries: one slice each, so no
    # index arrays of the block's lower triangle are built
    for k in range(i1 - i0):
        d[k, :k + 1] = _NOT_A_PAIR
    return d


def _pair_map(fn, dataset: "SpatialFunctionalDataset", keep, rows=None, threads=None) -> list:
    """``fn(block, X[:, i0:i1], X[:, i0:])`` for every canonical pair block, in block order.

    The blocks ``(i0, i1)`` are the :func:`_pair_spans` of the dataset's n
    rows and m grid levels, whatever the height of ``rows``. ``rows`` is
    level-major, one column per dataset row, and ``X`` is its columns in
    :func:`_canonical_order` under the dataset's :func:`_site_record`: the
    one row order of every pair stage. ``X`` is gathered once per pass,
    and each block reads column slices of it.
    Without ``rows`` the stage reads only distances, no row matrix is
    formed and ``fn`` gets None for both slices.

    ``keep = (stage, key, nbytes, derive)``: ``block`` is ``derive(d)``,
    the read-only value the stage derives from the block's
    :func:`_block_distances` ``d``, which depends only on the sites, the
    block layout and ``key``. The kept values hold only for the layout
    built here, so it is added to every key: a pass keys its blocks by
    ``(spans, key)``. The first pass at a key keeps only the key under
    ``stage`` in the site record's ``kept``, so a one-shot pass keeps
    nothing. The second keeps every block's value, as ``kept[stage] =
    ((spans, key), blocks)``, if their ``nbytes`` fit in
    ``_MAX_KEPT_TABLE_BYTES``. Later passes read the kept values and
    compute no distances, so ``fn`` gets what a fresh pass derives, bit
    for bit. ``threads`` is checked before the record is read or written.

    The blocks run on :func:`_worker_count` workers of ``threads`` (default:
    the usable cores), each taking one contiguous run of them and building
    each block of its run from its span, so only one block per worker is
    alive at a time; with one worker the blocks run on the calling thread.
    Results come back in block order whatever the thread count, so callers
    that reduce them in that order give outputs that do not depend on
    ``threads``. ``fn`` and ``derive`` must be safe to call from several
    threads at once.
    """
    spans = _pair_spans(dataset.n_curves, dataset.n_levels)
    workers = _worker_count(threads, len(spans))
    sites = _site_record(dataset.xy.tobytes())
    stage, key, nbytes, derive = keep
    key = (spans, key)
    seen, table = sites.kept.get(stage, (None, None))
    fill = seen == key and table is None and nbytes <= _MAX_KEPT_TABLE_BYTES
    if seen != key:
        sites.kept[stage] = (key, None)
        table = None
    order = _canonical_order(dataset, sites)
    # only a pass that computes distances reads the sites
    xy = dataset.xy[order] if table is None else None
    # C-ordered, so einsum adds each Gram entry level by level (by column,
    # as rows[:, order] lays X out, it sums in lanes)
    X = None if rows is None else np.take(rows, order, axis=1)

    def run(chunk):
        # a block's distances are freed only once the next block's exist;
        # freeing them first let glibc trim and re-fault the heap on every
        # block (10x the page faults of a one-shot n = 5000 variogram)
        out = []
        for k, (i0, i1) in chunk:
            if table is None:
                d = _block_distances(xy, i0, i1)
                block = derive(d)
            else:
                block = table[k]
            head, tail = (None, None) if X is None else (X[:, i0:i1], X[:, i0:])
            # only a filling pass holds every block's value, so a pass that
            # keeps nothing needs O(n m) memory
            out.append((fn(block, head, tail), block if fill else None))
        return out

    blocks = list(enumerate(spans))
    if workers == 1:
        results = run(blocks)
    else:
        runs = [blocks[k * len(blocks) // workers:(k + 1) * len(blocks) // workers]
                for k in range(workers)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = [r for out in pool.map(run, runs) for r in out]
    if fill:
        sites.kept[stage] = (key, tuple(block for _, block in results))
    return [r for r, _ in results]


def trapz_inner(a, b, grid: EvalGrid) -> float:
    """Trapezoidal approximation of the L2 inner product of two curves."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (len(grid),) or b.shape != (len(grid),):
        raise ValidationError("curve values must conform to the grid")
    return float(np.dot(a * b, grid.quad_weights))


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for wide-CSV ingestion.

    ``value_columns`` defaults to every non-coordinate column, in file
    order; the numeric column labels define the evaluation grid. With
    ``planar=True`` the coordinate columns are read as planar kilometers
    and no projection is applied. ``lon0`` overrides the central meridian
    (default: circular mean longitude of the file); it is refused with
    ``planar=True``. ``center_levels`` subtracts the per-level mean after
    loading (off by default: raw values).
    """

    lon_column: str = "lon"
    lat_column: str = "lat"
    value_columns: tuple[str, ...] | None = None
    lon0: float | None = None
    planar: bool = False
    center_levels: bool = False

    def __post_init__(self):
        for name in ("lon_column", "lat_column"):
            if not isinstance(getattr(self, name), str):
                raise ValidationError(f"schema field '{name}' must be a string")
        cols = self.value_columns
        if cols is not None:
            if not isinstance(cols, (list, tuple)) or not all(
                isinstance(c, str) for c in cols
            ):
                raise ValidationError(
                    "schema field 'value_columns' must be a list of strings"
                )
            object.__setattr__(self, "value_columns", tuple(cols))
        lon0 = self.lon0
        if lon0 is not None and (
            isinstance(lon0, bool)
            or not isinstance(lon0, (int, float))
            or not math.isfinite(lon0)
        ):
            raise ValidationError("schema field 'lon0' must be a finite number")
        for name in ("planar", "center_levels"):
            if not isinstance(getattr(self, name), bool):
                raise ValidationError(f"schema field '{name}' must be true or false")
        if self.planar and lon0 is not None:
            raise ValidationError("schema fields 'lon0' and 'planar' exclude each other: "
                                  "planar coordinates are not projected")

    @classmethod
    def from_json(cls, path) -> "CsvSchema":
        with open(path, "r", encoding="utf-8-sig") as fh:
            try:
                raw = json.load(fh)
            except ValueError as exc:  # malformed JSON or text encoding
                raise ValidationError(f"{path}: not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ValidationError(f"{path}: schema must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"{path}: unknown schema keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except ValidationError as exc:
            raise ValidationError(f"{path}: {exc}") from None


def _parse_cell(text: str, row: int, column: str) -> float:
    """The finite number in one CSV cell, else a ``ValidationError`` naming it.

    A cell holds a decimal or exponent number with optional surrounding
    whitespace: the syntax ``np.loadtxt`` reads, so that both routes of
    :func:`load_wide_csv` take the same cells.
    """
    cell = "" if text is None else text.strip()
    if not cell:
        raise ValidationError(f"row {row}, column '{column}': missing value")
    try:
        # float() alone also takes digit-group underscores and non-ASCII
        # digits, which np.loadtxt refuses
        if "_" in cell or not cell.isascii():
            raise ValueError(cell)
        value = float(cell)
    except ValueError:
        raise ValidationError(
            f"row {row}, column '{column}': cannot parse {text!r}"
        ) from None
    if not math.isfinite(value):
        raise ValidationError(f"row {row}, column '{column}': non-finite value")
    return value


@contextlib.contextmanager
def _csv_text(path: Path):
    """The UTF-8 CSV file at ``path``, opened for ``csv.reader``.

    A leading byte-order mark (as spreadsheet "CSV UTF-8" exports write)
    is skipped. Bytes that are not UTF-8 and rows that ``csv.reader``
    refuses (a cell over its field size limit) raise ``ValidationError``
    naming the file.
    """
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _read_csv_rows(path: Path) -> list[list[str]]:
    """The non-empty rows of the UTF-8 CSV file at ``path`` (see :func:`_csv_text`)."""
    with _csv_text(path) as fh:
        return [r for r in csv.reader(fh) if r]


def _write_csv(path, header, columns) -> None:
    """Write the ``header`` names as given, then the ``columns`` row by row, as UTF-8.

    Each column holds one kind of number, written losslessly: integers as
    such, floats as the shortest text that reads back to the same float.
    """
    columns = [np.asarray(column).tolist() for column in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(map(repr, row)) + "\n")


def _write_json(payload, path) -> None:
    """Write ``payload`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _wide_layout(
    path: Path, header: list[str], schema: CsvSchema | None
) -> tuple[CsvSchema, EvalGrid, list[int]]:
    """The schema of a wide CSV with ``header`` (default: detected from it),
    its grid and the header positions read: longitude, latitude, then the
    value columns in schema order."""
    if schema is None:
        if "x" in header and "y" in header and "lon" not in header:
            schema = CsvSchema(lon_column="x", lat_column="y", planar=True)
        else:
            schema = CsvSchema()

    for name in (schema.lon_column, schema.lat_column):
        if name not in header:
            raise ValidationError(f"{path}: coordinate column '{name}' not in header")
    i_lon = header.index(schema.lon_column)
    i_lat = header.index(schema.lat_column)

    if schema.value_columns is None:
        value_names = [h for k, h in enumerate(header) if k not in (i_lon, i_lat)]
    else:
        value_names = list(schema.value_columns)
        missing = [v for v in value_names if v not in header]
        if missing:
            raise ValidationError(f"{path}: value columns not in header: {missing}")
    if len(value_names) < 2:
        raise ValidationError(
            f"{path}: need at least 2 value columns, found {len(value_names)}"
        )
    try:
        levels = [float(v) for v in value_names]
    except ValueError:
        raise ValidationError(
            f"{path}: value column labels must be numeric grid levels"
        ) from None
    return schema, EvalGrid(levels), [i_lon, i_lat] + [header.index(v) for v in value_names]


def _first_bad_cell(
    path: Path, header: list[str], columns: list[int], reason
) -> ValidationError:
    """The ``ValidationError`` naming the first bad cell of the wide CSV at
    ``path``: rows in file order, and in a row its length, then the cells
    of ``columns`` in that order; with no bad cell, one carrying ``reason``.

    The diagnostic route of :func:`load_wide_csv`, taken only after its
    one-call read failed (``reason``) or read a non-finite value: the
    numbers always come from that read.
    """
    for r, row in enumerate(_read_csv_rows(path)[1:], start=1):
        if len(row) != len(header):
            return ValidationError(
                f"row {r}: expected {len(header)} cells, found {len(row)}"
            )
        try:
            for k in columns:
                _parse_cell(row[k], r, header[k])
        except ValidationError as exc:
            return exc
    return ValidationError(f"{path}: {reason}")


def load_wide_csv(path, schema: CsvSchema | None = None) -> SpatialFunctionalDataset:
    """Load a wide-format CSV into a dataset.

    Expected layout: a header row naming two coordinate columns followed
    by the value columns, whose numeric labels define the grid, then one
    record per curve. Geographic coordinates are projected with the
    sinusoidal projection about the file's circular mean longitude unless
    the schema says otherwise. A header starting ``x,y`` is auto-detected as
    already-planar coordinates.

    The header is the first non-empty row; every cell below it is read in
    one ``np.loadtxt`` call. Columns that the schema does not read are
    skipped unparsed, so they may hold text. A file the call cannot read,
    or that holds a non-finite value, is scanned cell by cell for the
    first bad cell, which the ``ValidationError`` names.
    """
    path = Path(path)
    with _csv_text(path) as fh:
        # readline rather than iteration, which would disable tell()
        lines = iter(fh.readline, "")
        header = next(filter(None, csv.reader(lines)), None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        header = [h.strip() for h in header]
        schema, grid, columns = _wide_layout(path, header, schema)
        body = fh.tell()
        # csv.reader skips blank lines, as loadtxt does; loadtxt also
        # warns when nothing else follows
        if not any(line.strip("\r\n") for line in lines):
            raise ValidationError(f"{path}: no data rows")
        fh.seek(body)
        try:
            values = np.loadtxt(
                fh, delimiter=",", comments=None, quotechar='"', ndmin=2,
                converters={
                    k: (lambda cell: 0.0)
                    for k in range(len(header)) if k not in columns
                },
            )
            if values.shape[1] != len(header):
                raise ValueError(
                    f"read {values.shape[1]} cells a row, expected {len(header)}"
                )
            if not np.all(np.isfinite(values[:, columns])):
                raise ValueError("non-finite value")
        except ValueError as exc:  # UnicodeDecodeError included
            raise _first_bad_cell(path, header, columns, exc) from None

    warnings: list[str] = []
    x = values[:, columns[0]].copy()
    y = values[:, columns[1]]
    if not schema.planar:
        # 0..360 longitude convention, common in ocean reanalysis exports
        wrap = (180.0 < x) & (x <= 360.0)
        x[wrap] -= 360.0
        wrapped = int(np.count_nonzero(wrap))
        if wrapped:
            warnings.append(f"wrapped {wrapped} longitudes from (180, 360] to [-180, 180]")

    lon0 = None
    if schema.planar:
        xy = np.column_stack([x, y])
    else:
        outside = ~((-180.0 <= x) & (x <= 180.0) & (-90.0 <= y) & (y <= 90.0))
        if outside.any():
            r = int(np.argmax(outside))
            try:
                GeoCoord(float(x[r]), float(y[r]))
            except ValidationError as exc:
                raise ValidationError(f"row {r + 1}: {exc}") from None
        lon0 = schema.lon0
        if lon0 is None:
            lam = np.radians(x)
            lon0 = math.degrees(
                math.atan2(math.fsum(np.sin(lam)), math.fsum(np.cos(lam)))
            )
        xy = _sinusoidal_xy(x, y, lon0)

    # the projected sites that the pair stages tie (rows at 180 and -180
    # are one site); each later row of a group, in file order, is named
    # beside the group's first row, with its coordinates as read
    order, same = _site_ties(xy)
    first = np.insert(~same, 0, True)
    later = order[~first]
    heads = order[first][np.cumsum(first)[~first] - 1]
    k = np.argsort(later)
    for h, r in zip(heads[k].tolist(), later[k].tolist()):
        warnings.append(
            f"duplicate location {(float(x[r]), float(y[r]))} at rows {h + 1} and {r + 1} "
            "(both kept)"
        )

    # take() copies in C order, as a list of rows did: pair sums and the
    # column means reduce in memory order, so the layout fixes their bits
    matrix = values.take(columns[2:], axis=1)
    if schema.center_levels:
        matrix = matrix - _column_means(matrix)[None, :]
    return SpatialFunctionalDataset(grid, xy, matrix, warnings=tuple(warnings), lon0=lon0)


def write_wide_csv(dataset: SpatialFunctionalDataset, path) -> None:
    """Write a dataset in the wide-CSV layout (planar ``x,y`` headers)."""
    labels = [repr(float(t)) for t in dataset.grid.points]
    _write_csv(path, ["x", "y"] + labels, [*dataset.xy.T, *dataset.curves.T])
