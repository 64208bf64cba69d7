"""Spatially indexed functional samples.

Containers for curve datasets observed on a shared evaluation grid at
planar locations, plus the geometric preparation steps they need:
sinusoidal projection of geographic coordinates, pairwise distances,
trapezoidal inner products, and wide-CSV ingestion/export.

All containers are immutable after construction (array buffers are set
read-only), so they are safe to share between threads.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ValidationError

EARTH_RADIUS_KM = 6371.0088


def _frozen_array(values, dtype=float) -> np.ndarray:
    out = np.array(values, dtype=dtype)
    out.flags.writeable = False
    return out


def _sorted_sum(values: np.ndarray) -> float:
    # Summing in ascending value order makes reductions independent of the
    # row labelling of the input, so permuting a dataset's rows reproduces
    # results bit for bit.
    return float(np.sum(np.sort(np.asarray(values, dtype=float), axis=None)))


def _column_means(matrix: np.ndarray) -> np.ndarray:
    return np.sum(np.sort(matrix, axis=0), axis=0) / matrix.shape[0]


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
    radius 6371.0088 km.
    """
    # Wrap the offset into [-180, 180) so that sites on either side of the
    # antimeridian stay neighbours. remainder is exact, so offsets already
    # in range pass through unchanged.
    dlon = math.remainder(p.lon - lon0, 360.0)
    if dlon == 180.0:
        dlon = -180.0
    lam = math.radians(dlon)
    phi = math.radians(p.lat)
    return PlanarCoord(
        EARTH_RADIUS_KM * lam * math.cos(phi),
        EARTH_RADIUS_KM * phi,
    )


@dataclass(frozen=True, eq=False)
class SpatialFunctionalDataset:
    """``n`` curves on a common grid, each tagged with a planar location.

    ``curves`` is the n-by-m matrix whose row ``i`` holds the curve
    observed at ``locations[i]`` evaluated on ``grid``. Row order and
    location order are index-aligned.
    """

    grid: EvalGrid
    locations: tuple[PlanarCoord, ...]
    curves: np.ndarray
    warnings: tuple[str, ...] = ()
    lon0: float | None = None
    xy: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        locs = tuple(self.locations)
        for loc in locs:
            if not isinstance(loc, PlanarCoord):
                raise ValidationError("locations must be PlanarCoord instances")
        object.__setattr__(self, "locations", locs)
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
        if len(locs) != n:
            raise ValidationError(
                f"{len(locs)} locations for {n} curves (must match)"
            )
        object.__setattr__(self, "curves", _frozen_array(curves))
        object.__setattr__(self, "warnings", tuple(self.warnings))
        xy = _frozen_array([(p.x, p.y) for p in locs])
        object.__setattr__(self, "xy", xy)

    @property
    def n_curves(self) -> int:
        return self.curves.shape[0]

    @property
    def n_levels(self) -> int:
        return self.curves.shape[1]

    def subset(self, indices) -> "SpatialFunctionalDataset":
        """New dataset keeping the given rows (order as given)."""
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or idx.size < 1:
            raise ValidationError("subset needs a non-empty index vector")
        if np.any(idx < 0) or np.any(idx >= self.n_curves):
            raise ValidationError("subset index out of range")
        locs = tuple(self.locations[i] for i in idx)
        return SpatialFunctionalDataset(self.grid, locs, self.curves[idx], lon0=self.lon0)


def pairwise_distances(locs) -> np.ndarray:
    """Symmetric matrix of Euclidean distances (km) between locations.

    Accepts a sequence of :class:`PlanarCoord` or an ``(n, 2)`` array.
    """
    if isinstance(locs, np.ndarray):
        xy = np.asarray(locs, dtype=float)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValidationError("expected an (n, 2) coordinate array")
    else:
        xy = np.array([(p.x, p.y) for p in locs], dtype=float)
        if xy.size == 0:
            raise ValidationError("need at least one location")
    dx = xy[:, 0][:, None] - xy[:, 0][None, :]
    dy = xy[:, 1][:, None] - xy[:, 1][None, :]
    return np.hypot(dx, dy)


# Row-block budget of the streamed pair stages: a block of b rows against
# the w columns right of its first row is sized so that the b x w x m
# curve-difference array holds about this many float64 values (2 MB).
# Larger blocks buy little speed and raise peak memory at small n.
_PAIR_BLOCK_ELEMENTS = 2**18

# Marks block entries that are not pairs (the diagonal and below it).
# LagBins.index_of maps it to -1 and it never exceeds a real distance.
_NOT_A_PAIR = -1.0


def _canonical_order(dataset: "SpatialFunctionalDataset") -> np.ndarray:
    """Row order that depends only on the rows' contents.

    Rows are sorted by x, then y, then the curve values in grid order, so
    duplicate sites are ordered too; rows equal in every key are
    interchangeable. Pair stages that run over rows in this order and
    reduce in a fixed block order give results that are bitwise invariant
    under row relabelling.
    """
    keys = np.vstack([dataset.curves.T[::-1], dataset.xy.T[::-1]])
    return np.lexsort(keys)


def _pair_blocks(xy: np.ndarray, n_levels: int):
    """Yield ``(i0, i1, d)`` row blocks covering every pair ``i < j`` once.

    ``d[k, c]`` is the distance between rows ``i0 + k`` and ``i0 + c``
    (the columns ``j >= i0``); entries with ``c <= k`` are not pairs and
    hold ``_NOT_A_PAIR``. Blocks are sized by ``_PAIR_BLOCK_ELEMENTS`` for
    curves of ``n_levels`` values, so no n-by-n array is ever formed.
    """
    n = xy.shape[0]
    i0 = 0
    while i0 < n - 1:
        width = n - i0
        i1 = min(n - 1, i0 + max(1, _PAIR_BLOCK_ELEMENTS // (width * n_levels)))
        dx = xy[i0:i1, 0][:, None] - xy[i0:, 0][None, :]
        dy = xy[i0:i1, 1][:, None] - xy[i0:, 1][None, :]
        d = np.hypot(dx, dy)
        d[np.arange(width)[None, :] <= np.arange(i1 - i0)[:, None]] = _NOT_A_PAIR
        yield i0, i1, d
        i0 = i1


def _max_pair_distance(dataset: "SpatialFunctionalDataset") -> float:
    """Largest distance between two sites (0 for a single site)."""
    dmax = 0.0
    for _, _, d in _pair_blocks(dataset.xy, dataset.n_levels):
        dmax = max(dmax, float(np.max(d)))
    return dmax


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
    (default: circular mean longitude of the file). ``center_levels`` subtracts
    the per-level mean after loading (off by default: raw values).
    """

    lon_column: str = "lon"
    lat_column: str = "lat"
    value_columns: tuple[str, ...] | None = None
    lon0: float | None = None
    planar: bool = False
    center_levels: bool = False

    @classmethod
    def from_json(cls, path) -> "CsvSchema":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ValidationError(f"unknown schema keys: {sorted(unknown)}")
        if "value_columns" in raw and raw["value_columns"] is not None:
            raw["value_columns"] = tuple(raw["value_columns"])
        return cls(**raw)


def _parse_cell(text: str, row: int, column: str) -> float:
    if text is None or text.strip() == "":
        raise ValidationError(f"row {row}, column '{column}': missing value")
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(
            f"row {row}, column '{column}': cannot parse {text!r}"
        ) from None
    if not math.isfinite(value):
        raise ValidationError(f"row {row}, column '{column}': non-finite value")
    return value


def load_wide_csv(path, schema: CsvSchema | None = None) -> SpatialFunctionalDataset:
    """Load a wide-format CSV into a dataset.

    Expected layout: a header row naming two coordinate columns followed
    by the value columns, whose numeric labels define the grid, then one
    record per curve. Geographic coordinates are projected with the
    sinusoidal projection about the file's circular mean longitude unless
    the schema says otherwise. A header starting ``x,y`` is auto-detected as
    already-planar coordinates.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]

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
    grid = EvalGrid(levels)
    value_idx = [header.index(v) for v in value_names]

    warnings: list[str] = []
    coords: list[tuple[float, float]] = []
    curves: list[list[float]] = []
    wrapped = 0
    for r, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise ValidationError(
                f"row {r}: expected {len(header)} cells, found {len(row)}"
            )
        cx = _parse_cell(row[i_lon], r, schema.lon_column)
        cy = _parse_cell(row[i_lat], r, schema.lat_column)
        if not schema.planar and 180.0 < cx <= 360.0:
            # 0..360 longitude convention, common in ocean reanalysis exports
            cx -= 360.0
            wrapped += 1
        coords.append((cx, cy))
        curves.append([_parse_cell(row[k], r, header[k]) for k in value_idx])
    if not coords:
        raise ValidationError(f"{path}: no data rows")
    if wrapped:
        warnings.append(f"wrapped {wrapped} longitudes from (180, 360] to [-180, 180]")

    seen: dict[tuple[float, float], int] = {}
    for r, c in enumerate(coords, start=1):
        if c in seen:
            warnings.append(
                f"duplicate location {c} at rows {seen[c]} and {r} (both kept)"
            )
        else:
            seen[c] = r

    lon0 = None
    if schema.planar:
        locations = tuple(PlanarCoord(cx, cy) for cx, cy in coords)
    else:
        lon0 = schema.lon0
        if lon0 is None:
            lam = np.radians([c[0] for c in coords])
            lon0 = math.degrees(
                math.atan2(math.fsum(np.sin(lam)), math.fsum(np.cos(lam)))
            )
        located = []
        for r, (cx, cy) in enumerate(coords, start=1):
            try:
                located.append(project_sinusoidal(GeoCoord(cx, cy), lon0))
            except ValidationError as exc:
                raise ValidationError(f"row {r}: {exc}") from None
        locations = tuple(located)

    matrix = np.asarray(curves, dtype=float)
    if schema.center_levels:
        matrix = matrix - _column_means(matrix)[None, :]
    return SpatialFunctionalDataset(
        grid, locations, matrix, warnings=tuple(warnings), lon0=lon0
    )


def write_wide_csv(dataset: SpatialFunctionalDataset, path) -> None:
    """Write a dataset in the wide-CSV layout (planar ``x,y`` headers)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        labels = [repr(float(t)) for t in dataset.grid.points]
        fh.write(",".join(["x", "y"] + labels) + "\n")
        for loc, row in zip(dataset.locations, dataset.curves):
            cells = [repr(float(loc.x)), repr(float(loc.y))]
            cells += [repr(float(v)) for v in row]
            fh.write(",".join(cells) + "\n")
