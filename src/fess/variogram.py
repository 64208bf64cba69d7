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

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from .dataset import (
    SpatialFunctionalDataset,
    _canonical_order,
    _column_means,
    _frozen_array,
    _pair_blocks,
    _sorted_sum,
)
from .errors import EstimationError, FitError, ValidationError

FAMILIES = ("exponential", "spherical", "gaussian")

# Range is fitted on a log scale; these bounds (relative to the largest
# lag) keep the simplex out of regions where the objective is flat.
_RANGE_LOWER_REL = 1e-6
_RANGE_UPPER_REL = 1e3


@dataclass(frozen=True, eq=False)
class LagBins:
    """Distance bins for empirical estimation.

    ``edges`` are increasing bin boundaries in km (``edges[0] >= 0``);
    bin ``l`` covers ``[edges[l], edges[l+1])``, with the last bin closed
    on the right. Bin centers are the edge midpoints.
    """

    edges: np.ndarray
    centers: np.ndarray = field(init=False, repr=False, compare=False)

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

    def __len__(self) -> int:
        return self.edges.size - 1

    @classmethod
    def equal_width(cls, max_lag: float, n_bins: int = 15) -> "LagBins":
        if not (max_lag > 0 and math.isfinite(max_lag)):
            raise ValidationError("max_lag must be positive and finite")
        if n_bins < 1:
            raise ValidationError("need at least one bin")
        return cls(np.linspace(0.0, max_lag, n_bins + 1))

    def index_of(self, h: np.ndarray) -> np.ndarray:
        """Bin index per distance, -1 for out-of-range distances."""
        h = np.asarray(h, dtype=float)
        idx = np.digitize(h, self.edges) - 1
        idx[h == self.edges[-1]] = len(self) - 1
        idx[(idx < 0) | (idx >= len(self))] = -1
        return idx


def default_lag_bins(distances: np.ndarray, n_bins: int = 15) -> LagBins:
    """Equal-width bins spanning (0, max-distance/2].

    ``distances`` is any array of pair distances, or just their maximum.
    """
    dmax = float(np.max(distances))
    if dmax <= 0:
        raise ValidationError("all locations coincide; no positive lags to bin")
    return LagBins.equal_width(dmax / 2.0, n_bins)


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
        fam = str(self.family).lower()
        if fam not in FAMILIES:
            raise ValidationError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        object.__setattr__(self, "family", fam)
        if not (self.sill > 0 and math.isfinite(self.sill)):
            raise ValidationError("sill must be positive and finite")
        if not (self.range_km > 0 and math.isfinite(self.range_km)):
            raise ValidationError("range must be positive and finite")
        if not (self.nugget >= 0 and math.isfinite(self.nugget)):
            raise ValidationError("nugget must be non-negative and finite")

    def to_dict(self, sse: float | None = None) -> dict:
        out = {
            "family": self.family,
            "sill": self.sill,
            "range": self.range_km,
            "nugget": self.nugget,
        }
        if sse is not None:
            out["sse"] = sse
        return out


def model_trace_cov(model: TraceCovModel, h):
    """Trace-covariogram of ``model`` at distance(s) ``h >= 0`` (km).

    The nugget contributes only at ``h == 0`` exactly.
    """
    h_arr = np.asarray(h, dtype=float)
    if np.any(h_arr < 0):
        raise ValidationError("distances must be non-negative")
    u = h_arr / model.range_km
    if model.family == "exponential":
        c = model.sill * np.exp(-u)
    elif model.family == "gaussian":
        c = model.sill * np.exp(-(u**2))
    else:  # spherical
        c = np.where(u <= 1.0, model.sill * (1.0 - 1.5 * u + 0.5 * u**3), 0.0)
    c = c + np.where(h_arr == 0.0, model.nugget, 0.0)
    return float(c) if np.isscalar(h) or h_arr.ndim == 0 else c


def model_trace_variogram(model: TraceCovModel, h):
    """Trace-variogram ``cov_tr(0) - cov_tr(h)``; zero at ``h = 0``."""
    h_arr = np.asarray(h, dtype=float)
    top = model.sill + model.nugget
    g = np.where(h_arr > 0.0, top - model_trace_cov(model, h_arr), 0.0)
    return float(g) if np.isscalar(h) or h_arr.ndim == 0 else g


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
    kind: str = "variogram"

    def __post_init__(self):
        centers = _frozen_array(self.centers)
        gamma = _frozen_array(self.gamma)
        counts = _frozen_array(self.counts, dtype=np.int64)
        if not (centers.shape == gamma.shape == counts.shape) or centers.ndim != 1:
            raise ValidationError("centers, gamma, counts must be equal-length 1-d")
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

    @property
    def n_occupied(self) -> int:
        return int(np.count_nonzero(self.occupied))

    def to_csv(self, path) -> None:
        """Write ``h,gamma,count`` rows (NaN marks empty bins)."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("h,gamma,count\n")
            for h, g, c in zip(self.centers, self.gamma, self.counts):
                fh.write(f"{float(h)!r},{float(g)!r},{int(c)}\n")

    @classmethod
    def from_csv(cls, path, kind: str = "variogram") -> "EmpiricalVariogram":
        path = Path(path)
        if not path.exists():
            raise ValidationError(f"input file not found: {path}")
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header[:3]] != ["h", "gamma", "count"]:
                raise ValidationError(f"{path}: expected header 'h,gamma,count'")
            rows = [r for r in reader if r]
        if not rows:
            raise ValidationError(f"{path}: no variogram rows")
        centers = np.array([float(r[0]) for r in rows])
        gamma = np.array([float(r[1]) for r in rows])
        counts = np.array([int(r[2]) for r in rows])
        return cls(centers, gamma, counts, sigma0=None, kind=kind)


def _trace_variance(dataset: SpatialFunctionalDataset) -> float:
    """Mean squared distance of curves to the pointwise sample mean."""
    dev = dataset.curves - _column_means(dataset.curves)[None, :]
    per_curve = (dev**2) @ dataset.grid.quad_weights
    return _sorted_sum(per_curve) / dataset.n_curves


def _binned_pair_stats(dataset: SpatialFunctionalDataset, rows, bins: LagBins, pair_values):
    """Per-bin pair counts, value sums and mean pair distances.

    ``rows`` is an n-by-m matrix aligned with the dataset's rows. Rows go
    into canonical order and the pairs stream in row blocks;
    ``pair_values(rows, i0, i1)`` returns the block's ``b x (n - i0)``
    pair values from the canonically ordered ``rows``. Plain
    ``np.bincount`` sums in block order, which depends only on the data,
    so results are bitwise invariant under row relabelling.
    """
    if dataset.n_curves < 2:
        raise ValidationError("empirical estimation needs at least 2 curves")
    order = _canonical_order(dataset)
    rows = rows[order]
    n_bins = len(bins)
    counts = np.zeros(n_bins, dtype=np.int64)
    sums = np.zeros(n_bins)
    hsums = np.zeros(n_bins)
    for i0, i1, d in _pair_blocks(dataset.xy[order], dataset.n_levels):
        idx = bins.index_of(d)
        keep = idx >= 0
        idx = idx[keep]
        counts += np.bincount(idx, minlength=n_bins)
        sums += np.bincount(idx, weights=pair_values(rows, i0, i1)[keep], minlength=n_bins)
        hsums += np.bincount(idx, weights=d[keep], minlength=n_bins)
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
    return counts, sums, centers


def empirical_trace_variogram(
    dataset: SpatialFunctionalDataset, bins: LagBins
) -> EmpiricalVariogram:
    """Empirical trace-variogram on binned lags.

    For each bin, half the average squared function-space distance over
    the unordered curve pairs whose separation falls in the bin, reported
    at the bin's mean pair distance. ``sigma0`` is the average squared
    distance of the curves to their pointwise mean (the i = j trace
    variance).
    """
    w = dataset.grid.quad_weights

    def squared_distances(X, i0, i1):
        # Squared norms from explicit differences (not a Gram expansion),
        # so every pair term is non-negative by construction.
        diff = X[i0:i1, None, :] - X[None, i0:, :]
        return np.square(diff, out=diff) @ w

    counts, sums, centers = _binned_pair_stats(
        dataset, dataset.curves, bins, squared_distances
    )
    gamma = np.full(len(bins), np.nan)
    occ = counts > 0
    gamma[occ] = sums[occ] / (2.0 * counts[occ])
    return EmpiricalVariogram(centers, gamma, counts, sigma0=_trace_variance(dataset))


def empirical_trace_covariogram(
    dataset: SpatialFunctionalDataset, bins: LagBins
) -> EmpiricalVariogram:
    """Empirical trace-covariogram on binned lags.

    For each bin, the average inner product of mean-centered curve pairs,
    reported at the bin's mean pair distance; the at-zero value
    ``sigma0`` uses the i = j terms only and therefore matches the
    ``sigma0`` of :func:`empirical_trace_variogram`.
    """
    w = dataset.grid.quad_weights
    dev = dataset.curves - _column_means(dataset.curves)[None, :]

    def inner_products(Z, i0, i1):
        return (Z[i0:i1] * w) @ Z[i0:].T

    counts, sums, centers = _binned_pair_stats(dataset, dev, bins, inner_products)
    sigma = np.full(len(bins), np.nan)
    occ = counts > 0
    sigma[occ] = sums[occ] / counts[occ]
    return EmpiricalVariogram(
        centers, sigma, counts, sigma0=_trace_variance(dataset), kind="covariogram",
    )


@dataclass(frozen=True)
class FitOptions:
    """Options for :func:`fit_model`.

    ``nugget`` is ``"zero"`` (frozen at 0, the default) or ``"free"``.
    ``weighting`` is ``"equal"`` (ordinary least squares, the default) or
    ``"counts"`` (bins weighted by pair count). The optimizer runs
    ``n_starts`` deterministic Nelder-Mead starts plus a polish pass.
    """

    nugget: str = "zero"
    weighting: str = "equal"
    n_starts: int = 5
    max_iter: int = 4000

    def __post_init__(self):
        if self.nugget not in ("zero", "free"):
            raise ValidationError("nugget must be 'zero' or 'free'")
        if self.weighting not in ("equal", "counts"):
            raise ValidationError("weighting must be 'equal' or 'counts'")
        if self.n_starts < 1:
            raise ValidationError("need at least one start")
        if self.max_iter < 1:
            raise ValidationError("max_iter must be positive")


@dataclass(frozen=True)
class FitResult:
    model: TraceCovModel
    sse: float
    warnings: tuple[str, ...] = ()


# Multiplicative offsets applied to the empirical (sill, range) seed; one
# pair per Nelder-Mead start.
_START_FACTORS = ((1.0, 1.0), (0.5, 0.5), (2.0, 2.0), (1.0, 0.25), (1.0, 4.0))


def _softplus(v: float) -> float:
    return float(np.logaddexp(0.0, v))


def _inv_softplus(y: float) -> float:
    return float(np.log(np.expm1(y))) if y < 30 else y


def _objective_factory(family, h, g, wts, free_nugget, la_lo, la_hi):
    def fun(theta):
        ls, la = theta[0], theta[1]
        penalty = 0.0
        if la < la_lo:
            penalty += (la_lo - la) ** 2
            la = la_lo
        elif la > la_hi:
            penalty += (la - la_hi) ** 2
            la = la_hi
        if ls < -60.0:
            penalty += (-60.0 - ls) ** 2
            ls = -60.0
        elif ls > 60.0:
            penalty += (ls - 60.0) ** 2
            ls = 60.0
        sill = math.exp(ls)
        rng = math.exp(la)
        nugget = _softplus(theta[2]) if free_nugget else 0.0
        u = h / rng
        if family == "exponential":
            cov = sill * np.exp(-u)
        elif family == "gaussian":
            cov = sill * np.exp(-(u**2))
        else:
            cov = np.where(u <= 1.0, sill * (1.0 - 1.5 * u + 0.5 * u**3), 0.0)
        resid = g - ((sill + nugget) - cov)
        return float(np.dot(wts * resid, resid)) + 1e6 * penalty

    return fun


def fit_model(
    ev: EmpiricalVariogram, family: str, opts: FitOptions | None = None
) -> FitResult:
    """Least-squares fit of a parametric family to an empirical variogram.

    Minimizes the (optionally pair-count weighted) sum of squared
    discrepancies between the empirical values and the model
    trace-variogram at the occupied bin centers, over sill > 0,
    range > 0 and nugget >= 0. Deterministic for given options: the
    multi-start seeds derive from the empirical sill and range. Returns
    the fitted model with the achieved objective value.

    Raises :class:`FitError` (carrying the best point found) if no start
    converges within the iteration budget.
    """
    if opts is None:
        opts = FitOptions()
    fam = str(family).lower()
    if fam not in FAMILIES:
        raise ValidationError(f"unknown family {family!r}; expected one of {FAMILIES}")
    occ = ev.occupied
    if int(np.count_nonzero(occ)) < 3:
        raise ValidationError("fitting needs at least 3 occupied bins")
    h = ev.centers[occ]
    g = ev.gamma[occ]
    counts = ev.counts[occ].astype(float)
    if np.any(h <= 0):
        raise ValidationError("bin centers must be positive for fitting")

    warnings: list[str] = []
    h_scale = float(np.max(h))
    g_scale = float(np.max(np.abs(g)))
    spread = float(np.max(g) - np.min(g))

    if g_scale == 0.0 or spread <= 1e-12 * g_scale:
        # Flat variogram: the range is unidentifiable, pin it and report
        # the mean level as the sill.
        warnings.append("flat empirical variogram: range pinned at lower bound")
        sill = max(float(np.mean(g)), np.finfo(float).tiny)
        rng = _RANGE_LOWER_REL * h_scale
        model = TraceCovModel(fam, sill, rng, 0.0)
        resid = g - model_trace_variogram(model, h)
        return FitResult(model, float(np.dot(resid, resid)), tuple(warnings))

    if opts.nugget == "free":
        # Fit both ways; keep the nugget only when freeing it improves the
        # fit by more than numerical noise relative to the data's total sum
        # of squares (softplus can approach but never reach zero).
        zero = fit_model(ev, fam, replace(opts, nugget="zero"))
        free = _fit_once(fam, h, g, counts, opts, h_scale, g_scale, True, warnings)
        tie_tol = 1e-9 * float(np.dot(g, g)) + 1e-300
        if zero.sse <= free.sse + tie_tol:
            return zero
        return free
    return _fit_once(fam, h, g, counts, opts, h_scale, g_scale, False, warnings)


def _fit_once(fam, h, g, counts, opts, h_scale, g_scale, free_nugget, warnings):
    # Optimize in normalized units (lags / h_scale, values / g_scale) so
    # the tiny sills of real trace-variograms stay well-conditioned.
    hn = h / h_scale
    gn = g / g_scale
    wts = counts / np.mean(counts) if opts.weighting == "counts" else np.ones_like(gn)

    la_lo = math.log(_RANGE_LOWER_REL)
    la_hi = math.log(_RANGE_UPPER_REL)
    fun = _objective_factory(fam, hn, gn, wts, free_nugget, la_lo, la_hi)

    tail = gn[-max(1, gn.size // 3):]
    sill0 = float(np.mean(tail))
    if sill0 <= 0:
        sill0 = max(float(np.max(gn)), 1e-6)
    reached = np.flatnonzero(gn >= 0.95 * sill0)
    range0 = float(hn[reached[0]]) if reached.size else float(hn[-1])
    range0 = min(max(range0, 2.0 * _RANGE_LOWER_REL), _RANGE_UPPER_REL / 2.0)

    nm_opts = {
        "xatol": 1e-10,
        "fatol": 1e-16,
        "maxiter": opts.max_iter,
        "maxfev": 2 * opts.max_iter,
    }

    best = None
    any_converged = False
    f_init = None
    for snum, (fs, fr) in enumerate(_START_FACTORS[: opts.n_starts]):
        x0 = [math.log(sill0 * fs), math.log(range0 * fr)]
        if free_nugget:
            x0.append(_inv_softplus(1e-3 * sill0))
        if snum == 0:
            f_init = fun(np.asarray(x0))
        res = minimize(fun, np.asarray(x0), method="Nelder-Mead", options=nm_opts)
        any_converged = any_converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    # Polish: restart the simplex from the best vertex.
    res = minimize(fun, best.x, method="Nelder-Mead", options=nm_opts)
    any_converged = any_converged or bool(res.success)
    if res.fun <= best.fun:
        best = res

    ls, la = float(best.x[0]), float(best.x[1])
    la = min(max(la, la_lo), la_hi)
    ls = min(max(ls, -60.0), 60.0)
    if la <= la_lo + 1e-9:
        warnings = warnings + ["range pinned at lower bound"]
    sill = g_scale * math.exp(ls)
    rng = h_scale * math.exp(la)
    nugget = g_scale * _softplus(float(best.x[2])) if free_nugget else 0.0
    model = TraceCovModel(fam, sill, rng, nugget)
    sse = float(best.fun) * g_scale**2

    if not any_converged:
        raise FitError(
            f"{fam} fit did not converge within {opts.max_iter} iterations "
            f"across {opts.n_starts} starts",
            best=model,
            sse=sse,
        )
    # Guard for the monotone-acceptance contract; Nelder-Mead never
    # accepts a point worse than its start, so this should not trigger.
    if f_init is not None and best.fun > f_init + 1e-12 * (1.0 + abs(f_init)):
        raise FitError("optimizer regressed past its initial guess", model, sse)
    return FitResult(model, sse, tuple(warnings))


def write_model_json(result: FitResult, path) -> None:
    """Write a fitted model as ``{family, sill, range, nugget, sse}``."""
    payload = result.model.to_dict(sse=result.sse)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_model_json(path) -> tuple[TraceCovModel, float]:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"input file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    model = TraceCovModel(raw["family"], raw["sill"], raw["range"], raw.get("nugget", 0.0))
    return model, float(raw.get("sse", float("nan")))
