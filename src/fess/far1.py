"""Functional AR(1) series and Gaussian functional fields.

A first-order functional autoregression with a compact self-adjoint
positive transfer operator diagonalizes along an orthonormal basis: each
coordinate process is a scalar AR(1) with coefficient ``lambda_k`` and
innovation scale ``eta_k``. Its trace-covariogram has the closed form

    cov_tr(h) = sum_k lambda_k^h * eta_k^2 / (1 - lambda_k^2)

which makes the exact functional ESS available as a weighted harmonic
mean of per-coordinate scalar ESS values. These closed forms serve as
oracles for the estimation pipeline, alongside a separable Gaussian
random-field simulator whose true trace-covariogram is a rescaled
parametric model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .dataset import (
    EvalGrid,
    SpatialFunctionalDataset,
    _as_xy,
    _frozen_array,
    _non_negative_int,
    _positive_int,
    _site_record,
    pairwise_distances,
)
from .errors import EstimationError, ValidationError
from .rng import derived_rng
from .variogram import TraceCovModel, model_trace_cov

BASES = ("fourier", "cosine")

# Sweep truncation: stop adding eigen-directions once the next stationary
# weight falls below this fraction of the running weight sum.
_SWEEP_TAIL_REL = 1e-12
_SWEEP_MAX_TERMS = 200


def basis_matrix(name: str, n_terms: int, points: np.ndarray) -> np.ndarray:
    """Evaluate the first ``n_terms`` basis functions on ``points``.

    Both systems are orthonormal in L2([0, 1]): ``fourier`` is the
    constant plus paired cosines/sines, ``cosine`` the constant plus
    half-period cosines.
    """
    if name not in BASES:
        raise ValidationError(f"unknown basis {name!r}; expected one of {BASES}")
    n_terms = _positive_int(n_terms, "n_terms")
    t = np.asarray(points, dtype=float)
    out = np.empty((n_terms, t.size))
    out[0] = 1.0
    if name == "fourier":
        for k in range(2, n_terms + 1):
            if k % 2 == 0:
                j = k // 2
                out[k - 1] = math.sqrt(2.0) * np.cos(2.0 * math.pi * j * t)
            else:
                j = (k - 1) // 2
                out[k - 1] = math.sqrt(2.0) * np.sin(2.0 * math.pi * j * t)
    else:
        for k in range(2, n_terms + 1):
            out[k - 1] = math.sqrt(2.0) * np.cos((k - 1) * math.pi * t)
    return out


def _check_unit_grid(grid: EvalGrid) -> None:
    if grid.points[0] < 0.0 or grid.points[-1] > 1.0:
        raise ValidationError("grid must lie within [0, 1], the basis domain")


@dataclass(frozen=True, eq=False)
class Far1Spec:
    """Truncated functional AR(1) specification.

    ``lambdas`` are the operator eigenvalues (each in [0, 1) for
    stationarity), ``etas`` the innovation scales per eigen-direction,
    and ``grid`` the evaluation grid on [0, 1]. The truncation level is
    the common length of the sequences.
    """

    lambdas: np.ndarray
    etas: np.ndarray
    grid: EvalGrid
    basis: str = "fourier"

    def __post_init__(self):
        lams = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        etas = np.atleast_1d(np.asarray(self.etas, dtype=float))
        if lams.ndim != 1 or lams.size < 1 or lams.shape != etas.shape:
            raise ValidationError("lambdas and etas must be equal-length, length >= 1")
        if not np.all(np.isfinite(lams)) or not np.all(np.isfinite(etas)):
            raise ValidationError("lambdas and etas must be finite")
        if np.any(lams < 0) or np.any(lams >= 1):
            raise ValidationError("eigenvalues must lie in [0, 1) for stationarity")
        if np.any(etas < 0):
            raise ValidationError("noise scales must be non-negative")
        if self.basis not in BASES:
            raise ValidationError(f"unknown basis {self.basis!r}")
        _check_unit_grid(self.grid)
        object.__setattr__(self, "lambdas", _frozen_array(lams))
        object.__setattr__(self, "etas", _frozen_array(etas))

    @property
    def n_terms(self) -> int:
        return self.lambdas.size

    @property
    def stationary_weights(self) -> np.ndarray:
        """Stationary variance per coordinate: eta^2 / (1 - lambda^2)."""
        return self.etas**2 / (1.0 - self.lambdas**2)


def far1_trace_cov(spec: Far1Spec, h: int) -> float:
    """Exact trace-covariogram of the process at integer lag ``h >= 0``."""
    h = _non_negative_int(h, "lag")
    return float(np.sum(spec.lambdas**h * spec.stationary_weights))


def _corr_mass(lam: float, n: int) -> float:
    """Double sum of lambda^|i-j| over an n-point path.

    Evaluated as the collapsed single sum over lags: a sum of positive
    terms, stable even as lambda approaches 1 (the classical closed form
    cancels catastrophically there).
    """
    d = np.arange(1, n)
    return float(n + 2.0 * np.dot(n - d, lam**d))


def marginal_ess(lam: float, n: int) -> float:
    """Scalar AR(1) effective sample size of one coordinate process."""
    if not 0.0 <= lam < 1.0:
        raise ValidationError("autoregressive coefficient must lie in [0, 1)")
    n = _positive_int(n, "n")
    return n * n / _corr_mass(lam, n)


def _harmonic_ess(lambdas: np.ndarray, weights: np.ndarray, n: int) -> float:
    total = float(np.sum(weights))
    if not total > 0:
        raise ValidationError("at least one noise scale must be positive")
    probs = weights / total
    inv = np.array([_corr_mass(float(l), n) / (n * n) for l in lambdas])
    return 1.0 / float(np.dot(probs, inv))


def far1_ess(spec: Far1Spec, n: int) -> float:
    """Exact functional ESS of ``n`` consecutive observations.

    Weighted harmonic mean of the per-coordinate scalar ESS values, with
    weights proportional to the stationary coordinate variances; agrees
    with the direct double-sum evaluation of the defining ratio.
    """
    return _harmonic_ess(spec.lambdas, spec.stationary_weights, _positive_int(n, "n"))


def far1_simulate(spec: Far1Spec, n: int, seed: int) -> SpatialFunctionalDataset:
    """Simulate a stationary path of ``n`` curves.

    Coordinates start from their stationary law (no burn-in) and follow
    the scalar AR(1) recursions; curves are assembled on the grid from
    the chosen basis. Locations are placed at (1, 0), (2, 0), ... so the
    inter-observation distance equals the time lag. Deterministic per
    seed.
    """
    n = _positive_int(n, "n")
    rng = derived_rng(seed)
    k = spec.n_terms
    z = rng.standard_normal((k, n))
    coords = np.empty((k, n))
    coords[:, 0] = np.sqrt(spec.stationary_weights) * z[:, 0]
    for i in range(1, n):
        coords[:, i] = spec.lambdas * coords[:, i - 1] + spec.etas * z[:, i]
    curves = coords.T @ basis_matrix(spec.basis, k, spec.grid.points)
    xy = np.column_stack([np.arange(1.0, n + 1.0), np.zeros(n)])
    return SpatialFunctionalDataset(spec.grid, xy, curves)


class SweepPoint(NamedTuple):
    axis_value: float
    n: int
    ess: float


def far1_sweep(
    axis: str,
    values: Sequence[float],
    n_list: Sequence[int],
    fixed: float = 0.5,
) -> list[SweepPoint]:
    """Exact ESS over a grid of decay bases, for several sample sizes.

    ``axis="lambda0"`` sweeps the eigenvalue base with ``lambda_k =
    value^k`` and noise variances held at ``eta_k^2 = fixed^k``;
    ``axis="eta0"`` sweeps the noise-variance base with ``eta_k^2 =
    value^k`` and ``lambda_k = fixed^k``. The truncation level grows
    until the next stationary weight is negligible (relative tail below
    1e-12), capped at 200 terms.
    """
    if axis not in ("lambda0", "eta0"):
        raise ValidationError("axis must be 'lambda0' or 'eta0'")
    vals = [float(v) for v in values]
    if not vals or any(not 0.0 < v < 1.0 for v in vals):
        raise ValidationError("sweep values must lie in the open interval (0, 1)")
    if not 0.0 < fixed < 1.0:
        raise ValidationError("fixed decay base must lie in (0, 1)")
    ns = [_positive_int(n, "n") for n in n_list]
    if not ns:
        raise ValidationError("need at least one sample size")

    out: list[SweepPoint] = []
    for v in vals:
        lam_base = v if axis == "lambda0" else fixed
        var_base = fixed if axis == "lambda0" else v
        lams: list[float] = []
        weights: list[float] = []
        total = 0.0
        for k in range(1, _SWEEP_MAX_TERMS + 1):
            lam = lam_base**k
            w = var_base**k / (1.0 - lam * lam)
            if k > 1 and w < _SWEEP_TAIL_REL * total:
                break
            lams.append(lam)
            weights.append(w)
            total += w
        lam_arr = np.array(lams)
        w_arr = np.array(weights)
        for n in ns:
            out.append(SweepPoint(v, n, _harmonic_ess(lam_arr, w_arr, n)))
    return out


@dataclass(frozen=True, eq=False)
class GaussFieldSpec:
    """Separable Gaussian functional random field.

    Curves are ``sum_k sqrt(weights[k]) * xi_k(s) * phi_k(t)`` with
    independent unit-variance Gaussian fields ``xi_k`` sharing the
    spatial correlation of ``model``. The trace-covariogram of the
    output is the model's correlation scaled to a sill of
    ``sum(weights)``.
    """

    model: TraceCovModel
    weights: np.ndarray
    grid: EvalGrid
    basis: str = "fourier"

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.ndim != 1 or w.size < 1 or not np.all(np.isfinite(w)):
            raise ValidationError("weights must be a finite 1-d sequence")
        if np.any(w < 0) or not np.sum(w) > 0:
            raise ValidationError("weights must be non-negative with positive sum")
        if self.basis not in BASES:
            raise ValidationError(f"unknown basis {self.basis!r}")
        _check_unit_grid(self.grid)
        object.__setattr__(self, "weights", _frozen_array(w))


def gauss_field_simulate(
    spec: GaussFieldSpec, locs, seed: int
) -> SpatialFunctionalDataset:
    """Simulate one realization of the field at the given locations.

    The spatial correlation matrix is factorized densely (Cholesky); a
    1e-10 diagonal jitter is added once if the matrix is numerically
    singular, and failure after that raises. ``locs`` is an ``(n, 2)``
    array or a sequence of :class:`PlanarCoord`.

    The factor depends only on ``spec.model`` and the sites, not on the
    seed, so it is kept under ``"factor"`` in the sites'
    :func:`fess.dataset._site_record`'s ``kept``, keyed by the model, and
    reused while calls pass an equal model and bitwise-equal sites in the
    same order: a repeated call costs one normal draw and one matrix
    product, and its curves are the ones a fresh factorization gives. The
    kept factor (n x n floats: 1.3 MB at n = 400, 200 MB at n = 5000)
    lives as long as the site record, until a call at other sites, to
    this or any other stage, drops it, or a call with another model
    replaces it. A failed factorization is not kept.
    """
    xy = _as_xy(locs)
    kept = _site_record(xy.tobytes()).kept
    model, factor = kept.get("factor", (None, None))
    if model != spec.model:
        factor = _correlation_factor(spec.model, xy)
        kept["factor"] = (spec.model, factor)
    rng = derived_rng(seed)
    k = spec.weights.size
    z = rng.standard_normal((factor.shape[0], k))
    fields = factor @ z
    curves = (fields * np.sqrt(spec.weights)) @ basis_matrix(
        spec.basis, k, spec.grid.points
    )
    return SpatialFunctionalDataset(spec.grid, xy, curves)


def _correlation_factor(model: TraceCovModel, xy: np.ndarray) -> np.ndarray:
    """Read-only lower Cholesky factor of the correlation of the sites
    ``xy`` under ``model``."""
    corr = model_trace_cov(model, pairwise_distances(xy))
    corr /= model.sill + model.nugget
    try:
        factor = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        corr[np.diag_indices_from(corr)] += 1e-10
        try:
            factor = np.linalg.cholesky(corr)
        except np.linalg.LinAlgError:
            raise EstimationError(
                "correlation matrix is not positive definite, even after jitter"
            ) from None
    factor.flags.writeable = False
    return factor
