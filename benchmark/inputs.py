"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy and never imports fess: the program under
test receives only the files and site lists built here, and the true
effective sample sizes the benchmark grades it against are computed from
the generating model, not by fess.

All three fields are separable Gaussian functional fields with an
exponential spatial correlation, ``curves = sum_k sqrt(w_k) xi_k(s)
phi_k(t)`` over an orthonormal Fourier basis on [0, 1]. Under that model
the functional ESS of ``n`` sites is ``n^2 / sum_ij rho(d_ij)``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

EARTH_RADIUS_KM = 6371.0088

# Stream tags keep the generators of different workloads and purposes
# apart when they share a workload seed.
_TAG_SURVEY = 1
_TAG_GODAS = 2
_TAG_ORACLE_REPLICATE = 3


def generator(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**32, tag]))


def fourier_basis(n_terms: int, t: np.ndarray) -> np.ndarray:
    """Constant plus paired sqrt(2) cos/sin terms, orthonormal on [0, 1]."""
    out = np.empty((n_terms, t.size))
    out[0] = 1.0
    for k in range(2, n_terms + 1):
        j = k // 2
        trig = np.cos if k % 2 == 0 else np.sin
        out[k - 1] = math.sqrt(2.0) * trig(2.0 * math.pi * j * t)
    return out


def planar_distances(xy: np.ndarray) -> np.ndarray:
    dx = xy[:, 0][:, None] - xy[:, 0][None, :]
    dy = xy[:, 1][:, None] - xy[:, 1][None, :]
    return np.hypot(dx, dy, out=dx)


def great_circle_distances(lon: np.ndarray, lat: np.ndarray) -> np.ndarray:
    lam = np.radians(lon)
    phi = np.radians(lat)
    dphi = phi[:, None] - phi[None, :]
    dlam = lam[:, None] - lam[None, :]
    a = np.sin(dphi / 2) ** 2 + np.cos(phi)[:, None] * np.cos(phi)[None, :] * np.sin(dlam / 2) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(a, 0.0, 1.0)))


def exponential_ess(corr: np.ndarray) -> float:
    """True functional ESS, ``n^2 / sum_ij rho_ij``, from the correlation matrix."""
    n = corr.shape[0]
    return n * n / float(np.sum(corr))


def exponential_corr(dist: np.ndarray, range_km: float) -> np.ndarray:
    return np.exp(np.multiply(dist, -1.0 / range_km, out=dist), out=dist)


def gaussian_field(
    corr: np.ndarray, weights: np.ndarray, t: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One field realisation for the correlation matrix ``corr``, n-by-len(t)."""
    try:
        factor = np.linalg.cholesky(corr)
    except np.linalg.LinAlgError:
        factor = np.linalg.cholesky(corr + 1e-10 * np.eye(corr.shape[0]))
    z = rng.standard_normal((corr.shape[0], weights.size))
    return ((factor @ z) * np.sqrt(weights)) @ fourier_basis(weights.size, t)


def write_wide_csv(path: Path, coord_names, coords: np.ndarray, labels, curves) -> None:
    """Wide CSV in the layout fess reads, every value written round-trip exact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(list(coord_names) + [repr(float(v)) for v in labels]) + "\n")
        for c, row in zip(coords.tolist(), curves.tolist()):
            fh.write(",".join(repr(v) for v in c + row) + "\n")


def survey_field(seed: int, n: int, path: Path) -> dict:
    """Planar ``x,y`` survey: n uniform sites in a box, 22 levels on [0, 1].

    The box side grows with sqrt(n) so that site density, and with it the
    share of pairs inside the correlation range, does not depend on n;
    n = 5000 gives a side of 3500 km.
    """
    rng = generator(seed, _TAG_SURVEY)
    side = 3500.0 * math.sqrt(n / 5000.0)
    range_km = 100.0
    xy = rng.uniform(0.0, side, size=(n, 2))
    t = np.linspace(0.0, 1.0, 22)
    corr = exponential_corr(planar_distances(xy), range_km)
    ess_true = exponential_ess(corr)
    curves = gaussian_field(corr, np.full(5, 0.2), t, rng)
    del corr
    write_wide_csv(path, ("x", "y"), xy, t, curves)
    return {"csv": str(path), "n": n, "levels": t.size, "ess_true": ess_true}


def godas_field(seed: int, path: Path) -> dict:
    """Geographic ``lon,lat`` field on the GODAS grid of the reference analysis.

    600 sites on the 1 deg x 1/3 deg grid of the 35-45N x 135-155W box,
    22 depth levels from 10 to 220 m, exponential range 100 km measured
    along great circles, and a trace sill of 1e-10 around a fixed mean
    profile, the scale of monthly-mean vertical velocities in m/s.
    """
    rng = generator(seed, _TAG_GODAS)
    lons = -154.5 + np.arange(20.0)
    lats = 35.0 + (np.arange(30.0) + 0.5) / 3.0
    lon, lat = (a.ravel() for a in np.meshgrid(lons, lats))
    depth = 10.0 * np.arange(1, 23)
    t = (depth - depth[0]) / (depth[-1] - depth[0])
    # trapezoid weights over depth integrate a unit-norm basis function
    # to the depth span, so the trace sill is span * sum(weights)
    sill = 1e-10
    weights = np.full(5, sill / (depth[-1] - depth[0]) / 5)
    corr = exponential_corr(great_circle_distances(lon, lat), 100.0)
    curves = gaussian_field(corr, weights, t, rng)
    curves += 2e-6 * np.sin(math.pi * t)
    write_wide_csv(path, ("lon", "lat"), np.column_stack([lon, lat]), depth, curves)
    return {"csv": str(path), "n": lon.size, "levels": depth.size}


def two_scale_sites() -> np.ndarray:
    """The fixed 400-site design: a 10x10 grid plus 40 km quadruples, 1000 km box."""
    g = np.linspace(40.0, 960.0, 10)
    xx, yy = np.meshgrid(g, g)
    centers = np.column_stack([xx.ravel(), yy.ravel()])
    offsets = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0], [40.0, 40.0]])
    return np.vstack([centers + o for o in offsets])


def oracle_design(seed: int) -> dict:
    """Sites and true ESS of the estimator-validation study.

    Field realisations are drawn by fess's own simulator, one per
    replicate, from a seed the benchmark derives from ``(seed, replicate)``.
    """
    xy = two_scale_sites()
    return {
        "xy": xy.tolist(),
        "n": xy.shape[0],
        "range_km": 100.0,
        "ess_true": exponential_ess(exponential_corr(planar_distances(xy), 100.0)),
        "seed": seed,
    }


def replicate_seed(seed: int, replicate: int) -> int:
    """Non-negative simulator seed for one oracle replicate."""
    state = np.random.SeedSequence([seed % 2**32, _TAG_ORACLE_REPLICATE, replicate])
    return int(state.generate_state(1)[0])
