"""Acceptance suite.

One test per acceptance criterion; each prints a ``[criterion NN] PASS``
line (run with ``pytest -s tests/test_acceptance.py`` to see them).
Criterion 9 reproduces the published ocean-velocity analysis and needs a
user-supplied data export (see README); it is skipped when the file is
absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from fess import (
    EvalGrid,
    Far1Spec,
    GaussFieldSpec,
    PlanarCoord,
    TraceCovModel,
    ess_functional,
    ess_plugin,
    far1_ess,
    far1_sweep,
    fidelity_metrics,
    gauss_field_simulate,
    load_wide_csv,
    mbd,
    pairwise_distances,
    subsample_experiment,
)
from fess.cli import main
from fess.rng import derived_rng
from fess.variogram import (
    EmpiricalVariogram,
    LagBins,
    fit_model,
    model_trace_variogram,
)

from conftest import make_dataset, random_dataset
from test_fboxplot import brute_force_mbd


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


UNIT_GRID = EvalGrid([0.0, 1.0])


def test_c01_harmonic_mean_identity():
    """Closed-form weighted harmonic mean equals the direct double sum."""
    start = time.perf_counter()
    rng = derived_rng(101)
    worst = 0.0
    for _ in range(500):
        k = int(rng.integers(1, 9))
        n = int(rng.integers(2, 201))
        lams = rng.uniform(0.0, 0.98, size=k)
        etas = rng.uniform(0.05, 2.0, size=k)
        spec = Far1Spec(lams, etas, UNIT_GRID)
        w = etas**2 / (1.0 - lams**2)
        sig = np.array([np.sum(lams**h * w) for h in range(n)])
        lagmat = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
        direct = n * n * sig[0] / np.sum(sig[lagmat])
        worst = max(worst, abs(far1_ess(spec, n) - direct) / direct)
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-10 and elapsed < 5.0,
        f"500 random specs, worst rel dev {worst:.2e} (<=1e-10), {elapsed:.2f}s (<5s)",
    )


def test_c02_bounds_and_limit_cases():
    """1 <= ess <= n for non-negative families; both limit cases."""
    rng = derived_rng(202)
    overshoot = 0.0
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 61))
        D = pairwise_distances(rng.uniform(0.0, 500.0, size=(n, 2)))
        fam = ("exponential", "spherical", "gaussian")[int(rng.integers(3))]
        nugget = float(rng.uniform(0.0, 2.0)) if rng.uniform() < 0.5 else 0.0
        m = TraceCovModel(
            fam, float(rng.uniform(0.1, 10.0)), float(rng.uniform(1.0, 300.0)), nugget
        )
        e = ess_functional(D, m).ess
        overshoot = max(overshoot, (1.0 - e), (e - n) / n)
        ok = ok and (1.0 - 1e-12 <= e <= n * (1.0 + 1e-12))

    xy = derived_rng(99).uniform(0.0, 100.0, size=(40, 2))
    pure = TraceCovModel("exponential", 1e-12, 50.0, nugget=1.0)
    dev_nugget = abs(ess_functional(pairwise_distances(xy), pure).ess - 40.0)

    xy10 = derived_rng(98).uniform(0.0, 10.0, size=(25, 2))
    const = TraceCovModel("spherical", 1.0, 1e9)
    dev_const = abs(ess_functional(pairwise_distances(xy10), const).ess - 1.0)

    ok = ok and dev_nugget <= 1e-6 and dev_const <= 1e-6
    report(
        2,
        ok,
        "1000 random (sites, model): bounds hold to float precision "
        f"(worst overshoot {max(overshoot, 0.0):.1e} rel); pure-nugget |ess-n|="
        f"{dev_nugget:.1e}, constant-cov |ess-1|={dev_const:.1e} (<=1e-6)",
    )


def test_c03_independent_site_recursion():
    """Appending a beyond-range site follows the exact ESS recursion."""
    rng = derived_rng(303)
    worst = 0.0
    increased = True
    for _ in range(200):
        n = int(rng.integers(3, 41))
        xy = rng.uniform(0.0, 200.0, size=(n, 2))
        alpha = float(rng.uniform(10.0, 100.0))
        m = TraceCovModel("spherical", float(rng.uniform(0.5, 5.0)), alpha)
        far = np.array([[xy[:, 0].max() + alpha + 300.0, xy[:, 1].max() + alpha + 300.0]])
        e_n = ess_functional(pairwise_distances(xy), m).ess
        e_n1 = ess_functional(pairwise_distances(np.vstack([xy, far])), m).ess
        lhs = 1.0 / e_n1
        rhs = (n * n / e_n + 1.0) / (n + 1) ** 2
        worst = max(worst, abs(lhs - rhs) / lhs)
        increased = increased and (e_n1 > e_n)
    report(
        3,
        worst <= 1e-12 and increased,
        f"200 random cases: recursion dev {worst:.2e} (<=1e-12), strict increase {increased}",
    )


def test_c04_autoregressive_sweep_shapes():
    """Monotone ESS over the decay-base grids plus the near-white-noise pin."""
    start = time.perf_counter()
    values = np.round(np.arange(0.05, 0.951, 0.05), 10)
    n_list = (30, 60, 120)

    dec_ok = True
    rows = far1_sweep("lambda0", values, n_list)
    for n in n_list:
        ess = [r.ess for r in rows if r.n == n]
        dec_ok = dec_ok and bool(np.all(np.diff(ess) < 0.0))

    inc_ok = True
    rows = far1_sweep("eta0", values, n_list)
    for n in n_list:
        ess = [r.ess for r in rows if r.n == n]
        inc_ok = inc_ok and bool(np.all(np.diff(ess) > 0.0))

    pin = far1_sweep("lambda0", [0.01], [120])[0].ess
    pin_ok = 118.8 <= pin <= 120.0
    elapsed = time.perf_counter() - start
    report(
        4,
        dec_ok and inc_ok and pin_ok and elapsed < 10.0,
        f"lambda0 sweep strictly decreasing {dec_ok}, eta0 strictly increasing {inc_ok}, "
        f"ess(lambda0=0.01, n=120)={pin:.4f} in [118.8, 120], {elapsed:.2f}s (<10s)",
    )


def _two_scale_sites():
    # 10x10 coverage of the box with 40 km quadruples for short-lag
    # resolution; 400 sites total
    g = np.linspace(40.0, 960.0, 10)
    xx, yy = np.meshgrid(g, g)
    centers = np.column_stack([xx.ravel(), yy.ravel()])
    offsets = np.array([[0.0, 0.0], [40.0, 0.0], [0.0, 40.0], [40.0, 40.0]])
    return np.vstack([centers + o for o in offsets])


def test_c05_pipeline_recovery_on_simulated_field():
    """Plug-in ESS tracks the true-model ESS on simulated fields.

    Population behavior (2000 replicates): median relative error 0.144
    with this design, close to the 0.15 bound; the fixed seeds below are
    representative.
    """
    start = time.perf_counter()
    grid = EvalGrid(np.linspace(0.0, 1.0, 22))
    model = TraceCovModel("exponential", 1.0, 100.0)
    spec = GaussFieldSpec(model, np.full(5, 0.2), grid)

    xy = _two_scale_sites()
    assert xy.shape == (400, 2)
    assert np.all((xy >= 0.0) & (xy <= 1000.0))
    locs = [PlanarCoord(float(x), float(y)) for x, y in xy]
    truth = ess_functional(pairwise_distances(xy), model).ess

    errs = []
    for rep in range(20):
        ds = gauss_field_simulate(spec, locs, seed=20240 + rep)
        est = ess_plugin(ds, "exponential").ess
        errs.append(abs(est - truth) / truth)
    med = float(np.median(errs))
    elapsed = time.perf_counter() - start
    report(
        5,
        med <= 0.15 and elapsed < 120.0,
        f"20 replicates (n=400, m=22, K=5, exponential range 100): median rel err "
        f"{med:.3f} (<=0.15) vs true-model ess {truth:.2f}, {elapsed:.1f}s (<2min)",
    )


def test_c06_estimator_sanity():
    """Independence limit and exact-model refits."""
    grid = EvalGrid(np.linspace(0.0, 1.0, 22))
    ess_values = []
    for rep in range(20):
        rng = derived_rng(606, rep)
        xy = rng.uniform(0.0, 500.0, size=(200, 2))
        ds = make_dataset(rng.standard_normal((200, 22)), xy=xy, grid=grid)
        ess_values.append(ess_plugin(ds, "exponential").ess)
    med = float(np.median(ess_values))
    iid_ok = abs(med - 200.0) <= 20.0

    refit_ok = True
    worst = 0.0
    bins = LagBins.equal_width(300.0, 15)
    for fam, sill, rng_km in (
        ("exponential", 1.0, 100.0),
        ("spherical", 2.5, 180.0),
        ("gaussian", 1.7e-10, 81.12),
    ):
        true_model = TraceCovModel(fam, sill, rng_km)
        gamma = model_trace_variogram(true_model, bins.centers)
        ev = EmpiricalVariogram(
            bins.centers, gamma, np.full(15, 20, dtype=int), sigma0=sill
        )
        res = fit_model(ev, fam)
        dev = max(
            abs(res.model.sill - sill) / sill,
            abs(res.model.range_km - rng_km) / rng_km,
        )
        worst = max(worst, dev)
        refit_ok = refit_ok and dev <= 1e-6
    report(
        6,
        iid_ok and refit_ok,
        f"iid noise median ess {med:.1f} (within 10% of 200); exact-model refits "
        f"worst rel dev {worst:.1e} (<=1e-6)",
    )


def test_c07_band_depth_oracle():
    """Rank-based depth equals brute-force pair enumeration exactly."""
    rng = derived_rng(707)
    exact = True
    for _ in range(100):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(2, 9))
        X = rng.standard_normal((n, m))
        if rng.uniform() < 0.3:
            X = np.round(X)  # force ties
        exact = exact and np.array_equal(mbd(make_dataset(X)), brute_force_mbd(X))
    three = np.vstack([np.zeros(5), np.ones(5), 2.0 * np.ones(5)])
    ordered_ok = np.array_equal(mbd(make_dataset(three)), [2.0 / 3.0, 1.0, 2.0 / 3.0])
    report(
        7,
        exact and ordered_ok,
        f"100 random datasets match brute force exactly: {exact}; "
        f"non-crossing 3-curve depths (2/3, 1, 2/3): {ordered_ok}",
    )


def test_c08_fidelity_identity():
    """Comparing a dataset against itself gives exact zeros, cip >= 0.5."""
    rng = derived_rng(808)
    ok = True
    min_cip = 1.0
    for _ in range(100):
        n = int(rng.integers(4, 30))
        m = int(rng.integers(2, 12))
        ds = random_dataset(rng, n, m)
        metrics = fidelity_metrics(ds, ds)
        ok = ok and metrics.md_l2 == 0.0 and metrics.md_sup == 0.0
        ok = ok and metrics.crd_mean == 0.0 and metrics.crd_sup == 0.0
        ok = ok and metrics.cip >= 0.5
        min_cip = min(min_cip, metrics.cip)
    report(8, ok, f"100 random datasets: all four discrepancies exactly 0, min cip {min_cip:.3f} (>=0.5)")


GODAS_ENV = "FESS_GODAS_CSV"


def test_c09_real_data_reproduction():
    """Best-effort reproduction of the published ocean-velocity analysis.

    Requires a locally exported wide CSV of the January-2024 vertical
    velocity field (600 sites, 22 levels); see README for the format.
    Binning choices in the original analysis are unreported, so this is
    documented as best-effort.
    """
    path = os.environ.get(GODAS_ENV)
    if not path or not Path(path).exists():
        pytest.skip(
            f"real-data export not provided (set {GODAS_ENV} to the wide CSV path)"
        )
    ds = load_wide_csv(path)
    expected_fits = {
        "exponential": (1.985e-10, 104.4),
        "spherical": (1.769e-10, 186.8),
        "gaussian": (1.719e-10, 81.12),
    }
    expected_ess = {"exponential": 41.92, "gaussian": 105.4, "spherical": 102.2}
    details = []
    ok = True
    for fam, (sill, rng_km) in expected_fits.items():
        rep = ess_plugin(ds, fam)
        fit_dev = max(
            abs(rep.model.sill - sill) / sill,
            abs(rep.model.range_km - rng_km) / rng_km,
        )
        ess_dev = abs(rep.ess - expected_ess[fam]) / expected_ess[fam]
        ok = ok and fit_dev <= 0.10 and ess_dev <= 0.10
        details.append(f"{fam}: fit dev {fit_dev:.2f}, ess {rep.ess:.1f}")
    exp = subsample_experiment(ds, size=106, reps=1000, seed=2024)
    cip_ok = abs(exp.means.cip - 0.513) <= 0.05
    band_ok = abs(exp.median_band_halfwidth - 2.11e-7) / 2.11e-7 <= 0.20
    ok = ok and cip_ok and band_ok
    details.append(
        f"avg cip {exp.means.cip:.3f} (0.513 +- 0.05), band halfwidth "
        f"{exp.median_band_halfwidth:.2e} (2.11e-7 +- 20%)"
    )
    report(9, ok, "; ".join(details))


def _run_cli_suite(base_dir: Path, data_csv: Path, threads: str) -> dict:
    out = {}
    runs = {
        "variogram": ["variogram", "--input", str(data_csv), "--threads", threads],
        "ess": ["ess", "--input", str(data_csv), "--threads", threads],
        "sweep": ["far1", "sweep", "--axis", "lambda0", "--threads", threads],
        "simulate": ["far1", "simulate", "--n", "25", "--seed", "5", "--threads", threads],
        "boxplot": [
            "boxplot", "--input", str(data_csv), "--size", "20", "--reps", "5",
            "--seed", "17", "--threads", threads,
        ],
        "subsample": [
            "subsample", "--input", str(data_csv), "--size", "20", "--reps", "5",
            "--seed", "17", "--threads", threads,
        ],
    }
    for name, args in runs.items():
        run_dir = base_dir / name
        rc = main(args + ["--out-dir", str(run_dir)])
        assert rc == 0, f"{name} exited {rc}"
        for f in sorted(run_dir.iterdir()):
            out[f"{name}/{f.name}"] = f.read_bytes()
    return out


def test_c10_seeded_commands_are_byte_identical(tmp_path, capsys):
    """Every command writes byte-identical output across reruns and thread caps."""
    rng = derived_rng(1010)
    lons = rng.uniform(-150.0, -140.0, size=50)
    lats = rng.uniform(36.0, 44.0, size=50)
    curves = np.cumsum(rng.standard_normal((50, 6)), axis=1)
    data_csv = tmp_path / "field.csv"
    header = ",".join(["lon", "lat"] + [str(10 * (i + 1)) for i in range(6)])
    lines = [header]
    for lon, lat, row in zip(lons, lats, curves):
        lines.append(",".join([f"{lon:.8f}", f"{lat:.8f}"] + [f"{v:.10f}" for v in row]))
    data_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")

    first = _run_cli_suite(tmp_path / "run1", data_csv, threads="1")
    second = _run_cli_suite(tmp_path / "run2", data_csv, threads="1")
    third = _run_cli_suite(tmp_path / "run8", data_csv, threads="8")
    with capsys.disabled():
        report(
            10,
            first == second == third and len(first) >= 12,
            f"{len(first)} output files byte-identical across reruns and "
            "--threads 1 vs 8",
        )
