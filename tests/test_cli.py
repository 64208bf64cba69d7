import argparse
import importlib.util
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fess
import fess.cli
import fess.dataset
import fess.ess
import fess.fboxplot
import fess.variogram
from fess import (
    EmpiricalVariogram,
    default_lag_bins,
    empirical_trace_variogram,
    ess_plugin,
    fit_model,
    load_wide_csv,
    write_wide_csv,
)
from fess.cli import build_parser, main
from fess.rng import derived_rng

from conftest import repeated_lattice_dataset


@pytest.fixture
def dataset_csv(tmp_path):
    """Geographic wide CSV with spatially correlated curves."""
    rng = derived_rng(71)
    lons = rng.uniform(-150.0, -140.0, size=60)
    lats = rng.uniform(36.0, 44.0, size=60)
    levels = [f"{10 * (i + 1)}" for i in range(8)]
    base = rng.standard_normal(8)
    rows = []
    for lon, lat in zip(lons, lats):
        curve = base * np.sin(lon / 3.0 + lat) + 0.2 * rng.standard_normal(8)
        rows.append([f"{lon:.6f}", f"{lat:.6f}"] + [f"{v:.8f}" for v in curve])
    path = tmp_path / "field.csv"
    lines = [",".join(["lon", "lat"] + levels)]
    lines += [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def constant_csv(tmp_path):
    """Geographic wide CSV whose curves are all the same."""
    rng = derived_rng(72)
    lines = ["lon,lat,10,20,30"]
    for lon, lat in zip(rng.uniform(-150.0, -140.0, 20), rng.uniform(36.0, 44.0, 20)):
        lines.append(f"{lon:.6f},{lat:.6f},1.5,-0.5,2.0")
    path = tmp_path / "constant.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def iid_csv(tmp_path):
    """Geographic wide CSV of independent curves whose fits pin the range
    at --bins 40."""
    rng = derived_rng(75)
    lines = ["lon,lat,10,20,30,40,50,60"]
    for lon, lat in zip(rng.uniform(-150.0, -140.0, 45), rng.uniform(36.0, 44.0, 45)):
        values = [f"{v:.8f}" for v in rng.standard_normal(6)]
        lines.append(",".join([f"{lon:.6f}", f"{lat:.6f}"] + values))
    path = tmp_path / "iid.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def duplicated_csv(tmp_path):
    """The duplicated-sites input of ``tools/cli_manifest.py``."""
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_manifest.py"
    spec = importlib.util.spec_from_file_location("cli_manifest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    csv_path = tmp_path / "duplicated.csv"
    tool.write_field_csv(csv_path, seed=2020, n=45, repeat_shift=0.0)
    return csv_path


def last_bit_variants(ev):
    """``ev`` and its copies with every value one float up and one down."""
    return [ev] + [
        EmpiricalVariogram(ev.centers, np.nextafter(ev.gamma, to), ev.counts, ev.sigma0)
        for to in (np.inf, -np.inf)
    ]


def read_bytes(path):
    return path.read_bytes()


class TestVariogramCommand:
    def test_writes_all_outputs(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(
            ["variogram", "--input", str(dataset_csv), "--out-dir", str(out)]
        )
        assert rc == 0
        assert (out / "empirical_variogram.csv").exists()
        for fam in ("exponential", "spherical", "gaussian"):
            assert (out / f"model_{fam}.json").exists()
            assert (out / f"model_curve_{fam}.csv").exists()
        payload = json.loads((out / "model_exponential.json").read_text())
        assert set(payload) == {"family", "sill", "range", "nugget", "sse"}

    def test_single_family_flag(self, dataset_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["variogram", "--input", str(dataset_csv), "--out-dir", str(out),
             "--family", "gaussian"]
        )
        assert rc == 0
        assert (out / "model_gaussian.json").exists()
        assert not (out / "model_exponential.json").exists()

    def test_missing_input_exits_2(self, tmp_path, capsys):
        rc = main(
            ["variogram", "--input", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_exact_model_curve_interpolates_empirical(self, tmp_path):
        # synthetic record generated exactly from a model: the dense fitted
        # curve must pass through the empirical points
        from fess import LagBins, TraceCovModel, model_trace_variogram

        bins = LagBins.equal_width(200.0, 15)
        model = TraceCovModel("exponential", 2.0, 60.0)
        gamma = model_trace_variogram(model, bins.centers)
        emp = tmp_path / "emp.csv"
        with open(emp, "w") as fh:
            fh.write("h,gamma,count\n")
            for h, g in zip(bins.centers, gamma):
                fh.write(f"{h:.17g},{g:.17g},10\n")
        out = tmp_path / "fit"
        rc = main(["fit", "--input", str(emp), "--out-dir", str(out),
                   "--family", "exponential"])
        assert rc == 0
        curve = np.loadtxt(out / "model_curve_exponential.csv", delimiter=",", skiprows=1)
        interp = np.interp(bins.centers, curve[:, 0], curve[:, 1])
        fitted = json.loads((out / "model_exponential.json").read_text())
        refit = TraceCovModel("exponential", fitted["sill"], fitted["range"])
        assert np.allclose(model_trace_variogram(refit, bins.centers), gamma, rtol=1e-6)
        assert np.allclose(interp, gamma, rtol=1e-6)


    def test_fit_logs_fit_warnings(self, tmp_path, caplog):
        emp = tmp_path / "flat.csv"
        emp.write_text("h,gamma,count\n10,2,8\n20,2,8\n30,2,8\n40,2,8\n")
        with caplog.at_level(logging.WARNING, logger="fess"):
            rc = main(["fit", "--input", str(emp), "--out-dir", str(tmp_path / "fit"),
                       "--family", "spherical"])
        assert rc == 0
        assert "spherical: flat empirical variogram: range pinned at lower bound" in caplog.text

    def test_fit_leaves_a_lag_zero_row_out(self, tmp_path, caplog):
        emp = tmp_path / "emp.csv"
        emp.write_text("h,gamma,count\n0,0.4,3\n10,1,8\n20,2,8\n30,2.5,8\n")
        with caplog.at_level(logging.WARNING, logger="fess"):
            rc = main(["fit", "--input", str(emp), "--out-dir", str(tmp_path / "fit"),
                       "--family", "exponential"])
        assert rc == 0
        assert "exponential: 3 coincident pairs at lag 0 left out of the fit" in caplog.text
        assert (tmp_path / "fit" / "model_exponential.json").is_file()

    def test_fit_zero_variogram_exits_1(self, tmp_path, capsys):
        emp = tmp_path / "zero.csv"
        emp.write_text("h,gamma,count\n10,0,8\n20,0,8\n30,0,8\n")
        rc = main(["fit", "--input", str(emp), "--out-dir", str(tmp_path / "fit")])
        assert rc == 1
        assert "computation failed" in capsys.readouterr().err

    def test_fit_takes_no_schema(self, tmp_path, capsys):
        emp = tmp_path / "flat.csv"
        emp.write_text("h,gamma,count\n10,2,8\n20,2,8\n30,2,8\n")
        rc = main(["fit", "--input", str(emp), "--out-dir", str(tmp_path / "fit"),
                   "--schema", str(tmp_path / "schema.json")])
        assert rc == 2
        assert "--schema" in capsys.readouterr().err


class TestEssCommand:
    def test_report_written_and_printed(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["ess", "--input", str(dataset_csv), "--out-dir", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "ess=" in text
        payload = json.loads((out / "ess_exponential.json").read_text())
        assert payload["n"] == 60
        assert 1.0 <= payload["ess"] <= 60.0
        assert payload["recommended_subsample"] == int(np.ceil(payload["ess"]))

    def test_bad_family_exits_2(self, dataset_csv, tmp_path, capsys):
        rc = main(["ess", "--input", str(dataset_csv), "--family", "matern"])
        assert rc == 2

    def test_estimation_failure_exits_1(self, tmp_path, capsys):
        # two sites: the half-max-distance default binning excludes the
        # only pair, so estimation fails (computation error, not usage)
        path = tmp_path / "two.csv"
        path.write_text(
            "lon,lat,10,20\n-145.0,40.0,1.0,2.0\n-144.0,40.0,2.0,1.0\n",
            encoding="utf-8",
        )
        rc = main(["ess", "--input", str(path)])
        assert rc == 1
        assert "computation failed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ess", "variogram"])
    def test_identical_curves_exit_1(self, command, constant_csv, tmp_path, capsys):
        rc = main([command, "--input", str(constant_csv), "--out-dir", str(tmp_path / "o")])
        assert rc == 1
        assert "computation failed" in capsys.readouterr().err

    def test_fit_warnings_logged(self, iid_csv, caplog, capsys):
        fams = ("exponential", "spherical", "gaussian")
        argv = ["ess", "--input", str(iid_csv), "--bins", "40"]
        for fam in fams:
            argv += ["--family", fam]
        with caplog.at_level(logging.WARNING, logger="fess"):
            rc = main(argv)
        assert rc == 0
        assert "ess=45 " in capsys.readouterr().out
        for fam in fams:
            assert f"{fam}: range pinned at lower bound" in caplog.text

    def test_fit_ties_ignore_last_bit_changes(self, iid_csv):
        # the grid misfits of these fits tie to rounding: a last-bit change
        # in the variogram must not move the range off the lower bound
        ds = load_wide_csv(iid_csv)
        ev = empirical_trace_variogram(ds, default_lag_bins(ds, 40))
        for fam in ("exponential", "spherical", "gaussian"):
            fits = [fit_model(variant, fam) for variant in last_bit_variants(ev)]
            assert fits[0].warnings == ("range pinned at lower bound",)
            for fit in fits[1:]:
                assert fit.model.range_km == fits[0].model.range_km
                assert fit.warnings == fits[0].warnings

    def test_free_nugget_refinement_converges_at_rounding_level(
        self, duplicated_csv, tmp_path
    ):
        # the exponential refinement here once spent its whole budget on a
        # collapsed simplex whose misfits differed by rounding noise
        ds = load_wide_csv(duplicated_csv)
        ev = empirical_trace_variogram(ds, default_lag_bins(ds))
        for variant in last_bit_variants(ev):
            for fam in ("exponential", "spherical", "gaussian"):
                fit_model(variant, fam, "free")
        out = tmp_path / "out"
        assert main(["ess", "--input", str(duplicated_csv), "--nugget", "free",
                     "--out-dir", str(out)]) == 0
        assert main(["variogram", "--input", str(duplicated_csv), "--out-dir", str(out)]) == 0
        assert main(["fit", "--input", str(out / "empirical_variogram.csv"),
                     "--nugget", "free", "--out-dir", str(out / "fit")]) == 0

    def test_families_match_ess_plugin_bytes(self, dataset_csv, tmp_path):
        out = tmp_path / "out"
        fams = ("exponential", "spherical", "gaussian")
        argv = ["ess", "--input", str(dataset_csv), "--out-dir", str(out),
                "--bins", "7", "--nugget", "free"]
        for fam in fams:
            argv += ["--family", fam]
        assert main(argv) == 0
        ds = load_wide_csv(dataset_csv)
        bins = default_lag_bins(ds, 7)
        for fam in fams:
            ref = tmp_path / f"ref_{fam}.json"
            ess_plugin(ds, fam, bins=bins, nugget="free").to_json(ref)
            assert read_bytes(out / f"ess_{fam}.json") == read_bytes(ref)

    def test_one_variogram_per_run(self, dataset_csv, monkeypatch):
        calls = []
        estimate = fess.variogram.empirical_trace_variogram

        def counted(*args, **kwargs):
            calls.append(1)
            return estimate(*args, **kwargs)

        # patch every module that binds the estimator, so no call path escapes
        for module in (fess, fess.variogram, fess.ess, fess.cli):
            monkeypatch.setattr(module, "empirical_trace_variogram", counted)
        rc = main(["ess", "--input", str(dataset_csv), "--family", "exponential",
                   "--family", "spherical", "--family", "gaussian"])
        assert rc == 0
        assert len(calls) == 1

    def test_pair_passes_per_run(self, dataset_csv, tmp_path, monkeypatch):
        passes = []
        pair_map = fess.dataset._pair_map

        def counted(*args, **kwargs):
            passes.append(1)
            return pair_map(*args, **kwargs)

        # every module that binds the block map, so no pass escapes
        for module in (fess.dataset, fess.variogram, fess.ess):
            monkeypatch.setattr(module, "_pair_map", counted)
        # the empirical variogram and one ESS sum for all families; the
        # default bins take the largest distance from the convex hull
        rc = main(["ess", "--input", str(dataset_csv), "--family", "exponential",
                   "--family", "spherical", "--family", "gaussian"])
        assert rc == 0 and len(passes) == 2
        passes.clear()
        ess_plugin(load_wide_csv(dataset_csv), "spherical")
        assert len(passes) == 2
        passes.clear()
        rc = main(["variogram", "--input", str(dataset_csv),
                   "--out-dir", str(tmp_path / "v")])
        assert rc == 0 and len(passes) == 1

    def test_bins_flag_changes_binning(self, dataset_csv, tmp_path):
        out = tmp_path / "bins"
        rc = main(
            ["variogram", "--input", str(dataset_csv), "--out-dir", str(out),
             "--bins", "7", "--family", "exponential"]
        )
        assert rc == 0
        rows = (out / "empirical_variogram.csv").read_text().strip().splitlines()
        assert len(rows) == 8  # header + 7 bins


@pytest.mark.parametrize("command", ["variogram", "ess"])
def test_coincident_sites_alone_in_the_first_bin_exit_0(command, tmp_path, caplog, capsys):
    data = tmp_path / "lattice.csv"
    write_wide_csv(repeated_lattice_dataset(seed=90), data)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="fess"):
        rc = main([command, "--input", str(data), "--out-dir", str(out)])
    assert rc == 0
    assert "exponential: 10 coincident pairs at lag 0 left out of the fit" in caplog.text
    if command == "ess":
        assert json.loads((out / "ess_exponential.json").read_text())["ess"] > 0
    else:
        assert (out / "model_exponential.json").is_file()


class TestMalformedInput:
    @pytest.mark.parametrize(
        "bad_row",
        ["20,2", "20,x,8", ",2,8", "nan,2,8", "inf,2,8", "20,inf,8", "20,2,-1",
         "20,2,8.5", "20,2,1e30"],
    )
    def test_variogram_csv_names_row(self, bad_row, tmp_path, capsys):
        emp = tmp_path / "emp.csv"
        emp.write_text(f"h,gamma,count\n10,1,8\n{bad_row}\n30,3,8\n40,4,8\n")
        rc = main(["fit", "--input", str(emp), "--out-dir", str(tmp_path / "fit")])
        assert rc == 2
        assert "row 2" in capsys.readouterr().err

    def test_variogram_csv_keeps_empty_bins(self, tmp_path):
        # to_csv writes an empty bin as gamma = nan with count 0
        emp = tmp_path / "emp.csv"
        emp.write_text("h,gamma,count\n10,1,8\n20,nan,0\n30,3,8\n40,4,8\n")
        rc = main(["fit", "--input", str(emp), "--out-dir", str(tmp_path / "fit")])
        assert rc == 0

    @pytest.mark.parametrize(
        "text",
        ['{"lon0": ', "[1, 2]", '"lon"', '{"value_columns": 5}',
         '{"value_columns": [10, 20]}', '{"lon0": "abc"}', '{"lon0": true}',
         '{"lon_column": 3}', '{"planar": "no"}', '{"center_levels": 1}'],
    )
    def test_schema_names_file(self, text, dataset_csv, tmp_path, capsys):
        schema = tmp_path / "bad_schema.json"
        schema.write_text(text)
        rc = main(["ess", "--input", str(dataset_csv), "--schema", str(schema)])
        assert rc == 2
        assert "bad_schema.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "schema,header,cells",
        [
            (None, "lon,lat,10,20", ["1.0", "2.0"]),
            # the unused 'note' column holds text
            ({"value_columns": ["10", "20"]}, "lon,lat,10,note,20", ["1.0", "calm", "2.0"]),
        ],
        ids=["default", "subset"],
    )
    @pytest.mark.parametrize("change", [-1, 1, "every row"], ids=["short", "long", "all-long"])
    def test_data_csv_row_length_exits_2(self, schema, header, cells, change, tmp_path, capsys):
        width = len(header.split(","))
        rows = [[f"{-150 + k}", f"{36 + k}"] + cells for k in range(6)]
        for r, row in enumerate(rows, start=1):
            if change == "every row" or r == 3:
                row[:] = row[:change] if change == -1 else row + ["7.0"]
        data = tmp_path / "rows.csv"
        data.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
        argv = ["ess", "--input", str(data)]
        if schema is not None:
            (tmp_path / "schema.json").write_text(json.dumps(schema))
            argv += ["--schema", str(tmp_path / "schema.json")]
        assert main(argv) == 2
        r, found = (1, width + 1) if change == "every row" else (3, width + change)
        assert f"row {r}: expected {width} cells, found {found}" in capsys.readouterr().err

    def test_cell_over_the_csv_field_limit_exits_2(self, tmp_path, capsys):
        # csv.reader refuses cells over 131072 characters
        note = "x" * 200_000
        emp = tmp_path / "long_emp.csv"
        emp.write_text(f"h,gamma,count\n10,1,8\n20,{note},8\n")
        assert main(["fit", "--input", str(emp), "--out-dir", str(tmp_path / "fit")]) == 2
        assert "long_emp.csv: field larger than field limit" in capsys.readouterr().err
        # the loader reads such a cell where the schema leaves it unread, but
        # its diagnostic scan of a bad file meets csv.reader's limit
        (tmp_path / "schema.json").write_text('{"value_columns": ["10", "20"]}')
        data = tmp_path / "long_note.csv"
        data.write_text(f"lon,lat,10,20,note\n-145,40,1.0,x,{note}\n-144,41,3.0,4.0,a\n")
        argv = ["ess", "--input", str(data), "--schema", str(tmp_path / "schema.json")]
        assert main(argv) == 2
        assert "long_note.csv: field larger than field limit" in capsys.readouterr().err

    def test_non_utf8_data_csv_names_file(self, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"lon,lat,10,20\n-150,40,1.0,\xff\n-149,41,2.0,3.0\n")
        rc = main(["ess", "--input", str(data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "latin1.csv" in err and "UTF-8" in err

    def test_non_utf8_variogram_csv_names_file(self, tmp_path, capsys):
        emp = tmp_path / "latin1_emp.csv"
        emp.write_bytes(b"h,gamma,count\n10,1,8\n20,\xff,8\n30,3,8\n")
        rc = main(["fit", "--input", str(emp), "--out-dir", str(tmp_path / "fit")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "latin1_emp.csv" in err and "UTF-8" in err


class TestFar1Commands:
    def test_sweep_monotone_columns(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["far1", "sweep", "--axis", "lambda0", "--out-dir", str(out)])
        assert rc == 0
        rows = np.loadtxt(out / "far1_sweep_lambda0.csv", delimiter=",", skiprows=1)
        for n in (30, 60, 120):
            ess = rows[rows[:, 1] == n][:, 2]
            assert np.all(np.diff(ess) < 0)
        rc = main(["far1", "sweep", "--axis", "eta0", "--out-dir", str(out)])
        rows = np.loadtxt(out / "far1_sweep_eta0.csv", delimiter=",", skiprows=1)
        for n in (30, 60, 120):
            ess = rows[rows[:, 1] == n][:, 2]
            assert np.all(np.diff(ess) > 0)

    @pytest.mark.parametrize(
        "option,value,entry",
        [("--values", "0.2,abc,0.4", "'abc'"), ("--n-list", "3,x", "'x'"),
         ("--n-list", "30,1.5", "'1.5'")],
    )
    def test_sweep_bad_entry_exits_2(self, option, value, entry, tmp_path, capsys):
        rc = main(["far1", "sweep", "--axis", "eta0", option, value,
                   "--out-dir", str(tmp_path / "sweep")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"argument {option}: invalid entry {entry}" in err
        assert not (tmp_path / "sweep").exists()

    def test_simulate_deterministic_file(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["far1", "simulate", "--n", "15", "--seed", "7"]
        assert main(args + ["--out-dir", str(out_a)]) == 0
        assert main(args + ["--out-dir", str(out_b)]) == 0
        assert read_bytes(out_a / "far1_dataset.csv") == read_bytes(out_b / "far1_dataset.csv")

    def test_simulate_requires_seed(self, tmp_path):
        rc = main(["far1", "simulate", "--n", "5", "--out-dir", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize(
        "command", [["variogram"], ["ess"], ["subsample", "--size", "5", "--reps", "1",
                                              "--seed", "1"]],
    )
    def test_threads_below_one_exits_2(self, command, value, dataset_csv, tmp_path, capsys):
        rc = main(command + ["--input", str(dataset_csv), "--threads", value,
                             "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert f"argument --threads: must be at least 1, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestBoxplotCommands:
    def test_boxplot_outputs(self, dataset_csv, tmp_path):
        out = tmp_path / "box"
        rc = main(["boxplot", "--input", str(dataset_csv), "--out-dir", str(out)])
        assert rc == 0
        table = np.loadtxt(out / "fboxplot.csv", delimiter=",", skiprows=1)
        assert table.shape == (8, 6)
        # median within central band, bands nested
        assert np.all(table[:, 1] >= table[:, 2]) and np.all(table[:, 1] <= table[:, 3])
        assert np.all(table[:, 4] <= table[:, 2]) and np.all(table[:, 5] >= table[:, 3])
        outliers = json.loads((out / "fboxplot_outliers.json").read_text())
        assert "outliers" in outliers

    def test_subsample_outputs_and_experiment(self, dataset_csv, tmp_path):
        out = tmp_path / "sub"
        rc = main(
            ["subsample", "--input", str(dataset_csv), "--out-dir", str(out),
             "--size", "20", "--reps", "3", "--seed", "13"]
        )
        assert rc == 0
        rows = np.loadtxt(out / "subsample_metrics.csv", delimiter=",", skiprows=1)
        assert rows.shape == (3, 6)
        payload = json.loads((out / "subsample_summary.json").read_text())
        assert payload["reps"] == 3 and payload["size"] == 20
        assert payload["median_band_halfwidth"] >= 0.0

    def test_size_beyond_n_exits_2(self, dataset_csv, tmp_path, capsys):
        rc = main(
            ["subsample", "--input", str(dataset_csv), "--out-dir", str(tmp_path),
             "--size", "500", "--reps", "2", "--seed", "1"]
        )
        assert rc == 2
        assert "size" in capsys.readouterr().err


class TestDeterminism:
    def test_byte_identical_reruns_and_thread_counts(self, dataset_csv, tmp_path, monkeypatch):
        # the last run scores its 40 replicates one batch each, serially:
        # subsample accepts --threads 8 and ignores it
        fidelity_rows = fess.fboxplot._fidelity_rows
        batches = []

        def counted(*args):
            batches.append(1)
            return fidelity_rows(*args)

        monkeypatch.setattr(fess.fboxplot, "_fidelity_rows", counted)
        outputs = []
        for tag, threads, batch_elements in (("r1", "1", None), ("r2", "1", None), ("r8", "8", 1)):
            if batch_elements is not None:
                monkeypatch.setattr(fess.fboxplot, "_BATCH_ELEMENTS", batch_elements)
            batches.clear()
            out = tmp_path / tag
            rc = main(
                ["subsample", "--input", str(dataset_csv), "--out-dir", str(out),
                 "--size", "15", "--reps", "40", "--seed", "99", "--threads", threads]
            )
            assert rc == 0
            assert len(batches) == (1 if batch_elements is None else 40)
            outputs.append(
                (
                    read_bytes(out / "subsample_metrics.csv"),
                    read_bytes(out / "subsample_summary.json"),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_warm_memo_outputs_are_byte_identical(self, dataset_csv, tmp_path, monkeypatch):
        # variogram then ess in one interpreter: the second session bins no
        # distances, the third starts from an empty site record again
        binned = []
        slots = fess.variogram.LagBins._slots

        def counted(bins, h):
            binned.append(1)
            return slots(bins, h)

        monkeypatch.setattr(fess.variogram.LagBins, "_slots", counted)
        fams = [a for f in ("exponential", "spherical", "gaussian") for a in ("--family", f)]

        def session(tag):
            files = {}
            for name, argv in (("variogram", ["variogram"]), ("ess", ["ess"] + fams)):
                out = tmp_path / tag / name
                assert main(argv + ["--input", str(dataset_csv), "--out-dir", str(out)]) == 0
                files.update({f"{name}/{p.name}": p.read_bytes() for p in out.iterdir()})
            return files

        sessions = []
        for tag in ("cold", "warm", "cleared"):
            if tag != "warm":
                fess.dataset._site_record.cache_clear()
            binned.clear()
            sessions.append(session(tag))
            assert bool(binned) == (tag != "warm"), tag
        assert len(sessions[0]) == 10
        assert sessions[0] == sessions[1] == sessions[2]


# argv ({name} is a path that test_exit_codes sets up), environment, exit
# code, and a line that stderr holds (stdout on exit 0)
_EXIT_CODE_CASES = {
    "missing coordinate column": (["ess", "--input", "{no_lat}"], {}, 2,
                                  "coordinate column 'lat' not in header"),
    "schema value column not in header": (
        ["ess", "--input", "{data}", "--schema", "{schema}"], {}, 2,
        "value columns not in header: ['99']"),
    "single value column": (["ess", "--input", "{one_level}"], {}, 2,
                            "need at least 2 value columns, found 1"),
    "non-numeric level labels": (["ess", "--input", "{text_levels}"], {}, 2,
                                 "value column labels must be numeric grid levels"),
    "empty file": (["ess", "--input", "{empty}"], {}, 2, "empty file"),
    "fit header": (["fit", "--input", "{fit_header}", "--out-dir", "{out}"], {}, 2,
                   "expected header 'h,gamma,count'"),
    "fit without rows": (["fit", "--input", "{fit_no_rows}", "--out-dir", "{out}"], {}, 2,
                         "no variogram rows"),
    "simulate decay base": (["far1", "simulate", "--n", "5", "--seed", "1", "--lambda0", "1.5",
                             "--out-dir", "{out}"], {}, 2, "decay bases must lie in (0, 1)"),
    "sweep fixed decay base": (["far1", "sweep", "--axis", "eta0", "--fixed", "1.5",
                                "--out-dir", "{out}"], {}, 2,
                               "fixed decay base must lie in (0, 1)"),
    "sweep without sample sizes": (["far1", "sweep", "--axis", "eta0", "--n-list", ",",
                                    "--out-dir", "{out}"], {}, 2,
                                   "need at least one sample size"),
    "threads not an integer": (["ess", "--input", "{data}", "--threads", "abc"], {}, 2,
                               "argument --threads: invalid int value: 'abc'"),
    "schema not found": (["ess", "--input", "{data}", "--schema", "{missing}"], {}, 2,
                         "fess: error: [Errno 2] No such file or directory"),
    "out-dir is a file": (["variogram", "--input", "{data}", "--out-dir", "{a_file}"], {}, 1,
                          "fess: i/o failure: [Errno 17] File exists"),
    "unknown FESS_LOG level": (["ess", "--input", "{data}"], {"FESS_LOG": "bogus"}, 0,
                               "exponential: n=60"),
}


@pytest.mark.parametrize("case", list(_EXIT_CODE_CASES))
def test_exit_codes(case, dataset_csv, tmp_path, monkeypatch, capsys):
    argv, env, code, line = _EXIT_CODE_CASES[case]
    header, *rows = dataset_csv.read_text(encoding="utf-8").splitlines()
    cells = [r.split(",") for r in [header] + rows]
    files = {
        "no_lat": "\n".join(",".join(c[:1] + c[2:]) for c in cells),
        "one_level": "\n".join(",".join(c[:3]) for c in cells),
        "text_levels": "\n".join(
            [",".join(cells[0][:2] + [f"level{k}" for k in range(len(cells[0]) - 2)])] + rows
        ),
        "empty": "",
        "schema": json.dumps({"value_columns": ["10", "99"]}),
        "fit_header": "a,b,c\n1,2,3",
        "fit_no_rows": "h,gamma,count",
        "a_file": "x",
    }
    paths = {"data": dataset_csv, "missing": tmp_path / "nope.json", "out": tmp_path / "out"}
    for name, text in files.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text + "\n" if text else "", encoding="utf-8")
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    monkeypatch.delenv("FESS_LOG", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    rc = main([a.format(**{k: str(v) for k, v in paths.items()}) for a in argv])
    out, err = capsys.readouterr()
    assert rc == code
    assert line in (out if code == 0 else err)
    assert levels == ["WARNING"]


def _full_argv(command, dataset_csv, tmp_path):
    """An argv for ``command`` that sets every option it takes."""
    schema = tmp_path / "schema.json"
    schema.write_text('{"lon_column": "lon", "lat_column": "lat"}\n', encoding="utf-8")
    emp = tmp_path / "emp.csv"
    emp.write_text("h,gamma,count\n10,1,8\n20,2,8\n30,2.5,8\n", encoding="utf-8")
    data = ["--input", str(dataset_csv), "--schema", str(schema), "--threads", "1"]
    fit = ["--family", "exponential", "--family", "gaussian", "--nugget", "free"]
    sample = ["--size", "10", "--reps", "2", "--seed", "3"]
    return {
        "variogram": ["variogram"] + data + fit + ["--bins", "9"],
        "fit": ["fit", "--input", str(emp)] + fit,
        "ess": ["ess"] + data + fit + ["--bins", "9"],
        "far1 simulate": ["far1", "simulate", "--n", "10", "--seed", "4", "--terms", "5",
                          "--lambda0", "0.4", "--eta0", "0.6", "--grid-points", "9",
                          "--basis", "cosine"],
        "far1 sweep": ["far1", "sweep", "--axis", "eta0", "--values", "0.3,0.6",
                       "--n-list", "5,10", "--fixed", "0.4"],
        "boxplot": ["boxplot"] + data,
        "subsample": ["subsample"] + data + sample,
    }[command] + ["--out-dir", str(tmp_path / "out")]


# The benchmark's reference session (benchmark/worker.py) passes --threads
# to boxplot and subsample, which do not use it; the flag stays on both
# until that session drops it.
_UNREAD_ALLOWED = {"boxplot": {"threads"}, "subsample": {"threads"}}


@pytest.mark.parametrize(
    "command",
    ["variogram", "fit", "ess", "far1 simulate", "far1 sweep", "boxplot", "subsample"],
)
def test_every_parsed_flag_is_read(command, dataset_csv, tmp_path, capsys):
    reads = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = build_parser().parse_args(
        _full_argv(command, dataset_csv, tmp_path), namespace=Recorder()
    )
    reads.clear()
    assert args.func(args) == 0
    unread = set(vars(args)) - reads - {"func", "command", "subcommand"}
    assert unread == _UNREAD_ALLOWED.get(command, set())


_SESSION = """
import json, sys
import fess, fess.cli
from fess.cli import main
csv, out = sys.argv[1], sys.argv[2]
codes = [
    main(["variogram", "--input", csv, "--out-dir", out + "/variogram"]),
    main(["ess", "--input", csv, "--nugget", "free", "--out-dir", out + "/ess"]),
    main(["fit", "--input", out + "/variogram/empirical_variogram.csv",
          "--nugget", "free", "--out-dir", out + "/fit"]),
]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_fess_runs_on_numpy_alone(dataset_csv, tmp_path):
    # the package depends on numpy only: importing it and running the
    # variogram, ess and fit commands loads no scipy module
    src = Path(fess.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _SESSION, str(dataset_csv), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0, 0, 0], "scipy": []}
    for path in (src / "fess").rglob("*.py"):
        assert "scipy" not in path.read_text(encoding="utf-8").lower(), path
