"""Command-line interface.

Subcommands wire the library into reproducible batch runs: every
randomized command requires an explicit ``--seed``, outputs are plain
CSV/JSON written with fixed formatting, and reruns produce byte-identical
files. ``--threads N`` sets the worker threads of the pair stages of
``variogram`` (the empirical variogram) and ``ess`` (the variogram and the
ESS sum; default: the usable cores); outputs are identical for any value,
because the per-block results are combined in one canonical order.
``boxplot`` and ``subsample`` still accept the flag and ignore it; the
other subcommands do not take it.

Exit codes: 0 success, 1 computation failure, 2 usage/validation error.
Set ``FESS_LOG=DEBUG|INFO|WARNING`` for logging verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dataset import CsvSchema, EvalGrid, _write_csv, _write_json, load_wide_csv, write_wide_csv
from .errors import EstimationError, ValidationError
from .ess import _plugin_ess
from .far1 import Far1Spec, far1_simulate, far1_sweep
from .fboxplot import functional_boxplot, subsample_experiment
from .variogram import (
    EmpiricalVariogram,
    FAMILIES,
    default_lag_bins,
    empirical_trace_variogram,
    fit_model,
    model_trace_variogram,
    write_model_json,
)

log = logging.getLogger("fess")

_CURVE_POINTS = 200


def _setup_logging() -> None:
    level = os.environ.get("FESS_LOG", "WARNING").upper()
    if level not in ("DEBUG", "INFO", "WARNING", "ERROR"):
        level = "WARNING"
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(args):
    schema = CsvSchema.from_json(args.schema) if args.schema else None
    dataset = load_wide_csv(args.input, schema)
    for w in dataset.warnings:
        log.warning("%s", w)
    return dataset


def _write_model_curve(model, h_max: float, path: Path, knots) -> None:
    # include the empirical lags ``knots`` so the curve passes through the
    # fitted values there exactly
    h = np.unique(np.concatenate([np.linspace(0.0, h_max, _CURVE_POINTS), knots]))
    _write_csv(path, ["h", "gamma"], zip(h, model_trace_variogram(model, h)))


def _fit_families(ev, args, out: Path, h_max: float) -> None:
    """Fit each requested family (default: all) to ``ev``.

    Logs the fit warnings, writes ``model_<family>.json`` and
    ``model_curve_<family>.csv`` (curve on [0, ``h_max``]) and prints a
    one-line summary per family.
    """
    for fam in args.family or FAMILIES:
        result = fit_model(ev, fam, args.nugget)
        for w in result.warnings:
            log.warning("%s: %s", fam, w)
        write_model_json(result, out / f"model_{fam}.json")
        _write_model_curve(
            result.model, h_max, out / f"model_curve_{fam}.csv", ev.centers[ev.occupied]
        )
        print(
            f"{fam}: sill={result.model.sill:.6g} range={result.model.range_km:.6g} "
            f"nugget={result.model.nugget:.6g} sse={result.sse:.6g}"
        )


def cmd_variogram(args) -> int:
    dataset = _load_dataset(args)
    out = _out_dir(args)
    bins = default_lag_bins(dataset, n_bins=args.bins)
    ev = empirical_trace_variogram(dataset, bins, threads=args.threads)
    ev.to_csv(out / "empirical_variogram.csv")
    log.info("wrote %s", out / "empirical_variogram.csv")
    _fit_families(ev, args, out, float(bins.edges[-1]))
    return 0


def cmd_fit(args) -> int:
    ev = EmpiricalVariogram.from_csv(args.input)
    out = _out_dir(args)
    _fit_families(ev, args, out, float(np.max(ev.centers)) * 2.0)
    return 0


def cmd_ess(args) -> int:
    dataset = _load_dataset(args)
    fams = args.family if args.family else ["exponential"]
    bins = default_lag_bins(dataset, n_bins=args.bins)
    results = _plugin_ess(dataset, fams, bins, args.nugget, args.threads)
    for fam, report in zip(fams, results):
        for w in report.warnings:
            log.warning("%s: %s", fam, w)
        print(
            f"{fam}: n={report.n} ess={report.ess:.6g} ratio={report.ratio:.4f} "
            f"recommended_subsample={report.recommended_subsample}"
        )
    out = _out_dir(args) if args.out_dir is not None else None
    for fam, report in zip(fams, results):
        if out is None:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            report.to_json(out / f"ess_{fam}.json")
            log.info("wrote %s", out / f"ess_{fam}.json")
    return 0


def cmd_far1_simulate(args) -> int:
    if not 0.0 < args.lambda0 < 1.0 or not 0.0 < args.eta0 < 1.0:
        raise ValidationError("decay bases must lie in (0, 1)")
    k = np.arange(1, args.terms + 1)
    spec = Far1Spec(
        lambdas=args.lambda0**k,
        etas=np.sqrt(args.eta0**k),
        grid=EvalGrid(np.linspace(0.0, 1.0, args.grid_points)),
        basis=args.basis,
    )
    dataset = far1_simulate(spec, args.n, args.seed)
    out = _out_dir(args)
    write_wide_csv(dataset, out / "far1_dataset.csv")
    print(f"simulated {dataset.n_curves} curves on {dataset.n_levels} grid points")
    return 0


def _comma_list(convert):
    """argparse type: comma-separated ``convert`` values, blanks skipped."""

    def parse(text: str) -> list:
        out = []
        for v in filter(str.strip, text.split(",")):
            try:
                out.append(convert(v))
            except ValueError:
                raise argparse.ArgumentTypeError(f"invalid entry {v!r}") from None
        return out

    return parse


def cmd_far1_sweep(args) -> int:
    rows = far1_sweep(args.axis, args.values, args.n_list, fixed=args.fixed)
    out = _out_dir(args)
    path = out / f"far1_sweep_{args.axis}.csv"
    _write_csv(path, ["axis_value", "n", "ess"], ((r.axis_value, r.n, r.ess) for r in rows))
    print(f"wrote {len(rows)} sweep rows to {path}")
    return 0


def cmd_boxplot(args) -> int:
    dataset = _load_dataset(args)
    out = _out_dir(args)
    summary = functional_boxplot(dataset)
    columns = {
        "t": dataset.grid.points,
        "median": dataset.curves[summary.median_index],
        "central_lo": summary.central_lower,
        "central_hi": summary.central_upper,
        "nonout_lo": summary.nonout_lower,
        "nonout_hi": summary.nonout_upper,
    }
    _write_csv(out / "fboxplot.csv", list(columns), zip(*columns.values()))
    # compact on one line, unlike the indented reports
    with open(out / "fboxplot_outliers.json", "w", encoding="utf-8") as fh:
        json.dump({"outliers": [int(i) for i in summary.outliers]}, fh, sort_keys=True)
        fh.write("\n")
    print(f"median index {summary.median_index}, {summary.outliers.size} outliers")
    return 0


def cmd_subsample(args) -> int:
    dataset = _load_dataset(args)
    out = _out_dir(args)
    exp = subsample_experiment(dataset, args.size, args.reps, args.seed)
    _write_csv(
        out / "subsample_metrics.csv",
        ["rep", "md_l2", "md_sup", "crd_mean", "crd_sup", "cip"],
        ((r, *m.as_tuple()) for r, m in enumerate(exp.replicates)),
    )
    _write_json(exp.to_dict(), out / "subsample_summary.json")
    print(
        "subsample means: md_l2=%.4g md_sup=%.4g crd_mean=%.4g crd_sup=%.4g "
        "cip=%.4f band_halfwidth=%.4g"
        % (*exp.means.as_tuple(), exp.median_band_halfwidth)
    )
    return 0


def _thread_count(text: str) -> int:
    """argparse type: a worker-thread count, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_THREADS_HELP = (
    "worker threads for the pair stages of variogram and ess (default: the "
    "usable cores); outputs are identical for any value; boxplot and "
    "subsample accept and ignore it, because the benchmark's session passes "
    "it there"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fess",
        description="Effective sample size toolkit for spatial functional data.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, out_required=True):
        p.add_argument("--input", required=True, help="input file path")
        p.add_argument("--schema", default=None, help="sidecar JSON schema for CSV ingestion")
        if out_required:
            p.add_argument("--out-dir", required=True, help="output directory")
        else:
            p.add_argument("--out-dir", default=None, help="output directory")
        p.add_argument("--threads", type=_thread_count, default=None, help=_THREADS_HELP)

    p = sub.add_parser("variogram", help="empirical trace-variogram and family fits")
    add_io(p)
    p.add_argument("--family", action="append", choices=FAMILIES, help="repeatable; default: all")
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--nugget", choices=("free", "zero"), default="zero")
    p.set_defaults(func=cmd_variogram)

    p = sub.add_parser("fit", help="fit families to an exported empirical variogram CSV")
    p.add_argument("--input", required=True, help="input file path")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--family", action="append", choices=FAMILIES, help="repeatable; default: all")
    p.add_argument("--nugget", choices=("free", "zero"), default="zero")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("ess", help="plug-in functional ESS report")
    add_io(p, out_required=False)
    p.add_argument("--family", action="append", choices=FAMILIES, help="repeatable; default: exponential")
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--nugget", choices=("free", "zero"), default="zero")
    p.set_defaults(func=cmd_ess)

    far1 = sub.add_parser("far1", help="functional AR(1) tools")
    far1_sub = far1.add_subparsers(dest="subcommand", required=True)

    p = far1_sub.add_parser("simulate", help="simulate a stationary path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--terms", type=int, default=25, help="truncation level")
    p.add_argument("--lambda0", type=float, default=0.5, help="eigenvalue decay base")
    p.add_argument("--eta0", type=float, default=0.5, help="noise-variance decay base")
    p.add_argument("--grid-points", type=int, default=22)
    p.add_argument("--basis", choices=("fourier", "cosine"), default="fourier")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_far1_simulate)

    p = far1_sub.add_parser("sweep", help="exact ESS over a decay-base grid")
    p.add_argument("--axis", choices=("lambda0", "eta0"), required=True)
    p.add_argument(
        "--values",
        type=_comma_list(float),
        default=",".join(format(v / 100.0, "g") for v in range(5, 100, 5)),
        help="comma-separated values in (0, 1)",
    )
    p.add_argument("--n-list", type=_comma_list(int), default="30,60,120")
    p.add_argument("--fixed", type=float, default=0.5, help="decay base of the fixed sequence")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_far1_sweep)

    p = sub.add_parser("boxplot", help="functional boxplot export")
    add_io(p)
    p.set_defaults(func=cmd_boxplot)

    p = sub.add_parser("subsample", help="replicated subsample-fidelity experiment")
    add_io(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_subsample)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"fess: error: {exc}", file=sys.stderr)
        return 2
    except EstimationError as exc:
        print(f"fess: computation failed: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"fess: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fess: i/o failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
