"""The fess benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 benchmark/run.py --workload survey_5k --seed 1 --seconds 20 --trace 0

Workloads (inputs are generated here from ``--seed``; fess sees only them):

- ``survey_5k``: load a planar 5000-site, 22-level CSV and run
  ``ess_plugin(ds, "exponential")``; one pass is that one operation.
- ``godas_600``: a user's CLI session on a 600-site GODAS-box CSV through
  ``fess.cli.main`` in-process: ``variogram``, ``ess`` with three
  families, ``boxplot`` and ``subsample --size 106 --reps 1000 --seed
  2024``, each with ``--threads`` set to the number of usable cores.
- ``oracle_400``: the estimator-validation study on the fixed 400-site
  two-scale design; one operation is ``gauss_field_simulate`` followed by
  ``ess_plugin``, graded against the true ESS; one pass is 20 replicates.

The workload runs in a fresh worker process for ``--seconds`` (whole
passes, at least one). ``--trace 0`` reports the end-to-end metrics with
tracing off; ``--trace 1`` runs half the time untraced, half traced and
one more pass under ``tracemalloc``, and reports the per-layer metrics
(see ``tracer.py``). Output: a table of
every metric with its unit and sample count, a ``REPORT`` line holding
the full record (environment, failures, every metric), and as the last
line the JSON result with the metrics named in ``BENCHMARK.json``.
``--size smoke`` shrinks every workload for ``smoke.py``.

Times are calibrated against a reference workload, timed between passes
by a process of its own (``reference.py``) while fess waits, and after
each import probe in the probe's process (see ``worker.py``), because the
hosts this runs on change speed by tens of percent over minutes. The wall
times are reported too, as ``setup_wall_s``, ``job_wall_s`` and
``ess_wall_s``, with the ``calibration_scale`` that relates the two; the
traced result line carries the untraced ``job_s`` both ways
(``trace.untraced_job_s`` and ``trace.untraced_job_wall_s``), so that a
gain that shows only after calibration is visible.
``reference_busy_max`` is the largest share of a CPU that fess's process
used, outside the timing thread, while the reference was timed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from tracer import MB, TRACED, span_name

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
WORKER = BENCH / "worker.py"

WORKLOADS = ("survey_5k", "godas_600", "oracle_400")
SIZES = {
    "full": {
        "survey_5k": {"n": 5000},
        "godas_600": {"size": 106, "reps": 1000},
        "oracle_400": {"replicates_per_pass": 20},
    },
    "smoke": {
        "survey_5k": {"n": 400},
        "godas_600": {"size": 106, "reps": 20},
        "oracle_400": {"replicates_per_pass": 4},
    },
}
# Fresh processes that only import fess; setup_s is the median over them.
SETUP_PROBES = 8
# Every run must finish within this many seconds, builds aside.
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def child_env(nproc: int) -> dict[str, str]:
    """This process's environment with BLAS thread pools capped at ``nproc``."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        try:
            requested = int(env.get(var, nproc))
        except ValueError:
            requested = nproc
        env[var] = str(min(max(requested, 1), nproc))
    return env


def make_inputs(workload: str, seed: int, params: dict, work: Path) -> dict:
    if workload == "survey_5k":
        return inputs.survey_field(seed, params["n"], work / "survey.csv")
    if workload == "godas_600":
        return inputs.godas_field(seed, work / "godas.csv")
    return inputs.oracle_design(seed)


def _run_child(argv: list[str], env: dict, deadline: float) -> str:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting the worker " + " ".join(argv))
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)] + argv,
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def run_worker(args, work: Path, env: dict, nproc: int, deadline: float) -> tuple[dict, list]:
    """Generate inputs, run the setup probes and the worker; return raw results."""
    params = SIZES[args.size][args.workload]
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
        "inputs": make_inputs(args.workload, args.seed, params, work),
        "work_dir": str(work),
        "result": str(work / "result.json"),
        "env": {"nproc": nproc},
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    probes = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            out = _run_child(["--probe"], env, deadline)
            probes.append(json.loads(out.strip().splitlines()[-1]))
    _run_child([str(spec_path)], env, deadline)
    return json.loads((work / "result.json").read_text(encoding="utf-8")), probes


def timing(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "samples": len(values)}
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def _per_pass(total: float, passes: int):
    value = total / passes
    return int(value) if float(value).is_integer() else value


def end_to_end_metrics(result: dict, probes: list, params: dict, attempted: int, failed: int):
    """(metrics, sample counts) of an untraced run; metrics map name -> (value, unit)."""
    phase = result["phases"]["untraced"]
    samples = phase["samples"]
    if not samples["job_s"] or not samples["ess_s"]:
        raise BenchmarkError("no pass completed: " + "; ".join(phase["failures"]))
    wall = phase["wall"]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "job_s": (statistics.median(samples["job_s"]), "s"),
        "ess_s": (statistics.median(samples["ess_s"]), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "fail_frac": (failed / attempted, "1"),
        "setup_wall_s": (statistics.median(p["setup_wall_s"] for p in probes), "s"),
        "job_wall_s": (statistics.median(wall["job_s"]), "s"),
        "ess_wall_s": (statistics.median(wall["ess_s"]), "s"),
        "calibration_scale": (statistics.median(phase["scales"]), "1"),
    }
    counts = {"setup_s": len(probes), "job_s": len(samples["job_s"]),
              "ess_s": len(samples["ess_s"]), "peak_rss_mb": 1,
              "fail_frac": attempted, "setup_wall_s": len(probes),
              "job_wall_s": len(wall["job_s"]), "ess_wall_s": len(wall["ess_s"]),
              "calibration_scale": len(phase["scales"])}
    busy = result["reference_busy"] + [p["busy"] for p in probes]
    metrics["reference_busy_max"] = (max(busy), "1")
    counts["reference_busy_max"] = len(busy)
    if samples.get("subsample_s"):
        reps_per_s = [params["reps"] / s for s in samples["subsample_s"]]
        metrics["subsample_reps_per_s"] = (statistics.median(reps_per_s), "1/s")
        counts["subsample_reps_per_s"] = len(reps_per_s)
    if samples.get("ess_rel_err"):
        metrics["ess_rel_err"] = (statistics.median(samples["ess_rel_err"]), "1")
        counts["ess_rel_err"] = len(samples["ess_rel_err"])
    return metrics, counts


def per_layer_metrics(result: dict):
    """(metrics, sample counts) of a traced run, per traced pass, times calibrated."""
    untraced = result["phases"]["untraced"]["samples"]["job_s"]
    phase = result["phases"]["traced"]
    traced = phase["samples"]["job_s"]
    if not untraced or not traced:
        raise BenchmarkError("no pass completed in one of the trace phases")
    passes = len(traced)
    scale = statistics.median(phase["scales"])
    spans = result["spans"]
    memory_passes = len(result["phases"]["memory"]["samples"]["job_s"])
    metrics = {}
    self_total = 0.0
    for layer, _, function in TRACED:
        name = span_name(layer, function)
        agg = spans.get(name, {"calls": 0, "self_s": 0.0, "peak_bytes": 0})
        self_total += agg["self_s"]
        metrics[f"{name}.self_s"] = (agg["self_s"] * scale / passes, "s")
        metrics[f"{name}.calls"] = (_per_pass(agg["calls"], passes), "count")
        metrics[f"{name}.peak_mb"] = (result["peaks"].get(name, 0) / MB, "MB")
    counters = result["counters"]
    total = counters.get("variogram.pairs_total", 0)
    binned = counters.get("variogram.pairs_binned", 0)
    metrics["variogram.pairs_total"] = (_per_pass(total, passes), "count")
    metrics["variogram.pairs_binned"] = (_per_pass(binned, passes), "count")
    metrics["variogram.pair_yield"] = (binned / total if total else 0.0, "1")
    metrics["variogram.fit_nfev"] = (
        _per_pass(counters.get("variogram.fit_nfev", 0), passes), "count")
    metrics["dataset.pairwise_distances.mb"] = (
        counters.get("dataset.pairwise_distances.mb", 0.0) / passes, "MB")
    traced_job = statistics.median(traced)
    traced_wall = sum(phase["wall"]["job_s"])
    metrics["trace.job_s"] = (traced_job, "s")
    metrics["trace.untraced_job_s"] = (statistics.median(untraced), "s")
    metrics["trace.untraced_job_wall_s"] = (
        statistics.median(result["phases"]["untraced"]["wall"]["job_s"]), "s")
    metrics["trace.overhead_s"] = (traced_job - statistics.median(untraced), "s")
    metrics["trace.attributed_frac"] = (self_total / traced_wall, "1")
    metrics["trace.unattributed_s"] = ((traced_wall - self_total) * scale / passes, "s")
    metrics["calibration_scale"] = (scale, "1")
    counts = {name: memory_passes if name.endswith(".peak_mb") else passes for name in metrics}
    counts["trace.untraced_job_s"] = counts["trace.untraced_job_wall_s"] = len(untraced)
    return metrics, counts


def declared_metrics(trace: int) -> list[str]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]


def run(args) -> int:
    if not (ROOT / "src" / "fess" / "__init__.py").is_file():
        raise BenchmarkError(f"no fess sources under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_LIMIT_S
    nproc = usable_cores()
    env = child_env(nproc)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, probes = run_worker(args, work, env, nproc, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    params = SIZES[args.size][args.workload]
    phases = result["phases"].values()
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    if args.trace:
        metrics, counts = per_layer_metrics(result)
    else:
        metrics, counts = end_to_end_metrics(result, probes, params, attempted, failed)
    names = declared_metrics(args.trace)
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchmarkError(f"metrics declared in BENCHMARK.json not measured: {missing}")

    for phase in phases:
        for failure in phase["failures"]:
            print(f"failure: {failure}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<11} {name:<50} {value:>16.6g} {unit:<6} n={counts[name]}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "params": params,
        "env": {
            "nproc": nproc,
            "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
            **result["versions"],
        },
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u, "samples": counts[n]}
                    for n, (v, u) in metrics.items()},
        "timings": {k: timing(v) for k, v in result["phases"]["untraced"]["samples"].items() if v},
    }
    print("REPORT " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
