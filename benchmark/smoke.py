"""Reduced-size smoke test of the benchmark.

    python3 benchmark/smoke.py

Runs every workload at ``--size smoke`` for one second, untraced and
traced, through ``run.py`` with the arguments of a real run, and checks that

- every end-to-end and per-layer metric the benchmark defines is printed
  with its unit, and no operation failed (``fail_frac`` is 0);
- the last line holds exactly the metrics ``BENCHMARK.json`` declares,
  with the declared units;
- in a directory holding only ``BENCHMARK.json`` and the benchmark, with
  no fess sources, the benchmark exits non-zero without a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

COMMON = {
    "setup_s": "s", "job_s": "s", "ess_s": "s", "peak_rss_mb": "MB", "fail_frac": "1",
    "setup_wall_s": "s", "job_wall_s": "s", "ess_wall_s": "s", "calibration_scale": "1",
    "reference_busy_max": "1",
}
END_TO_END = {
    "survey_5k": {**COMMON, "ess_rel_err": "1"},
    "godas_600": {**COMMON, "subsample_reps_per_s": "1/s"},
    "oracle_400": {**COMMON, "ess_rel_err": "1"},
}
PER_LAYER = {
    "variogram.empirical_trace_variogram.self_s": "s",
    "variogram.empirical_trace_variogram.peak_mb": "MB",
    "variogram.pairs_total": "count",
    "variogram.pairs_binned": "count",
    "variogram.pair_yield": "1",
    "dataset.pairwise_distances.self_s": "s",
    "dataset.pairwise_distances.calls": "count",
    "dataset.pairwise_distances.mb": "MB",
    "ess.ess_functional.self_s": "s",
    "ess.ess_functional.peak_mb": "MB",
    "ess.ess_plugin.self_s": "s",
    "variogram.fit_model.self_s": "s",
    "variogram.fit_model.calls": "count",
    "variogram.fit_nfev": "count",
    "far1.gauss_field_simulate.self_s": "s",
    "far1.gauss_field_simulate.calls": "count",
    "fboxplot.subsample_experiment.self_s": "s",
    "fboxplot.functional_boxplot.self_s": "s",
    "fboxplot.functional_boxplot.calls": "count",
    "fboxplot.mbd.self_s": "s",
    "dataset.subset.self_s": "s",
    "rng.derived_rng.self_s": "s",
    "rng.derived_rng.calls": "count",
    "dataset.load_wide_csv.self_s": "s",
    "cli.main.self_s": "s",
    "cli.main.calls": "count",
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.untraced_job_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.attributed_frac": "1",
    "trace.unattributed_s": "s",
    "calibration_scale": "1",
}
# layers each workload must reach, by the calls its traced run counts
EXERCISED = {
    "survey_5k": ("dataset.load_wide_csv", "variogram.empirical_trace_variogram"),
    "godas_600": ("cli.main", "fboxplot.subsample_experiment", "dataset.subset"),
    "oracle_400": ("far1.gauss_field_simulate", "variogram.fit_model"),
}


def run_benchmark(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_run(workload: str, trace: int, declared: dict) -> list[str]:
    proc = run_benchmark(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()}"]
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(ln for ln in lines if ln.startswith("REPORT "))[7:])
    result = json.loads(lines[-1])
    problems = []
    expected = PER_LAYER if trace else END_TO_END[workload]
    for name, unit in expected.items():
        got = report["metrics"].get(name)
        if got is None:
            problems.append(f"{where}: {name} not reported")
        elif got["unit"] != unit or not math.isfinite(got["value"]):
            problems.append(f"{where}: {name} = {got}, expected a number in {unit}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in declared[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: result metrics {got} differ from BENCHMARK.json {want}")
    if not result["correct"] or result["failed"] or report["failed"]:
        problems.append(f"{where}: {result['failed']} failed of {result['attempted']}")
    if not trace and report["metrics"]["fail_frac"]["value"] != 0:
        problems.append(f"{where}: fail_frac {report['metrics']['fail_frac']['value']}")
    if trace:
        for layer in EXERCISED[workload]:
            if not report["metrics"][f"{layer}.calls"]["value"]:
                problems.append(f"{where}: {layer} never called")
    print(f"{where}: {'ok' if not problems else 'FAILED'}")
    return problems


def check_without_sources() -> list[str]:
    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "benchmark", ignore=shutil.ignore_patterns("_work"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run_benchmark(bare, "godas_600", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode == 0 or last[0].startswith("{"):
        return [f"without sources: exit {proc.returncode}, last line {last[0]!r}"]
    print("without sources: ok")
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_without_sources()
    for workload in (w["name"] for w in declared["workloads"]):
        for trace in (0, 1):
            problems += check_run(workload, trace, declared)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
