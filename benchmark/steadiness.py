"""Run the benchmark over many seeds and report how steady each metric is.

    python3 benchmark/steadiness.py --out benchmark/baseline/seed.json

Runs every workload of ``BENCHMARK.json`` ten times, with seeds 1 to 10,
for its ``run_seconds``. For every workload and end-to-end metric, prints
the median of the runs and the spread, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the bound declared in ``BENCHMARK.json``. ``--out`` keeps
every run's values as a baseline; ``--baseline`` compares each median with
a kept baseline's and flags a metric that is worse by more than its bound.
Exits 0 when every run is correct and every spread and every comparison
is within bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
SEEDS = range(1, RUNS + 1)


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    report = json.loads(next(ln for ln in lines if ln.startswith("REPORT "))[7:])
    return {"result": json.loads(lines[-1]), "report": report}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--baseline", type=Path, default=None)
    args = p.parse_args(argv)
    baseline = None
    if args.baseline:
        baseline = json.loads(args.baseline.read_text(encoding="utf-8"))["workloads"]

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    worse_sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    summary = {"seconds": seconds, "runs": RUNS, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in declared["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: "
                  f"{json.dumps(runs[-1]['result']['metrics'])}", file=sys.stderr)
        table = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            s = spread(values)
            table[name] = {"median": statistics.median(values), "spread": s,
                           "bound": bound, "values": values}
            ok = s <= bound
            steady = steady and ok and all(r["result"]["correct"] for r in runs)
            line = (f"{workload:<11} {name:<12} median {table[name]['median']:>11.6g}  "
                    f"spread {s:6.3f}  bound {bound:.2f}  "
                    f"{'ok' if ok else 'TOO WIDE'}{'' if s < bound / 3 else ' (over bound/3)'}")
            if baseline and workload in baseline:
                ratio = table[name]["median"] / baseline[workload]["metrics"][name]["median"]
                change = worse_sign[name] * (ratio - 1)
                within = change <= bound
                steady = steady and within
                line += f"  worse than baseline by {change:+.3f} {'ok' if within else 'TOO MUCH'}"
            print(line)
        summary["workloads"][workload] = {
            "seeds": list(SEEDS),
            "metrics": table,
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "reports": [r["report"] for r in runs],
        }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
