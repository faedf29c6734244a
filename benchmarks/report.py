"""Run the benchmark over several seeds and summarize every metric.

Usage, from the root of a checkout:

    python3 benchmarks/report.py --seeds 0-9 --trace 0 [--out FILE]

For each workload and seed it runs ``benchmarks/run.py`` once, one run
at a time, for BENCHMARK.json's ``run_seconds`` at full size, and prints each metric by name with its unit: the median,
the quartiles and the spread (interquartile distance over the median).
With ``--trace 0`` it also compares each spread with the metric's bound
from BENCHMARK.json.  ``--out`` writes the summary as JSON, with each
workload's environment stamp taken from its first run.  Exits 1 if any
run failed its correctness gate.
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
RUN_TIMEOUT_S = 900
sys.path.insert(0, str(BENCH))

from run import results_path  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, args) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}, "environment": None}
    result = json.loads(lines[-1])
    record = json.loads(results_path(workload, seed, args.trace, smoke=False).read_text())
    return dict(result, environment=record["environment"])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    spread = (q3 - q1) / abs(median) if median else float("nan")
    return {"values": values, "median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(names), help="comma-separated subset")
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 0,3,5")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write the summary JSON here")
    args = p.parse_args(argv)

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)
    summary = {"seeds": seeds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
        runs = [run_once(workload, seed, args) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok &= all(r["correct"] for r in runs)
        entry = {
            "why": why,
            "environment": runs[0]["environment"],  # of the first seed's run
            "attempted": attempted,
            "failed": failed,
            "correct": all(r["correct"] for r in runs),
            "metrics": {},
        }
        print(f"\n{workload}: {len(runs)} runs, error_rate = {failed}/{attempted} iterations")
        print(f"  {'metric':28} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for metric in metrics:
            values = [r["metrics"][metric["name"]]["value"] for r in runs if metric["name"] in r["metrics"]]
            if not values:
                continue
            s = summarize(values)
            entry["metrics"][metric["name"]] = dict(s, unit=metric["unit"])
            line = f"  {metric['name']:28} {metric['unit']:8} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f}"
            if "bound" in metric:
                steady = s["spread"] <= metric["bound"] / 3
                line += f"  bound {metric['bound']} {'steady' if steady else 'SPREAD ABOVE bound/3'}"
            print(line, flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
