"""Run one kces benchmark workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload dense-sbm-1000 --seed 0 --seconds 25 --trace 0

The run generates its inputs from ``--seed``, times set-up from fresh
interpreters, then runs iterations of the workload one at a time until
``--seconds`` have passed and at least two (three when traced) have
run.  Every iteration's
score table is checked by ``gate.py``; a failure makes the run exit 1.
With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` every second iteration records
spans, and the line holds the per-layer metrics.  A results file with the environment, every sample and the
spans goes to ``benchmarks/results/``.  ``--smoke`` shrinks every
workload so a run takes seconds; the benchmark's tests use it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
sys.path.insert(0, str(ROOT / "src"))

MIN_ITERATIONS = 2
#: A traced run alternates untraced and traced iterations, starting
#: untraced, so that ``trace.overhead_frac`` compares medians of the same
#: code path with at least two untraced samples.
MIN_TRACED_RUN_ITERATIONS = 3
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 170


def parse_args(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's tests")
    p.add_argument("--setup-only", action="store_true", help="set up, then exit (times setup_s)")
    return p.parse_args(argv), spec


def probe_setup(args) -> float:
    """Wall time of a fresh interpreter that imports, generates and warms up."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    # Pipes make run() wait through communicate(); a bare timed wait polls
    # in steps of up to 50 ms, which would quantize the sample.
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return elapsed


def results_path(workload: str, seed: int, trace: int, smoke: bool) -> Path:
    return RESULTS / f"BENCH_{workload}_seed{seed}_trace{trace}{'_smoke' if smoke else ''}.json"


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def measure(run, seconds: float, traced: bool) -> dict:
    """The closed loop: iterations back to back, then the gate on each."""
    from kces import KcesWarning

    import gate
    import workloads
    from spans import Tracer

    tracer = Tracer()
    iterations = []
    min_iterations = MIN_TRACED_RUN_ITERATIONS if traced else MIN_ITERATIONS
    start = time.perf_counter()
    while len(iterations) < min_iterations or time.perf_counter() - start < seconds:
        tracer.iteration = len(iterations)
        tracer.enabled = traced and tracer.iteration % 2 == 1
        record = {"index": tracer.iteration, "traced": tracer.enabled, "errors": []}
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", KcesWarning)
                out = run.iterate(tracer)
            record.update(wall_s=out.wall_s, score_s=out.score_s, tsv=out.tsv, extra=out.extra)
            record["ridge_events"] = sum(issubclass(w.category, KcesWarning) for w in caught)
            if tracer.enabled:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", KcesWarning)
                    with tracer.span("probes"):
                        run.probe_layers(tracer)
        except Exception as exc:  # a failed iteration is counted, not fatal
            traceback.print_exc()
            record["errors"].append(f"{type(exc).__name__}: {exc}")
        iterations.append(record)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref = run.reference()
    done = [it for it in iterations if "tsv" in it]
    for it in done:
        it["errors"] += gate.check(it["tsv"], ref)
        if it["tsv"] != done[0]["tsv"]:
            it["errors"].append("score TSV bytes differ from the first iteration's")
    routes = workloads.route_stats(ref, gate.parse_scores(done[0]["tsv"])) if traced and done else {}
    return {"iterations": iterations, "done": done, "ref": ref, "tracer": tracer, "routes": routes, "peak_rss_mb": peak_rss_mb}


def end_to_end(m: dict, setup_samples: list) -> dict:
    n_edges = len(m["ref"].edges)
    return {
        "setup_s": median(setup_samples),
        "pipeline_s": median(it["wall_s"] for it in m["done"]),
        "edges_per_s": median(n_edges / it["score_s"] for it in m["done"]),
        "peak_rss_mb": m["peak_rss_mb"],
    }


def per_layer(m: dict) -> dict:
    """Medians over traced iterations, plus the run's route statistics."""
    tracer, ref = m["tracer"], m["ref"]
    traced = [it for it in m["done"] if it["traced"]]
    samples = {}
    for it in traced:
        values = {f"{name}_s": t for name, t in tracer.self_times(it["index"]).items()}
        values.update(it["extra"])
        values["kernel.ridge_events"] = it["ridge_events"]
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    layer = {name: median(v) for name, v in samples.items()}
    layer.update(m["routes"])
    score_s = layer.get("kcscore.score_s", float("nan"))
    layer["kcscore.edge_ms"] = 1e3 * score_s / len(ref.edges)
    layer["kcscore.woodbury_gflops"] = layer.get("kcscore.woodbury_gflop", float("nan")) / score_s
    layer["kcscore.naive_edge_ms"] = 1e3 * median(ref.naive_s)
    untraced_s = median(it["wall_s"] for it in m["done"] if not it["traced"])
    layer["trace.overhead_frac"] = median(it["wall_s"] for it in traced) / untraced_s
    return layer


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    try:
        import envinfo
        import workloads
    except ImportError as exc:
        print(f"benchmark: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workdir = str(RESULTS / f"work-{os.getpid()}")
    if args.setup_only:
        try:
            workloads.setup(args.workload, args.seed, workdir, args.smoke)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    setup_samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    try:
        run = workloads.setup(args.workload, args.seed, workdir, args.smoke)
        m = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(bool(it["errors"]) for it in m["iterations"])
    key = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in spec[key]}
    values = per_layer(m) if args.trace else end_to_end(m, setup_samples)
    result = {
        "correct": failed == 0,
        "attempted": len(m["iterations"]),
        "failed": failed,
        # A layer the workload does not reach reports 0.
        "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit} for name, unit in units.items()},
    }

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": envinfo.stamp(ROOT, args.seed),
        "result": result,
        "setup_samples_s": setup_samples,
        "naive_edge_s": list(m["ref"].naive_s),
        "iterations": [{k: v for k, v in it.items() if k != "tsv"} for it in m["iterations"]],
        "spans": m["tracer"].export(),
    }
    results_path(args.workload, args.seed, args.trace, args.smoke).write_text(json.dumps(record, indent=1) + "\n")
    for it in m["iterations"]:
        for error in it["errors"]:
            print(f"benchmark: gate: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
