"""Tests of the benchmark itself, on the smoke size of each workload.

Run from the root of a checkout:

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "benchmarks/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_the_metrics_named_in_benchmark_json(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = [m["value"] for m in result["metrics"].values()]
    assert all(math.isfinite(v) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench("--workload", NAMES[0], "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.lstrip().startswith("{") for line in proc.stdout.splitlines())


@pytest.fixture(scope="module")
def dense_smoke(tmp_path_factory):
    run = workloads.setup("dense-sbm-1000", 0, str(tmp_path_factory.mktemp("dense")), smoke=True)
    return run, run.iterate(Tracer()).tsv, run.reference()


def corrupt(tsv: bytes, edge, kind: str) -> bytes:
    """Damage the row of ``edge`` in a score TSV in one of five ways."""
    lines = tsv.decode().splitlines(keepends=True)
    for i, line in enumerate(lines[1:], start=1):
        u, v, score, method = line.rstrip("\n").split("\t")
        if (int(u), int(v)) == edge:
            break
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        new = {"nudge": float(score) * (1 + 1e-6), "negate": -abs(float(score)) - 1.0, "nan": math.nan}[kind]
        lines[i] = f"{u}\t{v}\t{new!r}\t{method}\n"
    return "".join(lines).encode()


def test_gate_passes_the_program_output(dense_smoke):
    _, tsv, ref = dense_smoke
    assert gate.check(tsv, ref) == []


@pytest.mark.parametrize("kind", ["nudge", "negate", "nan", "drop", "duplicate"])
def test_gate_trips_on_a_corrupted_score(dense_smoke, kind):
    _, tsv, ref = dense_smoke
    edge = sorted(ref.sample)[0]
    assert gate.check(corrupt(tsv, edge, kind), ref)


class CorruptSecondIteration:
    """A run whose second iteration reports one sampled score off by 1e-6."""

    def __init__(self, run, ref):
        self.run, self.edge, self.calls = run, sorted(ref.sample)[0], 0

    def iterate(self, tracer):
        out = self.run.iterate(tracer)
        self.calls += 1
        if self.calls == 2:
            out.tsv = corrupt(out.tsv, self.edge, "nudge")
        return out

    def reference(self):
        return self.run.reference()


def test_a_corrupted_iteration_counts_as_failed(dense_smoke):
    run, _, ref = dense_smoke
    m = bench_run.measure(CorruptSecondIteration(run, ref), seconds=0, traced=False)
    assert [bool(it["errors"]) for it in m["iterations"]] == [False, True]


def test_a_traced_run_alternates_untraced_and_traced_iterations(dense_smoke):
    run, _, _ = dense_smoke
    m = bench_run.measure(run, seconds=0, traced=True)
    assert [it["traced"] for it in m["iterations"]] == [False, True, False]
    assert not any(it["errors"] for it in m["iterations"])
    assert bench_run.per_layer(m)["trace.overhead_frac"] > 0


@pytest.mark.parametrize("seed", [0, 11])
def test_sparse_workload_draws_a_ridged_base(seed, tmp_path):
    # Seed 11's first draw has twin rows whose Gram matrix still factorizes.
    run = workloads.setup("sparse-sbm-400", seed, str(tmp_path), smoke=False)
    assert workloads.base_is_ridged(run.graph)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.enabled = True
    with tracer.span("outer"):
        time.sleep(0.02)
        with tracer.span("inner"):
            time.sleep(0.03)
    times = tracer.self_times(0)
    outer = next(s for s in tracer.spans if s.name == "outer")
    assert times["inner"] >= 0.03
    assert times["outer"] == pytest.approx(outer.duration - times["inner"])
