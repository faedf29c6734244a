"""End-to-end command-line checks: outputs, exit codes, manifests, replay."""

import argparse
import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    OracleDivergence,
    assert_reaped,
    load_manifest,
    oracle_evaluate,
    record_forks,
    verify_outputs,
)

import kces
from kces import cli, kcscore
from kces.cli import SWEEP_ALPHAS, build_parser, main
from kces.errors import KcesWarning, NumericError
from kces.gnn import TrainConfig, evaluate_classifier, make_split, write_trace_csv
from kces.graph import Graph, format_float, load_graph, write_edge_tsv, write_features_csv, write_labels
from kces.kcscore import kc_scores_all
from kces.perturb import PerturbationRecord
from kces.pseudolabel import encode_labels, kmeans_pseudo_labels
from kces.sanitize import PruneConfig, apply_prune, select_edges
from kces.synth import make_sbm_benchmark

GOLDEN = Path(__file__).parent / "data" / "golden5"


@pytest.fixture(scope="module")
def graph_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cligraph")
    g = make_sbm_benchmark(seed=3, n=30, p_in=0.25, p_out=0.03, separation=2.5)
    write_edge_tsv(g, root / "edges.tsv")
    write_features_csv(g, root / "features.csv")
    write_labels(g.labels, root / "labels.csv")
    return {
        "edges": str(root / "edges.tsv"),
        "features": str(root / "features.csv"),
        "labels": str(root / "labels.csv"),
        "n_edges": g.n_edges,
    }


def test_score_reproduces_golden_bytes(tmp_path):
    out = tmp_path / "scores.tsv"
    rc = main(
        [
            "score",
            "--edges", str(GOLDEN / "edges.tsv"),
            "--features", str(GOLDEN / "features.csv"),
            "--k", "2",
            "--seed", "0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    assert out.read_bytes() == (GOLDEN / "scores.tsv").read_bytes()


def test_prune_from_score_file(tmp_path):
    scores = tmp_path / "scores.tsv"
    pruned = tmp_path / "pruned.tsv"
    plan = tmp_path / "plan.tsv"
    base = [
        "--edges", str(GOLDEN / "edges.tsv"),
        "--features", str(GOLDEN / "features.csv"),
    ]
    assert main(["score", *base, "--k", "2", "--seed", "0", "--out", str(scores)]) == 0
    rc = main(
        [
            "prune", *base,
            "--scores", str(scores),
            "--alpha", "0.2",
            "--strategy", "high-kc",
            "--out", str(pruned),
            "--plan-out", str(plan),
        ]
    )
    assert rc == 0
    # ceil(0.2 * 4) = 1 edge removed, the top scorer
    assert plan.read_text() == "0\t1\n"
    kept = load_graph(str(pruned), str(GOLDEN / "features.csv"))
    assert kept.edge_set() == {(1, 2), (2, 3), (3, 4)}


def test_prune_rejects_nan_score(tmp_path, capsys):
    # a NaN score would sort first and be pruned first
    scores = tmp_path / "scores.tsv"
    rows = (GOLDEN / "scores.tsv").read_text().splitlines()
    rows[4] = "1\t2\tnan\tnaive"
    scores.write_text("\n".join(rows) + "\n")
    pruned = tmp_path / "pruned.tsv"
    rc = main(
        [
            "prune",
            "--edges", str(GOLDEN / "edges.tsv"),
            "--features", str(GOLDEN / "features.csv"),
            "--scores", str(scores),
            "--alpha", "0.25",
            "--out", str(pruned),
        ]
    )
    assert rc == 2
    assert "line 5: kc_score must be finite and non-negative" in capsys.readouterr().err
    assert not pruned.exists()


@pytest.mark.parametrize("change", ["subset", "extra-edge", "unknown-route"])
def test_prune_rejects_score_file_that_does_not_fit_the_graph(
    tmp_path, graph_files, capsys, change
):
    graph = ["--edges", graph_files["edges"], "--features", graph_files["features"]]
    scores = tmp_path / "scores.tsv"
    assert main(["score", *graph, "--k", "2", "--out", str(scores)]) == 0
    header, *rows = scores.read_text().splitlines()
    if change == "subset":
        # k would come from the table's size: half the rows, half the cut
        rows = rows[: len(rows) // 2]
        message = f"its {len(rows)} edges are not the graph's"
    elif change == "extra-edge":
        scored = {tuple(sorted(map(int, row.split("\t")[:2]))) for row in rows}
        u, v = next((0, v) for v in range(1, 30) if (0, v) not in scored)
        rows.append(f"{u}\t{v}\t0.0\tfast")
        message = f"its {len(rows)} edges are not the graph's"
    else:
        rows = [row.replace("\tfast", "\tbogus") for row in rows]
        message = "method must be one of naive, fast, got 'bogus'"
    scores.write_text("\n".join([header, *rows]) + "\n")
    pruned = tmp_path / "pruned.tsv"
    rc = main(
        ["prune", *graph, "--scores", str(scores), "--alpha", "0.5", "--out", str(pruned)]
    )
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not pruned.exists()


def test_manifest_replay_and_thread_invariance(tmp_path, graph_files):
    out = tmp_path / "scores.tsv"
    argv = [
        "score",
        "--edges", graph_files["edges"],
        "--features", graph_files["features"],
        "--k", "2",
        "--seed", "1",
        "--out", str(out),
    ]
    assert main(argv) == 0
    first = out.read_bytes()
    manifest = load_manifest(str(out) + ".manifest.json")
    assert tuple(manifest["argv"]) == tuple(argv)
    assert verify_outputs(manifest) == []

    # replay the stored argv, then again in a child process whose
    # OpenBLAS alone runs on one thread
    assert main(list(manifest["argv"])) == 0
    assert verify_outputs(manifest) == []
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "kces.cli", *manifest["argv"]],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert verify_outputs(manifest) == []
    assert out.read_bytes() == first

    # load_manifest checked the keys
    digest = hashlib.sha256(Path(graph_files["edges"]).read_bytes()).hexdigest()
    assert manifest["inputs"]["edges"]["sha256"] == digest


def test_manifest_is_sorted_indented_json(tmp_path, graph_files):
    # the on-disk form diffs cleanly and names the package's version
    out = tmp_path / "scores.tsv"
    argv = ["score", "--edges", graph_files["edges"], "--features", graph_files["features"]]
    assert main([*argv, "--k", "2", "--out", str(out)]) == 0
    text = (tmp_path / "scores.tsv.manifest.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
    assert json.loads(text)["version"] == kces.__version__


def test_exit_code_input_error(tmp_path):
    rc = main(
        [
            "score",
            "--edges", str(tmp_path / "missing.tsv"),
            "--features", str(GOLDEN / "features.csv"),
            "--k", "2",
            "--out", str(tmp_path / "out.tsv"),
        ]
    )
    assert rc == 2


def test_failed_manifest_write_is_an_input_error(tmp_path, capsys):
    rc = main(
        [
            "score",
            "--edges", str(GOLDEN / "edges.tsv"),
            "--features", str(GOLDEN / "features.csv"),
            "--k", "2",
            "--out", str(tmp_path / "scores.tsv"),
            "--manifest-out", str(tmp_path / "missing" / "m.json"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("kces: input error: ")


def test_exit_code_input_error_on_non_finite_feature(tmp_path, capsys):
    rows = (GOLDEN / "features.csv").read_text().splitlines()
    rows[1] = ",".join(["nan"] + rows[1].split(",")[1:])
    features = tmp_path / "features.csv"
    features.write_text("\n".join(rows) + "\n")
    rc = main(
        [
            "score",
            "--edges", str(GOLDEN / "edges.tsv"),
            "--features", str(features),
            "--k", "2",
            "--out", str(tmp_path / "out.tsv"),
        ]
    )
    assert rc == 2
    assert "line 2: non-finite value 'nan'" in capsys.readouterr().err
    assert not (tmp_path / "out.tsv").exists()


def test_exit_code_input_error_on_overflowing_features(tmp_path, capsys):
    rows = (GOLDEN / "features.csv").read_text().splitlines()
    rows[0] = "1e308,1e308,1e308"
    rows[1] = "1e308,1.0,1.0"
    features = tmp_path / "features.csv"
    features.write_text("\n".join(rows) + "\n")
    rc = main(
        [
            "score",
            "--edges", str(GOLDEN / "edges.tsv"),
            "--features", str(features),
            "--k", "2",
            "--out", str(tmp_path / "out.tsv"),
        ]
    )
    assert rc == 2
    assert "feature sums overflow at node 0" in capsys.readouterr().err
    assert not (tmp_path / "out.tsv").exists()


@pytest.mark.parametrize("which", ["features", "scores"])
def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys, which):
    # a UTF-16 byte-order mark before the features, a stray 0xff in a score row's route
    graph = ["--edges", str(GOLDEN / "edges.tsv"), "--features", str(GOLDEN / "features.csv")]
    out = tmp_path / "out.tsv"
    if which == "features":
        bad = tmp_path / "features.csv"
        bad.write_bytes(b"\xff\xfe" + (GOLDEN / "features.csv").read_bytes())
        graph[3] = str(bad)
        argv = ["score", *graph, "--k", "2", "--out", str(out)]
    else:
        bad = tmp_path / "scores.tsv"
        bad.write_bytes((GOLDEN / "scores.tsv").read_bytes().replace(b"\tnaive", b"\tna\xffve", 1))
        argv = ["prune", *graph, "--scores", str(bad), "--alpha", "0.2", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"kces: input error: {bad}: not UTF-8 text (")
    assert not out.exists()


def test_negative_label_is_an_input_error(tmp_path, graph_files, capsys):
    # every command that reads a label file holds it to one rule
    labels = tmp_path / "labels.csv"
    rows = Path(graph_files["labels"]).read_text().splitlines()
    labels.write_text("\n".join(["-1", *rows[1:]]) + "\n")
    out = tmp_path / "out"
    graph = ["--edges", graph_files["edges"], "--features", graph_files["features"], "--labels", str(labels)]
    for command in (
        ["score"],
        ["train", "--m", "8", "--steps", "2"],
        ["sweep", "--strategies", "random", "--m", "8", "--steps", "2"],
        ["attack", "--kind", "dice", "--budget-ratio", "0.4"],
    ):
        assert main([*command, *graph, "--out", str(out)]) == 2, command[0]
        assert capsys.readouterr().err == "kces: input error: labels must be non-negative\n", command[0]
        assert not out.exists(), command[0]


def test_exit_code_config_error(tmp_path, graph_files):
    base = [
        "--edges", graph_files["edges"],
        "--features", graph_files["features"],
    ]
    rc = main(
        [
            "prune", *base,
            "--k", "2",
            "--alpha", "2.0",
            "--out", str(tmp_path / "x.tsv"),
        ]
    )
    assert rc == 4
    rc = main(
        [
            "score", *base,
            "--labels", graph_files["labels"],
            "--k", "2",
            "--out", str(tmp_path / "y.tsv"),
        ]
    )
    assert rc == 4


@pytest.mark.parametrize(
    "command, flags",
    [
        ("score", ["--edges", "E", "--out", "S"]),
        ("prune", ["--edges", "E", "--alpha", "0.1", "--out", "S"]),
        ("dist", ["--clean-edges", "E", "--out-prefix", "S"]),
    ],
)
def test_scoring_commands_reject_scalar_truth_encoding(command, flags, capsys):
    # scoring always encodes one-hot, so argparse refuses --encoding with
    # any value, the old default too, before reading a file
    for value in ("scalar-truth", "one-hot"):
        with pytest.raises(SystemExit) as info:
            main([command, *flags, "--features", "F", "--k", "2", "--encoding", value])
        assert info.value.code == 2
        assert "unrecognized arguments: --encoding" in capsys.readouterr().err


def test_exit_code_numeric_error(tmp_path, graph_files):
    rc = main(
        [
            "train",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--labels", graph_files["labels"],
            "--eta", "1e6",
            "--m", "8",
            "--steps", "300",
            "--out", str(tmp_path / "report.csv"),
        ]
    )
    assert rc == 3


def test_attack_record_replays(tmp_path, graph_files):
    out = tmp_path / "attacked.tsv"
    rc = main(
        [
            "attack",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--kind", "random",
            "--budget-ratio", "0.4",
            "--seed", "5",
            "--out", str(out),
        ]
    )
    assert rc == 0
    rows = [line.split("\t") for line in Path(str(out) + ".record.tsv").read_text().splitlines()]
    record = PerturbationRecord(
        added=tuple((int(u), int(v)) for sign, u, v in rows if sign == "+"),
        removed=tuple((int(u), int(v)) for sign, u, v in rows if sign == "-"),
    )
    clean = load_graph(graph_files["edges"], graph_files["features"])
    attacked = load_graph(str(out), graph_files["features"])
    assert set(record.removed) <= clean.edge_set()
    assert (clean.edge_set() - set(record.removed)) | set(record.added) == attacked.edge_set()

    rc = main(
        [
            "attack",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--kind", "dice",
            "--budget-ratio", "0.4",
            "--out", str(tmp_path / "d.tsv"),
        ]
    )
    assert rc == 4  # dice without labels


def test_train_reports_and_traces(tmp_path, graph_files):
    out = tmp_path / "report.csv"
    traces = tmp_path / "traces"
    rc = main(
        [
            "train",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--labels", graph_files["labels"],
            "--m", "64",
            "--steps", "40",
            "--seed", "2",
            "--out", str(out),
            "--trace-dir", str(traces),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "split,accuracy"
    assert [row.split(",")[0] for row in lines[1:]] == ["train", "val", "test"]
    for idx in (0, 1):
        trace_lines = (traces / f"class_{idx}.csv").read_text().splitlines()
        assert len(trace_lines) == 42  # header + steps 0..40


def test_train_writes_the_per_class_loops_report_and_traces(tmp_path, graph_files):
    out = tmp_path / "report.csv"
    traces = tmp_path / "traces"
    rc = main(
        [
            "train",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--labels", graph_files["labels"],
            "--m", "64",
            "--steps", "40",
            "--seed", "2",
            "--out", str(out),
            "--trace-dir", str(traces),
        ]
    )
    assert rc == 0
    g = load_graph(graph_files["edges"], graph_files["features"], graph_files["labels"])
    cfg = TrainConfig(m=64, steps=40, seed=2)
    report, ref_traces = oracle_evaluate(g, g.labels, make_split(g.n_nodes, 2), cfg)
    report.write_csv(tmp_path / "ref_report.csv")
    assert out.read_bytes() == (tmp_path / "ref_report.csv").read_bytes()
    for idx, trace in enumerate(ref_traces):
        ref = tmp_path / f"ref_{idx}.csv"
        write_trace_csv(trace, ref)
        assert (traces / f"class_{idx}.csv").read_bytes() == ref.read_bytes()


def _sweep_cells(graph_files, seeds, m, steps, eta=None):
    """The sweep as a loop over cells: select, prune, then train per class."""
    g = load_graph(graph_files["edges"], graph_files["features"], graph_files["labels"])
    k = int(np.unique(g.labels).size)
    for seed in seeds:
        pseudo = kmeans_pseudo_labels(g, k, seed, restarts=10)
        table = kc_scores_all(g, encode_labels(pseudo, "one-hot"))
        split = make_split(g.n_nodes, seed)
        cfg = TrainConfig(m=m, steps=steps, eta=eta, seed=seed)
        for strategy in ("high-kc", "low-kc", "random"):
            for alpha in SWEEP_ALPHAS:
                plan = select_edges(table, PruneConfig(alpha=alpha, strategy=strategy, seed=seed))
                report, _ = oracle_evaluate(apply_prune(g, plan), g.labels, split, cfg)
                yield strategy, alpha, seed, report.test_accuracy


def _on_cpus(monkeypatch, cpus):
    """Give scoring and the sweep ``cpus`` usable CPUs, and return the
    pids of the worker processes forked from here on."""
    if cpus > 1 and (
        not hasattr(os, "fork") or kcscore._openblas_swap() is None or threading.active_count() > 1
    ):
        pytest.skip("needs os.fork, scipy's OpenBLAS and no other thread")
    monkeypatch.setattr(kcscore, "_usable_cpus", lambda: cpus)
    return record_forks(monkeypatch)


def _assert_workers_gone(cpus, pids):
    """One CPU forks nothing.  On two, the scoring run forks two workers
    and the sweep's rows two more, and all four are reaped, leaving no
    process or thread behind."""
    if cpus == 1:
        assert pids == []
    else:
        assert len(pids) == 4
        assert_reaped(pids)
        assert threading.active_count() == 1


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "two-workers"])
def test_sweep_writes_the_per_cell_loops_csv(tmp_path, graph_files, monkeypatch, cpus):
    pids = _on_cpus(monkeypatch, cpus)
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep",
        "--edges", graph_files["edges"],
        "--features", graph_files["features"],
        "--labels", graph_files["labels"],
        "--seeds", "0,1",
        "--m", "32",
        "--steps", "20",
        "--out", str(out),
    ]
    assert main(argv) == 0
    _assert_workers_gone(cpus, pids)
    rows = sorted(_sweep_cells(graph_files, (0, 1), m=32, steps=20))
    lines = ["strategy,alpha,seed,test_accuracy"] + [
        f"{strategy},{format_float(alpha)},{seed},{format_float(acc)}"
        for strategy, alpha, seed, acc in rows
    ]
    assert out.read_text() == "\n".join(lines) + "\n"


@pytest.mark.parametrize("cpus", [1, 2], ids=["in-process", "two-workers"])
def test_sweep_divergence_reports_the_per_cell_loops_first_error(tmp_path, graph_files, capsys, monkeypatch, cpus):
    first = None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for _ in _sweep_cells(graph_files, (0,), m=8, steps=300, eta=1e6):
                pass
        except OracleDivergence as exc:
            first = exc.step
    assert first is not None
    capsys.readouterr()
    pids = _on_cpus(monkeypatch, cpus)
    rc = main(
        [
            "sweep",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--labels", graph_files["labels"],
            "--eta", "1e6",
            "--m", "8",
            "--steps", "300",
            "--out", str(tmp_path / "sweep.csv"),
        ]
    )
    assert rc == 3
    _assert_workers_gone(cpus, pids)
    assert capsys.readouterr().err == (
        f"kces: numeric error: training loss became non-finite at step {first}\n"
    )
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.skipif(
    not hasattr(os, "fork") or kcscore._openblas_swap() is None,
    reason="needs os.fork and scipy's OpenBLAS",
)
def test_a_dead_scoring_worker_is_not_an_input_error(tmp_path, capsys, monkeypatch):
    if threading.active_count() > 1:
        pytest.skip("other threads are alive")
    g = make_sbm_benchmark(seed=0, n=200, p_in=20 / 200, p_out=2 / 200)
    write_edge_tsv(g, tmp_path / "edges.tsv")
    write_features_csv(g, tmp_path / "features.csv")
    monkeypatch.setattr(kcscore, "_usable_cpus", lambda: 2)
    parent = os.getpid()
    score_segment = kcscore._score_segment

    def dying(cache, g, plan, i, runs, fast):
        if i == 1 and os.getpid() != parent:
            os._exit(3)
        score_segment(cache, g, plan, i, runs, fast)

    monkeypatch.setattr(kcscore, "_score_segment", dying)
    out = tmp_path / "scores.tsv"
    rc = main(
        [
            "score",
            "--edges", str(tmp_path / "edges.tsv"),
            "--features", str(tmp_path / "features.csv"),
            "--k", "2",
            "--out", str(out),
        ]
    )
    # segment 1's worker died, and the pool may have ended segment 0's
    # before it sent its result: both are named, not blamed
    assert rc == 5
    assert re.fullmatch(
        r"kces: worker error: a scoring worker exited, leaving segment\(s\) (0, )?1 without a result\n",
        capsys.readouterr().err,
    )
    assert not out.exists()


def test_a_dead_sweep_worker_is_not_an_input_error(tmp_path, graph_files, capsys, monkeypatch):
    pids = _on_cpus(monkeypatch, 2)
    parent = os.getpid()
    evaluate = cli.evaluate_classifiers

    def dying(graphs, labels, split, cfg):
        if cfg.seed == 1 and os.getpid() != parent:
            os._exit(3)
        return evaluate(graphs, labels, split, cfg)

    monkeypatch.setattr(cli, "evaluate_classifiers", dying)
    out = tmp_path / "sweep.csv"
    rc = main(
        [
            "sweep",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--labels", graph_files["labels"],
            "--strategies", "random",
            "--seeds", "0,1",
            "--m", "8",
            "--steps", "2",
            "--out", str(out),
        ]
    )
    # row 1's worker died, and the pool may have ended row 0's before it
    # sent its result: both are named, not blamed
    assert rc == 5
    assert re.fullmatch(
        r"kces: worker error: a sweep worker exited, leaving row\(s\) (0, )?1 without a result\n",
        capsys.readouterr().err,
    )
    assert not out.exists()
    _assert_workers_gone(2, pids)


def test_sweep_factors_each_edge_once_for_all_seeds(tmp_path, graph_files, monkeypatch):
    g = load_graph(graph_files["edges"], graph_files["features"], graph_files["labels"])
    k = int(np.unique(g.labels).size)
    calls = {"dsytrf": 0, "dtrmm": 0}
    dsytrf, dtrmm = kcscore.lapack.dsytrf, kcscore.blas.dtrmm

    def counting_dsytrf(*args, **kwargs):
        calls["dsytrf"] += 1
        return dsytrf(*args, **kwargs)

    def counting_dtrmm(alpha, a, b, *args, **kwargs):
        calls["dtrmm"] += b.shape[1]
        return dtrmm(alpha, a, b, *args, **kwargs)

    monkeypatch.setattr(kcscore.lapack, "dsytrf", counting_dsytrf)
    monkeypatch.setattr(kcscore.blas, "dtrmm", counting_dtrmm)
    # the counts are the parent's, so the segments are scored in-process
    monkeypatch.setattr(kcscore, "_usable_cpus", lambda: 1)
    kc_scores_all(g, encode_labels(kmeans_pseudo_labels(g, k, 0), "one-hot"))
    alone = dict(calls)
    calls.update(dsytrf=0, dtrmm=0)
    rc = main(
        [
            "sweep",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--labels", graph_files["labels"],
            "--strategies", "random",
            "--seeds", "0,1,2",
            "--m", "8",
            "--steps", "2",
            "--out", str(tmp_path / "sweep.csv"),
        ]
    )
    assert rc == 0
    assert alone["dsytrf"] > 0
    assert calls["dsytrf"] == alone["dsytrf"]
    # the kernel columns are built once; each further seed maps only its
    # own k label columns
    assert calls["dtrmm"] == alone["dtrmm"] + 2 * k


def test_sweep_stops_at_the_first_scoring_error(tmp_path, capsys, monkeypatch):
    # node 40 has zero features and one edge, to node 0: K-means succeeds
    # under both seeds, but removing (0, 40) leaves node 40's aggregated
    # row zero, so scoring raises; the sweep stops before any seed
    # trains, in either seed order
    sbm = make_sbm_benchmark(seed=0, n=40)
    g = Graph(
        np.vstack([sbm.features, np.zeros(sbm.features.shape[1])]),
        np.vstack([sbm.edges, [0, 40]]),
        labels=np.append(sbm.labels, 0),
    )
    write_edge_tsv(g, tmp_path / "edges.tsv")
    write_features_csv(g, tmp_path / "features.csv")
    write_labels(g.labels, tmp_path / "labels.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        for seed in (0, 1):
            labels = encode_labels(kmeans_pseudo_labels(g, 2, seed), "one-hot")
            with pytest.raises(NumericError, match=r"removing edge \(0, 40\) degenerates aggregation") as info:
                kc_scores_all(g, labels)
    capsys.readouterr()
    # rows may train in worker processes, whose calls the parent cannot
    # count, so the check is that no row was handed out at all
    dispatched = []
    map_jobs = cli._map_jobs

    def recording(task, jobs, kind, unit):
        dispatched.append(jobs)
        return map_jobs(task, jobs, kind, unit)

    monkeypatch.setattr(cli, "_map_jobs", recording)
    out = tmp_path / "sweep.csv"
    for seeds in ("0,1", "1,0"):
        rc = main(
            [
                "sweep",
                "--edges", str(tmp_path / "edges.tsv"),
                "--features", str(tmp_path / "features.csv"),
                "--labels", str(tmp_path / "labels.csv"),
                "--k", "2",
                "--strategies", "random",
                "--seeds", seeds,
                "--m", "8",
                "--steps", "2",
                "--out", str(out),
            ]
        )
        assert rc == 3, seeds
        assert capsys.readouterr().err == f"kces: numeric error: {info.value}\n"
        assert not out.exists()
        assert dispatched == [], seeds


def test_dist_exports_one_csv_per_variant(tmp_path, graph_files):
    attacked = tmp_path / "att.tsv"
    assert main(
        [
            "attack",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--kind", "random",
            "--budget-ratio", "0.3",
            "--seed", "7",
            "--out", str(attacked),
        ]
    ) == 0
    prefix = str(tmp_path / "dist_")
    argv = [
        "dist",
        "--features", graph_files["features"],
        "--clean-edges", graph_files["edges"],
        "--attacked-edges", str(attacked),
        "--k", "2",
        "--seed", "0",
        "--samples", "20",
        "--out-prefix", prefix,
    ]
    assert main(argv) == 0
    clean_csv = Path(prefix + "clean.csv")
    att_csv = Path(prefix + "attacked.csv")
    assert clean_csv.exists() and att_csv.exists()
    first = clean_csv.read_bytes()
    assert main(argv) == 0
    assert clean_csv.read_bytes() == first

    rc = main(
        [
            "dist",
            "--features", graph_files["features"],
            "--k", "2",
            "--out-prefix", str(tmp_path / "none_"),
        ]
    )
    assert rc == 4


def test_sweep_covers_full_grid(tmp_path, graph_files):
    out = tmp_path / "sweep.csv"
    argv = [
        "sweep",
        "--edges", graph_files["edges"],
        "--features", graph_files["features"],
        "--labels", graph_files["labels"],
        "--strategies", "high-kc,random",
        "--seeds", "0,1",
        "--m", "32",
        "--steps", "20",
        "--out", str(out),
    ]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "strategy,alpha,seed,test_accuracy"
    assert len(lines) == 1 + len(SWEEP_ALPHAS) * 2 * 2
    rows = [line.split(",") for line in lines[1:]]
    assert {row[0] for row in rows} == {"high-kc", "random"}
    high_seed0 = [float(row[1]) for row in rows if row[0] == "high-kc" and row[2] == "0"]
    assert high_seed0 == list(SWEEP_ALPHAS)
    assert all(0.0 <= float(row[3]) <= 1.0 for row in rows)

    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize(
    "strategies, seeds, message",
    [
        ("high-kc,bogus", "0", "unknown strategies: bogus"),
        ("high-kc", "a", "seeds must be comma-separated integers, got 'a'"),
        ("high-kc", "0,x", "seeds must be comma-separated integers, got '0,x'"),
        ("high-kc", "0,0", "repeated seeds: 0, 0"),
        ("high-kc,high-kc", "0", "repeated strategies: high-kc, high-kc"),
    ],
    ids=["unknown-strategy", "non-integer-seed", "non-integer-second-seed", "repeated-seed", "repeated-strategy"],
)
def test_sweep_rejects_unknown_strategy(tmp_path, graph_files, capsys, strategies, seeds, message):
    rc = main(
        [
            "sweep",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--labels", graph_files["labels"],
            "--strategies", strategies,
            "--seeds", seeds,
            "--out", str(tmp_path / "s.csv"),
        ]
    )
    assert rc == 4
    assert capsys.readouterr().err == f"kces: config error: {message}\n"
    assert not (tmp_path / "s.csv").exists()


def _subparsers():
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _parameters(manifest_path):
    """The manifest's parameters, checked to be exactly its command's
    parsed arguments."""
    manifest = load_manifest(manifest_path)
    parser = _subparsers()[manifest["command"]]
    assert set(manifest["parameters"]) == {action.dest for action in parser._actions} - {"help"}
    return manifest["parameters"]


def test_every_option_is_set_by_some_test():
    # an option no test passes can break or lose its effect unseen
    given = set()
    for path in Path(__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                given.add(node.value)
    unset = sorted(
        {
            option
            for parser in _subparsers().values()
            for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        - given
    )
    assert unset == []


def test_manifest_parameters_are_the_parsed_arguments(tmp_path, graph_files):
    base = ["--edges", graph_files["edges"], "--features", graph_files["features"]]
    labels = ["--labels", graph_files["labels"]]
    runs = {
        "score": (["score", *base, "--k", "2", "--out", str(tmp_path / "s.tsv")], "s.tsv"),
        "prune": (["prune", *base, "--k", "2", "--alpha", "0.25", "--out", str(tmp_path / "p.tsv")], "p.tsv"),
        "attack": (
            ["attack", *base, "--kind", "random", "--budget-ratio", "0.4", "--out", str(tmp_path / "a.tsv")],
            "a.tsv",
        ),
        "train": (
            ["train", *base, *labels, "--m", "16", "--steps", "10", "--seed", "4", "--out", str(tmp_path / "r.csv")],
            "r.csv",
        ),
        "dist": (
            ["dist", "--features", graph_files["features"], "--clean-edges", graph_files["edges"],
             "--k", "2", "--out-prefix", str(tmp_path / "d_")],
            "d_clean.csv",
        ),
        "sweep": (
            ["sweep", *base, *labels, "--strategies", "random", "--m", "8", "--steps", "2",
             "--out", str(tmp_path / "w.csv")],
            "w.csv",
        ),
    }
    assert set(runs) == set(_subparsers())
    recorded = {}
    for command, (argv, primary) in runs.items():
        assert main(argv) == 0, command
        recorded[command] = _parameters(str(tmp_path / primary) + ".manifest.json")
    # a default the command resolved is recorded as resolved
    assert recorded["sweep"]["k"] == 2
    assert recorded["train"]["split_seed"] == 4
    assert recorded["score"]["restarts"] == 10 and recorded["score"]["labels"] is None


def test_verbose_logs_on_every_call(tmp_path, caplog):
    argv = [
        "score",
        "--edges", str(GOLDEN / "edges.tsv"),
        "--features", str(GOLDEN / "features.csv"),
        "--k", "2",
        "--out", str(tmp_path / "scores.tsv"),
    ]
    manifest = str(tmp_path / "scores.tsv.manifest.json")
    assert main([*argv, "--verbose"]) == 0
    assert "scored 4 edges" in caplog.text
    assert _parameters(manifest)["verbose"] is True
    caplog.clear()
    assert main(argv) == 0
    assert "scored" not in caplog.text
    assert _parameters(manifest)["verbose"] is False


def test_score_restarts(tmp_path, graph_files):
    # on this graph one K-means start finds a worse 3-clustering than ten
    graph = ["--edges", graph_files["edges"], "--features", graph_files["features"], "--k", "3"]
    out, default = tmp_path / "scores.tsv", tmp_path / "default.tsv"
    assert main(["score", *graph, "--restarts", "1", "--out", str(out)]) == 0
    assert main(["score", *graph, "--out", str(default)]) == 0
    g = load_graph(graph_files["edges"], graph_files["features"])
    ref = tmp_path / "ref.tsv"
    kc_scores_all(g, encode_labels(kmeans_pseudo_labels(g, 3, 0, restarts=1))).write_tsv(ref)
    assert out.read_bytes() == ref.read_bytes()
    assert out.read_bytes() != default.read_bytes()
    assert _parameters(str(out) + ".manifest.json")["restarts"] == 1


@pytest.mark.parametrize(
    "flag, value, kappa, split_seed",
    [("--kappa", "0.2", 0.2, 2), ("--split-seed", "7", 0.1, 7)],
    ids=["kappa", "split-seed"],
)
def test_train_config_and_split_flags(tmp_path, graph_files, flag, value, kappa, split_seed):
    out = tmp_path / "report.csv"
    rc = main(
        [
            "train",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--labels", graph_files["labels"],
            "--m", "16",
            "--steps", "10",
            "--seed", "2",
            flag, value,
            "--out", str(out),
        ]
    )
    assert rc == 0
    g = load_graph(graph_files["edges"], graph_files["features"], graph_files["labels"])
    cfg = TrainConfig(m=16, steps=10, kappa=kappa, seed=2)
    ref = tmp_path / "ref.csv"
    evaluate_classifier(g, g.labels, make_split(g.n_nodes, split_seed), cfg).write_csv(ref)
    assert out.read_bytes() == ref.read_bytes()
    params = _parameters(str(out) + ".manifest.json")
    assert (params["kappa"], params["split_seed"]) == (kappa, split_seed)


def test_attack_add_fraction_and_record_out(tmp_path, graph_files):
    out = tmp_path / "attacked.tsv"
    record = tmp_path / "elsewhere.tsv"
    rc = main(
        [
            "attack",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--kind", "random",
            "--budget-ratio", "0.4",
            "--add-fraction", "1.0",
            "--out", str(out),
            "--record-out", str(record),
        ]
    )
    assert rc == 0
    rows = record.read_text().splitlines()
    assert rows and all(row.startswith("+\t") for row in rows)
    assert not Path(str(out) + ".record.tsv").exists()
    manifest = str(out) + ".manifest.json"
    assert load_manifest(manifest)["outputs"]["record"]["path"] == str(record)
    params = _parameters(manifest)
    assert (params["add_fraction"], params["record_out"]) == (1.0, str(record))


def test_dist_pruned_edges(tmp_path, graph_files):
    graph = ["--edges", graph_files["edges"], "--features", graph_files["features"], "--k", "2"]
    pruned = str(tmp_path / "pruned.tsv")
    assert main(["prune", *graph, "--alpha", "0.25", "--out", pruned]) == 0
    scoring = ["--features", graph_files["features"], "--k", "2", "--samples", "20"]
    prefix = str(tmp_path / "dist_")
    assert main(["dist", *scoring, "--pruned-edges", pruned, "--out-prefix", prefix]) == 0
    # the same graph as the clean variant summarizes to the same bytes
    assert main(["dist", *scoring, "--clean-edges", pruned, "--out-prefix", str(tmp_path / "ref_")]) == 0
    assert Path(prefix + "pruned.csv").read_bytes() == (tmp_path / "ref_clean.csv").read_bytes()
    assert not Path(prefix + "clean.csv").exists()
    manifest = prefix + "pruned.csv.manifest.json"
    assert _parameters(manifest)["pruned_edges"] == pruned
    assert load_manifest(manifest)["inputs"]["pruned_edges"]["path"] == pruned
