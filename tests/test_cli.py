"""End-to-end command-line checks: outputs, exit codes, manifests, replay."""

import json
import hashlib
from pathlib import Path

import numpy as np
import pytest

from kces.cli import SWEEP_ALPHAS, main
from kces.graph import load_graph, write_edge_tsv, write_features_csv, write_labels
from kces.manifest import load_manifest, sha256_file, verify_outputs
from kces.perturb import apply_record, read_record_tsv
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
            "--method", "naive",
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


def test_manifest_replay_and_thread_invariance(tmp_path, graph_files):
    out = tmp_path / "scores.tsv"
    argv = [
        "score",
        "--edges", graph_files["edges"],
        "--features", graph_files["features"],
        "--k", "2",
        "--seed", "1",
        "--out", str(out),
        "--threads", "1",
    ]
    assert main(argv) == 0
    first = out.read_bytes()
    manifest = load_manifest(str(out) + ".manifest.json")
    assert tuple(manifest.argv) == tuple(argv)
    assert verify_outputs(manifest) == []

    # replay the stored argv, then again with a different worker count
    assert main(list(manifest.argv)) == 0
    assert verify_outputs(manifest) == []
    threaded = [a if a != "1" or argv[i - 1] != "--threads" else "4" for i, a in enumerate(argv)]
    assert main(threaded) == 0
    assert out.read_bytes() == first

    payload = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert set(payload) == {"command", "version", "parameters", "inputs", "outputs", "argv"}
    digest = hashlib.sha256(Path(graph_files["edges"]).read_bytes()).hexdigest()
    assert payload["inputs"]["edges"]["sha256"] == digest


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
    rc = main(
        [
            "score", *base,
            "--k", "2",
            "--out", str(tmp_path / "z.tsv"),
            "--threads", "0",
        ]
    )
    assert rc == 4


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
    record = read_record_tsv(str(out) + ".record.tsv")
    clean = load_graph(graph_files["edges"], graph_files["features"])
    attacked = load_graph(str(out), graph_files["features"])
    assert apply_record(clean, record).edge_set() == attacked.edge_set()

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
    assert main([*argv, "--threads", "3"]) == 0
    assert out.read_bytes() == first


def test_sweep_rejects_unknown_strategy(tmp_path, graph_files):
    rc = main(
        [
            "sweep",
            "--edges", graph_files["edges"],
            "--features", graph_files["features"],
            "--labels", graph_files["labels"],
            "--strategies", "high-kc,bogus",
            "--out", str(tmp_path / "s.csv"),
        ]
    )
    assert rc == 4
