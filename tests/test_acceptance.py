"""Acceptance gate: ten pinned behavioral criteria, one test per criterion.

Each test prints a single PASS/FAIL scoreboard line with the measured
numbers.  The tolerances and workloads here are contractual; loosening
them to make a red test green defeats the point of the gate.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import load_manifest, oracle_fd_loss_gradient, oracle_gkc, verify_outputs

from kces.errors import KcesWarning
from kces.gnn import (
    TrainConfig,
    evaluate_classifier,
    init_model,
    make_split,
    spectral_predictor,
    train_gd,
)
from kces.graph import (
    aggregate_features,
    remove_edge,
    write_edge_tsv,
    write_features_csv,
    write_labels,
)
from kces.kcscore import kc_score_naive, kc_scores_all
from kces.kernel import arccos_kernel, gkc, gram_matrix
from kces.perturb import dice_attack, random_attack
from kces.pseudolabel import encode_labels, kmeans_pseudo_labels
from kces.sanitize import PruneConfig, apply_prune, select_edges
from kces.synth import make_sbm_benchmark, random_graph
from kces.cli import main as cli_main


def _scoreboard(number, name, ok, detail):
    print(f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def _two_class_labels(rng, n):
    while True:
        assign = rng.integers(0, 2, size=n)
        if 0 < assign.sum() < n:
            return assign


def test_criterion_01_kernel_closed_forms():
    dots = np.array([[1.0, 0.5, 0.0, -1.0]])
    h = arccos_kernel(dots)
    expected = np.array([[0.5, 1.0 / 6.0, 0.0, 0.0]])
    dev = float(np.abs(h - expected).max())
    g = random_graph(12, 0.3, 5, seed=0)
    gm = gram_matrix(aggregate_features(g))
    diag_dev = float(np.abs(np.diag(gm.h) - 0.5).max())
    ok = dev <= 1e-12 and diag_dev <= 1e-12
    _scoreboard(1, "kernel-closed-forms", ok, f"max dev {max(dev, diag_dev):.2e}")
    assert ok


def test_criterion_02_complexity_dual_route():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 17))
        g = random_graph(n, 0.35, 6, seed=seed, avoid_twins=True)
        lm = encode_labels(_two_class_labels(rng, n), "one-hot")
        gm = gram_matrix(aggregate_features(g))
        fast = gkc(gm, lm)
        dense = oracle_gkc(gm.h, lm.columns, ridge=gm.ridge)
        worst = max(worst, abs(fast - dense) / abs(dense))
    ok = worst <= 1e-10
    _scoreboard(2, "complexity-dual-route", ok, f"20 graphs, max rel {worst:.2e}")
    assert ok


def test_criterion_03_fast_path_equivalence():
    worst_rel = 0.0
    n_edges = n_naive = naive_off = 0
    for seed in range(100, 150):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 65))
        g = random_graph(n, 0.12, 8, seed=seed, avoid_twins=True)
        lm = encode_labels(_two_class_labels(rng, n), "one-hot")
        table = kc_scores_all(g, lm)
        assert np.array_equal(table.edges, g.edges)
        for (u, v), got, fast in zip(g.edges.tolist(), table.scores, table.fast):
            ref = kc_score_naive(g, lm, u, v)
            n_edges += 1
            if fast:
                diff = abs(got - ref)
                if diff > 1e-12:
                    worst_rel = max(worst_rel, diff / abs(ref))
            else:
                n_naive += 1
                naive_off += got != ref
    ok = worst_rel <= 1e-8 and naive_off == 0
    _scoreboard(
        3, "fast-path-equivalence", ok,
        f"50 graphs / {n_edges} edges, max fast rel {worst_rel:.2e}, "
        f"{naive_off} of {n_naive} naive rows off",
    )
    assert ok


def test_criterion_04_residual_tracks_spectral_forecast():
    passes = 0
    worst = []
    for seed in range(5):
        g = random_graph(16, 0.25, 32, seed=seed, avoid_twins=True)
        xt = aggregate_features(g)
        y = np.random.default_rng(seed).choice([-1.0, 1.0], size=16)
        gm = gram_matrix(xt)
        eta = min(0.5, 1.0 / float(np.linalg.eigvalsh(gm.h)[-1]))
        cfg = TrainConfig(m=8192, steps=200, eta=eta, kappa=0.1, seed=seed)
        trace = train_gd(init_model(cfg, 32), xt, y, cfg)
        predicted = spectral_predictor(gm, y, eta).predicted_norm(np.arange(201))
        # error relative to the trajectory scale (the initial residual)
        rel = np.abs(trace.residual_norms - predicted) / trace.residual_norms[0]
        worst.append(float(rel.max()))
        passes += bool((rel <= 0.1).all())
    ok = passes >= 4
    _scoreboard(
        4, "residual-tracks-spectrum", ok,
        f"{passes}/5 seeds within 0.1, per-seed max {['%.3f' % w for w in worst]}",
    )
    assert ok


def test_criterion_05_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    n, f, m = 8, 5, 32
    x = rng.standard_normal((n, f))
    y = rng.choice([-1.0, 1.0], size=n)
    state = init_model(TrainConfig(m=m, steps=0, kappa=0.1, seed=13), f)
    # the gradient the trainer applies: one step of train_gd at eta = 1
    step = TrainConfig(m=m, steps=1, eta=1.0, kappa=0.1, seed=13)
    grad = state.w - train_gd(state, x, y, step).final_state.w
    worst = 0.0
    for i, j in zip(rng.integers(0, f, 20), rng.integers(0, m, 20)):
        idx = (int(i), int(j))
        fd = oracle_fd_loss_gradient(state.w, state.a, x, y, m, idx)
        worst = max(worst, abs(grad[idx] - fd) / max(abs(fd), 1e-10))
    ok = worst <= 1e-5
    _scoreboard(5, "gradient-vs-finite-diff", ok, f"20 coords, max rel {worst:.2e}")
    assert ok


def test_criterion_06_injected_edges_score_higher():
    wins = 0
    margins = []
    for seed in range(10):
        g = make_sbm_benchmark(seed=seed)
        attacked, record = random_attack(g, 0.25, seed + 1000)
        pseudo = kmeans_pseudo_labels(attacked, 2, seed)
        table = kc_scores_all(attacked, encode_labels(pseudo, "one-hot"))
        added = set(record.added)
        hit = np.array([tuple(e) in added for e in table.edges.tolist()])
        injected = table.scores[hit]
        clean = table.scores[~hit]
        med_inj = float(np.median(injected))
        med_clean = float(np.median(clean))
        margins.append(med_inj / med_clean)
        wins += med_inj > med_clean
    ok = wins >= 9
    _scoreboard(
        6, "injected-edges-score-higher", ok,
        f"{wins}/10 seeds, median ratio {np.median(margins):.2f}",
    )
    assert ok


@pytest.fixture(scope="module")
def defense_benchmark():
    """Pruning-defense benchmark: planted two-block graphs, label-aware
    attack at half the edge budget, alpha 0.25 pruning, 10 seeds."""
    acc = {k: [] for k in ("clean", "attacked", "high-kc", "random", "low-kc")}
    for seed in range(10):
        g = make_sbm_benchmark(seed=seed)
        attacked, _ = dice_attack(g, g.labels, 0.5, seed + 1000)
        pseudo = kmeans_pseudo_labels(attacked, 2, seed)
        table = kc_scores_all(attacked, encode_labels(pseudo, "one-hot"))
        split = make_split(g.n_nodes, seed)
        cfg = TrainConfig(m=256, steps=200, kappa=0.1, seed=seed)
        acc["clean"].append(
            evaluate_classifier(g, g.labels, split, cfg).test_accuracy
        )
        acc["attacked"].append(
            evaluate_classifier(attacked, g.labels, split, cfg).test_accuracy
        )
        for strategy in ("high-kc", "random", "low-kc"):
            config = PruneConfig(
                alpha=0.25,
                strategy=strategy,
                seed=seed if strategy == "random" else None,
            )
            pruned = apply_prune(attacked, select_edges(table, config))
            acc[strategy].append(
                evaluate_classifier(pruned, g.labels, split, cfg).test_accuracy
            )
    return {key: float(np.mean(values)) for key, values in acc.items()}


def test_criterion_07_pruning_strategy_ordering(defense_benchmark):
    b = defense_benchmark
    ordered = b["high-kc"] >= b["random"] >= b["low-kc"]
    gap = (b["high-kc"] - b["low-kc"]) * 100.0
    ok = ordered and gap >= 2.0
    _scoreboard(
        7, "pruning-strategy-ordering", ok,
        f"high {b['high-kc']:.3f} >= random {b['random']:.3f} >= "
        f"low {b['low-kc']:.3f}, gap {gap:.1f} pts",
    )
    assert ok


def test_criterion_08_sanitization_recovers_accuracy(defense_benchmark):
    b = defense_benchmark
    recovers = b["high-kc"] > b["attacked"]
    within = (b["clean"] - b["high-kc"]) * 100.0
    ok = recovers and within <= 5.0
    _scoreboard(
        8, "sanitization-recovers-accuracy", ok,
        f"sanitized {b['high-kc']:.3f} vs attacked {b['attacked']:.3f} "
        f"(recovers: {recovers}), clean gap {within:.1f} pts (need <= 5)",
    )
    assert ok


def test_criterion_09_kernel_stays_positive_definite():
    ridge_engagements = 0
    min_seen = np.inf
    n_checked = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", KcesWarning)
        for seed in range(200, 300):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(6, 33))
            g = random_graph(n, 0.2, 6, seed=seed, avoid_twins=True)
            gm = gram_matrix(aggregate_features(g))
            min_seen = min(min_seen, gm.lambda_min)
            assert gm.lambda_min > 0.0
            for u, v in g.edges.tolist():
                variant = gram_matrix(aggregate_features(remove_edge(g, u, v)))
                min_seen = min(min_seen, variant.lambda_min)
                assert variant.lambda_min > 0.0
                n_checked += 1
        ridge_engagements = sum(
            1 for w in caught if "ridge" in str(w.message)
        )
    ok = ridge_engagements == 0
    _scoreboard(
        9, "kernel-stays-positive-definite", ok,
        f"100 graphs / {n_checked} removals, min eig {min_seen:.2e}, "
        f"{ridge_engagements} ridge engagements",
    )
    assert ok


def test_criterion_10_manifest_replay_determinism(tmp_path):
    g = make_sbm_benchmark(seed=3, n=30, p_in=0.25, p_out=0.03, separation=2.5)
    edges = tmp_path / "edges.tsv"
    features = tmp_path / "features.csv"
    labels = tmp_path / "labels.csv"
    write_edge_tsv(g, edges)
    write_features_csv(g, features)
    write_labels(g.labels, labels)
    base = ["--edges", str(edges), "--features", str(features)]

    commands = {
        "score": [
            "score", *base, "--k", "2", "--seed", "1",
            "--out", str(tmp_path / "scores.tsv"),
        ],
        "prune": [
            "prune", *base, "--k", "2", "--seed", "1", "--alpha", "0.25",
            "--out", str(tmp_path / "pruned.tsv"),
        ],
        "attack": [
            "attack", *base, "--kind", "random", "--budget-ratio", "0.4",
            "--seed", "2", "--out", str(tmp_path / "attacked.tsv"),
        ],
        "train": [
            "train", *base, "--labels", str(labels), "--m", "32",
            "--steps", "30", "--seed", "4",
            "--out", str(tmp_path / "report.csv"),
        ],
        "dist": [
            "dist", "--features", str(features), "--clean-edges", str(edges),
            "--k", "2", "--seed", "0", "--samples", "20",
            "--out-prefix", str(tmp_path / "dist_"),
        ],
        "sweep": [
            "sweep", *base, "--labels", str(labels),
            "--strategies", "high-kc,random", "--seeds", "0",
            "--m", "16", "--steps", "10",
            "--out", str(tmp_path / "sweep.csv"),
        ],
    }

    # the child alone runs OpenBLAS on one thread
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    stable = []
    for name, argv in commands.items():
        assert cli_main(argv) == 0, name
        manifest_path = {
            "score": tmp_path / "scores.tsv.manifest.json",
            "prune": tmp_path / "pruned.tsv.manifest.json",
            "attack": tmp_path / "attacked.tsv.manifest.json",
            "train": tmp_path / "report.csv.manifest.json",
            "dist": tmp_path / "dist_clean.csv.manifest.json",
            "sweep": tmp_path / "sweep.csv.manifest.json",
        }[name]
        manifest = load_manifest(str(manifest_path))
        assert cli_main(list(manifest["argv"])) == 0, name
        replayed = verify_outputs(manifest)
        child = subprocess.run(
            [sys.executable, "-m", "kces.cli", *manifest["argv"]],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, f"{name}: {child.stderr}"
        one_thread = verify_outputs(manifest)
        stable.append(replayed == [] and one_thread == [])
    ok = all(stable)
    _scoreboard(
        10, "manifest-replay-determinism", ok,
        f"{sum(stable)}/{len(stable)} commands byte-stable under replay "
        "and a one-BLAS-thread replay in a child process",
    )
    assert ok
