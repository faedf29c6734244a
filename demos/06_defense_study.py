"""The defense study: criteria 07 and 08's benchmark on its own seeds and
on held-out ones.

Each seed plants a two-block graph, attacks it with DICE at half the
edge budget, scores the attacked graph's edges against K-means
pseudo-labels, and prunes a quarter of them by high-kc, random and
low-kc choice, exactly as criterion 08's fixture does.  A fourth
prune, label-cut, is a control with no kernel at all: it takes a seeded
uniform k-subset of the attacked edges whose ends the labels put in
different classes, or all of them when fewer than k are, which the
"label-cut share of k" row shows as a value below 1.  Seeds 0-9 are
the criterion's own, so their accuracies equal its scoreboard; seeds
10-19 are held out.  Beside accuracy the study prints what the top-k
prune hit: the share of it the attack injected, the share of it that
joins two true classes, and how well the pseudo-labels agree with the
true ones.  The same rows scored against the true labels are the
ceiling a better labelling could reach.
"""

import time

import numpy as np

from kces.gnn import TrainConfig, evaluate_classifiers, make_split
from kces.graph import with_edges
from kces.kcscore import kc_scores_all
from kces.perturb import dice_attack
from kces.pseudolabel import encode_labels, kmeans_pseudo_labels
from kces.sanitize import PruneConfig, apply_prune, prune_count, select_edges
from kces.synth import make_sbm_benchmark

STRATEGIES = ("high-kc", "random", "low-kc")
ROWS = (*STRATEGIES, "label-cut")
SOURCES = ("K-means", "true")


def label_cut(g, labels, k, seed):
    """g without a seeded uniform k-subset of its edges whose labels
    differ, or without all of them when fewer than k do."""
    u, v = g.edges.T
    cut = np.flatnonzero(labels[u] != labels[v])
    drop = np.random.default_rng(seed).choice(cut, size=min(k, cut.size), replace=False)
    keep = np.ones(g.n_edges, dtype=bool)
    keep[drop] = False
    return with_edges(g, g.edges[keep]), drop.size / k


def study(seeds):
    """Per-seed rows of accuracy and top-k precision, averaged over seeds."""
    rows = {}

    def add(name, source, value):
        rows.setdefault((name, source), []).append(value)

    for seed in seeds:
        g = make_sbm_benchmark(seed=seed)
        attacked, record = dice_attack(g, g.labels, 0.5, seed + 1000)
        pseudo = kmeans_pseudo_labels(attacked, 2, seed)
        add("label agreement", "K-means", max((pseudo == g.labels).mean(), (pseudo != g.labels).mean()))
        add("label agreement", "true", 1.0)
        injected = set(record.added)
        k = prune_count(0.25, attacked.n_edges)
        graphs = [g, attacked]
        for source, labels in zip(SOURCES, (pseudo, g.labels)):
            table = kc_scores_all(attacked, encode_labels(labels, "one-hot"))
            top = table.sorted_edges()[:k]
            add("injected precision", source, sum(e in injected for e in top) / k)
            add("cross-class precision", source, sum(g.labels[u] != g.labels[v] for u, v in top) / k)
            for strategy in STRATEGIES:
                config = PruneConfig(
                    alpha=0.25,
                    strategy=strategy,
                    seed=seed if strategy == "random" else None,
                )
                graphs.append(apply_prune(attacked, select_edges(table, config)))
            cut, share = label_cut(attacked, labels, k, seed)
            graphs.append(cut)
            add("label-cut share of k", source, share)
        split = make_split(g.n_nodes, seed)
        cfg = TrainConfig(m=256, steps=200, kappa=0.1, seed=seed)
        acc = [r.test_accuracy for r in evaluate_classifiers(graphs, g.labels, split, cfg)]
        for source in SOURCES:
            add("clean accuracy", source, acc[0])
            add("attacked accuracy", source, acc[1])
        for i, (source, strategy) in enumerate((s, t) for s in SOURCES for t in ROWS):
            add(f"{strategy} accuracy", source, acc[2 + i])
    return {key: float(np.mean(values)) for key, values in rows.items()}


NAMES = (
    "clean accuracy",
    "attacked accuracy",
    *(f"{strategy} accuracy" for strategy in ROWS),
    "label-cut share of k",
    "injected precision",
    "cross-class precision",
    "label agreement",
)

SEED_SETS = (
    ("seeds 0-9 (criteria 07 and 08)", range(10)),
    ("seeds 10-19 (held out)", range(10, 20)),
)

start = time.perf_counter()
for title, seeds in SEED_SETS:
    means = study(seeds)
    print(f"\n{title}")
    print(f"{'':24s}{'K-means labels':>16s}{'true labels':>14s}")
    for name in NAMES:
        print(f"{name:24s}{means[name, 'K-means']:16.3f}{means[name, 'true']:14.3f}")
print(f"\n{time.perf_counter() - start:.1f} s")
