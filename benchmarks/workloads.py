"""The three benchmark workloads, each driving kces through its public API.

Every workload is a closed loop with one client: the next iteration
starts when the previous one has returned.  Inputs come only from the
seed.  ``iterate`` is the measured work; ``probe_layers`` runs in traced
iterations only and calls, beside the work, the public function of each
layer that the work reaches only from inside another call.

Why these three:

* ``dense-sbm-1000``: every edge takes the fast Woodbury route, so the
  per-edge N x N @ N x |S| product against the cached inverse dominates.
* ``sparse-sbm-400``: twin aggregated rows make the base Gram matrix
  singular, it gets a ridge, and every edge falls back to the naive
  rebuild; graph rebuild, Gram and Cholesky dominate and the Woodbury
  code is bypassed.
* ``defense-sweep-200``: the paper's attack, score, prune and sweep run
  through ``kces.cli.main``; the trainer and per-edge Python overhead
  dominate, and file parsing, TSV writes and manifests run too.
"""

from __future__ import annotations

import os
import statistics
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from kces import (
    Graph,
    KcesWarning,
    KcScoreTable,
    PruneConfig,
    TrainConfig,
    affected_nodes,
    aggregate_features,
    apply_prune,
    dice_attack,
    encode_labels,
    evaluate_classifier,
    gram_matrix,
    kc_scores_all,
    kces_pipeline,
    kmeans_pseudo_labels,
    load_graph,
    make_sbm_benchmark,
    make_split,
    select_edges,
    write_edge_tsv,
    write_features_csv,
    write_labels,
)
from kces.cli import main as cli_main

import gate
from spans import Tracer

ALPHA = 0.25
K_CLUSTERS = 2
DICE_BUDGET = 0.5
#: CLI defaults of ``kces train``/``kces sweep``.
TRAIN = dict(m=256, steps=200, eta=None, kappa=0.1)
#: Redraws allowed when the sparse workload's base Gram matrix needs no ridge.
MAX_DRAWS = 100
DRAW_STRIDE = 1_000_003


@dataclass
class Iteration:
    """What one iteration produced, read back from its files."""

    wall_s: float  # the whole iteration
    score_s: float  # the scoring entry point
    tsv: bytes  # the score table, `u v kc_score method`
    extra: dict = field(default_factory=dict)  # per-iteration output properties


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def base_is_ridged(g: Graph) -> bool:
    """True when the base Gram matrix of ``g`` gets a ridge.

    Two nodes with the same closed neighbourhood have equal aggregated
    rows, so the matrix is singular; but rounding can still let its
    Cholesky factorization succeed (in 6 of the first 100 seeds' first
    draws at N=400), so the ridge warning itself is checked.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", KcesWarning)
        gram_matrix(aggregate_features(g))
    return any(issubclass(w.category, KcesWarning) for w in caught)


def hubs_first(g: Graph) -> Graph:
    """Renumber nodes by descending degree, ties in their old order.

    On a singular Gram matrix the first Cholesky attempt stops at the
    first dependent row, so its cost depends on where the twin rows are
    numbered.  Hubs-first puts the low-degree twins near the end on every
    seed; in draw order their place, and the per-edge cost, varied by a
    fifth between seeds.
    """
    order = np.argsort(-g.degrees, kind="stable")
    new_id = np.empty_like(order)
    new_id[order] = np.arange(order.size)
    return Graph(g.features[order], new_id[g.edges], labels=g.labels[order])


def same_bytes(table: KcScoreTable, path: str) -> None:
    """Fail unless ``table`` writes the bytes of the measured score TSV at ``path``."""
    beside = path + ".beside"
    table.write_tsv(beside)
    try:
        if read_bytes(beside) != read_bytes(path):
            raise gate.GateError(f"kc_scores_all beside the measured call gives other bytes than {os.path.basename(path)}")
    finally:
        os.remove(beside)


def warm_up(g: Graph) -> None:
    """One untimed Gram build: pays BLAS thread start-up before timing."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        gram_matrix(aggregate_features(g))


def pseudo_labels(g: Graph, seed: int):
    return encode_labels(kmeans_pseudo_labels(g, K_CLUSTERS, seed), "one-hot")


class SbmRun:
    """``kces_pipeline`` on one stochastic-block-model graph."""

    def __init__(self, seed: int, workdir: str, n: int, in_degree: float, out_degree: float, ridged: bool):
        self.seed = seed
        self.graph = self._generate(seed, n, in_degree / n, out_degree / n, ridged)
        self.tsv_path = os.path.join(workdir, "scores.tsv")
        warm_up(self.graph)

    @staticmethod
    def _generate(seed, n, p_in, p_out, ridged) -> Graph:
        if not ridged:
            return make_sbm_benchmark(seed, n=n, p_in=p_in, p_out=p_out)
        # The sparse workload exists to exercise the ridged base, so a draw
        # whose base needs no ridge is replaced by the next one from the seed.
        for draw in range(MAX_DRAWS):
            g = hubs_first(make_sbm_benchmark(seed + draw * DRAW_STRIDE, n=n, p_in=p_in, p_out=p_out))
            if base_is_ridged(g):
                return g
        raise RuntimeError(f"no SBM draw with a ridged base in {MAX_DRAWS} tries (seed {seed})")

    def iterate(self, tracer: Tracer) -> Iteration:
        with tracer.span("iteration") as it:
            table = kces_pipeline(self.graph, alpha=ALPHA, k_clusters=K_CLUSTERS, seed=self.seed).table
        table.write_tsv(self.tsv_path)
        return Iteration(it.duration, it.duration, read_bytes(self.tsv_path))

    def probe_layers(self, tracer: Tracer) -> None:
        g = self.graph
        with tracer.span("pseudolabel.kmeans"):
            labels = pseudo_labels(g, self.seed)
        with tracer.span("graph.aggregate"):
            xt = aggregate_features(g)
        with tracer.span("kernel.gram"):
            gram_matrix(xt)
        with tracer.span("kcscore.score"):
            table = kc_scores_all(g, labels)
        same_bytes(table, self.tsv_path)
        with tracer.span("sanitize.select"):
            plan = select_edges(table, PruneConfig(alpha=ALPHA))
        with tracer.span("sanitize.apply"):
            apply_prune(g, plan)

    def reference(self) -> gate.Reference:
        return gate.reference(self.graph, pseudo_labels(self.graph, self.seed), self.seed)


class DefenseRun:
    """DICE attack, score, prune and accuracy sweep through the CLI."""

    def __init__(self, seed: int, workdir: str, n: int, sweep_seeds: int):
        self.seed = seed
        self.workdir = workdir
        self.clean = make_sbm_benchmark(seed, n=n)
        f = self.files = {
            name: os.path.join(workdir, name)
            for name in ("edges.tsv", "features.csv", "labels.txt", "attacked.tsv", "scores.tsv", "pruned.tsv", "sweep.csv")
        }
        write_edge_tsv(self.clean, f["edges.tsv"])
        write_features_csv(self.clean, f["features.csv"])
        write_labels(self.clean.labels, f["labels.txt"])
        graph = ["--features", f["features.csv"]]
        seeds = ",".join(str(seed + i) for i in range(sweep_seeds))
        self.commands = [
            ("attack", ["attack", "--edges", f["edges.tsv"], *graph, "--labels", f["labels.txt"], "--kind", "dice",
                        "--budget-ratio", str(DICE_BUDGET), "--seed", str(seed), "--out", f["attacked.tsv"]]),
            ("score", ["score", "--edges", f["attacked.tsv"], *graph, "--k", str(K_CLUSTERS), "--seed", str(seed),
                       "--out", f["scores.tsv"]]),
            ("prune", ["prune", "--edges", f["attacked.tsv"], *graph, "--scores", f["scores.tsv"], "--alpha", str(ALPHA),
                       "--out", f["pruned.tsv"]]),
            ("sweep", ["sweep", "--edges", f["attacked.tsv"], *graph, "--labels", f["labels.txt"], "--seeds", seeds,
                       "--out", f["sweep.csv"]]),
        ]
        self.inputs = {f["edges.tsv"], f["features.csv"], f["labels.txt"]}
        warm_up(self.clean)

    def iterate(self, tracer: Tracer) -> Iteration:
        with tracer.span("iteration") as it:
            for name, argv in self.commands:
                with tracer.span(f"cli.{name}") as step:
                    code = cli_main(argv)
                if code != 0:
                    raise gate.GateError(f"kces {name} exited with code {code}")
                if name == "score":
                    score_s = step.duration
        return Iteration(it.duration, score_s, read_bytes(self.files["scores.tsv"]), self._outcome())

    def _outcome(self) -> dict:
        f = self.files
        with open(f["attacked.tsv"] + ".record.tsv", encoding="utf-8") as fh:
            injected = {tuple(map(int, line.split("\t")[1:])) for line in fh if line.startswith("+")}
        with open(f["pruned.tsv"] + ".plan.tsv", encoding="utf-8") as fh:
            pruned = [tuple(map(int, line.split("\t"))) for line in fh if line.strip()]
        with open(f["sweep.csv"], encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        at_alpha = [float(acc) for strategy, alpha, _, acc in rows if strategy == "high-kc" and float(alpha) == ALPHA]
        if not pruned or not at_alpha:
            raise gate.GateError("prune plan or sweep output is empty")
        written = sum(e.stat().st_size for e in os.scandir(self.workdir) if e.path not in self.inputs)
        return {
            "quality.injected_precision": sum(e in injected for e in pruned) / len(pruned),
            "quality.sanitized_acc": statistics.fmean(at_alpha),
            "gnn.evaluate_calls": len(rows),
            "cli.bytes_written": written,
        }

    def probe_layers(self, tracer: Tracer) -> None:
        f = self.files
        with tracer.span("perturb.attack"):
            dice_attack(self.clean, self.clean.labels, DICE_BUDGET, self.seed)
        with tracer.span("graph.load"):
            attacked = load_graph(f["attacked.tsv"], f["features.csv"])
        with tracer.span("pseudolabel.kmeans"):
            labels = pseudo_labels(attacked, self.seed)
        with tracer.span("graph.aggregate"):
            xt = aggregate_features(attacked)
        with tracer.span("kernel.gram"):
            gram_matrix(xt)
        with tracer.span("kcscore.score"):
            table = kc_scores_all(attacked, labels)
        same_bytes(table, f["scores.tsv"])
        saved = KcScoreTable.read_tsv(f["scores.tsv"])
        with tracer.span("sanitize.select"):
            plan = select_edges(saved, PruneConfig(alpha=ALPHA))
        with tracer.span("sanitize.apply"):
            pruned = apply_prune(attacked, plan)
        split = make_split(pruned.n_nodes, self.seed)
        with tracer.span("gnn.evaluate"):
            evaluate_classifier(pruned, self.clean.labels, split, TrainConfig(seed=self.seed, **TRAIN))

    def reference(self) -> gate.Reference:
        attacked, _ = dice_attack(self.clean, self.clean.labels, DICE_BUDGET, self.seed)
        return gate.reference(attacked, pseudo_labels(attacked, self.seed), self.seed)


#: name -> (full size, smoke size); each builds a run from (seed, workdir).
WORKLOADS = {
    "dense-sbm-1000": (
        lambda seed, d: SbmRun(seed, d, n=1000, in_degree=20, out_degree=2, ridged=False),
        lambda seed, d: SbmRun(seed, d, n=100, in_degree=20, out_degree=2, ridged=False),
    ),
    "sparse-sbm-400": (
        lambda seed, d: SbmRun(seed, d, n=400, in_degree=4, out_degree=1, ridged=True),
        lambda seed, d: SbmRun(seed, d, n=100, in_degree=4, out_degree=1, ridged=True),
    ),
    "defense-sweep-200": (
        lambda seed, d: DefenseRun(seed, d, n=200, sweep_seeds=3),
        lambda seed, d: DefenseRun(seed, d, n=80, sweep_seeds=1),
    ),
}


def setup(name: str, seed: int, workdir: str, smoke: bool):
    """Generate the inputs of one workload and warm up; returns the run."""
    os.makedirs(workdir, exist_ok=True)
    full, small = WORKLOADS[name]
    return (small if smoke else full)(seed, workdir)


def route_stats(ref: gate.Reference, rows: dict) -> dict:
    """Input properties behind the per-edge cost, and the fast-route work.

    ``rows`` is the parsed score table; an edge counts as fast when its
    method column says so.  The Woodbury work of a fast edge is taken as
    its dominant product, 2 N^2 |S| flops for N x N @ N x |S|.
    """
    g = ref.graph
    n = g.n_nodes
    sizes = {e: int(affected_nodes(g, *e).shape[0]) for e in ref.edges}
    fast = [sizes[e] for e, (_, method) in rows.items() if method == "fast"]
    return {
        "kcscore.fast_share": len(fast) / len(rows),
        "kcscore.affected_mean": statistics.fmean(sizes.values()),
        "kcscore.affected_max": max(sizes.values()),
        "kcscore.woodbury_gflop": sum(2.0 * n * n * s for s in fast) / 1e9,
        "host.dgemm_gflops": dgemm_gflops(n, round(statistics.fmean(sizes.values()))),
    }


def dgemm_gflops(n: int, cols: int, budget_s: float = 0.3) -> float:
    """Rate of the fast route's dominant product shape on this host."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, cols))
    a @ b
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < 5 or time.perf_counter() < deadline:
        start = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - start)
    return 2.0 * n * n * cols / statistics.median(times) / 1e9
