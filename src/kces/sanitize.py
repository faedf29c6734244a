"""Edge pruning: strategy selection, plan application, and the full pipeline.

The pipeline clusters nodes into pseudo labels, scores every edge by its
kernel-complexity contribution, and removes the top ceil(alpha * |E|)
edges.  Alternative strategies (lowest scores first, or a seeded uniform
subset) exist as experimental controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError
from .graph import Graph, seed_key, with_edges
from .kcscore import KcScoreTable, kc_scores_all
from .pseudolabel import encode_labels, kmeans_pseudo_labels

STRATEGIES = ("high-kc", "low-kc", "random")


def prune_count(alpha: float, n_edges: int) -> int:
    """ceil(alpha * |E|), guarded against float-product noise."""
    return math.ceil(round(alpha * n_edges, 9))


@dataclass(frozen=True)
class PruneConfig:
    """Pruning ratio alpha in [0, 1], strategy, and seed (random only)."""

    alpha: float
    strategy: str = "high-kc"
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.strategy == "random" and self.seed is None:
            raise ConfigError("random strategy requires a seed")


@dataclass(frozen=True)
class PrunePlan:
    """Ordered list of edges to delete plus the config that chose them."""

    removed: tuple
    k: int
    config: PruneConfig

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for u, v in self.removed:
                fh.write(f"{u}\t{v}\n")


def select_edges(table: KcScoreTable, config: PruneConfig) -> PrunePlan:
    """Pick ceil(alpha * |E|) edges from the table per the strategy.

    high-kc takes the largest scores, low-kc the smallest, random a
    seeded uniform subset; score ties always break toward the
    lexicographically smaller (u, v).
    """
    n = table.scores.shape[0]
    if n == 0 and config.alpha > 0.0:
        raise ConfigError("cannot prune from an empty score table")
    k = prune_count(config.alpha, n)
    if config.strategy == "random":
        # Indices into rows kept in (u, v) order: the pick depends on the
        # edge set alone, not on how the table was built.
        rng = np.random.default_rng(seed_key(config.seed, 0x9A))
        idx = rng.choice(n, size=k, replace=False) if k else []
    else:
        sign = -1.0 if config.strategy == "high-kc" else 1.0
        u, v = table.edges.T
        idx = np.lexsort((v, u, sign * table.scores))[:k]
    chosen = [tuple(e) for e in table.edges[idx].tolist()]
    return PrunePlan(removed=tuple(chosen), k=k, config=config)


def apply_prune(g: Graph, plan: PrunePlan) -> Graph:
    """Delete the planned edges; every one must still be present.

    The plan's size must be ceil(alpha * |E|) of g's edges too: a plan
    selected from a score table of another edge set would prune another
    share of the graph.
    """
    want = prune_count(plan.config.alpha, g.n_edges)
    if plan.k != want:
        raise InputError(
            f"plan prunes {plan.k} edge(s), but alpha={plan.config.alpha} of "
            f"the graph's {g.n_edges} edges is {want}: its score table "
            "covers another edge set"
        )
    # g.edges is sorted by (u, v), as is u + iv in numpy's complex order:
    # find each planned pair's row, then check both of its columns
    planned = np.array(plan.removed, dtype=np.int64).reshape(-1, 2)
    u, v = g.edges.T
    rows = np.searchsorted(u + 1j * v, planned[:, 0] + 1j * planned[:, 1])
    found = rows < g.n_edges
    found[found] = (g.edges[rows[found]] == planned[found]).all(axis=1)
    if not found.all():
        missing = np.flatnonzero(~found)
        raise InputError(
            f"plan references {missing.size} edge(s) absent from the graph, "
            f"first {plan.removed[missing[0]]}"
        )
    keep = np.ones(g.n_edges, dtype=bool)
    keep[rows] = False
    return with_edges(g, g.edges[keep])


@dataclass(frozen=True)
class SanitizationResult:
    """Pruned graph with every intermediate kept for audit.

    ``pseudo_labels`` is the K-means class vector the scores used.
    """

    graph: Graph
    table: KcScoreTable
    plan: PrunePlan
    pseudo_labels: np.ndarray


def kces_pipeline(g: Graph, alpha: float, k_clusters: int, seed: int) -> SanitizationResult:
    """Cluster, score, and prune the highest-complexity edges.

    Pseudo labels are the class vector of K-means on normalized
    neighborhood sums (``kmeans_pseudo_labels``' default restarts),
    encoded one-hot; scores come from ``kc_scores_all``, and the plan
    removes the top ceil(alpha * |E|) scores.  Compose the stages by
    hand for another restart count.
    """
    pseudo = kmeans_pseudo_labels(g, k_clusters, seed)
    table = kc_scores_all(g, encode_labels(pseudo))
    plan = select_edges(table, PruneConfig(alpha=alpha, strategy="high-kc"))
    return SanitizationResult(
        graph=apply_prune(g, plan),
        table=table,
        plan=plan,
        pseudo_labels=pseudo,
    )
