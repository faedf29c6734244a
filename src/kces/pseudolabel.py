"""Structure-aware pseudo labels via K-means, and their one-hot label matrix.

Clustering runs on row-normalized (A + I) X: neighborhood sums without
degree weighting, each row rescaled to unit norm.  Lloyd's algorithm with
k-means++ seeding, several independently seeded restarts, and empty-
cluster re-seeding keeps the result deterministic for a given
(graph, K, seed) triple.  Pseudo labels are a class vector like any
other labeling (see ``graph.class_labels``), and every scoring path
encodes a class vector one-hot: one 0/1 column per class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .graph import Graph, _readonly, class_labels, seed_key, unit_rows

MAX_LLOYD_ITERATIONS = 300
CENTROID_SHIFT_TOL = 1e-6


@dataclass(frozen=True)
class LabelMatrix:
    """Real-valued label columns fed to the complexity functional.

    ``columns`` is N x C; the complexity of a multi-column matrix is the
    sum over columns.
    """

    columns: np.ndarray


def _cluster_inputs(g: Graph) -> np.ndarray:
    raw = g.adjacency_with_self_loops() @ g.features
    return unit_rows(raw, "neighborhood feature sums")[0]


def _sq_dists(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    d2 = (
        (x * x).sum(axis=1)[:, None]
        - 2.0 * (x @ centers.T)
        + (centers * centers).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp(x: np.ndarray, k: int, rng) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = _sq_dists(x, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[j] = x[idx]
        d2 = np.minimum(d2, _sq_dists(x, centers[j : j + 1])[:, 0])
    return centers


def _lloyd(x: np.ndarray, k: int, rng):
    """One seeded Lloyd run.

    Returns (assignments, inertia, inertia history).  Empty clusters are
    re-seeded to the point currently farthest from its centroid, which
    can only lower the objective, so the history is non-increasing.
    """
    centers = _kmeanspp(x, k, rng)
    n = x.shape[0]
    history = []
    assign = None
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = _sq_dists(x, centers)
        assign = np.argmin(d2, axis=1)
        contrib = d2[np.arange(n), assign]
        for cid in range(k):
            if not (assign == cid).any():
                p = int(np.argmax(contrib))
                centers[cid] = x[p]
                assign[p] = cid
                contrib[p] = 0.0
        new_centers = centers.copy()
        for cid in range(k):
            members = assign == cid
            if members.any():
                new_centers[cid] = x[members].mean(axis=0)
        shift = np.max(np.linalg.norm(new_centers - centers, axis=1))
        centers = new_centers
        inertia = float(
            ((x - centers[assign]) ** 2).sum()
        )
        history.append(inertia)
        if shift < CENTROID_SHIFT_TOL:
            break
    d2 = _sq_dists(x, centers)
    assign = np.argmin(d2, axis=1)
    if len(np.unique(assign)) < k:
        raise NumericError(f"could not keep {k} non-empty clusters")
    inertia = float(d2[np.arange(n), assign].sum())
    return assign.astype(np.int64), inertia, history


def kmeans_pseudo_labels(
    g: Graph, k: int, seed: int, restarts: int = 10
) -> np.ndarray:
    """Cluster nodes on normalized neighborhood sums.

    Runs ``restarts`` independent Lloyd runs with seeds derived from
    (seed, restart index) and keeps the lowest-inertia assignment, ties
    resolved toward the lowest restart index.  Returns it as a read-only
    int64 class vector in which each of 0..k-1 labels at least one node.
    """
    if k < 1 or k > g.n_nodes:
        raise ConfigError(f"k={k} infeasible for {g.n_nodes} nodes")
    if restarts < 1:
        raise ConfigError("need at least one restart")
    x = _cluster_inputs(g)
    if k > 1 and np.unique(x, axis=0).shape[0] < k:
        raise NumericError(
            f"only {np.unique(x, axis=0).shape[0]} distinct rows for k={k}"
        )
    best = None
    for r in range(restarts):
        assign, inertia, _ = _lloyd(x, k, np.random.default_rng(seed_key(seed, r)))
        if best is None or inertia < best[0]:
            best = (inertia, assign)
    return _readonly(best[1])


def encode_labels(labels, encoding: str = "one-hot") -> LabelMatrix:
    """One-hot label matrix of a class vector (see ``graph.class_labels``).

    Column c holds 1.0 on the nodes of class c and 0.0 elsewhere; the
    column count is the largest class plus one, so K-means' labels give
    exactly K columns.  ``encoding`` must be ``"one-hot"``.
    """
    if encoding != "one-hot":
        raise ConfigError(f"unknown encoding {encoding!r}")
    lab = class_labels(labels)
    k = int(lab.max()) + 1 if lab.size else 0
    cols = np.zeros((lab.shape[0], k))
    cols[np.arange(lab.shape[0]), lab] = 1.0
    return LabelMatrix(columns=_readonly(cols))
