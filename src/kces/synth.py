"""Synthetic graph generators for tests, demos, and desk-scale benchmarks.

Provides a two-block stochastic block model with Gaussian blob features
(the standard benchmark used throughout the test suite) and generic
random graphs with continuous features.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .graph import Graph, seed_key

#: Samples ``random_graph`` draws before it gives up.
MAX_TRIES = 200


def sbm_edges(block_sizes, p_in: float, p_out: float, rng) -> np.ndarray:
    """Sample undirected stochastic-block-model edges.

    Every pair inside a block appears with probability p_in, every
    cross-block pair with probability p_out.
    """
    sizes = np.asarray(block_sizes, dtype=np.int64)
    n = int(sizes.sum())
    labels = np.repeat(np.arange(len(sizes)), sizes)
    u, v = np.triu_indices(n, k=1)
    prob = np.where(labels[u] == labels[v], p_in, p_out)
    keep = rng.random(u.shape[0]) < prob
    return np.column_stack([u[keep], v[keep]])


def gaussian_block_features(
    labels, n_features: int, separation: float, noise: float, rng
) -> np.ndarray:
    """Gaussian blob per class: mean separation*e_c plus isotropic noise."""
    labels = np.asarray(labels, dtype=np.int64)
    k = int(labels.max()) + 1
    if n_features < k:
        raise ConfigError(f"need at least {k} feature dims for {k} classes")
    means = np.zeros((k, n_features))
    means[np.arange(k), np.arange(k)] = separation
    return means[labels] + noise * rng.standard_normal((labels.shape[0], n_features))


def make_sbm_benchmark(
    seed: int,
    n: int = 200,
    p_in: float = 0.1,
    p_out: float = 0.01,
    n_features: int = 16,
    separation: float = 2.2,
    noise: float = 1.0,
) -> Graph:
    """Two-block SBM with blob features; ground-truth labels attached.

    The defaults give a graph whose structure carries real signal on top
    of the raw features: a feature-only classifier sits well below a
    structure-aware one, so edge perturbations have measurable effect.
    """
    if n % 2:
        raise ConfigError("benchmark size must be even (two equal blocks)")
    rng = np.random.default_rng(seed_key(seed, 0x5B3))
    sizes = (n // 2, n // 2)
    labels = np.repeat(np.arange(2), sizes)
    edges = sbm_edges(sizes, p_in, p_out, rng)
    x = gaussian_block_features(labels, n_features, separation, noise, rng)
    return Graph(x, edges, labels=labels)


def _closed_neighborhoods(n: int, edges) -> list:
    sets = [{i} for i in range(n)]
    for u, v in edges:
        sets[u].add(v)
        sets[v].add(u)
    return sets


def _has_twin_structure(n: int, edges) -> bool:
    """True if any closed neighborhoods coincide now or after one removal.

    Coinciding closed neighborhoods force two aggregated feature rows to
    be exactly parallel regardless of the feature values, which makes the
    kernel Gram matrix singular.  Checked for the graph itself and for
    every single-edge-removal variant.
    """
    sets = _closed_neighborhoods(n, edges)
    frozen = [frozenset(s) for s in sets]
    if len(set(frozen)) < n:
        return True
    lookup = {}
    for i, s in enumerate(frozen):
        lookup.setdefault(s, []).append(i)
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            reduced = frozenset(sets[a] - {b})
            for other in lookup.get(reduced, ()):
                if other != a and other != b:
                    return True
    return False


def random_graph(
    n: int,
    edge_prob: float,
    n_features: int,
    seed: int,
    avoid_twins: bool = False,
) -> Graph:
    """Erdos-Renyi graph with standard-normal features and at least one edge.

    With ``avoid_twins`` the sample is rejected until neither the graph
    nor any single-edge removal contains coinciding closed neighborhoods,
    so every variant keeps pairwise non-parallel aggregated rows (with
    probability one over the continuous features).
    """
    rng = np.random.default_rng(seed_key(seed, 0xE5))
    u, v = np.triu_indices(n, k=1)
    for _ in range(MAX_TRIES):
        keep = rng.random(u.shape[0]) < edge_prob
        edges = np.column_stack([u[keep], v[keep]])
        if edges.shape[0] == 0:
            continue
        if avoid_twins and _has_twin_structure(n, edges.tolist()):
            continue
        x = rng.standard_normal((n, n_features))
        return Graph(x, edges)
    raise ConfigError(
        f"could not sample an acceptable graph in {MAX_TRIES} tries "
        f"(n={n}, p={edge_prob})"
    )
