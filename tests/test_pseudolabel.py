"""K-means pseudo-labeling and the one-hot label matrix."""

import numpy as np
import pytest

from helpers import oracle_kmeans_best_inertia

from kces.errors import ConfigError, InputError, NumericError
from kces.graph import Graph
from kces.pseudolabel import (
    _cluster_inputs,
    _lloyd,
    encode_labels,
    kmeans_pseudo_labels,
)
from kces.synth import random_graph


def _separated_graph(seed, n=10, spread=0.05):
    # two feature blobs far apart; edges only inside each half
    rng = np.random.default_rng(seed)
    half = n // 2
    x = np.vstack(
        [
            [4.0, 0.0] + spread * rng.standard_normal((half, 2)),
            [-4.0, 0.0] + spread * rng.standard_normal((n - half, 2)),
        ]
    )
    edges = [(i, i + 1) for i in range(half - 1)]
    edges += [(i, i + 1) for i in range(half, n - 1)]
    truth = np.array([0] * half + [1] * (n - half))
    return Graph(features=x, edges=edges), truth


def _inertia(x, assign):
    # squared distances to the means of the assignment's clusters
    return sum(((x[assign == c] - x[assign == c].mean(axis=0)) ** 2).sum() for c in np.unique(assign))


def test_recovers_separated_blocks_and_global_optimum():
    for seed in range(8):
        g, truth = _separated_graph(seed)
        pl = kmeans_pseudo_labels(g, 2, seed)
        same = (pl == truth).all() or (pl == 1 - truth).all()
        assert same, f"seed {seed}: wrong partition {pl}"
        best = oracle_kmeans_best_inertia(_cluster_inputs(g), k=2)
        inertia = _inertia(_cluster_inputs(g), pl)
        assert inertia <= best + 1e-9, f"seed {seed}: inertia above exhaustive optimum"
        assert inertia >= best - 1e-9, f"seed {seed}: inertia below exhaustive optimum"


def test_cluster_inputs_are_unit_neighborhood_sums():
    g = random_graph(n=8, edge_prob=0.4, n_features=3, seed=3)
    x = _cluster_inputs(g)
    n = g.n_nodes
    a = np.eye(n)
    for u, v in g.edges.tolist():
        a[u, v] = a[v, u] = 1.0
    raw = a @ g.features  # plain sums: no degree weighting before k-means
    expected = raw / np.linalg.norm(raw, axis=1)[:, None]
    assert np.allclose(x, expected, atol=1e-12)


def test_lloyd_history_is_non_increasing():
    for seed in range(10):
        g = random_graph(n=16, edge_prob=0.25, n_features=4, seed=40 + seed)
        x = _cluster_inputs(g)
        rng = np.random.default_rng(seed)
        _, inertia, history = _lloyd(x, 3, rng)
        diffs = np.diff(history)
        assert (diffs <= 1e-12).all(), f"seed {seed}: history increased {history}"
        assert np.isclose(history[-1], inertia, rtol=1e-9)


def test_determinism_and_restart_tiebreak():
    g = random_graph(n=12, edge_prob=0.3, n_features=4, seed=9)
    a = kmeans_pseudo_labels(g, 3, seed=5)
    b = kmeans_pseudo_labels(g, 3, seed=5)
    assert (a == b).all()
    # more restarts can only improve (or match) the kept objective
    few = kmeans_pseudo_labels(g, 3, seed=5, restarts=1)
    many = kmeans_pseudo_labels(g, 3, seed=5, restarts=10)
    x = _cluster_inputs(g)
    assert _inertia(x, many) <= _inertia(x, few) + 1e-12


def test_every_cluster_non_empty():
    for seed in range(6):
        g = random_graph(n=15, edge_prob=0.3, n_features=4, seed=60 + seed)
        for k in (2, 3, 4):
            pl = kmeans_pseudo_labels(g, k, seed)
            assert np.unique(pl).size == k
            assert pl.dtype == np.int64 and pl.shape == (g.n_nodes,) and not pl.flags.writeable


def test_infeasible_and_degenerate_inputs():
    g = random_graph(n=6, edge_prob=0.5, n_features=3, seed=1)
    with pytest.raises(ConfigError, match="^k=0 infeasible for 6 nodes$"):
        kmeans_pseudo_labels(g, 0, seed=0)
    with pytest.raises(ConfigError, match="^k=7 infeasible for 6 nodes$"):
        kmeans_pseudo_labels(g, 7, seed=0)
    with pytest.raises(ConfigError, match="^need at least one restart$"):
        kmeans_pseudo_labels(g, 2, seed=0, restarts=0)
    # identical rows cannot support 2 distinct clusters
    flat = Graph(features=np.ones((4, 2)), edges=[(0, 1), (2, 3)])
    with pytest.raises(NumericError, match="^only 1 distinct rows for k=2$"):
        kmeans_pseudo_labels(flat, 2, seed=0)


def test_vanishing_and_overflowing_sums_are_refused():
    # node 2 has no edges and zero features, so its neighborhood sum is zero
    lonely = Graph(features=[[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], edges=[(0, 1)])
    message = r"^neighborhood feature sums vanish at node 2 \(norm 0\.000e\+00\)$"
    with pytest.raises(NumericError, match=message):
        kmeans_pseudo_labels(lonely, 2, seed=0)
    # node 0's sum is finite entry by entry but its norm overflows
    huge = Graph(features=[[1e308, 1e308], [1.0, 0.0], [0.0, 1.0]], edges=[(1, 2)])
    with pytest.raises(InputError, match="^feature sums overflow at node 0$"):
        kmeans_pseudo_labels(huge, 2, seed=0)


def test_one_hot_encoding():
    pl = np.array([0, 2, 1, 2])
    lm = encode_labels(pl, "one-hot")
    assert lm.columns.shape == (4, 3)
    assert np.array_equal(lm.columns.sum(axis=1), np.ones(4))
    assert np.array_equal(np.argmax(lm.columns, axis=1), pl)


def test_one_hot_refuses_labels_that_are_not_a_vector():
    # a matrix would encode as a matrix of ones, a scalar has no rows
    for labels in (np.array([[0, 1], [1, 0]]), np.array(3)):
        with pytest.raises(InputError, match=r"^labels must be a vector, got shape \("):
            encode_labels(labels)


def test_one_hot_refuses_negative_labels():
    with pytest.raises(InputError, match="^labels must be non-negative$"):
        encode_labels(np.array([0, -1, 1]))


def test_signed_binary_encoding():
    # one-hot is the only encoding: a single +1/-1 column is refused
    pl = np.array([0, 1, 1, 0])
    with pytest.raises(ConfigError, match="unknown encoding 'signed-binary'"):
        encode_labels(pl, "signed-binary")
    assert np.array_equal(encode_labels(pl).columns, encode_labels(pl, "one-hot").columns)


def test_scalar_truth_encoding():
    # real-valued labels are refused, not passed through or truncated
    with pytest.raises(ConfigError, match="unknown encoding 'scalar-truth'"):
        encode_labels(np.array([0.5, -1.0, 0.0]), "scalar-truth")
    with pytest.raises(InputError, match="not a whole number"):
        encode_labels(np.array([0.5, -1.0, 0.0]))
    with pytest.raises(ConfigError, match="^unknown encoding 'no-such-encoding'$"):
        encode_labels(np.array([0.0]), "no-such-encoding")
