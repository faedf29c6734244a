"""Random and label-aware attacks and their perturbation records."""

import itertools

import numpy as np
import pytest

from kces.errors import ConfigError, InputError
from kces.graph import Graph
from kces.perturb import _nonedge_pool, dice_attack, random_attack
from kces.synth import random_graph


def _labeled_graph():
    # two blocks of four; 8 within-block edges, 2 cross-block edges
    rng = np.random.default_rng(17)
    edges = [
        (0, 1), (0, 2), (1, 2), (2, 3),
        (4, 5), (5, 6), (6, 7), (4, 6),
        (3, 4), (0, 7),
    ]
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    g = Graph(features=rng.standard_normal((8, 3)), edges=edges, labels=labels)
    return g, labels


def test_random_attack_budget_arithmetic():
    g = random_graph(20, 0.2, 4, seed=2)
    attacked, record = random_attack(g, 0.25, seed=5)
    budget = int(np.floor(0.25 * g.n_edges + 0.5))
    n_add = int(np.floor(0.5 * budget + 0.5))
    assert len(record.added) == n_add
    assert len(record.removed) == budget - n_add
    assert attacked.n_edges == g.n_edges + len(record.added) - len(record.removed)


def test_random_attack_add_fraction_extremes():
    g = random_graph(16, 0.25, 4, seed=3)
    _, add_only = random_attack(g, 0.5, seed=1, add_fraction=1.0)
    assert add_only.removed == ()
    budget = int(np.floor(0.5 * g.n_edges + 0.5))
    assert len(add_only.added) == budget
    _, remove_only = random_attack(g, 0.5, seed=1, add_fraction=0.0)
    assert remove_only.added == ()
    assert len(remove_only.removed) == budget


def test_random_attack_parameter_domains():
    g = random_graph(10, 0.3, 4, seed=4)
    with pytest.raises(ConfigError):
        random_attack(g, 0.0, seed=0)
    with pytest.raises(ConfigError):
        random_attack(g, 1.5, seed=0)
    with pytest.raises(ConfigError):
        random_attack(g, 0.5, seed=0, add_fraction=-0.1)


def test_random_attack_exhausted_nonedge_pool():
    n = 5
    g = Graph(
        features=np.random.default_rng(0).standard_normal((n, 3)),
        edges=list(itertools.combinations(range(n), 2)),
    )
    with pytest.raises(ConfigError, match="non-edges"):
        random_attack(g, 0.2, seed=0, add_fraction=1.0)


def test_dice_attack_targets_labels():
    g, labels = _labeled_graph()
    attacked, record = dice_attack(g, labels, 0.3, seed=9)
    # budget 3 rounds to 2 additions and 1 removal
    assert len(record.added) == 2
    assert len(record.removed) == 1
    for u, v in record.removed:
        assert labels[u] == labels[v]
    clean_edges = g.edge_set()
    for u, v in record.added:
        assert labels[u] != labels[v]
        assert (u, v) not in clean_edges
    assert attacked.edge_set() == (clean_edges - set(record.removed)) | set(record.added)


def test_dice_attack_needs_same_label_edges():
    # alternating labels along a path: every edge is cross-label
    rng = np.random.default_rng(1)
    g = Graph(
        features=rng.standard_normal((8, 3)),
        edges=[(i, i + 1) for i in range(7)],
    )
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    with pytest.raises(ConfigError, match="same-label"):
        dice_attack(g, labels, 0.5, seed=0)


def test_dice_attack_rejects_bad_labels():
    g, _ = _labeled_graph()
    with pytest.raises(InputError):
        dice_attack(g, np.array([0, 1]), 0.3, seed=0)
    with pytest.raises(ConfigError):
        dice_attack(g, g.labels, 0.0, seed=0)


def test_record_tsv_roundtrip(tmp_path):
    g, labels = _labeled_graph()
    _, record = dice_attack(g, labels, 0.5, seed=3)
    path = tmp_path / "attack.record.tsv"
    record.write_tsv(path)
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    back = {
        sign: tuple((int(u), int(v)) for s, u, v in rows if s == sign)
        for sign in "+-"
    }
    assert (back["+"], back["-"]) == (record.added, record.removed)
    assert len(rows) == len(record.added) + len(record.removed)


def test_apply_then_revert_restores_graph():
    # a record is its edges: swapping its two lists undoes it
    g = random_graph(14, 0.3, 4, seed=8)
    attacked, record = random_attack(g, 0.4, seed=2)
    added, removed = set(record.added), set(record.removed)
    assert removed <= g.edge_set() and not added & g.edge_set()
    assert (g.edge_set() - removed) | added == attacked.edge_set()
    assert (attacked.edge_set() - added) | removed == g.edge_set()
    assert attacked.features is g.features


def test_nonedge_pool_matches_brute_force():
    g, labels = _labeled_graph()
    pool = {tuple(row) for row in _nonedge_pool(g).tolist()}
    expected = {
        (u, v)
        for u, v in itertools.combinations(range(g.n_nodes), 2)
        if (u, v) not in g.edge_set()
    }
    assert pool == expected
    cross = {tuple(row) for row in _nonedge_pool(g, label_filter=labels).tolist()}
    assert cross == {e for e in expected if labels[e[0]] != labels[e[1]]}


def test_attacks_are_deterministic_per_seed():
    g = random_graph(16, 0.25, 4, seed=7)
    first = random_attack(g, 0.5, seed=42)[1]
    second = random_attack(g, 0.5, seed=42)[1]
    assert first == second
    third = random_attack(g, 0.5, seed=43)[1]
    assert (third.added, third.removed) != (first.added, first.removed)
