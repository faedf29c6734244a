"""Graph construction, aggregation, file round-trips."""

import os

import numpy as np
import pytest

from helpers import oracle_aggregate

from kces.errors import InputError, KcesWarning, NumericError
from kces.graph import (
    Graph,
    affected_nodes,
    aggregate_features,
    format_float,
    load_graph,
    remove_edge,
    with_edges,
    write_edge_tsv,
    write_features_csv,
    write_labels,
)
from kces.gnn import TrainConfig, evaluate_classifier, evaluate_classifiers, make_split
from kces.perturb import dice_attack
from kces.pseudolabel import encode_labels
from kces.synth import random_graph


def test_two_node_hand_case():
    # One edge, degrees 2 and 2: both aggregated rows are (x0 + x1) / 2.
    g = Graph(features=[[1.0, 0.0], [0.0, 1.0]], edges=[(0, 1)])
    xt = aggregate_features(g)
    expected_raw = np.array([[0.5, 0.5], [0.5, 0.5]])
    norm = np.sqrt(0.5)
    assert np.allclose(xt.pre_norm_row_norms, [norm, norm], atol=1e-15)
    assert np.allclose(xt.matrix, expected_raw / norm, atol=1e-15)


def test_isolated_node_is_its_own_neighborhood():
    g = Graph(features=[[3.0, 4.0], [1.0, 0.0], [0.0, 2.0]], edges=[(1, 2)])
    xt = aggregate_features(g)
    # degree 1, so the row is the node's own feature vector, normalized
    assert np.allclose(xt.matrix[0], [0.6, 0.8], atol=1e-15)
    assert np.isclose(xt.pre_norm_row_norms[0], 5.0, atol=1e-15)


def test_aggregation_matches_dense_oracle():
    for seed in range(20):
        g = random_graph(n=12, edge_prob=0.3, n_features=5, seed=seed)
        xt = aggregate_features(g)
        rows, norms = oracle_aggregate(g.features, g.edges.tolist())
        assert np.allclose(xt.matrix, rows, atol=1e-12), f"seed {seed}"
        assert np.allclose(xt.pre_norm_row_norms, norms, atol=1e-12), f"seed {seed}"
        unit = np.linalg.norm(xt.matrix, axis=1)
        assert np.allclose(unit, 1.0, atol=1e-12), f"seed {seed}: rows not unit"


def test_cancelling_neighborhood_raises():
    # x1 = -x0 with equal degrees makes node 0's aggregate exactly zero.
    g = Graph(features=[[1.0, -2.0], [-1.0, 2.0]], edges=[(0, 1)])
    with pytest.raises(NumericError, match="aggregated features vanish at node 0"):
        aggregate_features(g)


def test_constructor_validation():
    with pytest.raises(InputError):
        Graph(features=np.empty((0, 3)), edges=[])
    with pytest.raises(InputError):
        Graph(features=[[1.0]], edges=[(0, 0, 0)])
    with pytest.raises(InputError, match=r"^edge \(0, 2\) out of range for 2 nodes$"):
        Graph(features=[[1.0], [2.0]], edges=[(0, 2)])
    with pytest.raises(InputError, match=r"^self-loop \(1, 1\) is not allowed$"):
        Graph(features=[[1.0], [2.0]], edges=[(1, 1)])
    with pytest.raises(InputError, match="duplicate"):
        Graph(features=[[1.0], [2.0]], edges=[(0, 1), (1, 0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructor_rejects_non_finite_features(bad):
    feats = np.ones((3, 2))
    feats[2, 1] = bad
    with pytest.raises(InputError, match=r"feature \(2, 1\) is not finite"):
        Graph(features=feats, edges=[(0, 1)])


def test_aggregate_rejects_overflowing_features():
    # each aggregated row's norm overflows, so normalizing would turn the
    # rows into zeros that pass the vanishing-norm check
    g = Graph([[1e308, 1e308], [1e308, 1.0], [1.0, 1.0]], [(0, 1), (1, 2)])
    with pytest.raises(InputError, match="feature sums overflow at node 0"):
        aggregate_features(g)


_TEN = random_graph(10, 0.4, 3, seed=0)
_HALF_LABELS = [0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.5, 1.7, 1.0, 1.0]


@pytest.mark.parametrize(
    "build, what",
    [
        (lambda: Graph(np.eye(3), [(0.5, 1.9), (1.2, 2.0)]), "edges"),
        (lambda: Graph(np.eye(4), [(0, 1)], labels=[0.5, 0.9, 1.7, 1.2]), "labels"),
        (lambda: dice_attack(_TEN, _HALF_LABELS, 0.5, seed=0), "labels"),
        (
            lambda: evaluate_classifier(
                _TEN, _HALF_LABELS, make_split(10, 0, train_frac=0.5), TrainConfig(m=4, steps=1)
            ),
            "labels",
        ),
        (lambda: write_labels(_HALF_LABELS, os.devnull), "labels"),
    ],
    ids=["graph-edges", "graph-labels", "dice-attack", "evaluate-classifier", "write-labels"],
)
def test_non_whole_ids_are_refused_not_truncated(build, what):
    with pytest.raises(InputError, match=rf"^{what}: 0\.5 is not a whole number in int64 range$"):
        build()
    with pytest.raises(InputError, match=r"1e\+30 is not a whole number"):
        Graph(np.eye(3), [(0, 1)], labels=[0.0, 1.0, 1e30])
    # whole-valued floats still read as the integers they hold
    g = Graph(np.eye(3), [(0.0, 2.0)], labels=[1.0, 0.0, 1.0])
    assert g.edges.tolist() == [[0, 2]] and g.labels.tolist() == [1, 0, 1]


# Five entry points that read ids, each given one bad id.
_ID_SITES = pytest.mark.parametrize(
    "build",
    [
        lambda bad: Graph(np.eye(2), [(bad, 1)]),
        lambda bad: Graph(np.eye(2), [], labels=[bad, 1]),
        lambda bad: dice_attack(_TEN, [bad] + [0] * 9, 0.5, seed=0),
        lambda bad: evaluate_classifier(
            _TEN, [bad] + [0] * 9, make_split(10, 0, train_frac=0.5), TrainConfig(m=4, steps=1)
        ),
        lambda bad: write_labels([bad, 1], os.devnull),
    ],
    ids=["graph-edges", "graph-labels", "dice-attack", "evaluate-classifier", "write-labels"],
)


@_ID_SITES
def test_non_numeric_ids_raise_input_error(build):
    for bad, dtype in (("a", "<U21"), (None, "object")):
        with pytest.raises(InputError, match=rf": values of dtype {dtype} are not whole numbers$"):
            build(bad)


@_ID_SITES
def test_ragged_ids_raise_input_error(build):
    with pytest.raises(InputError, match=r": values of ragged shape are not an array$"):
        build([1])


@pytest.mark.parametrize("labels", [[[0, 1], [1, 0]], 7], ids=["matrix", "scalar"])
def test_write_labels_refuses_what_is_not_a_vector(labels, tmp_path):
    # one label per line is all load_graph reads back
    path = tmp_path / "labels.txt"
    with pytest.raises(InputError, match=r"^labels must be a vector, got shape \("):
        write_labels(labels, path)
    assert not path.exists()


_NEGATIVE = [0, 0, 0, 0, 0, 1, 1, -1, 1, 1]


@pytest.mark.parametrize(
    "build",
    [
        lambda: Graph(_TEN.features, _TEN.edges, labels=_NEGATIVE),
        lambda: write_labels(_NEGATIVE, os.devnull),
        lambda: dice_attack(_TEN, _NEGATIVE, 0.5, seed=0),
        lambda: evaluate_classifiers(
            [_TEN], _NEGATIVE, make_split(10, 0, train_frac=0.5), TrainConfig(m=4, steps=1)
        ),
        lambda: encode_labels(_NEGATIVE),
    ],
    ids=["graph", "write-labels", "dice-attack", "evaluate-classifiers", "encode-labels"],
)
def test_negative_labels_are_refused_everywhere(build):
    # one rule for a labeling, whichever entry point reads it
    with pytest.raises(InputError, match="^labels must be non-negative$"):
        build()


def test_edges_are_canonical_and_sorted():
    g = Graph(features=np.eye(4), edges=[(3, 1), (2, 0), (1, 0)])
    assert g.edges.tolist() == [[0, 1], [0, 2], [1, 3]]
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(0, 3)
    assert g.degrees.tolist() == [3, 3, 2, 2]  # self-loop included
    assert g.adjacency_with_self_loops().toarray()[0].tolist() == [1.0, 1.0, 1.0, 0.0]


def test_remove_edge_and_equality():
    g = Graph(features=np.eye(3), edges=[(0, 1), (1, 2)])
    g2 = remove_edge(g, 2, 1)
    assert g2.edges.tolist() == [[0, 1]]
    assert g.n_edges == 2, "original graph must be untouched"
    assert g2.features is g.features, "features are shared, not copied"
    with pytest.raises(InputError, match=r"^edge \(0, 2\) not in graph$"):
        remove_edge(g, 0, 2)
    with pytest.raises(InputError, match=r"^\(1, 1\) is a self-loop$"):
        remove_edge(g, 1, 1)
    assert with_edges(g2, [(0, 1), (1, 2)]) == g


def test_affected_nodes_is_union_of_closed_neighborhoods():
    path = Graph(features=np.eye(5), edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
    assert affected_nodes(path, 1, 2).tolist() == [0, 1, 2, 3]
    assert affected_nodes(path, 0, 1).tolist() == [0, 1, 2]


def test_rows_outside_affected_set_do_not_move():
    for seed in range(10):
        g = random_graph(n=14, edge_prob=0.25, n_features=4, seed=100 + seed)
        xt = aggregate_features(g).matrix
        u, v = g.edges[seed % g.n_edges].tolist()
        s = set(affected_nodes(g, u, v).tolist())
        xt2 = aggregate_features(remove_edge(g, u, v)).matrix
        others = [i for i in range(g.n_nodes) if i not in s]
        assert np.array_equal(xt[others], xt2[others]), f"seed {seed} edge ({u},{v})"


def test_file_round_trip(tmp_path):
    g = random_graph(n=9, edge_prob=0.3, n_features=3, seed=7)
    labels = np.arange(9) % 3
    e, f, l = tmp_path / "e.tsv", tmp_path / "f.csv", tmp_path / "l.txt"
    write_edge_tsv(g, e)
    write_features_csv(g, f)
    write_labels(labels, l)
    g2 = load_graph(e, f, l)
    assert g2 == Graph(g.features, g.edges, labels=labels)
    assert np.array_equal(g2.features, g.features)
    assert np.array_equal(g2.edges, g.edges)
    assert g2.labels.tolist() == labels.tolist()
    # writes are deterministic
    e2 = tmp_path / "e2.tsv"
    write_edge_tsv(g, e2)
    assert e.read_bytes() == e2.read_bytes()


def test_load_graph_reports_line_numbers(tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("1.0,2.0\n3.0,oops\n")
    e = tmp_path / "e.tsv"
    e.write_text("0\t1\n")
    with pytest.raises(InputError, match="line 2: non-numeric value 'oops'$"):
        load_graph(e, f)

    f.write_text("1.0,2.0\n3.0,4.0\n")
    e.write_text("0\t1\n0\t5\n")
    with pytest.raises(InputError, match=r"line 2: edge \(0, 5\) out of range for 2 nodes$"):
        load_graph(e, f)

    e.write_text("0\t1\nnope\t1\n")
    with pytest.raises(InputError, match="line 2: expected integer, got 'nope'$"):
        load_graph(e, f)

    f.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(InputError, match="line 2: expected 2 columns, got 1$"):
        load_graph(tmp_path / "e.tsv", f)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_graph_rejects_non_finite_features(tmp_path, cell):
    f = tmp_path / "f.csv"
    f.write_text(f"1.0,2.0\n3.0,4.0\n5.0,{cell}\n")
    e = tmp_path / "e.tsv"
    e.write_text("0\t1\n")
    with pytest.raises(InputError, match=f"line 3: non-finite value '{cell}'"):
        load_graph(e, f)


def test_load_graph_warns_and_cleans(tmp_path):
    f = tmp_path / "f.csv"
    f.write_text("1.0\n2.0\n3.0\n")
    e = tmp_path / "e.tsv"
    e.write_text("# comment\n0\t1\n\n1\t0\n2\t2\n1\t2\n")
    with pytest.warns(KcesWarning):
        g = load_graph(e, f)
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_label_count_mismatch(tmp_path):
    (tmp_path / "f.csv").write_text("1.0\n2.0\n")
    (tmp_path / "e.tsv").write_text("0\t1\n")
    (tmp_path / "l.txt").write_text("0\n1\n2\n")
    with pytest.raises(InputError, match="expected 2 labels"):
        load_graph(tmp_path / "e.tsv", tmp_path / "f.csv", tmp_path / "l.txt")


def test_format_float_round_trips():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, size=200):
        assert float(format_float(x)) == x
    assert format_float(0.25) == "0.25"
    assert format_float(1e-9) == "1e-09"
