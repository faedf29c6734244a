"""Per-edge complexity scores: naive route, fast route, golden case."""

import os
import threading
import time
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    assert_reaped,
    oracle_gkc_from_graph,
    oracle_kc,
    oracle_one_hot,
    record_forks,
    run_in_child,
    traced_peak,
)

from kces.errors import ConfigError, InputError, KcesWarning, NumericError
from kces import kcscore
from kces.graph import Graph, affected_nodes, aggregate_features, remove_edge
from kces.kernel import GramPatcher, gram_matrix
from kces.kcscore import (
    BLOCK_EDGES,
    CAPACITANCE_COND_LIMIT,
    KcScoreTable,
    kc_score_naive,
    kc_scores_all,
)
from kces.pseudolabel import encode_labels, kmeans_pseudo_labels
from kces.synth import make_sbm_benchmark, random_graph

GOLDEN_DIR = Path(__file__).parent / "data" / "golden5"

# 5-node path with fixed features; values frozen from the dense-inverse
# reference implementation in helpers.py (pseudo-inverse limit for the
# structurally singular interior removals)
GOLDEN_FEATURES = np.array(
    [
        [1.0, 0.2, -0.3],
        [0.4, -1.0, 0.5],
        [-0.7, 0.6, 1.0],
        [0.3, 0.8, -0.5],
        [-0.2, -0.4, 0.9],
    ]
)
GOLDEN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4)]
GOLDEN_ASSIGNMENTS = [1, 1, 0, 0, 0]
GOLDEN_BASE_GKC = 2.670792680902644
GOLDEN_ORACLE_KC = {
    (0, 1): 1.9523723355578824,
    (1, 2): 0.7617565634566434,
    (2, 3): 1.0930599825933616,
    (3, 4): 0.9042692584565666,
}
GOLDEN_ARGMAX_EDGE = (0, 1)


def _rows(table):
    """Map each edge of a table to its (score, gkc_removed, route) row."""
    routes = np.where(table.fast, "fast", "naive").tolist()
    return {
        tuple(e): row
        for e, row in zip(
            table.edges.tolist(),
            zip(table.scores.tolist(), table.gkc_removed.tolist(), routes),
        )
    }


def _scores(table):
    return {e: score for e, (score, _, _) in _rows(table).items()}


def _golden_graph():
    return Graph(features=GOLDEN_FEATURES, edges=GOLDEN_EDGES)


def _golden_labels():
    g = _golden_graph()
    pl = kmeans_pseudo_labels(g, 2, 0)
    assert pl.tolist() == GOLDEN_ASSIGNMENTS
    return encode_labels(pl, "one-hot")


def test_golden_case_matches_frozen_oracle_values():
    g = _golden_graph()
    lm = _golden_labels()
    table = kc_scores_all(g, lm)
    # every golden edge falls back to the naive route
    assert not table.fast.any()
    assert table.base_gkc == pytest.approx(GOLDEN_BASE_GKC, rel=1e-12)
    scores = _scores(table)
    for edge, want in GOLDEN_ORACLE_KC.items():
        got = scores[edge]
        # interior removals are structurally singular: the library solves
        # a system with a rounding-level smallest eigenvalue while the
        # reference takes the exact pseudo-inverse limit, so those two
        # edges agree to ~1e-8 instead of machine precision
        tol = 1e-6 if edge in ((1, 2), (2, 3)) else 1e-10
        rel = abs(got - want) / want
        assert rel <= tol, f"edge {edge}: rel {rel:.2e}"
    assert table.sorted_edges()[0] == GOLDEN_ARGMAX_EDGE


def test_golden_tsv_bytes(tmp_path):
    g = _golden_graph()
    lm = _golden_labels()
    table = kc_scores_all(g, lm)
    # so the golden file pins the bytes of the naive route
    assert not table.fast.any()
    out = tmp_path / "scores.tsv"
    table.write_tsv(out)
    assert out.read_bytes() == (GOLDEN_DIR / "scores.tsv").read_bytes()


def test_naive_matches_independent_oracle():
    rng = np.random.default_rng(7)
    for seed in range(12):
        g = random_graph(n=10, edge_prob=0.35, n_features=4, seed=300 + seed, avoid_twins=True)
        assign = rng.integers(0, 2, size=g.n_nodes)
        if np.unique(assign).size < 2:
            assign[0] = 1 - assign[0]
        lm = encode_labels(assign, "one-hot")
        cols = oracle_one_hot(assign, 2)
        for u, v in g.edges.tolist()[:4]:
            got = kc_score_naive(g, lm, u, v)
            want = oracle_kc(g.features, g.edges.tolist(), cols, u, v)
            assert abs(got - want) <= 1e-10 * max(want, 1.0), (
                f"seed {seed} edge ({u},{v}): {got} vs {want}"
            )


@pytest.mark.parametrize("avoid_twins", [True, False], ids=["no-twins", "twins"])
def test_fast_matches_naive_exhaustively(avoid_twins):
    for seed in range(12):
        n = 12 + 2 * seed  # 12 .. 34
        g = random_graph(n=n, edge_prob=3.0 / n, n_features=5, seed=500 + seed, avoid_twins=avoid_twins)
        pl = kmeans_pseudo_labels(g, 2, seed)
        lm = encode_labels(pl, "one-hot")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KcesWarning)
            table = kc_scores_all(g, lm)
            refs = [kc_score_naive(g, lm, u, v) for u, v in g.edges.tolist()]
        assert np.array_equal(table.edges, g.edges)
        for edge, got, ref, fast in zip(table.edges.tolist(), table.scores, refs, table.fast):
            if fast:
                ok = abs(got - ref) <= max(1e-8 * abs(ref), 1e-12)
            else:
                ok = got == ref
            assert ok, f"seed {seed} n={n} edge {edge}: naive {ref} table {got} fast={fast}"


def test_score_symmetry_and_missing_edge():
    g = random_graph(n=8, edge_prob=0.4, n_features=3, seed=21, avoid_twins=True)
    lm = encode_labels(np.arange(8) % 2, "one-hot")
    u, v = g.edges[0].tolist()
    assert kc_score_naive(g, lm, u, v) == kc_score_naive(g, lm, v, u)
    a, b = next((a, b) for a in range(8) for b in range(a + 1, 8) if not g.has_edge(a, b))
    with pytest.raises(InputError, match=rf"^edge \({a}, {b}\) not in graph$"):
        kc_score_naive(g, lm, a, b)


def test_removal_invariant_features_give_zero_score():
    # isolated pair {0,1} shares the axis-aligned feature [1, 0], so its
    # aggregated rows are exactly [1, 0] (c/c == 1.0 bit-for-bit) with or
    # without the edge: removal reproduces the identical kernel matrix and
    # the score is exactly zero through either route
    feats = np.array(
        [
            [1.0, 0.0],
            [1.0, 0.0],
            [0.9, -0.1],
            [0.2, 0.7],
            [-0.4, 0.5],
            [0.8, 0.3],
            [-0.6, -0.2],
            [0.3, 0.9],
        ]
    )
    edges = [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 7)]
    g = Graph(features=feats, edges=edges)
    xa = aggregate_features(g)
    xb = aggregate_features(remove_edge(g, 0, 1))
    assert np.array_equal(gram_matrix(xa).h, gram_matrix(xb).h)
    lm = encode_labels(np.array([0, 0, 1, 1, 1, 1, 1, 1]), "one-hot")
    assert kc_score_naive(g, lm, 0, 1) == 0.0
    table = kc_scores_all(g, lm)
    assert _scores(table)[(0, 1)] == 0.0


def test_star_center_edge_falls_back_and_matches():
    n = 8
    feats = np.random.default_rng(3).standard_normal((n, 4))
    g = Graph(features=feats, edges=[(0, i) for i in range(1, n)])
    lm = encode_labels(np.arange(n) % 2, "one-hot")
    table = kc_scores_all(g, lm)
    assert not table.fast.any(), "affected sets span the graph: must fall back"
    assert _scores(table)[(0, 1)] == kc_score_naive(g, lm, 0, 1)


def test_table_internal_consistency_and_coverage():
    g = random_graph(n=14, edge_prob=0.3, n_features=4, seed=44, avoid_twins=True)
    pl = kmeans_pseudo_labels(g, 2, 0)
    lm = encode_labels(pl, "one-hot")
    table = kc_scores_all(g, lm)
    assert np.array_equal(table.edges, g.edges)
    assert (table.scores >= 0.0).all()
    assert np.abs(table.scores - np.abs(table.base_gkc - table.gkc_removed)).max() <= 1e-12
    order = table.sorted_edges()
    assert sorted(order) == [tuple(e) for e in g.edges.tolist()]
    by_edge = _scores(table)
    scores = [by_edge[e] for e in order]
    assert scores == sorted(scores, reverse=True)


def test_empty_edge_set_rejected():
    g = Graph(features=np.eye(3), edges=[])
    lm = encode_labels(np.array([0, 1, 0]), "one-hot")
    with pytest.raises(ConfigError):
        kc_scores_all(g, lm)


def test_table_tsv_round_trip(tmp_path):
    g = random_graph(n=10, edge_prob=0.35, n_features=3, seed=66, avoid_twins=True)
    pl = kmeans_pseudo_labels(g, 2, 0)
    lm = encode_labels(pl, "one-hot")
    table = kc_scores_all(g, lm)
    path = tmp_path / "scores.tsv"
    table.write_tsv(path)
    back = KcScoreTable.read_tsv(path)
    assert np.array_equal(back.edges, table.edges)
    assert np.array_equal(back.scores, table.scores)
    assert np.array_equal(back.fast, table.fast)
    assert np.isnan(back.gkc_removed).all()
    assert np.isnan(back.base_gkc)


def test_read_tsv_rejects_headerless_file(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("0\t1\t0.5\tfast\n1\t2\t0.25\tfast\n", encoding="utf-8")
    with pytest.raises(InputError, match="line 1: expected header"):
        KcScoreTable.read_tsv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5"])
def test_read_tsv_rejects_non_finite_or_negative_score(tmp_path, bad):
    path = tmp_path / "scores.tsv"
    path.write_text(
        f"u\tv\tkc_score\tmethod\n1\t2\t0.4\tfast\n0\t1\t{bad}\tfast\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match=f"line 3: kc_score .* got '{bad}'"):
        KcScoreTable.read_tsv(path)


def test_read_tsv_rejects_repeated_edge(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text(
        "u\tv\tkc_score\tmethod\n0\t1\t0.5\tfast\n1\t2\t0.4\tfast\n0\t1\t0.3\tnaive\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match="line 4: repeated edge"):
        KcScoreTable.read_tsv(path)


def test_read_tsv_rejects_reversed_repeat_and_unknown_route(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text(
        "u\tv\tkc_score\tmethod\n0\t1\t0.5\tfast\n1\t0\t0.3\tnaive\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match="line 3: repeated edge"):
        KcScoreTable.read_tsv(path)
    path.write_text(
        "u\tv\tkc_score\tmethod\n0\t1\t0.5\tfast\n1\t2\t0.4\tbogus\n",
        encoding="utf-8",
    )
    with pytest.raises(InputError, match="line 3: method .* got 'bogus'"):
        KcScoreTable.read_tsv(path)


def test_read_tsv_canonicalizes_and_sorts_edges(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text(
        "u\tv\tkc_score\tmethod\n3\t1\t0.5\tfast\n0\t2\t0.4\tnaive\n"
        "0\t1\t0.4\tfast\n",
        encoding="utf-8",
    )
    table = KcScoreTable.read_tsv(path)
    assert table.edges.tolist() == [[0, 1], [0, 2], [1, 3]]
    assert table.scores.tolist() == [0.4, 0.4, 0.5]
    assert table.fast.tolist() == [True, False, True]
    assert table.sorted_edges() == [(1, 3), (0, 1), (0, 2)]


def _hub_ring_graph():
    # ring over 40 nodes plus a hub at node 10 joined to nodes 20..39: the
    # hub's edges have affected sets of at least N/2 and take the naive
    # route, every other edge takes the fast one, and the first block of
    # the canonical edge order holds both kinds
    n = 40
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(10, k) for k in range(20, n) if k != 11]
    feats = np.random.default_rng(17).standard_normal((n, 5))
    return Graph(features=feats, edges=edges)


def test_block_with_mixed_routes_matches_single_edge_scoring(tmp_path, monkeypatch):
    g = _hub_ring_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    assert gram_matrix(aggregate_features(g)).ridge == 0.0
    table = kc_scores_all(g, lm)
    assert not table.fast[:BLOCK_EDGES].all() and table.fast[:BLOCK_EDGES].any()

    # each edge scored in a block of its own takes the same route
    with monkeypatch.context() as m:
        m.setattr(kcscore, "BLOCK_EDGES", 1)
        alone = kc_scores_all(g, lm)
    assert np.array_equal(alone.fast, table.fast)
    for (u, v), score, fast in zip(table.edges.tolist(), table.scores, table.fast):
        ref = kc_score_naive(g, lm, u, v)
        if not fast:
            assert score == ref, f"edge {(u, v)}"
        else:
            assert abs(score - ref) <= max(1e-8 * abs(ref), 1e-12), f"edge {(u, v)}"

    first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
    table.write_tsv(first)
    kc_scores_all(g, lm).write_tsv(second)
    assert first.read_bytes() == second.read_bytes()


def _explicit_capacitance(g, u, v):
    """The Woodbury capacitance matrix of removing (u, v), as the fast
    route factors it, built in full from an explicit inverse of the base
    Gram matrix: the changed columns map the new rows against the base
    rows, and the corner block corrects the affected rows."""
    xt = aggregate_features(g)
    h = gram_matrix(xt).h
    removed = aggregate_features(remove_edge(g, u, v))
    s = affected_nodes(g, u, v)
    b = (gram_matrix(removed).h - h)[np.ix_(s, s)]
    m = xt @ removed[s].T
    m = m * (np.pi - np.arccos(np.clip(m, -1.0, 1.0))) / (2.0 * np.pi) - h[:, s]
    h_inv = np.linalg.inv(h)
    h_inv_m = h_inv @ m
    eye = np.eye(s.size)
    return np.block(
        [
            [m[s] + m[s].T - b + m.T @ h_inv_m, eye + h_inv_m[s].T],
            [eye + h_inv_m[s], h_inv[np.ix_(s, s)]],
        ]
    )


def test_ill_conditioning_limit_sends_every_edge_naive(monkeypatch):
    g = _hub_ring_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    # no capacitance matrix has a condition number of 1 or less
    monkeypatch.setattr(kcscore, "CAPACITANCE_COND_LIMIT", 1.0)
    table = kc_scores_all(g, lm)
    assert not table.fast.any()
    for (u, v), score in _scores(table).items():
        assert score == kc_score_naive(g, lm, u, v), f"edge {(u, v)}"


def test_route_follows_capacitance_condition_number(monkeypatch):
    g = _hub_ring_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    table = kc_scores_all(g, lm)
    cond_1 = {}
    for (u, v), fast in zip(table.edges.tolist(), table.fast):
        if 2 * affected_nodes(g, u, v).size >= g.n_nodes:
            assert not fast, f"edge {(u, v)}"
            continue
        cap = _explicit_capacitance(g, u, v)
        cond = np.linalg.cond(cap)
        assert fast == (cond <= CAPACITANCE_COND_LIMIT), f"edge {(u, v)}: cond {cond:.3e}"
        cond_1[(u, v)] = np.linalg.cond(cap, 1)
    assert len(cond_1) > 30

    # At a limit inside the range (the 1-norm condition numbers span 315 to
    # 2809), LAPACK's estimate, which never exceeds the exact 1-norm
    # condition number and on this graph is at least 0.30 of it, keeps
    # every edge at or under the limit fast and sends every edge over 3.5
    # times the limit to the naive route.
    limit = max(cond_1.values()) / 5.0
    monkeypatch.setattr(kcscore, "CAPACITANCE_COND_LIMIT", limit)
    table = kc_scores_all(g, lm)
    below = [e for e, c in cond_1.items() if c <= limit]
    above = [e for e, c in cond_1.items() if c > 3.5 * limit]
    assert below and above
    routes = {e: route for e, (_, _, route) in _rows(table).items()}
    assert all(routes[e] == "fast" for e in below)
    assert all(routes[e] == "naive" for e in above)


def test_capacitance_solve_estimates_the_full_1_norm_condition(monkeypatch):
    # column 2 sums to 48 in full but to 40 below the diagonal, so a norm
    # read from one triangle alone would understate the condition number;
    # LAPACK's estimate is exact on this matrix (264)
    cap = np.array([[1.0, 0.0, 4.0], [0.0, 1.0, 4.0], [4.0, 4.0, 40.0]])
    rhs = np.array([[1.0], [2.0], [3.0]])
    cond = np.linalg.cond(cap, 1)
    monkeypatch.setattr(kcscore, "CAPACITANCE_COND_LIMIT", 1.01 * cond)
    x, twice = kcscore._solve_capacitance(cap.copy(), [rhs, 2.0 * rhs])
    np.testing.assert_allclose(x, np.linalg.solve(cap, rhs), rtol=1e-12)
    np.testing.assert_allclose(twice, 2.0 * x, rtol=1e-12)
    monkeypatch.setattr(kcscore, "CAPACITANCE_COND_LIMIT", 0.99 * cond)
    assert kcscore._solve_capacitance(cap.copy(), [rhs]) is None

    monkeypatch.setattr(kcscore, "CAPACITANCE_COND_LIMIT", 1e12)
    singular = np.ones((2, 2))
    assert kcscore._solve_capacitance(singular, [rhs[:2]]) is None
    cap[1, 1] = np.inf
    assert kcscore._solve_capacitance(cap, [rhs]) is None


def _twin_forming_graph():
    # ring over 40 nodes plus nodes 40 and 41, both joined to ring node 5
    # and to each other, and 41 also to ring node 25: the base has no twin
    # rows, but removing (25, 41) leaves 40 and 41 with the same closed
    # neighborhood, so that removal's Gram matrix is singular
    n = 42
    edges = [(i, (i + 1) % 40) for i in range(40)]
    edges += [(5, 40), (5, 41), (40, 41), (25, 41)]
    feats = np.random.default_rng(17).standard_normal((n, 5))
    return Graph(features=feats, edges=edges)


def test_fast_matches_naive_on_graph_with_twin_forming_removal():
    g = _twin_forming_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    assert gram_matrix(aggregate_features(g)).ridge == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        table = kc_scores_all(g, lm)
        assert _rows(table)[(25, 41)][2] == "naive"
        for (u, v), score, fast in zip(table.edges.tolist(), table.scores, table.fast):
            ref = kc_score_naive(g, lm, u, v)
            if not fast:
                assert score == ref, f"edge {(u, v)}"
            else:
                assert abs(score - ref) <= max(1e-8 * abs(ref), 1e-12), f"edge {(u, v)}"
    assert table.fast.sum() == g.n_edges - 1


def _ridged_twin_graph():
    # nodes 8 and 9 share the closed neighborhood {0, 8, 9}, so their
    # aggregated rows coincide and the base Gram matrix needs a ridge
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 8), (0, 9), (8, 9)]
    feats = np.random.default_rng(5).standard_normal((10, 3))
    return Graph(features=feats, edges=edges)


def _sparse_sbm_202():
    # N = 202 is not a multiple of OpenBLAS's tile sizes
    return make_sbm_benchmark(seed=202, n=202, p_in=4 / 202, p_out=1 / 202)


def _sparse_sbm_204():
    # its base needs no ridge, but a few removals give capacitance
    # systems with condition estimates of 1.2e8 to 4.2e9, on which the
    # Woodbury score can be 49% off the naive one
    return make_sbm_benchmark(seed=204, n=202, p_in=4 / 202, p_out=1 / 202)


@pytest.mark.parametrize(
    "make_graph, ridged",
    [(_ridged_twin_graph, True), (_sparse_sbm_202, True), (_sparse_sbm_204, False)],
    ids=["_ridged_twin_graph", "_sparse_sbm_202", "_sparse_sbm_204"],
)
def test_routes_match_naive_on_ridged_and_ill_conditioned_bases(make_graph, ridged):
    g = make_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        assert (gram_matrix(aggregate_features(g)).ridge > 0.0) == ridged
        table = kc_scores_all(g, lm)
        for (u, v), score, fast in zip(table.edges.tolist(), table.scores, table.fast):
            ref = kc_score_naive(g, lm, u, v)
            if fast:
                assert abs(score - ref) <= max(1e-8 * abs(ref), 1e-12), f"edge {(u, v)}"
            else:
                assert score == ref, f"edge {(u, v)}"
    assert table.fast.any() and not table.fast.all()


def _star_ring_graph():
    # ring over 60 nodes plus a hub at node 0 joined to every fifth ring
    # node: the hub's edges are small enough for the fast route and share
    # the hub's side of their affected sets
    n = 60
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(0, k) for k in range(5, n, 5)]
    feats = np.random.default_rng(23).standard_normal((n, 5))
    return Graph(features=feats, edges=edges)


@pytest.mark.parametrize(
    "make_graph",
    [_hub_ring_graph, _star_ring_graph, _sparse_sbm_202, _sparse_sbm_204],
    ids=["_hub_ring_graph", "_star_ring_graph", "_sparse_sbm_202", "_sparse_sbm_204"],
)
def test_scores_do_not_depend_on_the_block_partition(make_graph, monkeypatch):
    g = make_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    tables = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        # one edge per block shares nothing; one block shares everything
        for block_edges in (1, BLOCK_EDGES, g.n_edges):
            with monkeypatch.context() as m:
                m.setattr(kcscore, "BLOCK_EDGES", block_edges)
                tables.append(kc_scores_all(g, lm))
        ref = np.array([kc_score_naive(g, lm, u, v) for u, v in g.edges.tolist()])
    for table in tables:
        assert np.array_equal(table.fast, tables[0].fast)
        fast = table.fast
        assert np.all(np.abs(table.scores - ref)[fast] <= np.maximum(1e-8 * np.abs(ref), 1e-12)[fast])
        assert np.array_equal(table.scores[~fast], ref[~fast])
    assert tables[0].fast.any()


def _kernel_columns(g, block_edges, edges=None):
    """Kernel columns the fast route builds for ``edges`` (default: all
    of g's): per block, one per distinct (node, endpoint) key of a node
    off one endpoint only, and one per endpoint or common neighbor of
    each edge; and the sum of |S|."""
    columns = total = 0
    adj = g.adjacency_with_self_loops()
    near = [set(adj.indices[adj.indptr[i] : adj.indptr[i + 1]].tolist()) for i in range(g.n_nodes)]
    edges = g.edges.tolist() if edges is None else edges
    for start in range(0, len(edges), block_edges):
        keys = set()
        for u, v in edges[start : start + block_edges]:
            near_u, near_v = near[u], near[v]
            if 2 * len(near_u | near_v) >= g.n_nodes:
                continue
            total += len(near_u | near_v)
            keys |= {(k, u) for k in near_u - near_v}
            keys |= {(k, v) for k in near_v - near_u}
            keys |= {(k, (u, v)) for k in near_u & near_v}
        columns += len(keys)
    return columns, total


def test_pool_builds_each_distinct_kernel_column_once(monkeypatch):
    g = _star_ring_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    built = []
    dtrmm = kcscore.blas.dtrmm

    def counting(alpha, a, b, *args, **kwargs):
        built.append(b.shape[1])
        return dtrmm(alpha, a, b, *args, **kwargs)

    monkeypatch.setattr(kcscore.blas, "dtrmm", counting)
    # the counts are the parent's, so the segments are scored in-process
    monkeypatch.setattr(kcscore, "_usable_cpus", lambda: 1)
    per_block, total = _kernel_columns(g, BLOCK_EDGES)
    # each segment keeps a pool of its own, so an unbounded pool builds
    # each distinct column of a segment once, as one block holding all
    # of the segment's edges would
    cut = kcscore._key_pass(g).segment_cut * BLOCK_EDGES
    assert cut.size == 3
    edges = g.edges.tolist()
    distinct = sum(_kernel_columns(g, b - a, edges[a:b])[0] for a, b in zip(cut[:-1], cut[1:]))
    assert distinct < per_block < total
    # the cache maps the label columns once; the blocks map the rest
    for pool, columns in ((0, per_block), (np.inf, distinct)):
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(kcscore, "_POOL_COLUMNS_PER_NODE", pool)
            assert kc_scores_all(g, lm).fast.all()
        assert sum(built) == lm.columns.shape[1] + columns, f"pool {pool}"


def _half_hub_graph():
    # ring over 20 nodes plus a hub at node 0 joined to nodes 3, 6, .., 15:
    # each hub edge (0, k) touches exactly half the graph, 2|S| = N, and
    # the hub's ring edges (0, 1) and (0, 19) touch 9 nodes
    n = 20
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(0, k) for k in range(3, 16, 3)]
    feats = np.random.default_rng(3).standard_normal((n, 4))
    return Graph(features=feats, edges=edges)


def test_an_edge_touching_half_the_graph_has_no_rows():
    g = _half_hub_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    plan = kcscore._key_pass(g)
    table = kc_scores_all(g, lm)
    edges = g.edges.tolist()
    affected = [affected_nodes(g, u, v).tolist() for u, v in edges]
    half = [i for i, s in enumerate(affected) if 2 * len(s) == g.n_nodes]
    less = [i for i, s in enumerate(affected) if 2 * len(s) < g.n_nodes]
    assert len(half) == 5 and len(half) + len(less) == g.n_edges
    assert {edges[i][0] for i in half} == {0} and [0, 1] in [edges[i] for i in less]
    # the plan's columns are those of the smaller edges alone, and none is
    # replayed for a half edge
    assert plan.col_cut[-1] == _kernel_columns(g, BLOCK_EDGES)[0]
    replayed = set(zip(plan.eu.tolist(), plan.ev.tolist()))
    for i in half:
        u, v = edges[i]
        assert plan.indptr[i] == plan.indptr[i + 1]
        assert (u, v) not in replayed
        assert not table.fast[i]
        assert table.scores[i] == kc_score_naive(g, lm, u, v)
    for i in less:
        assert plan.s[plan.indptr[i] : plan.indptr[i + 1]].tolist() == affected[i]
    assert table.fast[less].all()


@pytest.mark.parametrize(
    "make_graph",
    [_hub_ring_graph, _star_ring_graph, _twin_forming_graph, _ridged_twin_graph, _sparse_sbm_202],
    ids=["_hub_ring_graph", "_star_ring_graph", "_twin_forming_graph", "_ridged_twin_graph", "_sparse_sbm_202"],
)
@pytest.mark.parametrize("pool", [0, np.inf], ids=["block-local", "unbounded"])
def test_scores_do_not_depend_on_the_pool_size(make_graph, pool, monkeypatch, tmp_path):
    g = make_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        default = kc_scores_all(g, lm)
        with monkeypatch.context() as m:
            m.setattr(kcscore, "_POOL_COLUMNS_PER_NODE", pool)
            table = kc_scores_all(g, lm)
            table.write_tsv(tmp_path / "a.tsv")
            kc_scores_all(g, lm).write_tsv(tmp_path / "b.tsv")
        ref = np.array([kc_score_naive(g, lm, u, v) for u, v in g.edges.tolist()])
    assert np.array_equal(table.fast, default.fast)
    fast = table.fast
    assert fast.any()
    assert np.all(np.abs(table.scores - ref)[fast] <= np.maximum(1e-8 * np.abs(ref), 1e-12)[fast])
    assert np.array_equal(table.scores[~fast], ref[~fast])
    assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()


def _pool_builds(blocks, cap):
    """Columns a pool builds for ``blocks``, lists of keys (-1 for a
    column of one edge), keeping at most ``cap`` columns between blocks:
    a column with no later use goes at once, then the farthest next uses."""
    uses = {}
    for t, keys in enumerate(blocks):
        for k in keys:
            uses.setdefault(k, []).append(t)
    held, built = set(), 0
    for t, keys in enumerate(blocks):
        built += sum(k < 0 or k not in held for k in keys)
        held |= {k for k in keys if k >= 0}
        after = {k: next((b for b in uses[k] if b > t), None) for k in held}
        held = sorted((b, k) for k, b in after.items() if b is not None)[:cap]
        held = {k for _, k in held}
    return built


def _replay_pool(key, col_cut, slot, built, moves, main):
    """Replay a pool of keys: each block writes the key of every column it
    builds at that column's slot (a column of one edge, key -1, has a name
    of its own), every column then reads its key at its slot, and the
    block's moves copy slots."""
    names = [k if k >= 0 else ("own", j) for j, k in enumerate(key.tolist())]
    slot, built = slot.tolist(), built.tolist()
    held = {}
    for t, (src, dst) in enumerate(moves):
        cols = range(col_cut[t], col_cut[t + 1])
        for j in cols:
            assert (slot[j] >= main) == built[j], f"column {j}"
            if built[j]:
                held[slot[j]] = names[j]
        for j in cols:
            assert held.get(slot[j]) == names[j], f"column {j}"
        assert np.all(dst < main) and np.all(src >= main), f"block {t}"
        held.update(zip(dst.tolist(), [held[i] for i in src.tolist()]))


def test_pool_schedule_builds_what_a_plain_pool_builds(monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(200):
        blocks = [
            rng.choice(12, size=rng.integers(0, 8), replace=False) - 2
            for _ in range(rng.integers(1, 20))
        ]
        blocks = [np.where(b < 0, -1, b) for b in blocks]
        key = np.concatenate(blocks).astype(np.int64)
        col_cut = np.cumsum([0] + [b.size for b in blocks])
        # each segment starts with an empty pool of its own
        inner = rng.choice(np.arange(1, len(blocks) + 1), size=rng.integers(0, 3))
        cut = np.unique(np.concatenate(([0], inner, [len(blocks)])))
        for cap in (0, 1, 3, 6, 100):
            slot, built, moves, main, n_slots = kcscore._schedule(key, col_cut, cut, cap)
            builds = sum(_pool_builds(blocks[a:b], cap) for a, b in zip(cut[:-1], cut[1:]))
            assert np.count_nonzero(built) == builds
            _replay_pool(key, col_cut, slot, built, moves, main)
            assert main <= cap and np.all(slot < n_slots)
    # the plans scoring runs on, with no pool and with an N-column pool
    for g in (_star_ring_graph(), _sparse_sbm_202()):
        n = g.n_nodes
        for pool in (0, 1):
            monkeypatch.setattr(kcscore, "_POOL_COLUMNS_PER_NODE", pool)
            plan = kcscore._key_pass(g)
            key = np.where(
                plan.side == 3,
                -1,
                plan.node.astype(np.int64) * n + np.where(plan.side == 2, plan.ev, plan.eu),
            )
            blocks = [key[a:b] for a, b in zip(plan.col_cut[:-1], plan.col_cut[1:])]
            # each segment starts with an empty pool of its own
            cut = plan.segment_cut.tolist()
            assert len(cut) == 3
            builds = sum(_pool_builds(blocks[a:b], pool * n) for a, b in zip(cut[:-1], cut[1:]))
            assert np.count_nonzero(plan.built) == builds
            _replay_pool(key, plan.col_cut, plan.slot, plan.built, plan.moves, plan.main)
            assert plan.main <= pool * n


def test_each_run_keys_its_edges_once(monkeypatch):
    g = _sparse_sbm_202()
    sets = [encode_labels(kmeans_pseudo_labels(g, 2, seed), "one-hot") for seed in range(3)]
    keyings = []
    key_pass = kcscore._key_pass

    def counting(*args):
        keyings.append(args)
        return key_pass(*args)

    monkeypatch.setattr(kcscore, "_key_pass", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        assert kc_scores_all(g, sets[0]).fast.any()
        assert len(keyings) == 1
        keyings.clear()
        kcscore._kc_scores_each(g, sets)
    assert len(keyings) == 1


def test_pool_fits_in_the_memory_of_the_released_factor():
    # the numpy memory scoring holds at N = 400 peaks at 5.28 MiB, 4.33 N^2
    # doubles: the pool's N columns take the place of the base's Cholesky
    # factor, and the run's plan, with each column's slot, is kept
    # throughout
    g = make_sbm_benchmark(0, n=400, p_in=12 / 400, p_out=2 / 400)
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    _, peak = traced_peak(kc_scores_all, g, lm)
    assert peak <= 5.7 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def _dense_sbm_1000():
    # the dense-sbm-1000 benchmark's seed-0 graph
    return make_sbm_benchmark(0, n=1000, p_in=0.02, p_out=0.002)


def _plan_bytes(plan):
    arrays = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    return sum(a.nbytes for a in arrays + plan.moves)


def test_key_pass_memory_stays_within_three_plans():
    # 131,297 affected rows and a 2.62 MiB plan; keyed all at once through
    # int64 temporaries of one entry per row, the pass peaked at 13.4 MiB
    g = _dense_sbm_1000()
    plan, peak = traced_peak(kcscore._key_pass, g)
    size = _plan_bytes(plan)
    assert peak <= 3 * size, f"peak {peak / 2**20:.2f} MiB, plan {size / 2**20:.2f} MiB"


@pytest.mark.parametrize(
    "make_graph",
    [_dense_sbm_1000, _half_hub_graph, _star_ring_graph],
    ids=["_dense_sbm_1000", "_half_hub_graph", "_star_ring_graph"],
)
def test_the_plan_does_not_depend_on_the_key_chunk_size(make_graph, monkeypatch):
    g = make_graph()
    n_blocks, default = -(-g.n_edges // BLOCK_EDGES), kcscore._KEY_CHUNK_BLOCKS
    plans = []
    # one block a chunk, the default, and one chunk for the run
    for chunk in (1, default, n_blocks):
        monkeypatch.setattr(kcscore, "_KEY_CHUNK_BLOCKS", chunk)
        plans.append(kcscore._key_pass(g))
    ref = vars(plans[0])
    for plan in plans[1:]:
        for name, value in vars(plan).items():
            if name == "moves":
                assert len(value) == len(ref[name]) == n_blocks
                pairs = zip(value, ref[name])
            else:
                pairs = [(value, ref[name])]
            for a, b in pairs:
                assert type(a) is type(b) and np.asarray(a).dtype == np.asarray(b).dtype, name
                assert np.array_equal(a, b), name
    # the three graphs hold edges with no rows, two segments, and chunks
    # of the default size that do not cover the run
    if make_graph is _half_hub_graph:
        assert (np.diff(plans[0].indptr) == 0).any()
    else:
        assert plans[0].segment_cut.size == 3
    if make_graph is _dense_sbm_1000:
        assert n_blocks > 2 * default


@pytest.mark.parametrize(
    "make_graph", [_twin_forming_graph, _sparse_sbm_202, _ridged_twin_graph]
)
def test_patched_rebuild_is_bitwise_the_full_rebuild(make_graph):
    g = make_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        base = gram_matrix(aggregate_features(g))
        patcher = GramPatcher(base)
        for u, v in g.edges.tolist():
            xt = aggregate_features(remove_edge(g, u, v))
            want = gram_matrix(xt, base.ridge)
            got = patcher.gram(xt, affected_nodes(g, u, v))
            assert got.h.tobytes() == want.h.tobytes(), f"edge {(u, v)}"
            assert got.chol_lower.tobytes() == want.chol_lower.tobytes(), f"edge {(u, v)}"
            assert got.ridge == want.ridge, f"edge {(u, v)}"
            # nothing a call leaves in the reused buffer may leak into the next
            patcher._work.fill(np.nan)
        table = kc_scores_all(g, lm)
        naive = ~table.fast
        assert naive.any()
        for (u, v), score in zip(table.edges[naive].tolist(), table.scores[naive]):
            assert score == kc_score_naive(g, lm, u, v), f"edge {(u, v)}"


def test_removal_from_ridged_base_keeps_the_base_ridge(monkeypatch):
    g = _ridged_twin_graph()
    lm = encode_labels(np.arange(10) % 2, "one-hot")
    cols = oracle_one_hot(np.arange(10) % 2, 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", KcesWarning)
        ridge = gram_matrix(aggregate_features(g)).ridge
        table = kc_scores_all(g, lm)
    assert ridge > 0.0
    # one ridge warning per base, and the removals take the base's ridge
    # silently; the labels split twins 8 and 9, which warns once more
    said = [str(w.message) for w in caught]
    assert sum(m.startswith("Gram matrix not positive definite") for m in said) == 2
    assert sum(m.startswith("the labels split 1 group(s)") for m in said) == 1
    assert len(said) == 3

    # removing (8, 9) gives the twins the distinct neighborhoods {0, 8}
    # and {0, 9}: the removed graph's Gram matrix would factor plainly,
    # but it is scored under the base's ridge
    assert gram_matrix(aggregate_features(remove_edge(g, 8, 9))).ridge == 0.0
    kept = [e for e in g.edges.tolist() if tuple(e) != (8, 9)]
    got = _rows(table)[(8, 9)][1]
    with_ridge = oracle_gkc_from_graph(g.features, kept, cols, ridge=ridge)
    without = oracle_gkc_from_graph(g.features, kept, cols)
    assert abs(got - with_ridge) <= 1e-10 * with_ridge
    assert abs(got - without) > 1e-10 * without

    calls = []
    cholesky = scipy.linalg.cholesky

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return cholesky(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "cholesky", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        gram_matrix(aggregate_features(g))
        base_calls = len(calls)
        table = kc_scores_all(g, lm)
    # one factorization per naive edge, after the base's
    assert len(calls) == 2 * base_calls + (~table.fast).sum()


def _twin_warnings(g, label_sets):
    """The split-twin warnings of scoring g under ``label_sets``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", KcesWarning)
        kcscore._kc_scores_each(g, label_sets)
    return [str(w.message) for w in caught if "the labels split" in str(w.message)]


def test_labels_that_split_twins_are_warned_of():
    # twins 8 and 9 take labels 0 and 1; the second set keeps them together
    g = _ridged_twin_graph()
    split = encode_labels(np.array([0, 0, 0, 0, 1, 1, 1, 1, 0, 1]), "one-hot")
    kept = encode_labels(np.array([0, 0, 0, 0, 1, 1, 1, 1, 1, 1]), "one-hot")
    assert _twin_warnings(g, [split, kept]) == [
        "the labels split 1 group(s) of nodes with equal aggregated rows, first nodes [8, 9]: "
        "the kernel cannot tell them apart, so the scores measure the ridge"
    ]
    assert _twin_warnings(g, [kept]) == []


def test_kmeans_labels_keep_twins_together():
    g = _ridged_twin_graph()
    sets = [encode_labels(kmeans_pseudo_labels(g, k, seed), "one-hot") for k in (2, 3) for seed in range(3)]
    assert _twin_warnings(g, sets) == []


def test_degenerate_naive_removal_reports_the_full_rebuilds_error():
    # x1 = -x0: removing (1, 2) leaves nodes 0 and 1 with the closed
    # neighborhood {0, 1} and equal degrees, so their rows sum to zero;
    # every affected set covers the graph, so every edge goes naive
    feats = np.array([[1.0, 2.0], [-1.0, -2.0], [0.5, -1.0], [2.0, 1.0]])
    g = Graph(features=feats, edges=[(0, 1), (1, 2), (2, 3)])
    lm = encode_labels(np.array([0, 1, 0, 1]), "one-hot")
    message = (
        r"removing edge \(1, 2\) degenerates aggregation: "
        r"aggregated features vanish at node 0 \(norm 0\.000e\+00\)$"
    )
    with pytest.raises(NumericError, match=message):
        kc_score_naive(g, lm, 1, 2)
    with pytest.raises(NumericError, match=message):
        kc_scores_all(g, lm)


def _degenerate_ring_graph(n=20):
    # n nodes and n edges: x1 = -x0, node 0 hangs off node 1 alone, and
    # nodes 2..n-1 close a ring; removing (1, 2) leaves nodes 0 and 1 with
    # the closed neighborhood {0, 1} and equal degrees, so their rows sum
    # to zero, and it touches 5 nodes, so for n > 10 it takes the fast route
    x = np.random.default_rng(0).standard_normal((n, 3))
    x[1] = -x[0]
    edges = [(0, 1), (1, 2), (2, n - 1)] + [(i, i + 1) for i in range(2, n - 1)]
    return Graph(features=x, edges=edges)


def _in_workers(monkeypatch, workers):
    # a run of two or more blocks is split into segments; 0 workers
    # scores them in-process
    monkeypatch.setattr(kcscore, "_worker_count", lambda segments: workers)


@pytest.mark.parametrize("workers", [None, 0, 2], ids=["one-segment", "in-process", "workers"])
def test_degenerate_fast_removal_words_its_error_as_the_naive_route(workers, monkeypatch):
    # one block of 16 edges is one segment; 20 edges are two blocks, cut
    # into two segments
    g = _degenerate_ring_graph(BLOCK_EDGES if workers is None else 20)
    lm = encode_labels(np.arange(g.n_nodes) % 2, "one-hot")
    assert 2 * affected_nodes(g, 1, 2).size < g.n_nodes
    if workers is not None:
        _in_workers(monkeypatch, workers)
    assert kcscore._key_pass(g).segment_cut.size == (2 if workers is None else 3)
    message = (
        r"removing edge \(1, 2\) degenerates aggregation: "
        r"aggregated features vanish at node 0 \(norm 0\.000e\+00\)$"
    )
    with pytest.raises(NumericError, match=message):
        kc_score_naive(g, lm, 1, 2)
    with pytest.raises(NumericError, match=message):
        kc_scores_all(g, lm)


@pytest.mark.parametrize("make_graph", [_sparse_sbm_204, _sparse_sbm_202, _star_ring_graph])
def test_worker_processes_score_the_bytes_of_the_in_process_run(make_graph, monkeypatch, tmp_path):
    g = make_graph()
    sets = [encode_labels(kmeans_pseudo_labels(g, 2, seed), "one-hot") for seed in range(2)]
    # (segments, workers) -> the tables of both label sets
    runs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        ref = np.array([kc_score_naive(g, sets[0], u, v) for u, v in g.edges.tolist()])
        # with three segments over two workers, one worker scores two
        for segments, workers in ((2, 0), (2, 1), (2, 2), (3, 0), (3, 2), (3, 3)):
            with monkeypatch.context() as m:
                m.setattr(kcscore, "_SEGMENTS", segments)
                _in_workers(m, workers)
                assert kcscore._key_pass(g).segment_cut.size == segments + 1
                pids = record_forks(m)
                runs[segments, workers] = kcscore._kc_scores_each(g, sets)
            if workers:
                assert_reaped(pids)
            else:
                assert pids == []
    for (segments, workers), tables in runs.items():
        for table, base in zip(tables, runs[segments, 0]):
            table.write_tsv(tmp_path / "a.tsv")
            base.write_tsv(tmp_path / "b.tsv")
            assert (tmp_path / "a.tsv").read_bytes() == (tmp_path / "b.tsv").read_bytes()
            assert np.array_equal(table.gkc_removed, base.gkc_removed)
            assert np.array_equal(table.fast, base.fast)
        table = tables[0]
        fast = table.fast
        assert fast.any()
        assert np.array_equal(table.scores[~fast], ref[~fast])
        assert np.all(np.abs(table.scores - ref)[fast] <= np.maximum(1e-8 * np.abs(ref), 1e-12)[fast])


def test_runs_stay_in_process_on_one_cpu_or_beside_other_threads(monkeypatch):
    monkeypatch.setattr(kcscore, "_usable_cpus", lambda: 4)
    assert kcscore._worker_count(1) == 0
    alone = threading.active_count() == 1
    if alone and hasattr(os, "fork") and kcscore._openblas_swap() is not None:
        assert kcscore._worker_count(2) == 2
        assert kcscore._worker_count(8) == 4
    release = threading.Event()
    beside = threading.Thread(target=release.wait, args=(60,))
    beside.start()
    try:
        assert kcscore._worker_count(2) == 0
    finally:
        release.set()
        beside.join(60)
    assert not beside.is_alive()
    monkeypatch.setattr(kcscore, "_usable_cpus", lambda: 1)
    assert kcscore._worker_count(2) == 0


def _naive_with(monkeypatch, act):
    """Send every edge naive, and call ``act(u, v)`` as each is rebuilt."""
    removed_rows = kcscore._removed_rows

    def acting(g, u, v):
        act(u, v)
        return removed_rows(g, u, v)

    monkeypatch.setattr(kcscore, "CAPACITANCE_COND_LIMIT", 1.0)
    monkeypatch.setattr(kcscore, "_removed_rows", acting)


def test_worker_warnings_are_reissued_in_edge_order(monkeypatch):
    g = _star_ring_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    _naive_with(monkeypatch, lambda u, v: warnings.warn(f"rebuilding ({u}, {v})", KcesWarning))
    said = {}
    for workers in (0, 2):
        _in_workers(monkeypatch, workers)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", KcesWarning)
            assert not kc_scores_all(g, lm).fast.any()
        said[workers] = [(w.category, str(w.message)) for w in caught]
    assert said[2] == said[0] == [(KcesWarning, f"rebuilding ({u}, {v})") for u, v in g.edges.tolist()]


def test_the_error_of_the_earliest_edge_wins_across_segments(monkeypatch):
    g = _star_ring_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    _in_workers(monkeypatch, 2)
    cut = kcscore._key_pass(g).segment_cut
    assert cut.size == 3
    # the later segment fails at its first edge, long before the earlier
    # one reaches its last
    edges = g.edges.tolist()
    late, first = edges[cut[1] * BLOCK_EDGES - 1], edges[cut[1] * BLOCK_EDGES]

    def failing(u, v):
        if [u, v] in (late, first):
            raise NumericError(f"cannot rebuild ({u}, {v})")

    _naive_with(monkeypatch, failing)
    for workers in (0, 1, 2):
        _in_workers(monkeypatch, workers)
        pids = record_forks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KcesWarning)
            with pytest.raises(NumericError, match=rf"^cannot rebuild \({late[0]}, {late[1]}\)$"):
                kc_scores_all(g, lm)
        if workers:
            assert_reaped(pids)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_worker_that_dies_is_a_child_process_error(workers, monkeypatch):
    g = _star_ring_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    _in_workers(monkeypatch, workers)
    score_segment = kcscore._score_segment

    def dying(cache, g, plan, i, runs, fast):
        if i == 1:
            os._exit(3)
        score_segment(cache, g, plan, i, runs, fast)

    monkeypatch.setattr(kcscore, "_score_segment", dying)
    pids = record_forks(monkeypatch)
    threads = threading.active_count()
    # one worker sends segment 0's result before it dies in segment 1; of
    # two, the pool ends the other, which may still be scoring segment 0
    missing = "1" if workers == 1 else "(0, )?1"
    message = rf"^a scoring worker exited, leaving segment\(s\) {missing} without a result$"
    with pytest.raises(ChildProcessError, match=message) as info:
        kc_scores_all(g, lm)
    assert isinstance(info.value.__cause__, BrokenProcessPool)
    assert len(pids) == workers
    assert_reaped(pids)
    assert threading.active_count() == threads


@pytest.mark.skipif(
    not hasattr(os, "fork") or kcscore._openblas_swap() is None,
    reason="needs os.fork and scipy's OpenBLAS",
)
def test_the_worker_pool_leaves_no_thread_behind(monkeypatch):
    # _worker_count keeps a run in-process while another thread is alive,
    # so a thread left behind by one run's pool would keep the next from
    # forking
    if threading.active_count() > 1:
        pytest.skip("other threads are alive")
    g = _star_ring_graph()
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    monkeypatch.setattr(kcscore, "_usable_cpus", lambda: 2)
    pids = record_forks(monkeypatch)
    for runs in (1, 2):
        kc_scores_all(g, lm)
        assert len(pids) == 2 * runs
        assert_reaped(pids)
        assert threading.active_count() == 1

    def failing(u, v):
        raise NumericError(f"cannot rebuild ({u}, {v})")

    _naive_with(monkeypatch, failing)
    with pytest.raises(NumericError, match=r"^cannot rebuild \(0, 1\)$"):
        kc_scores_all(g, lm)
    assert len(pids) == 6
    assert_reaped(pids)
    assert threading.active_count() == 1


@pytest.mark.skipif(
    not hasattr(os, "fork") or kcscore._openblas_swap() is None,
    reason="needs os.fork and scipy's OpenBLAS",
)
def test_a_run_of_two_blocks_forks_its_workers_and_one_block_forks_none(monkeypatch, tmp_path):
    if threading.active_count() > 1:
        pytest.skip("other threads are alive")
    two_blocks = _half_hub_graph()
    ring = [(i, (i + 1) % BLOCK_EDGES) for i in range(BLOCK_EDGES)]
    one_block = Graph(features=np.random.default_rng(5).standard_normal((BLOCK_EDGES, 4)), edges=ring)
    assert BLOCK_EDGES < two_blocks.n_edges <= 2 * BLOCK_EDGES and one_block.n_edges == BLOCK_EDGES
    pids = record_forks(monkeypatch)
    for g, forks in ((two_blocks, 2), (one_block, 0)):
        lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
        monkeypatch.setattr(kcscore, "_usable_cpus", lambda: 1)
        kc_scores_all(g, lm).write_tsv(tmp_path / "in-process.tsv")
        assert pids == []
        monkeypatch.setattr(kcscore, "_usable_cpus", lambda: 2)
        table = kc_scores_all(g, lm)
        table.write_tsv(tmp_path / "default.tsv")
        assert len(pids) == forks
        assert table.fast.any()
        assert (tmp_path / "default.tsv").read_bytes() == (tmp_path / "in-process.tsv").read_bytes()
        if forks:
            assert_reaped(pids)
            pids.clear()


_SCORE_TSV = """
import sys, warnings
from kces import KcesWarning, encode_labels, kc_scores_all, kmeans_pseudo_labels, make_sbm_benchmark
warnings.simplefilter("ignore", KcesWarning)
g = make_sbm_benchmark(0, n=200, p_in=20 / 200, p_out=2 / 200)
kc_scores_all(g, encode_labels(kmeans_pseudo_labels(g, 2, 0))).write_tsv(sys.argv[1])
"""


def test_score_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # from N = 128 on, OpenBLAS's one-thread Cholesky factor differs from
    # its threaded one in the last bits, so every scoring run and Gram
    # factorization runs on one thread
    run_in_child(_SCORE_TSV, str(tmp_path / "one.tsv"), blas_threads=1)
    run_in_child(_SCORE_TSV, str(tmp_path / "default.tsv"))
    assert (tmp_path / "one.tsv").read_bytes() == (tmp_path / "default.tsv").read_bytes()


def _sparse_sbm_400():
    # benchmarks' sparse-sbm-400 graph of seed 0: the first draw whose
    # base is ridged, renumbered hubs first
    for draw in range(100):
        g = make_sbm_benchmark(draw * 1_000_003, n=400, p_in=4 / 400, p_out=1 / 400)
        order = np.argsort(-g.degrees, kind="stable")
        new_id = np.empty_like(order)
        new_id[order] = np.arange(order.size)
        g = Graph(g.features[order], new_id[g.edges], labels=g.labels[order])
        if gram_matrix(aggregate_features(g)).ridge > 0.0:
            return g
    raise AssertionError("no ridged draw")


def test_sparse_benchmark_graph_matches_the_naive_reference_on_every_edge():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        g = _sparse_sbm_400()
        lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
        table = kc_scores_all(g, lm)
        ref = np.array([kc_score_naive(g, lm, u, v) for u, v in table.edges.tolist()])
    fast = table.fast
    assert fast.any() and not fast.all()
    assert np.array_equal(table.scores[~fast], ref[~fast])
    assert np.all(np.abs(table.scores - ref)[fast] <= np.maximum(1e-8 * np.abs(ref), 1e-12)[fast])


def test_near_singular_removal_is_scored_on_every_edge():
    # removing (0, 1) makes nodes 1 and 70 near-twins: the removal's
    # matrix has lambda_min near 2e-9 and its solve a norm near 4e8, so a
    # relative residual near 1e-8 comes with a backward error near 1e-17,
    # and the table must not be refused for it
    g = make_sbm_benchmark(seed=110, n=110, p_in=8 / 110, p_out=1 / 110)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
        table = kc_scores_all(g, lm)
        ref = np.array([kc_score_naive(g, lm, u, v) for u, v in table.edges.tolist()])
    fast = table.fast
    assert _rows(table)[(0, 1)][2] == "naive"
    assert np.isfinite(ref).all()
    assert np.array_equal(table.scores[~fast], ref[~fast])
    assert np.all(np.abs(table.scores - ref)[fast] <= np.maximum(1e-8 * np.abs(ref), 1e-12)[fast])


def test_each_label_set_gets_the_table_it_gets_alone():
    g = _sparse_sbm_204()
    sets = [encode_labels(kmeans_pseudo_labels(g, 2, seed), "one-hot") for seed in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        each = kcscore._kc_scores_each(g, sets)
        assert (~each[0].fast).sum() > 0
        for lm, table in zip(sets, each):
            alone = kc_scores_all(g, lm)
            for field in ("edges", "scores", "gkc_removed", "fast"):
                assert getattr(table, field).tobytes() == getattr(alone, field).tobytes()
            assert table.base_gkc == alone.base_gkc
        # one mismatched set stops the whole call
        mismatched = encode_labels(np.zeros(g.n_nodes + 1, dtype=np.int64), "one-hot")
        with pytest.raises(InputError, match="does not match graph size"):
            kcscore._kc_scores_each(g, sets + [mismatched])
        assert kcscore._kc_scores_each(g, []) == []


def test_each_matrix_is_solved_once_per_label_set(monkeypatch):
    # the base complexity and the fast route's z come from one gated
    # solve per label set, and each naive removal adds one per set
    g = _sparse_sbm_204()
    sets = [encode_labels(kmeans_pseudo_labels(g, 2, seed), "one-hot") for seed in range(3)]
    calls = []
    dpotrs = scipy.linalg.lapack.dpotrs

    def counting(*args, **kwargs):
        calls.append(1)
        return dpotrs(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dpotrs", counting)
    # the counts are the parent's, so the segments are scored in-process
    monkeypatch.setattr(kcscore, "_usable_cpus", lambda: 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        each = kcscore._kc_scores_each(g, sets)
    assert len(calls) == len(sets) * (1 + (~each[0].fast).sum())


def test_each_matrix_takes_its_norm_once(monkeypatch):
    # the backward-error gate's inf-norm depends on the matrix alone: one
    # for the base and one per naive removal, however many label sets
    g = _sparse_sbm_204()
    sets = [encode_labels(kmeans_pseudo_labels(g, 2, seed), "one-hot") for seed in range(3)]
    calls = []
    dlange = scipy.linalg.lapack.dlange

    def counting(*args, **kwargs):
        calls.append(1)
        return dlange(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dlange", counting)
    # the counts are the parent's, so the segments are scored in-process
    monkeypatch.setattr(kcscore, "_usable_cpus", lambda: 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        each = kcscore._kc_scores_each(g, sets)
    assert len(calls) == 1 + (~each[0].fast).sum()


def _timed_fast_and_naive(g, lm):
    """Seconds to score g on the fast route, its table, and the naive
    route's cost for all of g's edges, extrapolated from a 32-edge sample
    to keep the guards tolerable while still timing the real code paths."""
    t0 = time.perf_counter()
    table = kc_scores_all(g, lm)
    fast_total = time.perf_counter() - t0
    sample = g.edges.tolist()[:: max(1, g.n_edges // 32)][:32]
    t0 = time.perf_counter()
    for u, v in sample:
        kc_score_naive(g, lm, u, v)
    naive_total = (time.perf_counter() - t0) * (g.n_edges / len(sample))
    return fast_total, table, naive_total


@pytest.mark.slow
def test_fast_path_throughput_guard():
    # regression guard: cached low-rank updates vs per-edge naive rebuilds
    g = random_graph(n=512, edge_prob=2048.0 / (512 * 511 / 2), n_features=16, seed=9090)
    pl = kmeans_pseudo_labels(g, 2, 0, restarts=3)
    lm = encode_labels(pl, "one-hot")
    fast_total, table, naive_total = _timed_fast_and_naive(g, lm)
    n_fast = int(table.fast.sum())
    assert n_fast >= 0.9 * g.n_edges, f"only {n_fast}/{g.n_edges} edges took the fast path"
    assert fast_total * 5.0 <= naive_total, (
        f"fast {fast_total:.2f}s vs extrapolated naive {naive_total:.2f}s"
    )


@pytest.mark.slow
def test_ridged_base_throughput_guard():
    # twin rows make the base ridged; its removals still take the update
    g = make_sbm_benchmark(seed=400, n=400, p_in=4 / 400, p_out=1 / 400)
    lm = encode_labels(kmeans_pseudo_labels(g, 2, 0), "one-hot")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        assert gram_matrix(aggregate_features(g)).ridge > 0.0
        fast_total, table, naive_total = _timed_fast_and_naive(g, lm)
    n_fast = int(table.fast.sum())
    assert n_fast >= 0.9 * g.n_edges, f"only {n_fast}/{g.n_edges} edges took the fast path"
    assert fast_total * 3.0 <= naive_total, (
        f"fast {fast_total:.2f}s vs extrapolated naive {naive_total:.2f}s"
    )
