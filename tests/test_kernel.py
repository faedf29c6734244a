"""Arccos Gram matrix, factorized solves, and the complexity functional."""

import warnings

import numpy as np
import pytest

from helpers import (
    gram_from_matrix,
    oracle_aggregate,
    oracle_gkc,
    oracle_gram,
    random_label_columns,
    unit_row_features,
)

from kces.errors import InputError, KcesWarning, NumericError
from kces.graph import Graph, aggregate_features
from kces.kernel import (
    RIDGE_SCALE,
    GramMatrix,
    arccos_kernel,
    gkc,
    gram_matrix,
    solve_spd,
)
from kces.pseudolabel import encode_labels
from kces.synth import random_graph


def _gram_of_rows(rows):
    return gram_matrix(unit_row_features(rows))


def test_closed_form_entries_exact():
    root3 = np.sqrt(3.0) / 2.0
    gm = _gram_of_rows([[1.0, 0.0], [0.0, 1.0], [0.5, root3], [-1.0, 0.0]])
    h = gm.h
    # diagonal is exactly 1 * (pi - 0) / (2 pi)
    assert np.abs(np.diag(h) - 0.5).max() <= 1e-12
    assert abs(h[0, 1] - 0.0) <= 1e-12  # orthogonal rows
    assert abs(h[0, 2] - 1.0 / 6.0) <= 1e-12  # half-overlap rows
    assert abs(h[0, 3] - 0.0) <= 1e-12  # antipodal rows
    assert np.array_equal(h, h.T)


def test_arccos_kernel_clips_out_of_range_dots():
    vals = arccos_kernel(np.array([1.0 + 1e-15, -1.0 - 1e-15]))
    assert np.isfinite(vals).all()
    assert abs(vals[0] - 0.5) <= 1e-12 and abs(vals[1]) <= 1e-12


def test_arccos_kernel_bitwise_equals_reference_expression():
    rng = np.random.default_rng(11)
    dots = rng.uniform(-1.2, 1.2, size=(64, 48))
    dots[0, :4] = [1.0, -1.0, 1.0 + 1e-15, -1.0 - 1e-15]
    d = np.clip(dots, -1.0, 1.0)
    want = d * (np.pi - np.arccos(d)) / (2.0 * np.pi)
    got = arccos_kernel(dots.copy())
    assert got.tobytes() == want.tobytes()


def test_gram_matches_entrywise_oracle():
    for seed in range(15):
        g = random_graph(n=10, edge_prob=0.3, n_features=4, seed=seed, avoid_twins=True)
        xt = aggregate_features(g)
        gm = gram_matrix(xt)
        rows, _ = oracle_aggregate(g.features, g.edges.tolist())
        assert np.abs(gm.h - oracle_gram(rows)).max() <= 1e-12, f"seed {seed}"
        assert gm.ridge == 0.0, f"seed {seed}: unexpected ridge"


def test_gram_takes_any_array_of_the_rows():
    g = random_graph(n=30, edge_prob=0.2, n_features=4, seed=2, avoid_twins=True)
    rows = aggregate_features(g)
    want = gram_matrix(rows)
    got = gram_matrix(np.array(rows))
    assert got.h.tobytes() == want.h.tobytes()
    assert got.chol_lower.tobytes() == want.chol_lower.tobytes()
    assert gram_matrix(rows.tolist()).h.tobytes() == want.h.tobytes()


@pytest.mark.parametrize("n", [5, 64, 400])
def test_gram_rebuild_is_symmetric_pinned_and_matches_numpy_product(n):
    rng = np.random.default_rng(n)
    rows = unit_row_features(rng.standard_normal((n, 6)))
    gm = gram_matrix(rows)
    h = gm.h
    assert np.array_equal(h, h.T)
    assert (np.diag(h) == 0.5).all()
    dots = rows @ rows.T
    dots = (dots + dots.T) / 2.0
    np.fill_diagonal(dots, 1.0)
    assert np.abs(h - arccos_kernel(dots)).max() <= 1e-14
    assert not h.flags.writeable and not gm.chol_lower.flags.writeable


def test_ridged_gram_keeps_its_arrays_read_only():
    # nodes 8 and 9 share the closed neighborhood {0, 8, 9}: twin rows
    edges = [(i, (i + 1) % 8) for i in range(8)] + [(0, 8), (0, 9), (8, 9)]
    g = Graph(features=np.random.default_rng(5).standard_normal((10, 3)), edges=edges)
    with pytest.warns(KcesWarning, match="ridge"):
        gm = gram_matrix(aggregate_features(g))
    assert gm.ridge > 0.0
    assert not gm.h.flags.writeable and not gm.chol_lower.flags.writeable
    assert np.array_equal(np.diag(gm.h), np.full(10, 0.5))
    lower = np.tril(gm.chol_lower)
    assert np.abs(lower @ lower.T - gm.h - gm.ridge * np.eye(10)).max() <= 1e-12


def test_gkc_matches_explicit_inverse_oracle():
    rng = np.random.default_rng(2024)
    for seed in range(20):
        n = int(rng.integers(4, 17))
        g = random_graph(n=n, edge_prob=0.35, n_features=4, seed=1000 + seed, avoid_twins=True)
        xt = aggregate_features(g)
        gm = gram_matrix(xt)
        cols = random_label_columns(rng, g.n_nodes)
        lm = encode_labels(np.argmax(cols, axis=1), "one-hot")
        got = gkc(gm, lm)
        want = oracle_gkc(gm.h, cols)
        rel = abs(got - want) / abs(want)
        assert rel <= 1e-10, f"seed {seed}: rel {rel:.2e}"
        assert gm.ridge == 0.0


def test_lambda_min_matches_dense_eigensolver():
    for seed in range(10):
        g = random_graph(n=9, edge_prob=0.4, n_features=3, seed=50 + seed, avoid_twins=True)
        gm = gram_matrix(aggregate_features(g))
        want = float(np.linalg.eigvalsh(gm.h)[0])
        assert abs(gm.lambda_min - want) <= 1e-12


def test_solve_matches_dense_solver():
    for seed in range(10):
        g = random_graph(n=8, edge_prob=0.4, n_features=3, seed=80 + seed, avoid_twins=True)
        gm = gram_matrix(aggregate_features(g))
        rng = np.random.default_rng(seed)
        rhs = rng.standard_normal((8, 2))
        z = solve_spd(gm, rhs)
        assert np.allclose(z, np.linalg.solve(gm.h, rhs), atol=1e-10)


def test_wrong_factor_fails_the_backward_error_gate():
    # a solve that is accurate for its matrix passes however large its
    # solution; a factor of another matrix gives a backward error far
    # above the bound
    g = random_graph(n=12, edge_prob=0.4, n_features=3, seed=7, avoid_twins=True)
    gm = gram_matrix(aggregate_features(g))
    lm = encode_labels(np.array([0, 1] * 6), "one-hot")
    gkc(gm, lm)
    chol = np.array(gm.chol_lower, order="F")
    chol[5, 3] *= 1.0 + 1e-6
    with pytest.raises(NumericError, match="backward error"):
        gkc(GramMatrix(np.array(gm.h), gm.ridge, chol), lm)


def test_failing_factorization_takes_ridge_path():
    # tiny negative eigenvalue defeats the plain factorization; the ridge
    # retry must engage, warn, and set the ridge the complexity solves under
    h = np.array([[0.5, 0.5 + 1e-12], [0.5 + 1e-12, 0.5]])
    with pytest.warns(KcesWarning, match="ridge"):
        gm = gram_from_matrix(h)
    assert gm.ridge == pytest.approx(1e-8 * np.trace(h) / 2)
    lm = encode_labels(np.array([0, 0]), "one-hot")
    # constant labels live in the top eigenspace: y^T (H+rI)^{-1} y
    # stays near y^T y / (lambda + r) = 2 / (1 + r)
    assert gkc(gm, lm) == pytest.approx(2.0, rel=1e-6)


def test_exactly_singular_matrix_takes_ridge_and_keeps_stable_form():
    # structural twin rows make the kernel matrix singular; the pivot
    # gate must catch that even when the factorization routine returns,
    # and labels that agree on the twins are orthogonal to the null
    # space, so the ridged quadratic form stays next to the exact value
    h = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.warns(KcesWarning, match="ridge"):
        gm = gram_from_matrix(h)
    assert gm.ridge == pytest.approx(RIDGE_SCALE * 1.0 / 2, rel=1e-12)
    lm = encode_labels(np.array([0, 0]), "one-hot")
    assert gkc(gm, lm) == pytest.approx(2.0, rel=1e-7)


def test_unfixable_matrix_raises():
    h = np.array([[1.0, 0.0], [0.0, -1.0]])  # genuinely indefinite
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericError):
            gram_from_matrix(h)


def test_gkc_shape_validation():
    gm = _gram_of_rows(np.eye(3))
    lm = encode_labels(np.array([0, 1]), "one-hot")
    with pytest.raises(InputError):
        gkc(gm, lm)
