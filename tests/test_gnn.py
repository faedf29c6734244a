"""Kernel-regime trainer: gradients, dynamics, bounds, splits, evaluation."""

import math
import re
import threading

import numpy as np
import pytest

from helpers import (
    OracleDivergence,
    gram_from_matrix,
    oracle_evaluate,
    oracle_fd_loss_gradient,
    oracle_train_gd,
)

from kces import gnn
from kces.errors import ConfigError, InputError, KcesWarning, NumericError
from kces.gnn import (
    AccuracyReport,
    ModelState,
    TrainConfig,
    _descend,
    edge_bound,
    evaluate_classifier,
    evaluate_classifiers,
    forward,
    generalization_bound,
    init_model,
    make_split,
    resolve_eta,
    spectral_predictor,
    train_gd,
    write_trace_csv,
)
from kces.graph import Graph, aggregate_features, format_float
from kces.kernel import gram_matrix
from kces.synth import random_graph


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(m=0, steps=10)
    with pytest.raises(ConfigError):
        TrainConfig(m=8, steps=-1)
    with pytest.raises(ConfigError):
        TrainConfig(m=8, steps=10, eta=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(m=8, steps=10, kappa=0.0)
    TrainConfig(m=8, steps=0, eta=None, kappa=1.0)


def test_analytic_gradient_matches_finite_differences():
    # the gradient is read off one step of the stacked trainer at eta = 1;
    # model 1 is a second problem, so the slices of the stack are checked
    rng = np.random.default_rng(42)
    n, f, m = 8, 5, 32
    x = rng.standard_normal((2, n, f))
    y = rng.choice([-1.0, 1.0], size=(2, n))
    states = [init_model(TrainConfig(m=m, steps=0, kappa=0.1, seed=s), f) for s in (7, 8)]
    w0 = np.stack([s.w for s in states])
    a = np.stack([s.a for s in states])
    w1 = w0.copy()
    _descend(w1, a, x, y, np.ones(2), 1)
    grad = w0 - w1
    coords = [
        (int(i), int(j))
        for i, j in zip(rng.integers(0, f, 20), rng.integers(0, m, 20))
    ]
    for k in range(2):
        for idx in coords:
            fd = oracle_fd_loss_gradient(w0[k], a[k], x[k], y[k], m, idx)
            denom = max(abs(fd), 1e-10)
            assert abs(grad[k][idx] - fd) / denom <= 1e-5


def _stack_problem(k, seed, n=20, f=16, m=64):
    """k unrelated models: own rows, targets, initial draw and step size."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, n, f))
    x /= np.linalg.norm(x, axis=2, keepdims=True)
    y = rng.choice([-1.0, 1.0], size=(k, n))
    states = [init_model(TrainConfig(m=m, steps=0, seed=seed * 100 + i), f) for i in range(k)]
    w = np.stack([s.w for s in states])
    a = np.stack([s.a for s in states])
    eta = rng.uniform(0.05, 0.5, size=k)
    return x, y, w, a, eta


@pytest.mark.parametrize(
    "k, m", [(1, 64), (2, 64), (19, 64), (19, 256)], ids=["1", "2", "19", "19-m256"]
)
def test_stacked_descent_equals_one_model_loop_bit_for_bit(k, m):
    # the last case is the sweep's shape: 19 alphas at n = 20, m = 256
    x, y, w0, a, eta = _stack_problem(k, seed=k, m=m)
    steps = 30
    w = w0.copy()
    norms, losses, failed = _descend(w, a, x, y, eta, steps)
    assert failed is None
    for i in range(k):
        w_ref, norms_ref, losses_ref = oracle_train_gd(
            w0[i], a[i], x[i], y[i], m, eta[i], steps
        )
        assert np.array_equal(w[i], w_ref)
        assert np.array_equal(norms[i], norms_ref)
        assert np.array_equal(losses[i], losses_ref)


def test_train_gd_equals_one_model_loop_bit_for_bit():
    x, y, w0, a, eta = _stack_problem(1, seed=5)
    cfg = TrainConfig(m=w0.shape[2], steps=40, eta=float(eta[0]), seed=0)
    trace = train_gd(ModelState(w=w0[0], a=a[0], config=cfg), x[0], y[0], cfg)
    w_ref, norms_ref, losses_ref = oracle_train_gd(
        w0[0], a[0], x[0], y[0], cfg.m, cfg.eta, cfg.steps
    )
    assert np.array_equal(trace.final_state.w, w_ref)
    assert np.array_equal(trace.residual_norms, norms_ref)
    assert np.array_equal(trace.losses, losses_ref)


def _divergence_step(w, a, x, y, m, eta, steps):
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            oracle_train_gd(w, a, x, y, m, eta, steps)
        except OracleDivergence as exc:
            return exc.step
    return None


def test_stack_raises_the_first_models_divergence_not_the_earliest():
    # model 1 diverges long before model 0; the one-model loop trains
    # model 0 first, so model 0's step is the one it reports
    rng = np.random.default_rng(0)
    x = np.broadcast_to(rng.standard_normal((8, 4)), (2, 8, 4))
    y = np.broadcast_to(rng.choice([-1.0, 1.0], size=8), (2, 8))
    state = init_model(TrainConfig(m=4, steps=0, seed=1), 4)
    w0 = np.stack([state.w, state.w])
    a = np.stack([state.a, state.a])
    eta = np.array([3.0, 1e6])
    steps = [_divergence_step(w0[i], a[i], x[i], y[i], 4, eta[i], 400) for i in range(2)]
    assert steps[1] < steps[0]
    _, _, failed = _descend(w0.copy(), a, x, y, eta, 400)
    assert failed == (0, steps[0])
    # models 0 and 2 do not diverge: model 1's failure is reported, and
    # each model that survives trains to the same bits as on its own
    eta = np.array([0.5, 1e6, 0.25])
    w0, a = np.concatenate([w0, w0[:1]]), np.concatenate([a, a[:1]])
    x, y = np.broadcast_to(x[0], (3, 8, 4)), np.broadcast_to(y[0], (3, 8))
    w = w0.copy()
    norms, losses, failed = _descend(w, a, x, y, eta, 400)
    assert failed == (1, steps[1])
    for i in (0, 2):
        w_ref, norms_ref, losses_ref = oracle_train_gd(w0[i], a[i], x[i], y[i], 4, eta[i], 400)
        assert np.array_equal(w[i], w_ref)
        assert np.array_equal(norms[i], norms_ref)
        assert np.array_equal(losses[i], losses_ref)
    assert np.isfinite(w[1]).all()


def test_init_model_statistics_and_determinism():
    cfg = TrainConfig(m=512, steps=0, kappa=0.2, seed=3)
    state = init_model(cfg, 64)
    assert state.w.shape == (64, 512)
    assert state.a.shape == (512,)
    assert set(np.unique(state.a)) == {-1.0, 1.0}
    assert float(np.std(state.w)) == pytest.approx(0.2, rel=0.05)
    again = init_model(cfg, 64)
    assert np.array_equal(state.w, again.w)
    assert np.array_equal(state.a, again.a)
    other = init_model(TrainConfig(m=512, steps=0, kappa=0.2, seed=4), 64)
    assert not np.array_equal(state.w, other.w)


def test_forward_closed_form():
    cfg = TrainConfig(m=2, steps=0)
    state = ModelState(
        w=np.array([[1.0, -2.0], [0.0, 0.0]]),
        a=np.array([1.0, -1.0]),
        config=cfg,
    )
    out = forward(state, np.array([[1.0, 0.0], [-1.0, 0.0]]))
    # first row: relu([1, -2]) @ [1, -1] / sqrt(2) = 1/sqrt(2)
    # second row: relu([-1, 2]) @ [1, -1] / sqrt(2) = -sqrt(2)
    assert out == pytest.approx([1.0 / math.sqrt(2.0), -math.sqrt(2.0)], abs=1e-15)


def test_train_trace_bookkeeping():
    g = random_graph(10, 0.3, 6, seed=1)
    xt = aggregate_features(g)
    y = np.random.default_rng(1).choice([-1.0, 1.0], size=10)
    cfg = TrainConfig(m=64, steps=7, seed=5)
    state = init_model(cfg, 6)
    trace = train_gd(state, xt, y, cfg)
    assert trace.residual_norms.shape == (8,)
    assert np.allclose(trace.losses, 0.5 * trace.residual_norms**2)
    r0 = float(np.linalg.norm(y - forward(state, xt)))
    assert trace.residual_norms[0] == pytest.approx(r0, rel=1e-12)
    assert not np.array_equal(trace.final_state.w, state.w)

    frozen = train_gd(state, xt, y, TrainConfig(m=64, steps=0, seed=5))
    assert frozen.residual_norms.shape == (1,)
    assert np.array_equal(frozen.final_state.w, state.w)
    assert frozen.final_state.w is not state.w


def test_training_decays_residual():
    g = random_graph(10, 0.3, 8, seed=6, avoid_twins=True)
    xt = aggregate_features(g)
    y = np.random.default_rng(2).choice([-1.0, 1.0], size=10)
    cfg = TrainConfig(m=512, steps=50, seed=0)
    trace = train_gd(init_model(cfg, 8), xt, y, cfg)
    assert (np.diff(trace.residual_norms[:20]) < 0.0).all()
    assert trace.residual_norms[-1] < 0.35 * trace.residual_norms[0]


def test_label_and_shape_guards():
    x = np.random.default_rng(0).standard_normal((6, 4))
    cfg = TrainConfig(m=8, steps=1)
    state = init_model(cfg, 4)
    with pytest.raises(ConfigError, match=r"^training labels must lie in \[-1, 1\]$"):
        train_gd(state, x, np.array([1.5, 0, 0, 0, 0, 0]), cfg)
    with pytest.raises(ConfigError, match="shape"):
        train_gd(state, x[:, :3], np.zeros(6), cfg)


@pytest.mark.parametrize("shape", [(5,), (6, 2), ()])
def test_targets_must_be_one_per_row(shape):
    x = np.random.default_rng(0).standard_normal((6, 4))
    cfg = TrainConfig(m=8, steps=1)
    message = rf"^targets of shape {re.escape(str(shape))} are not one per row of 6$"
    with pytest.raises(ConfigError, match=message):
        train_gd(init_model(cfg, 4), x, np.zeros(shape), cfg)
    gm = gram_from_matrix(np.eye(6) * 0.5)
    with pytest.raises(ConfigError, match=message):
        spectral_predictor(gm, np.zeros(shape), eta=1.0)


def test_huge_step_size_diverges():
    x = np.random.default_rng(3).standard_normal((8, 4))
    y = np.random.default_rng(4).choice([-1.0, 1.0], size=8)
    cfg = TrainConfig(m=4, steps=400, eta=1e6, seed=1)
    with pytest.raises(NumericError, match="non-finite at step [1-9]"):
        train_gd(init_model(cfg, 4), x, y, cfg)


def test_spectral_predictor_closed_form():
    gm = gram_from_matrix(np.array([[0.5, 0.1], [0.1, 0.5]]))
    y = np.array([1.0, -1.0])
    pred = spectral_predictor(gm, y, eta=1.0)
    # eigenpairs (0.4, [1,-1]/sqrt2) and (0.6, [1,1]/sqrt2); y projects
    # entirely on the first, so the norm is sqrt(2) * 0.6^t
    assert pred.predicted_norm(0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert pred.predicted_norm(1) == pytest.approx(math.sqrt(2.0) * 0.6, rel=1e-12)
    assert pred.predicted_norm(3) == pytest.approx(math.sqrt(2.0) * 0.6**3, rel=1e-12)
    arr = pred.predicted_norm(np.array([0, 1, 3]))
    assert arr == pytest.approx(math.sqrt(2.0) * np.array([1.0, 0.6, 0.216]), rel=1e-12)


def test_spectral_predictor_warns_on_unstable_eta():
    gm = gram_from_matrix(np.array([[0.5, 0.0], [0.0, 0.5]]))
    with pytest.warns(KcesWarning, match="divergent"):
        spectral_predictor(gm, np.array([1.0, 1.0]), eta=4.0)


def test_empirical_residual_tracks_spectral_curve():
    # dual route: simulated gradient descent against the closed-form
    # spectral forecast, to a tenth of the initial residual at every step
    g = random_graph(6, 0.4, 8, seed=2, avoid_twins=True)
    xt = aggregate_features(g)
    y = np.random.default_rng(2).choice([-1.0, 1.0], size=6)
    gm = gram_matrix(xt)
    eta = min(0.5, 1.0 / float(np.linalg.eigvalsh(gm.h)[-1]))
    cfg = TrainConfig(m=4096, steps=60, eta=eta, kappa=0.1, seed=2)
    trace = train_gd(init_model(cfg, 8), xt, y, cfg)
    predicted = spectral_predictor(gm, y, eta).predicted_norm(np.arange(61))
    gap = np.abs(trace.residual_norms - predicted) / trace.residual_norms[0]
    assert float(gap.max()) <= 0.1


def test_write_trace_csv(tmp_path):
    g = random_graph(6, 0.4, 4, seed=3)
    xt = aggregate_features(g)
    y = np.random.default_rng(5).choice([-1.0, 1.0], size=6)
    cfg = TrainConfig(m=16, steps=2, seed=0)
    trace = train_gd(init_model(cfg, 4), xt, y, cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,residual_norm,loss"
    assert lines[1:] == [
        f"{t},{format_float(trace.residual_norms[t])},{format_float(trace.losses[t])}"
        for t in range(3)
    ]


def test_generalization_bound_closed_form():
    assert generalization_bound(0.04, n=100, lambda0=0.1, delta=0.05) == pytest.approx(
        0.514698070418872, rel=1e-12
    )
    # C = 1: with no complexity, the bound is the confidence term alone
    assert generalization_bound(0.0, 100, 0.1, 0.05) == pytest.approx(
        math.sqrt(math.log(100 / (0.1 * 0.05)) / 100), rel=1e-12
    )
    assert edge_bound(0.04, 0.09, 100, 0.1, 0.05) == pytest.approx(
        generalization_bound(0.04, 100, 0.1, 0.05) + 0.3, rel=1e-12
    )


def test_bound_domain_errors():
    with pytest.raises(ConfigError):
        generalization_bound(-0.1, 10, 0.1, 0.1)
    with pytest.raises(ConfigError):
        generalization_bound(0.1, 0, 0.1, 0.1)
    with pytest.raises(ConfigError):
        generalization_bound(0.1, 10, 0.0, 0.1)
    with pytest.raises(ConfigError):
        generalization_bound(0.1, 10, 0.1, 1.0)
    with pytest.raises(ConfigError):
        generalization_bound(0.1, 1, 2.0, 0.9)
    with pytest.raises(ConfigError):
        edge_bound(0.1, -0.01, 10, 0.1, 0.1)


@pytest.mark.parametrize("constant", [float("nan"), -5.0], ids=["nan", "negative"])
def test_bounds_take_no_constant(constant):
    # C is fixed at 1, so no caller can pass a NaN or negative constant
    with pytest.raises(TypeError):
        generalization_bound(0.04, 100, 0.1, 0.05, constant=constant)
    with pytest.raises(TypeError):
        edge_bound(0.04, 0.09, 100, 0.1, 0.05, constant=constant)


@pytest.mark.parametrize(
    "call",
    [
        lambda: generalization_bound(float("nan"), 10, 0.1, 0.1),
        lambda: edge_bound(0.1, float("nan"), 10, 0.1, 0.1),
        lambda: edge_bound(float("nan"), 0.01, 10, 0.1, 0.1),
    ],
    ids=["complexity", "kc-score", "base-complexity"],
)
def test_bounds_refuse_nan(call):
    # NaN < 0 is False, so a sign check alone returned a NaN bound
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize(
    "fracs", [(-0.1, 0.5), (0.5, -0.1), (1.0, 0.0)], ids=["train", "val", "whole"]
)
def test_make_split_refuses_each_fraction_outside_unit_interval(fracs):
    # (-0.1, 0.5) sums into (0, 1) but used to put 5 of 10 nodes in both
    # train and test
    with pytest.raises(ConfigError):
        make_split(10, 0, train_frac=fracs[0], val_frac=fracs[1])


def test_make_split_partitions_nodes():
    split = make_split(40, seed=9)
    masks = np.stack([split.train, split.val, split.test])
    assert (masks.sum(axis=0) == 1).all()
    assert split.train.sum() == 4 and split.val.sum() == 4 and split.test.sum() == 32
    again = make_split(40, seed=9)
    assert np.array_equal(split.train, again.train)
    other = make_split(40, seed=10)
    assert not np.array_equal(split.train, other.train)
    with pytest.raises(ConfigError):
        make_split(40, seed=0, train_frac=0.6, val_frac=0.5)


def test_resolve_eta_default_is_inverse_lambda_max():
    cfg = TrainConfig(m=8, steps=1)
    assert resolve_eta(TrainConfig(m=8, steps=1, eta=0.3), None) == 0.3
    # a single unit row gives the 1x1 kernel [[0.5]], so eta = 2
    assert resolve_eta(cfg, np.array([[1.0, 0.0]])) == pytest.approx(2.0, rel=1e-12)


def _blob_graph(n=20, spread=0.05, seed=0):
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
    labels = np.array([0] * half + [1] * (n - half))
    return Graph(features=x, edges=edges, labels=labels)


def test_evaluate_classifier_on_separable_graph():
    g = _blob_graph()
    split = make_split(g.n_nodes, seed=1, train_frac=0.2, val_frac=0.2)
    cfg = TrainConfig(m=256, steps=200, kappa=0.1, seed=0)
    (report,), (traces,) = gnn._evaluate([g], g.labels, split, cfg)
    assert report.n_classes == 2
    assert report.eta > 0.0
    assert report.test_accuracy >= 0.9
    assert len(traces) == 2
    assert traces[0].residual_norms.shape == (201,)
    again = evaluate_classifier(g, g.labels, split, cfg)
    assert again == report


def test_evaluate_classifier_refuses_labels_of_another_length():
    g = _blob_graph()
    split = make_split(g.n_nodes, seed=1)
    with pytest.raises(InputError, match=f"^labels must have length {g.n_nodes}$"):
        evaluate_classifier(g, g.labels[:-1], split, TrainConfig(m=16, steps=1))


@pytest.mark.parametrize("graphs", [1, 2])
def test_evaluate_refuses_a_split_of_another_node_set(graphs):
    g = _blob_graph()
    n = g.n_nodes
    cfg = TrainConfig(m=8, steps=2)
    with pytest.raises(ConfigError, match=rf"^split.train must be a boolean mask of {n} nodes$"):
        evaluate_classifiers([g] * graphs, g.labels, make_split(n + 10, 0), cfg)
    split = make_split(n, 0)
    bad = gnn.Split(train=split.train, val=split.val.astype(int), test=split.test)
    with pytest.raises(ConfigError, match=rf"^split.val must be a boolean mask of {n} nodes$"):
        evaluate_classifiers([g] * graphs, g.labels, bad, cfg)


def test_evaluate_classifier_needs_every_class_in_train():
    g = _blob_graph()
    split = make_split(g.n_nodes, seed=1, train_frac=0.2, val_frac=0.2)
    labels = np.asarray(g.labels).copy()
    lonely = int(np.flatnonzero(~split.train)[0])
    labels[lonely] = 2
    with pytest.raises(ConfigError, match=r"^classes \[2\] have no training nodes$"):
        evaluate_classifier(g, labels, split, TrainConfig(m=16, steps=1))


def _three_class_graph(seed=0, n=30):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 3
    centers = np.array([[3.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 3.0]])
    x = centers[labels] + rng.standard_normal((n, 3))
    edges = sorted({(min(u, v), max(u, v)) for u, v in rng.integers(0, n, (40, 2)) if u != v})
    return Graph(features=x, edges=edges, labels=labels)


def test_evaluate_classifier_equals_per_class_loop():
    g = _three_class_graph()
    split = make_split(g.n_nodes, seed=2, train_frac=0.3, val_frac=0.2)
    cfg = TrainConfig(m=32, steps=25, seed=4)
    report = evaluate_classifier(g, g.labels, split, cfg)
    (traced,), (traces,) = gnn._evaluate([g], g.labels, split, cfg)
    ref, ref_traces = oracle_evaluate(g, g.labels, split, cfg)
    assert report == ref
    assert traced == ref
    assert len(traces) == 3
    for idx, ref_trace in enumerate(ref_traces):
        assert np.array_equal(traces[idx].residual_norms, ref_trace.residual_norms)
        assert np.array_equal(traces[idx].losses, ref_trace.losses)
        assert np.array_equal(traces[idx].final_state.w, ref_trace.final_state.w)
        assert traces[idx].final_state.config == ref_trace.final_state.config


def test_evaluate_classifiers_equal_one_call_per_graph():
    g = _three_class_graph(seed=1)
    graphs = [g] + [
        Graph(features=g.features, edges=g.edges[:-cut], labels=g.labels)
        for cut in (3, 9, 20)
    ]
    split = make_split(g.n_nodes, seed=3, train_frac=0.3, val_frac=0.2)
    cfg = TrainConfig(m=32, steps=25, seed=6)
    reports = evaluate_classifiers(graphs, g.labels, split, cfg)
    assert reports == [oracle_evaluate(h, g.labels, split, cfg)[0] for h in graphs]
    assert len({r.eta for r in reports}) == len(graphs)
    assert evaluate_classifiers([], g.labels, split, cfg) == []
    other = _three_class_graph(seed=1, n=33)
    with pytest.raises(ConfigError, match="node set"):
        evaluate_classifiers([g, other], g.labels, split, cfg)


@pytest.mark.parametrize("one_graph", [False, True], ids=["graphs", "one-graph"])
def test_evaluate_classifiers_report_the_loops_first_divergence(one_graph):
    # the loop goes graph by graph, class by class; the first failure
    # in that order is reported, whatever step other models fail at.
    # Here class 0 fails only on graph 1, at step 77, and class 1 fails on
    # graph 1 at step 67, before it fails on graph 0 at step 77, the
    # loop's first.  Graph 1 alone goes through evaluate_classifier:
    # class 1 fails ten steps before class 0, and class 0's step is the
    # one reported.
    g = _three_class_graph(seed=2)
    graphs = [g, Graph(features=g.features, edges=g.edges[:-12], labels=g.labels)]
    if one_graph:
        graphs = graphs[1:]
    split = make_split(g.n_nodes, seed=4, train_frac=0.3, val_frac=0.2)
    cfg = TrainConfig(m=4, steps=300, eta=1000.0, seed=1)
    first = None
    with np.errstate(over="ignore", invalid="ignore"):
        for h in graphs:
            try:
                oracle_evaluate(h, g.labels, split, cfg)
            except OracleDivergence as exc:
                first = exc.step
                break
    assert first is not None
    with pytest.raises(NumericError) as info:
        if one_graph:
            evaluate_classifier(graphs[0], g.labels, split, cfg)
        else:
            evaluate_classifiers(graphs, g.labels, split, cfg)
    assert str(info.value) == f"training loss became non-finite at step {first}"


@pytest.mark.skipif(gnn._usable_cpus() < 2, reason="needs 2 usable CPUs")
def test_classes_train_at_the_same_time(monkeypatch):
    # each class's descent waits for the other's: one after another, the
    # first would time out at the barrier
    g = _blob_graph()
    split = make_split(g.n_nodes, seed=1, train_frac=0.2, val_frac=0.2)
    cfg = TrainConfig(m=32, steps=25, seed=0)
    expected = oracle_evaluate(g, g.labels, split, cfg)[0]
    barrier = threading.Barrier(2, timeout=10)
    descend = gnn._descend

    def meet_then_descend(*args):
        barrier.wait()
        return descend(*args)

    monkeypatch.setattr(gnn, "_descend", meet_then_descend)
    threads = threading.active_count()
    assert evaluate_classifier(g, g.labels, split, cfg) == expected
    assert threading.active_count() == threads
    # an error in class 1's descent reaches the caller as it was raised
    boom = RuntimeError("class 1")
    class_1 = np.where(g.labels[split.train] == 1, 1.0, -1.0)

    def fail_class_1(w, a, x, y, eta, steps):
        if np.array_equal(y[0], class_1):
            raise boom
        return descend(w, a, x, y, eta, steps)

    monkeypatch.setattr(gnn, "_descend", fail_class_1)
    with pytest.raises(RuntimeError) as info:
        evaluate_classifier(g, g.labels, split, cfg)
    assert info.value is boom
    assert threading.active_count() == threads


def test_accuracy_report_csv(tmp_path):
    report = AccuracyReport(
        train_accuracy=1.0,
        val_accuracy=0.75,
        test_accuracy=0.5,
        eta=0.4,
        n_classes=2,
    )
    path = tmp_path / "report.csv"
    report.write_csv(path)
    assert path.read_text() == "split,accuracy\ntrain,1.0\nval,0.75\ntest,0.5\n"
