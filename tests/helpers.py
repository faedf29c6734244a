"""Independent reference implementations used as test oracles.

Everything here recomputes results from first principles with dense
numpy: explicit adjacency matrices, per-entry kernel loops, explicit
matrix inverses.  None of it shares code with the library, so agreement
is evidence of correctness rather than of shared bugs.  The one
exception is ``oracle_evaluate``, which puts the library's unchanged
aggregation, initial draw, step-size rule and forward pass around the
one-model training loop ``oracle_train_gd``.

The manifest readers check a CLI run's record against the files on disk
with ``json`` and ``hashlib`` alone, and ``run_in_child`` runs code in a
fresh interpreter at a chosen OpenBLAS thread count.  ``traced_peak``
measures the memory one call allocates.  The two builders at the end are
not oracles: they wrap raw arrays as the library's own inputs, for tests
that start from a chosen matrix.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * np.pi


def oracle_aggregate(features, edges):
    """Symmetric-normalized neighborhood average with self-loops.

    Returns (unit_rows, pre_normalization_norms).
    """
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    a = a + np.eye(n)
    d = a.sum(axis=1)
    scale = np.diag(1.0 / np.sqrt(d))
    rows = scale @ a @ scale @ x
    norms = np.sqrt((rows * rows).sum(axis=1))
    return rows / norms[:, None], norms


def oracle_gram(unit_rows):
    """Entrywise arccos kernel of exact-unit rows; symmetric by mirroring."""
    rows = np.asarray(unit_rows, dtype=np.float64)
    n = rows.shape[0]
    h = np.empty((n, n))
    for i in range(n):
        h[i, i] = 0.5
        for j in range(i + 1, n):
            d = float(rows[i] @ rows[j])
            d = max(-1.0, min(1.0, d))
            h[i, j] = d * (np.pi - np.arccos(d)) / TWO_PI
            h[j, i] = h[i, j]
    return h


def oracle_gkc(h, label_columns, ridge=0.0):
    """Complexity via an explicit dense inverse, summed over columns."""
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    hinv = np.linalg.inv(h + ridge * np.eye(n))
    total = 0.0
    for col in np.asarray(label_columns, dtype=np.float64).T:
        total += 2.0 * float(col @ hinv @ col) / n
    return total


def oracle_gkc_from_graph(features, edges, label_columns, ridge=0.0):
    rows, _ = oracle_aggregate(features, edges)
    return oracle_gkc(oracle_gram(rows), label_columns, ridge=ridge)


def oracle_gkc_pinv(h, label_columns, cutoff=1e-10):
    """Pseudo-inverse limit of the complexity quadratic form.

    Structurally duplicated rows make the kernel matrix singular; when
    every label column is orthogonal to the null space the complexity
    still has a finite limit, computed here by truncated eigendecomposition.
    """
    h = np.asarray(h, dtype=np.float64)
    n = h.shape[0]
    eigvals, eigvecs = np.linalg.eigh(h)
    keep = eigvals > cutoff * eigvals.max()
    total = 0.0
    for col in np.asarray(label_columns, dtype=np.float64).T:
        proj = eigvecs.T @ col
        assert np.abs(proj[~keep]).max(initial=0.0) < 1e-8, (
            "labels overlap the kernel null space; complexity diverges"
        )
        total += 2.0 * float((proj[keep] ** 2 / eigvals[keep]).sum()) / n
    return total


def oracle_kc(features, edges, label_columns, u, v):
    """Edge score as the absolute complexity change of removing (u, v).

    Falls back to the pseudo-inverse limit when the removal makes the
    kernel matrix singular (structurally duplicated neighborhoods).
    """
    edge = (min(u, v), max(u, v))
    canon = [(min(a, b), max(a, b)) for a, b in edges]
    assert edge in canon, f"oracle asked about missing edge {edge}"
    kept = [e for e in canon if e != edge]
    base = oracle_gkc_from_graph(features, canon, label_columns)
    rows, _ = oracle_aggregate(features, kept)
    h = oracle_gram(rows)
    try:
        removed = oracle_gkc(h, label_columns)
    except np.linalg.LinAlgError:
        removed = oracle_gkc_pinv(h, label_columns)
    return abs(base - removed)


def oracle_fd_loss_gradient(w, a, x, y, m, idx, h=1e-6):
    """Central-difference dL/dw at one weight coordinate.

    L is the half squared error of the width-m ReLU network; the probe
    recomputes the loss from scratch on both sides of the step.
    """

    def loss(wm):
        z = np.maximum(x @ wm, 0.0)
        f = (z @ a) / np.sqrt(m)
        return 0.5 * float(((f - y) ** 2).sum())

    wp = w.copy()
    wp[idx] += h
    wn = w.copy()
    wn[idx] -= h
    return (loss(wp) - loss(wn)) / (2.0 * h)


class OracleDivergence(Exception):
    """The one-model loop met a non-finite loss at ``step``."""

    def __init__(self, step):
        super().__init__(f"training loss became non-finite at step {step}")
        self.step = step


def oracle_gradient(w, a, x, y, m):
    z = x @ w
    f = (np.maximum(z, 0.0) @ a) / math.sqrt(m)
    residual = f - y
    active = (z > 0.0).astype(np.float64)
    grad = (x.T @ (active * residual[:, None])) * (a[None, :] / math.sqrt(m))
    return f, grad


def oracle_train_gd(w, a, x, y, m, eta, steps):
    """Gradient descent one model at a time, one 2-D product per term.

    The reference the stacked trainer must match bit for bit.  Returns
    (final w, residual norms, losses) over steps 0..steps; raises
    ``OracleDivergence`` at the first non-finite loss.
    """
    w = w.copy()
    residual_norms = np.empty(steps + 1)
    losses = np.empty(steps + 1)
    for step in range(steps + 1):
        f, grad = oracle_gradient(w, a, x, y, m)
        r = float(np.linalg.norm(y - f))
        loss = 0.5 * r * r
        if not np.isfinite(loss):
            raise OracleDivergence(step)
        residual_norms[step] = r
        losses[step] = loss
        if step < steps:
            w -= eta * grad
    return w, residual_norms, losses


def oracle_evaluate(g, labels, split, cfg):
    """``evaluate_classifier`` as a loop over classes of ``oracle_train_gd``.

    Returns the AccuracyReport and the per-class TrainTraces.
    """
    from dataclasses import replace

    from kces.gnn import (
        AccuracyReport,
        ModelState,
        TrainTrace,
        forward,
        init_model,
        resolve_eta,
    )
    from kces.graph import aggregate_features

    lab = np.asarray(labels, dtype=np.int64)
    classes = np.unique(lab)
    rows = aggregate_features(g)
    x_train = rows[split.train]
    eta = resolve_eta(cfg, x_train)
    scores = np.empty((g.n_nodes, classes.shape[0]))
    traces = []
    for idx, c in enumerate(classes.tolist()):
        targets = np.where(lab == c, 1.0, -1.0)
        derived = int(
            np.random.SeedSequence(
                [int(cfg.seed) & 0xFFFFFFFFFFFFFFFF, idx]
            ).generate_state(1)[0]
        )
        cls_cfg = replace(cfg, seed=derived, eta=eta)
        state = init_model(cls_cfg, g.n_features)
        w, norms, losses = oracle_train_gd(
            state.w, state.a, x_train, targets[split.train], cfg.m, eta, cfg.steps
        )
        final = ModelState(w=w, a=state.a.copy(), config=cls_cfg)
        traces.append(TrainTrace(residual_norms=norms, losses=losses, final_state=final))
        scores[:, idx] = forward(final, rows)
    pred = classes[np.argmax(scores, axis=1)]

    def acc(mask):
        return float((pred[mask] == lab[mask]).mean()) if mask.any() else float("nan")

    report = AccuracyReport(
        train_accuracy=acc(split.train),
        val_accuracy=acc(split.val),
        test_accuracy=acc(split.test),
        eta=eta,
        n_classes=int(classes.shape[0]),
    )
    return report, traces


def oracle_kmeans_best_inertia(points, k=2):
    """Global minimum inertia over all assignments (tiny inputs only)."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    assert k == 2 and n <= 12, "exhaustive search is only for tiny cases"
    best = np.inf
    for mask in range(1, 2**n - 1):
        sel = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        inertia = 0.0
        for side in (sel, ~sel):
            center = pts[side].mean(axis=0)
            inertia += ((pts[side] - center) ** 2).sum()
        best = min(best, inertia)
    return best


def oracle_one_hot(assignments, k):
    cols = np.zeros((len(assignments), k))
    for i, c in enumerate(assignments):
        cols[i, c] = 1.0
    return cols


def random_label_columns(rng, n, k=2):
    """Random one-hot labels guaranteed to use every class."""
    while True:
        assign = rng.integers(0, k, size=n)
        if np.unique(assign).size == k:
            return oracle_one_hot(assign, k)


def load_manifest(path):
    """The manifest at ``path`` as a dict, with every key a CLI run writes."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert set(manifest) == {"command", "version", "parameters", "inputs", "outputs", "argv"}
    return manifest


def verify_outputs(manifest):
    """The output roles whose files no longer match their recorded sha256."""
    stale = []
    for name, entry in sorted(manifest["outputs"].items()):
        with open(entry["path"], "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != entry["sha256"]:
                stale.append(name)
    return stale


def run_in_child(code, *args, blas_threads=None):
    """Run the Python source ``code`` with ``args`` in a fresh interpreter
    that imports this checkout's kces, with ``OPENBLAS_NUM_THREADS`` set
    to ``blas_threads`` or, for None, unset (OpenBLAS's default); return
    its standard output."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    return child.stdout


def traced_peak(fn, *args):
    """Call ``fn(*args)`` and return its result and the peak bytes that
    tracemalloc saw allocated during the call, beyond what was allocated
    before it."""
    tracing = tracemalloc.is_tracing()
    if tracing:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
    else:
        before = 0
        tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


def gram_from_matrix(h):
    """A GramMatrix over a copy of the symmetric matrix ``h``, factored
    by the library's ridge rule."""
    from kces.kernel import GramMatrix, _factor_with_ridge

    h = np.array(h, dtype=np.float64)
    return GramMatrix(h, *_factor_with_ridge(h))


def unit_row_features(rows):
    """The rows of ``rows`` scaled to unit norm, as aggregated rows."""
    m = np.asarray(rows, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1)[:, None]
