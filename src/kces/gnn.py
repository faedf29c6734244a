"""Two-layer ReLU network on aggregated features, trained in the kernel regime.

The model is f_i = (1/sqrt(m)) * sum_r a_r * relu(w_r . x_i), on the rows
x_i of the N x F array ``aggregate_features`` returns, with random signs
a fixed at init and first-layer weights w trained by full-batch gradient
descent on the squared loss.  At large width the residual norm
follows the spectrum of the kernel Gram matrix, which the spectral
predictor evaluates in closed form; the generalization bounds combine
the complexity functional with a confidence term.

Training runs on a stack of K models at once.  One step is x @ w, the
z > 0 mask, relu in place, relu @ a, the mask times the residual,
x^T @ that, the scaling by a / sqrt(m) and by eta, and the update, each
one stacked numpy call into a buffer reused across steps.  Stacked
``matmul`` makes one BLAS call per slice, so each model's weights,
residual norms and losses are bit for bit those of training it alone.
``train_gd`` is the one-model stack.  ``evaluate_classifiers``, which
the sweep runs on the 19 alphas of one strategy row, stacks each class
across the graphs, and ``evaluate_classifier`` is its one-graph case: a
stack of one model per class.

The classes' stacks train at the same time, a thread each on up to one
thread per usable CPU, and their results are read back in class order.
The relu takes its maximum against an array of zeros, whose numpy loop
is several times faster than the one for a scalar operand and gives the
same values.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, KcesWarning, NumericError
from .graph import Graph, aggregate_features, class_labels, format_float, seed_key
from .kernel import GramMatrix, _usable_cpus, arccos_kernel


@dataclass(frozen=True)
class TrainConfig:
    """Width m, step size eta (None = 1/lambda_max at fit time), init scale
    kappa, step count, and seed."""

    m: int
    steps: int
    eta: float | None = None
    kappa: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError(f"width must be positive, got {self.m}")
        if self.steps < 0:
            raise ConfigError(f"steps must be non-negative, got {self.steps}")
        if self.eta is not None and not self.eta > 0.0:
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if not 0.0 < self.kappa <= 1.0:
            raise ConfigError(f"kappa must be in (0, 1], got {self.kappa}")


@dataclass
class ModelState:
    """First-layer weights (F, m), fixed signs (m,), and the config."""

    w: np.ndarray
    a: np.ndarray
    config: TrainConfig


@dataclass
class TrainTrace:
    """Residual norms and losses at steps 0..steps, plus the final state."""

    residual_norms: np.ndarray
    losses: np.ndarray
    final_state: ModelState


def init_model(cfg: TrainConfig, n_features: int) -> ModelState:
    """Gaussian first layer with std kappa; signs a_r uniform in {-1, +1}."""
    rng = np.random.default_rng(seed_key(cfg.seed, 0x91))
    w = cfg.kappa * rng.standard_normal((n_features, cfg.m))
    a = rng.choice(np.array([-1.0, 1.0]), size=cfg.m)
    return ModelState(w=w, a=a, config=cfg)


def forward(state: ModelState, x) -> np.ndarray:
    """Network outputs (1/sqrt(m)) * relu(X W) a for each row of X.

    ``x`` must hold rows of the model's input width, as ``train_gd``
    requires.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != state.w.shape[0]:
        raise ConfigError(
            f"rows of shape {x.shape} do not match the model's input width "
            f"{state.w.shape[0]}"
        )
    z = np.maximum(x @ state.w, 0.0)
    return (z @ state.a) / math.sqrt(state.config.m)


def _descend(w, a, x, y, eta, steps):
    """Full-batch gradient descent on a stack of K independent models.

    ``w`` (K, F, m) moves in place; ``a`` (K, m) holds the fixed output
    signs, ``x`` (K, n, F) the training rows, ``y`` (K, n) the targets
    and ``eta`` (K,) the step sizes.  Each step is a few stacked numpy
    calls into buffers reused across steps, and model k's slice of every
    stacked product is bit for bit the 2-D product on its own rows
    (``matmul`` runs one BLAS call per slice), so a model trains to the
    same bits alone or in any stack.  The residual norm is
    ``sqrt(r . r)``, which is what ``np.linalg.norm`` computes on a 1-D
    array.

    Returns the residual norms and losses, each (K, steps + 1), and
    ``(model, step)`` of the lowest-numbered model whose loss turned
    non-finite, at its first such step, or None.  A model that fails is
    zeroed so that it stays finite while the others go on; the descent
    stops once model 0 fails, since no other failure can come first.
    """
    k, n, f = x.shape
    m = w.shape[2]
    root = math.sqrt(m)
    z = np.empty((k, n, m))  # x @ w, then relu, then the masked residual
    zero = np.zeros((1, n, m))  # maximum's loop for a scalar is ~4x slower
    active = np.empty((k, n, m), dtype=bool)
    out = np.empty((k, n, 1))
    residual = np.empty((k, n))
    square = np.empty((k, 1, 1))
    grad = np.empty((k, f, m))
    signs = a[:, :, None]
    scale = (a / root)[:, None, :]
    rate = np.asarray(eta, dtype=np.float64)[:, None, None]
    x_t = x.transpose(0, 2, 1)
    row, column = residual[:, None, :], residual[:, :, None]
    norms = np.empty((steps + 1, k))
    losses = np.empty((steps + 1, k))
    failed = None
    # non-finite values are reported by the per-step loss check below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps + 1):
            np.matmul(x, w, out=z)
            np.greater(z, 0.0, out=active)
            np.maximum(z, zero, out=z)
            np.matmul(z, signs, out=out)
            out /= root
            np.subtract(out[:, :, 0], y, out=residual)
            np.matmul(row, column, out=square)
            r = np.sqrt(square[:, 0, 0], out=norms[step])
            loss = np.multiply(r, 0.5, out=losses[step])
            loss *= r
            if not np.isfinite(loss).all():
                bad = ~np.isfinite(loss)
                first = int(np.argmax(bad))
                if failed is None or first < failed[0]:
                    failed = (first, step)
                if failed[0] == 0:
                    break
                w[bad] = 0.0
                residual[bad] = 0.0
            if step < steps:
                np.multiply(active, column, out=z)
                np.matmul(x_t, z, out=grad)
                grad *= scale
                grad *= rate
                w -= grad
    return np.ascontiguousarray(norms.T), np.ascontiguousarray(losses.T), failed


def _targets(y, n: int) -> np.ndarray:
    """``y`` as a float64 vector of one target for each of ``n`` rows."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (n,):
        raise ConfigError(f"targets of shape {y.shape} are not one per row of {n}")
    return y


def _diverged(step: int) -> NumericError:
    return NumericError(f"training loss became non-finite at step {step}")


def train_gd(state: ModelState, x, y, cfg: TrainConfig) -> TrainTrace:
    """Full-batch gradient descent on the squared loss L = 0.5 ||y - f||^2.

    Only the first layer moves; the output signs stay fixed.  ``y`` holds
    one label per row of ``x``, each bounded by 1 in absolute value.  The
    trace records ||y - f|| and the loss at every step including step 0;
    a non-finite loss aborts with the offending step number.  The ReLU
    subgradient at exactly 0 is taken as 0 (strict positivity test),
    which removes the measure-zero ambiguity of the kink.  This is the one-model stack of the trainer
    that ``evaluate_classifier`` and ``evaluate_classifiers`` run.
    """
    x = np.asarray(x)
    y = _targets(y, x.shape[0])
    if (np.abs(y) > 1.0 + 1e-12).any():
        raise ConfigError("training labels must lie in [-1, 1]")
    if state.w.shape != (x.shape[1], cfg.m):
        raise ConfigError(
            f"model shape {state.w.shape} does not match features x width "
            f"({x.shape[1]}, {cfg.m})"
        )
    eta = resolve_eta(cfg, x)
    w = state.w[None].copy()
    norms, losses, failed = _descend(
        w, state.a[None], x[None], y[None], [eta], cfg.steps
    )
    if failed is not None:
        raise _diverged(failed[1])
    return TrainTrace(
        residual_norms=norms[0],
        losses=losses[0],
        final_state=ModelState(w=w[0], a=state.a.copy(), config=cfg),
    )


@dataclass(frozen=True)
class SpectralPrediction:
    """Eigenvalues (ascending), squared label projections, and step size."""

    eigenvalues: np.ndarray
    projections: np.ndarray
    eta: float

    def predicted_norm(self, t):
        """sqrt(sum_i (1 - eta * lambda_i)^{2t} (v_i . y)^2) for integer t."""
        decay_sq = (1.0 - self.eta * self.eigenvalues) ** 2
        t_arr = np.atleast_1d(np.asarray(t, dtype=np.int64))
        powers = decay_sq[None, :] ** t_arr[:, None]
        out = np.sqrt(powers @ self.projections)
        return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out


def spectral_predictor(gm: GramMatrix, y, eta: float) -> SpectralPrediction:
    """Closed-form residual-norm forecast from the Gram spectrum.

    Eigendecomposes the raw (pre-ridge) matrix; warns when eta exceeds
    the stable range eta * lambda_max < 2.  ``y`` holds one target per
    row of the matrix.
    """
    y = _targets(y, gm.n)
    lam, vecs = np.linalg.eigh(gm.h)
    if eta * lam[-1] >= 2.0:
        warnings.warn(
            f"eta * lambda_max = {eta * lam[-1]:.3f} >= 2: divergent modes",
            KcesWarning,
            stacklevel=2,
        )
    return SpectralPrediction(
        eigenvalues=lam, projections=(vecs.T @ y) ** 2, eta=eta
    )


def write_trace_csv(trace: TrainTrace, path) -> None:
    """CSV 'step,residual_norm,loss', one row per gradient step."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,residual_norm,loss\n")
        for t in range(trace.residual_norms.shape[0]):
            fh.write(f"{t},{format_float(trace.residual_norms[t])},{format_float(trace.losses[t])}\n")


# -- bounds ---------------------------------------------------------------


def generalization_bound(gkc_value, n: int, lambda0: float, delta: float):
    """Generalization bound sqrt(GKC) + C * sqrt(log(n / (lambda0 delta)) / n),
    with C = 1."""
    value = float(gkc_value)
    # Written so that a NaN is refused too.
    if not value >= 0.0:
        raise ConfigError(f"complexity must be non-negative, got {value}")
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    if not lambda0 > 0.0:
        raise ConfigError(f"lambda0 must be positive, got {lambda0}")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {delta}")
    log_arg = n / (lambda0 * delta)
    if log_arg < 1.0:
        raise ConfigError("confidence term undefined: n < lambda0 * delta")
    return math.sqrt(value) + math.sqrt(math.log(log_arg) / n)


def edge_bound(base_gkc, kc_score: float, n: int, lambda0: float, delta: float):
    """Edge-removal variant: adds sqrt(kc) slack to the base bound."""
    if not kc_score >= 0.0:
        raise ConfigError(f"kc score must be non-negative, got {kc_score}")
    return generalization_bound(base_gkc, n, lambda0, delta) + math.sqrt(kc_score)


# -- classifier evaluation ------------------------------------------------


@dataclass(frozen=True)
class Split:
    """Boolean node masks; disjoint, covering all nodes."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def make_split(
    n: int, seed: int, train_frac: float = 0.1, val_frac: float = 0.1
) -> Split:
    """Seeded permutation split (default 10/10/80)."""
    for name, frac in (("train_frac", train_frac), ("val_frac", val_frac)):
        if not 0.0 <= frac < 1.0:
            raise ConfigError(f"{name} must be in [0, 1), got {frac}")
    if not 0.0 < train_frac + val_frac < 1.0:
        raise ConfigError("split fractions must leave room for a test set")
    rng = np.random.default_rng(seed_key(seed, 0x5917))
    perm = rng.permutation(n)
    n_train = int(round(train_frac * n))
    n_val = int(round(val_frac * n))
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[perm[:n_train]] = True
    val[perm[n_train : n_train + n_val]] = True
    test[perm[n_train + n_val :]] = True
    return Split(train=train, val=val, test=test)


@dataclass(frozen=True)
class AccuracyReport:
    """Train/val/test accuracy of the one-vs-rest classifier."""

    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    eta: float
    n_classes: int

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("split,accuracy\n")
            fh.write(f"train,{format_float(self.train_accuracy)}\n")
            fh.write(f"val,{format_float(self.val_accuracy)}\n")
            fh.write(f"test,{format_float(self.test_accuracy)}\n")


def resolve_eta(cfg: TrainConfig, rows: np.ndarray) -> float:
    """cfg.eta, or 1/lambda_max of the kernel over the given rows."""
    if cfg.eta is not None:
        return cfg.eta
    dots = rows @ rows.T
    dots = (dots + dots.T) / 2.0
    np.fill_diagonal(dots, 1.0)
    lam_max = float(np.linalg.eigvalsh(arccos_kernel(dots))[-1])
    return 1.0 / lam_max


def _class_config(cfg: TrainConfig, idx: int) -> TrainConfig:
    """The config of class idx: a seed derived from (cfg.seed, idx)."""
    derived = int(np.random.SeedSequence(seed_key(cfg.seed, idx)).generate_state(1)[0])
    return replace(cfg, seed=derived)


def _report(x, finals, classes, lab, split: Split, eta: float) -> AccuracyReport:
    """Argmax over the per-class outputs of each node, then accuracies."""
    scores = np.empty((lab.shape[0], classes.shape[0]))
    for idx, state in enumerate(finals):
        scores[:, idx] = forward(state, x)
    pred = classes[np.argmax(scores, axis=1)]

    def acc(mask):
        return float((pred[mask] == lab[mask]).mean()) if mask.any() else float("nan")

    return AccuracyReport(
        train_accuracy=acc(split.train),
        val_accuracy=acc(split.val),
        test_accuracy=acc(split.test),
        eta=eta,
        n_classes=int(classes.shape[0]),
    )


def _evaluate(graphs, labels, split: Split, cfg: TrainConfig):
    """The reports of ``evaluate_classifiers`` and, per graph, the
    TrainTrace of each class.

    Each class's stack trains on a thread of its own, on up to one
    thread per usable CPU.  The results are read back in class order, so
    the reports, the traces and a raised error are those of training the
    classes one after another.
    """
    if not graphs:
        return [], []
    n_nodes = graphs[0].n_nodes
    lab = class_labels(labels, n_nodes)
    if any(g.n_nodes != n_nodes for g in graphs):
        raise ConfigError("graphs must share one node set")
    for name in ("train", "val", "test"):
        mask = np.asarray(getattr(split, name))
        if mask.dtype != bool or mask.shape != (n_nodes,):
            raise ConfigError(f"split.{name} must be a boolean mask of {n_nodes} nodes")
    classes = np.unique(lab)
    missing = [c for c in classes.tolist() if not (split.train & (lab == c)).any()]
    if missing:
        raise ConfigError(f"classes {missing} have no training nodes")
    rows = [aggregate_features(g) for g in graphs]
    x = np.stack([r[split.train] for r in rows])
    etas = [resolve_eta(cfg, rows) for rows in x]
    n_graphs = len(graphs)
    targets = lab[split.train]

    def train(idx):
        start = init_model(_class_config(cfg, idx), x.shape[2])
        w = np.repeat(start.w[None], n_graphs, axis=0)
        y = np.where(targets == classes[idx], 1.0, -1.0)
        descent = _descend(
            w,
            np.broadcast_to(start.a, (n_graphs, cfg.m)),
            x,
            np.broadcast_to(y, (n_graphs, y.shape[0])),
            np.array(etas),
            cfg.steps,
        )
        return start, w, descent

    n_classes = classes.shape[0]
    with ThreadPoolExecutor(min(n_classes, _usable_cpus())) as pool:
        results = list(pool.map(train, range(n_classes)))
    traces = [[] for _ in graphs]
    failures = []
    for idx, (start, w, (norms, losses, failed)) in enumerate(results):
        if failed is not None:
            failures.append((failed[0], idx, failed[1]))
            continue
        for j, eta in enumerate(etas):
            state = ModelState(w=w[j], a=start.a, config=replace(start.config, eta=eta))
            traces[j].append(TrainTrace(norms[j], losses[j], state))
    if failures:
        raise _diverged(min(failures)[2])
    reports = [
        _report(r, [t.final_state for t in per_class], classes, lab, split, eta)
        for r, per_class, eta in zip(rows, traces, etas)
    ]
    return reports, traces


def evaluate_classifier(g: Graph, labels, split: Split, cfg: TrainConfig) -> AccuracyReport:
    """Train one scalar model per class on +1/-1 targets; argmax to predict.

    Aggregation sees the whole graph (transductive); gradient descent
    only sees training rows.  Per-class seeds derive from (cfg.seed,
    class index) so the report is reproducible.  This is the one-graph
    case of ``evaluate_classifiers``, so a divergence reports the lowest
    class that diverged.
    """
    return evaluate_classifiers([g], labels, split, cfg)[0]


def evaluate_classifiers(
    graphs, labels, split: Split, cfg: TrainConfig
) -> list[AccuracyReport]:
    """``evaluate_classifier`` on each of several graphs over one node set.

    The reports equal those of one call per graph, bit for bit.  Each
    class trains as one stack with a model per graph; the models start
    from the same draw, since their derived seed is the same, and each
    takes its own graph's step size.  A divergence reports what the
    per-graph loop would raise first: the lowest graph, then the lowest
    class.
    """
    return _evaluate(graphs, labels, split, cfg)[0]
