"""Compare a real training run against the closed-form spectral forecast.

At large width the residual of full-batch gradient descent follows the
spectrum of the kernel Gram matrix.  This trains a width-8192 model for
200 steps and prints the measured residual next to the prediction, plus
the generalization bound evaluated from the complexity functional.
"""

import numpy as np

from kces.gnn import (
    TrainConfig,
    edge_bound,
    generalization_bound,
    init_model,
    spectral_predictor,
    train_gd,
)
from kces.graph import aggregate_features
from kces.kcscore import kc_scores_all
from kces.kernel import gkc, gram_matrix
from kces.pseudolabel import encode_labels
from kces.synth import random_graph

g = random_graph(16, 0.25, 32, seed=0, avoid_twins=True)
rows = aggregate_features(g)
y = np.random.default_rng(0).choice([-1.0, 1.0], size=16)

gm = gram_matrix(rows)
eta = min(0.5, 1.0 / float(np.linalg.eigvalsh(gm.h)[-1]))
cfg = TrainConfig(m=8192, steps=200, eta=eta, kappa=0.1, seed=0)
print(f"width {cfg.m}, step size {eta:.4f}, {cfg.steps} steps")

trace = train_gd(init_model(cfg, g.n_features), rows, y, cfg)
predicted = spectral_predictor(gm, y, eta).predicted_norm(np.arange(201))

print("\n  t   measured   predicted")
for t in (0, 5, 10, 20, 40, 80, 120, 200):
    print(f"{t:4d}   {trace.residual_norms[t]:.4f}     {predicted[t]:.4f}")
gap = np.abs(trace.residual_norms - predicted) / trace.residual_norms[0]
print(f"\nworst gap, relative to the initial residual: {gap.max():.4f}")

# the same kernel quantities drive the test-error bound
labels = encode_labels((y > 0).astype(np.int64))
complexity = gkc(gm, labels)
bound = generalization_bound(complexity, n=16, lambda0=gm.lambda_min, delta=0.05)
print(f"\ncomplexity {complexity:.4f} -> test-error bound {bound:.4f}")

table = kc_scores_all(g, labels)
top_edge = table.sorted_edges()[0]
slack = edge_bound(complexity, float(table.scores.max()), 16, gm.lambda_min, 0.05)
print(
    f"worst-case bound if edge {top_edge} (the top scorer) is removed: "
    f"{slack:.4f}"
)
