"""Score every edge of a small graph through both scoring routes.

The naive route recomputes the full kernel matrix per edge; the fast
route patches the cached factorization with a low-rank update, in
blocks of edges that share one product against the cached inverse.
An edge the update cannot handle (a hub edge, an ill-conditioned
update, a ridged base) falls back to the naive route, and the table's
method column says which route each edge took.  The two routes must
agree to floating-point noise, and the fast route dodges the per-edge
refactorization that dominates the naive cost as graphs grow.
"""

import time
from collections import Counter

import numpy as np

from kces.kcscore import kc_scores_all
from kces.pseudolabel import encode_labels, kmeans_pseudo_labels
from kces.synth import random_graph

g = random_graph(48, 0.15, 8, seed=7, avoid_twins=True)
print(f"graph: {g.n_nodes} nodes, {g.n_edges} edges")

pseudo = kmeans_pseudo_labels(g, 2, seed=7)
labels = encode_labels(pseudo.assignments, "one-hot")
print("pseudo-label split:", np.bincount(pseudo.assignments).tolist())

t0 = time.perf_counter()
naive = kc_scores_all(g, labels, method="naive")
t_naive = time.perf_counter() - t0

t0 = time.perf_counter()
fast = kc_scores_all(g, labels, method="fast")
t_fast = time.perf_counter() - t0

worst = max(
    abs(fast.entries[e].score - naive.entries[e].score) for e in naive.entries
)
routes = Counter(entry.method for entry in fast.entries.values())
print(f"\nroutes taken by method='fast': {dict(sorted(routes.items()))}")
print(f"naive rebuilds: {t_naive * 1e3:.1f} ms   blocked fast route: {t_fast * 1e3:.1f} ms")
print(f"largest score disagreement: {worst:.2e}")
print(f"base complexity: {fast.base_gkc:.6f}")

print("\ntop five edges by score:")
for u, v in fast.sorted_edges()[:5]:
    entry = fast.entries[(u, v)]
    print(f"  ({u:2d}, {v:2d})  score {entry.score:.6f}")

print("\nbottom five:")
for u, v in fast.sorted_edges()[-5:]:
    entry = fast.entries[(u, v)]
    print(f"  ({u:2d}, {v:2d})  score {entry.score:.6f}")
