"""Score every edge of a small graph through both scoring routes.

The naive route recomputes the full kernel matrix per edge; the fast
route patches the cached factorization with a low-rank update, in
blocks of edges that share one product against the cached inverse.
An edge the update cannot handle (a hub edge, an ill-conditioned
update, a ridged base) falls back to the naive route, and the table's
method column says which route each edge took.  The two routes must
agree to floating-point noise, and the fast route dodges the per-edge
refactorization that dominates the naive cost as graphs grow.

The last part times that naive cost where it cannot be dodged: a
400-node sparse graph with one pair of twin nodes, whose equal
aggregated rows make the base Gram matrix singular.  The base gets a
ridge, so every edge takes the naive rebuild, as on the benchmark's
sparse-sbm-400 workload.
"""

import time
import warnings
from collections import Counter

import numpy as np

from kces.errors import KcesWarning
from kces.graph import Graph
from kces.kcscore import kc_scores_all
from kces.pseudolabel import encode_labels, kmeans_pseudo_labels
from kces.synth import make_sbm_benchmark, random_graph

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

# Nodes 400 and 401 hang off node 0 and each other only, so their closed
# neighborhoods are both {0, 400, 401} and their aggregated rows coincide.
sbm = make_sbm_benchmark(seed=0, n=400, p_in=4 / 400, p_out=1 / 400)
twins = Graph(
    np.vstack([sbm.features, np.random.default_rng(7).standard_normal((2, sbm.n_features))]),
    np.vstack([sbm.edges, [[400, 401], [0, 400], [0, 401]]]),
)
twin_labels = encode_labels(kmeans_pseudo_labels(twins, 2, seed=7).assignments, "one-hot")
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always", KcesWarning)
    t0 = time.perf_counter()
    ridged = kc_scores_all(twins, twin_labels, method="fast")
    t_ridged = time.perf_counter() - t0
routes = Counter(entry.method for entry in ridged.entries.values())
print(f"\ntwin-row graph: {twins.n_nodes} nodes, {twins.n_edges} edges, "
      f"{len(caught)} ridged factorizations")
print(f"routes taken by method='fast': {dict(sorted(routes.items()))}")
print(f"naive rebuilds: {t_ridged:.2f} s, {t_ridged / twins.n_edges * 1e3:.1f} ms per edge")
