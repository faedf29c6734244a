"""Score every edge of a small graph through both scoring routes.

The naive route recomputes the full kernel matrix per edge; the fast
route patches the cached factorization with a low-rank update, in
blocks of edges that share one triangular product against the inverse
of the cached Cholesky factor.  Edges of a block that share an endpoint
share the kernel columns of that endpoint's neighbors, so each distinct
column is built once per block.
An edge the update cannot handle (a hub edge, an ill-conditioned
update) falls back to the naive route, and the table's method column
says which route each edge took.  The two routes must agree to
floating-point noise, and the fast route dodges the per-edge
refactorization that dominates the naive cost as graphs grow.

The last part scores a 400-node sparse graph with one pair of twin
nodes, whose equal aggregated rows make the base Gram matrix singular,
as on the benchmark's sparse-sbm-400 workload.  The ridge is decided
once, on the base: each removal is scored under it, with no warning of
its own, so the run flags one ridged factorization however many edges
it scores.  The update is exact against the ridged factorization, so
most edges still take the fast route; the few whose update is
ill-conditioned (sparse graphs with twins have a handful) take the
naive one.  The demo prints the split and times both routes.
"""

import time
import warnings

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

worst = float(np.abs(fast.scores - naive.scores).max())
n_fast = int(fast.fast.sum())
print(f"\nroutes taken by method='fast': fast {n_fast}, naive {g.n_edges - n_fast}")
print(f"naive rebuilds: {t_naive * 1e3:.1f} ms   blocked fast route: {t_fast * 1e3:.1f} ms")
print(f"largest score disagreement: {worst:.2e}")
print(f"base complexity: {fast.base_gkc:.6f}")

score_of = dict(zip(map(tuple, fast.edges.tolist()), fast.scores.tolist()))
print("\ntop five edges by score:")
for u, v in fast.sorted_edges()[:5]:
    print(f"  ({u:2d}, {v:2d})  score {score_of[(u, v)]:.6f}")

print("\nbottom five:")
for u, v in fast.sorted_edges()[-5:]:
    print(f"  ({u:2d}, {v:2d})  score {score_of[(u, v)]:.6f}")

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
with warnings.catch_warnings():
    warnings.simplefilter("ignore", KcesWarning)
    t0 = time.perf_counter()
    ridged_naive = kc_scores_all(twins, twin_labels, method="naive")
    t_ridged_naive = time.perf_counter() - t0
n_fast = int(ridged.fast.sum())
rel = np.abs(ridged.scores - ridged_naive.scores) / np.maximum(ridged_naive.scores, 1e-12)
print(f"\ntwin-row graph: {twins.n_nodes} nodes, {twins.n_edges} edges, "
      f"{len(caught)} ridge decided on the base")
print(f"routes taken by method='fast': fast {n_fast}, naive {twins.n_edges - n_fast}")
print(f"method='fast': {t_ridged:.2f} s   method='naive': {t_ridged_naive:.2f} s, "
      f"{t_ridged_naive / twins.n_edges * 1e3:.1f} ms per edge")
print(f"largest relative score disagreement: {float(rel.max()):.2e}")
