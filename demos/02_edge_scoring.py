"""Score every edge of a small graph and check it against the reference.

``kc_score_naive`` recomputes the full kernel matrix per edge; the fast
route of ``kc_scores_all`` patches the cached factorization with a
low-rank update, in blocks of edges that share one triangular product
against the inverse of the cached Cholesky factor.  Edges of a block that share an endpoint
share the kernel columns of that endpoint's neighbors, so each distinct
column is built once per block.
An edge the update cannot handle (a hub edge, an ill-conditioned
update) falls back to the naive route, and the table's method column
says which route each edge took.  Every score must agree with the
reference to floating-point noise (a naive row exactly), and the fast
route dodges the per-edge refactorization that dominates the naive cost
as graphs grow.

The last part scores a 400-node sparse graph with one pair of twin
nodes, whose equal aggregated rows make the base Gram matrix singular,
as on the benchmark's sparse-sbm-400 workload.  The ridge is decided
once, on the base: each removal is scored under it, with no warning of
its own, so the run flags one ridged factorization however many edges
it scores.  The update is exact against the ridged factorization, so
most edges still take the fast route; the few whose update is
ill-conditioned (sparse graphs with twins have a handful) take the
naive one.  The demo prints the split, checks a 32-edge sample against
the reference, and extrapolates the reference's time to every edge.
"""

import time
import warnings

import numpy as np

from kces.errors import KcesWarning
from kces.graph import Graph
from kces.kcscore import kc_score_naive, kc_scores_all
from kces.pseudolabel import encode_labels, kmeans_pseudo_labels
from kces.synth import make_sbm_benchmark, random_graph

g = random_graph(48, 0.15, 8, seed=7, avoid_twins=True)
print(f"graph: {g.n_nodes} nodes, {g.n_edges} edges")

pseudo = kmeans_pseudo_labels(g, 2, seed=7)
labels = encode_labels(pseudo)
print("pseudo-label split:", np.bincount(pseudo).tolist())

t0 = time.perf_counter()
fast = kc_scores_all(g, labels)
t_fast = time.perf_counter() - t0

t0 = time.perf_counter()
ref = np.array([kc_score_naive(g, labels, u, v) for u, v in g.edges.tolist()])
t_naive = time.perf_counter() - t0

worst = float(np.abs(fast.scores - ref).max())
n_fast = int(fast.fast.sum())
print(f"\nroutes taken: fast {n_fast}, naive {g.n_edges - n_fast}")
print(f"kc_score_naive on every edge: {t_naive * 1e3:.1f} ms   "
      f"kc_scores_all: {t_fast * 1e3:.1f} ms")
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
twin_labels = encode_labels(kmeans_pseudo_labels(twins, 2, seed=7))
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always", KcesWarning)
    t0 = time.perf_counter()
    ridged = kc_scores_all(twins, twin_labels)
    t_ridged = time.perf_counter() - t0
# The reference rebuilds two 402-node Gram matrices per edge, so it
# checks an even spread of 32 edges.
rows = np.arange(0, twins.n_edges, max(1, twins.n_edges // 32))[:32]
with warnings.catch_warnings():
    warnings.simplefilter("ignore", KcesWarning)
    t0 = time.perf_counter()
    ridged_ref = np.array(
        [kc_score_naive(twins, twin_labels, u, v) for u, v in twins.edges[rows].tolist()]
    )
    t_ref = (time.perf_counter() - t0) * twins.n_edges / rows.size
n_fast = int(ridged.fast.sum())
rel = np.abs(ridged.scores[rows] - ridged_ref) / np.maximum(ridged_ref, 1e-12)
print(f"\ntwin-row graph: {twins.n_nodes} nodes, {twins.n_edges} edges, "
      f"{len(caught)} ridge decided on the base")
print(f"routes taken: fast {n_fast}, naive {twins.n_edges - n_fast}")
print(f"kc_scores_all: {t_ridged:.2f} s   kc_score_naive on every edge "
      f"(extrapolated from {rows.size}): {t_ref:.2f} s, {t_ref / twins.n_edges * 1e3:.1f} ms per edge")
print(f"largest relative disagreement on the sample: {float(rel.max()):.2e}")
