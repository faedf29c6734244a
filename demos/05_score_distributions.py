"""Where injected edges land in the score distribution.

Scores the clean and the attacked copy of a planted-partition graph,
normalizes both populations, and asks whether the attack's insertions
concentrate in the upper tail.  Writes plot-ready CSVs (sorted scores,
density curve, histogram) for each variant into ./demo_out/.
"""

import os

import numpy as np

from kces.dist import score_distribution, write_distribution_csv
from kces.kcscore import kc_scores_all
from kces.perturb import dice_attack
from kces.pseudolabel import encode_labels, kmeans_pseudo_labels
from kces.synth import make_sbm_benchmark

SEED = 0
OUT_DIR = "demo_out"

clean = make_sbm_benchmark(seed=SEED)
attacked, record = dice_attack(clean, clean.labels, 0.5, SEED + 1000)
print(
    f"graph: {clean.n_nodes} nodes, {clean.n_edges} edges; "
    f"attack added {len(record.added)}, removed {len(record.removed)}"
)

tables = {}
for name, g in (("clean", clean), ("attacked", attacked)):
    labels = encode_labels(kmeans_pseudo_labels(g, 2, SEED))
    tables[name] = kc_scores_all(g, labels)

injected = set(record.added)
att = tables["attacked"]
hit = np.array([tuple(e) in injected for e in att.edges.tolist()])
print(f"\nmedian score, attacked graph: {np.median(att.scores):.4f}")
print(f"median score, injected edges: {np.median(att.scores[hit]):.4f}")

ranked = att.sorted_edges()
decile = ranked[: max(1, len(ranked) // 10)]
hits = sum(1 for e in decile if e in injected)
share = len(injected) / len(ranked)
print(
    f"top decile ({len(decile)} edges): {hits} injected "
    f"({hits / len(decile):.1%} vs {share:.1%} base rate)"
)

os.makedirs(OUT_DIR, exist_ok=True)
for name, table in tables.items():
    export = score_distribution(table.scores, seed=SEED)
    path = os.path.join(OUT_DIR, f"scores_{name}.csv")
    write_distribution_csv(export, path)
    print(
        f"{name}: n={export.sample_size}, bandwidth {export.bandwidth:.4f}, "
        f"kde mass {export.kde_integral():.4f} -> {path}"
    )
