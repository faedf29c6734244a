"""Attack a planted two-block graph, sanitize it, and measure the damage.

One seed of the defense benchmark: a label-aware attack deletes
same-class edges and injects cross-class ones, scores rank every
surviving edge, and pruning the top quarter removes a disproportionate
share of the injected edges.  Accuracy is reported for the clean,
attacked, and sanitized graphs, and for each half of the attack alone:
the deletions only, which is also what an oracle prune of exactly the
injected edges leaves, and the insertions only.
"""

import numpy as np

from kces.gnn import TrainConfig, evaluate_classifiers, make_split
from kces.graph import with_edges
from kces.kcscore import kc_scores_all
from kces.perturb import dice_attack
from kces.pseudolabel import encode_labels, kmeans_pseudo_labels
from kces.sanitize import PruneConfig, apply_prune, select_edges
from kces.synth import make_sbm_benchmark

SEED = 4

g = make_sbm_benchmark(seed=SEED)
attacked, record = dice_attack(g, g.labels, 0.5, SEED + 1000)
print(
    f"clean graph: {g.n_edges} edges; attack added {len(record.added)}, "
    f"removed {len(record.removed)}"
)

pseudo = kmeans_pseudo_labels(attacked, 2, SEED)
agreement = max(
    float((pseudo == g.labels).mean()), float((pseudo != g.labels).mean())
)
print(f"pseudo-label agreement with ground truth: {agreement:.3f}")

table = kc_scores_all(attacked, encode_labels(pseudo))
injected = set(record.added)
hit = np.array([tuple(e) in injected for e in table.edges.tolist()])
med_inj = float(np.median(table.scores[hit]))
med_clean = float(np.median(table.scores[~hit]))
print(f"median score, injected edges: {med_inj:.2e}")
print(f"median score, clean edges:    {med_clean:.2e}")

plan = select_edges(table, PruneConfig(alpha=0.25, strategy="high-kc"))
hits = sum(1 for edge in plan.removed if edge in injected)
share = len(injected) / attacked.n_edges
print(
    f"\npruned {plan.k} edges; {hits} were injected "
    f"({hits / plan.k:.2f} vs {share:.2f} for a random pick)"
)
sanitized = apply_prune(attacked, plan)

# same budget spent blindly, as a control
blind_plan = select_edges(
    table, PruneConfig(alpha=0.25, strategy="random", seed=SEED)
)
blind = apply_prune(attacked, blind_plan)

# each half of the attack on its own
deletion_only = with_edges(g, sorted(g.edge_set() - set(record.removed)))
insertion_only = with_edges(g, sorted(g.edge_set() | set(record.added)))

split = make_split(g.n_nodes, SEED)
cfg = TrainConfig(m=256, steps=200, kappa=0.1, seed=SEED)
variants = (
    ("clean", g),
    ("attacked", attacked),
    ("sanitized", sanitized),
    ("random prune", blind),
    ("deletion only", deletion_only),
    ("insertion only", insertion_only),
)
reports = evaluate_classifiers([graph for _, graph in variants], g.labels, split, cfg)
for (name, _), report in zip(variants, reports):
    print(f"{name:14s} test accuracy: {report.test_accuracy:.3f}")
print("(deletion only is also the oracle prune: the attacked graph minus every injected edge)")
