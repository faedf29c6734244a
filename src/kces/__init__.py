"""kces: kernel complexity-based edge scoring and sanitization.

Score every edge of a node-attributed graph by how much its removal
changes the graph kernel complexity of the label vector, prune the
highest-scoring edges, and validate the kernel-regime generalization
story with a reference two-layer trainer.
"""

from .dist import DistributionExport, score_distribution, write_distribution_csv
from .errors import ConfigError, InputError, KcesError, KcesWarning, NumericError
from .gnn import (
    AccuracyReport,
    ModelState,
    SpectralPrediction,
    Split,
    TrainConfig,
    TrainTrace,
    edge_bound,
    evaluate_classifier,
    generalization_bound,
    init_model,
    make_split,
    spectral_predictor,
    train_gd,
    write_trace_csv,
)
from .graph import (
    Graph,
    aggregate_features,
    affected_nodes,
    load_graph,
    remove_edge,
    with_edges,
    write_edge_tsv,
    write_features_csv,
    write_labels,
)
from .kcscore import KcScoreTable, kc_score_naive, kc_scores_all
from .kernel import GramMatrix, arccos_kernel, gkc, gram_matrix
from .perturb import PerturbationRecord, dice_attack, random_attack
from .pseudolabel import LabelMatrix, encode_labels, kmeans_pseudo_labels
from .sanitize import (
    PruneConfig,
    PrunePlan,
    SanitizationResult,
    apply_prune,
    kces_pipeline,
    prune_count,
    select_edges,
)
from .synth import make_sbm_benchmark, random_graph

VERSION = "0.1.0"
__version__ = VERSION

__all__ = [
    "AccuracyReport",
    "ConfigError",
    "DistributionExport",
    "GramMatrix",
    "Graph",
    "InputError",
    "KcScoreTable",
    "KcesError",
    "KcesWarning",
    "LabelMatrix",
    "ModelState",
    "NumericError",
    "PerturbationRecord",
    "PruneConfig",
    "PrunePlan",
    "SanitizationResult",
    "SpectralPrediction",
    "Split",
    "TrainConfig",
    "TrainTrace",
    "VERSION",
    "affected_nodes",
    "aggregate_features",
    "apply_prune",
    "arccos_kernel",
    "dice_attack",
    "edge_bound",
    "encode_labels",
    "evaluate_classifier",
    "generalization_bound",
    "gkc",
    "gram_matrix",
    "init_model",
    "kc_score_naive",
    "kc_scores_all",
    "kces_pipeline",
    "kmeans_pseudo_labels",
    "load_graph",
    "make_sbm_benchmark",
    "make_split",
    "prune_count",
    "random_attack",
    "random_graph",
    "remove_edge",
    "score_distribution",
    "select_edges",
    "spectral_predictor",
    "train_gd",
    "with_edges",
    "write_distribution_csv",
    "write_edge_tsv",
    "write_features_csv",
    "write_labels",
    "write_trace_csv",
]
