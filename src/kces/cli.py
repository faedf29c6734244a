"""Command-line interface: score, prune, attack, train, dist, sweep.

Commands compose through files only.  Every run writes a manifest with
its parsed arguments and content digests of its inputs and outputs;
re-running a manifest's argv reproduces the outputs byte for byte, given
the same BLAS build.  Scoring always takes the fast route wherever it can;
``kc_score_naive`` is the per-edge reference.  ``sweep`` scores its
graph once for all its seeds, so it warns of a ridged base once per
graph, not once per seed.

Exit codes: 0 success, 2 input error, 3 numeric error, 4 infeasible
configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import VERSION
from .dist import score_distribution, write_distribution_csv
from .errors import ConfigError, InputError, NumericError
from .gnn import TrainConfig, _evaluate, evaluate_classifiers, make_split, write_trace_csv
from .graph import Graph, format_float, load_graph, write_edge_tsv
from .kcscore import KcScoreTable, _kc_scores_each, kc_scores_all
from .perturb import dice_attack, random_attack
from .pseudolabel import encode_labels, kmeans_pseudo_labels
from .sanitize import STRATEGIES, PruneConfig, apply_prune, select_edges

log = logging.getLogger("kces.cli")

SWEEP_ALPHAS = tuple(round(0.05 * i, 2) for i in range(1, 20))

_EXIT_INPUT = 2
_EXIT_NUMERIC = 3
_EXIT_CONFIG = 4


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    parser.add_argument("--manifest-out", default=None, help="manifest path (default: <output>.manifest.json)")


def _graph_flags(parser: argparse.ArgumentParser, labels_help: str) -> None:
    parser.add_argument("--edges", required=True, help="edge list TSV")
    parser.add_argument("--features", required=True, help="node feature CSV")
    parser.add_argument("--labels", default=None, help=labels_help)


def _scoring_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=int, default=None, help="pseudo-label cluster count")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--restarts", type=int, default=10, help="K-means restarts")


def _train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--m", type=int, default=256, help="hidden width")
    parser.add_argument("--steps", type=int, default=200, help="gradient steps")
    parser.add_argument("--eta", type=float, default=None, help="step size (default 1/lambda_max)")
    parser.add_argument("--kappa", type=float, default=0.1, help="init scale")
    parser.add_argument("--split-seed", type=int, default=None, help="split seed (default: --seed)")


def _score_table(g: Graph, args) -> KcScoreTable:
    """Score every edge against the file labels or K-means pseudo-labels."""
    if g.labels is not None and args.k is not None:
        raise ConfigError("pass --labels or --k, not both")
    if g.labels is None and args.k is None:
        raise ConfigError("need --k for pseudo labels when no --labels file is given")
    labels = g.labels if g.labels is not None else kmeans_pseudo_labels(g, args.k, args.seed, restarts=args.restarts)
    return kc_scores_all(g, encode_labels(labels))


def _input_paths(args) -> dict:
    inputs = {"edges": args.edges, "features": args.features}
    if getattr(args, "labels", None):
        inputs["labels"] = args.labels
    return inputs


def cmd_score(args):
    g = load_graph(args.edges, args.features, args.labels)
    _score_table(g, args).write_tsv(args.out)
    log.info("scored %d edges -> %s", g.n_edges, args.out)
    return _input_paths(args), {"scores": args.out}, args.out


def cmd_prune(args):
    g = load_graph(args.edges, args.features, args.labels)
    if args.scores is not None:
        if args.k is not None:
            raise ConfigError("pass --scores or --k, not both")
        table = KcScoreTable.read_tsv(args.scores)
        # k is computed from the table's size, so a table of another edge
        # set would prune a different share of the graph.
        if not np.array_equal(table.edges, g.edges):
            raise InputError(
                f"{args.scores}: its {table.edges.shape[0]} edges are not "
                f"the graph's {g.n_edges} edges"
            )
    else:
        table = _score_table(g, args)
    config = PruneConfig(alpha=args.alpha, strategy=args.strategy, seed=args.seed)
    plan = select_edges(table, config)
    pruned = apply_prune(g, plan)
    write_edge_tsv(pruned, args.out)
    plan_out = args.plan_out or args.out + ".plan.tsv"
    plan.write_tsv(plan_out)
    log.info("removed %d of %d edges -> %s", len(plan.removed), g.n_edges, args.out)
    inputs = _input_paths(args)
    if args.scores is not None:
        inputs["scores"] = args.scores
    return inputs, {"edges": args.out, "plan": plan_out}, args.out


def cmd_attack(args):
    g = load_graph(args.edges, args.features, args.labels)
    if args.kind == "dice":
        if g.labels is None:
            raise ConfigError("dice attack needs --labels")
        attacked, record = dice_attack(g, g.labels, args.budget_ratio, args.seed)
    else:
        attacked, record = random_attack(g, args.budget_ratio, args.seed, args.add_fraction)
    write_edge_tsv(attacked, args.out)
    record_out = args.record_out or args.out + ".record.tsv"
    record.write_tsv(record_out)
    log.info(
        "attack %s: +%d -%d edges -> %s",
        args.kind,
        len(record.added),
        len(record.removed),
        args.out,
    )
    return _input_paths(args), {"edges": args.out, "record": record_out}, args.out


def cmd_train(args):
    g = load_graph(args.edges, args.features, args.labels)
    if g.labels is None:
        raise ConfigError("train needs --labels")
    if args.split_seed is None:
        args.split_seed = args.seed
    split = make_split(g.n_nodes, args.split_seed)
    cfg = TrainConfig(m=args.m, steps=args.steps, eta=args.eta, kappa=args.kappa, seed=args.seed)
    outputs = {"report": args.out}
    (report,), (traces,) = _evaluate([g], g.labels, split, cfg)
    report.write_csv(args.out)
    if args.trace_dir:
        os.makedirs(args.trace_dir, exist_ok=True)
        for idx, trace in enumerate(traces):
            path = os.path.join(args.trace_dir, f"class_{idx}.csv")
            write_trace_csv(trace, path)
            outputs[f"trace_class_{idx}"] = path
    log.info("test accuracy %.4f -> %s", report.test_accuracy, args.out)
    return _input_paths(args), outputs, args.out


def cmd_dist(args):
    variants = [
        ("clean", args.clean_edges),
        ("attacked", args.attacked_edges),
        ("pruned", args.pruned_edges),
    ]
    variants = [(name, path) for name, path in variants if path is not None]
    if not variants:
        raise ConfigError("need at least one of --clean-edges/--attacked-edges/--pruned-edges")
    inputs = {"features": args.features}
    if args.labels:
        inputs["labels"] = args.labels
    outputs = {}
    for name, edge_path in variants:
        g = load_graph(edge_path, args.features, args.labels)
        export = score_distribution(_score_table(g, args).scores, samples=args.samples, seed=args.seed)
        out = f"{args.out_prefix}{name}.csv"
        write_distribution_csv(export, out)
        log.info("%s: %d scores summarized -> %s", name, export.sample_size, out)
        inputs[f"{name}_edges"] = edge_path
        outputs[name] = out
    return inputs, outputs, outputs[variants[0][0]]


def cmd_sweep(args):
    g = load_graph(args.edges, args.features, args.labels)
    if g.labels is None:
        raise ConfigError("sweep needs --labels for accuracy evaluation")
    strategies = tuple(s.strip() for s in args.strategies.split(",") if s.strip())
    unknown = [s for s in strategies if s not in STRATEGIES]
    if unknown:
        raise ConfigError(f"unknown strategies: {', '.join(unknown)}")
    if not strategies:
        raise ConfigError("no strategies given")
    try:
        seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"seeds must be comma-separated integers, got {args.seeds!r}") from None
    if not seeds:
        raise ConfigError("no seeds given")
    # a repeated value would write each of its cells twice
    for name, given in (("strategies", strategies), ("seeds", seeds)):
        if len(set(given)) < len(given):
            raise ConfigError(f"repeated {name}: {', '.join(map(str, given))}")
    if args.k is None:
        args.k = int(np.unique(g.labels).size)

    # Every seed's labels, then one scoring run for all of them, then
    # training: the first labelling or scoring error stops the sweep
    # before any seed trains.
    label_sets = [
        encode_labels(kmeans_pseudo_labels(g, args.k, seed, restarts=args.restarts))
        for seed in seeds
    ]
    rows = []
    for seed, table in zip(seeds, _kc_scores_each(g, label_sets)):
        split = make_split(g.n_nodes, seed if args.split_seed is None else args.split_seed)
        cfg = TrainConfig(m=args.m, steps=args.steps, eta=args.eta, kappa=args.kappa, seed=seed)
        for strategy in strategies:
            # a row's cells share the split and config, so they train as one stack per class
            pruned = [
                apply_prune(g, select_edges(table, PruneConfig(alpha=alpha, strategy=strategy, seed=seed)))
                for alpha in SWEEP_ALPHAS
            ]
            reports = evaluate_classifiers(pruned, g.labels, split, cfg)
            for alpha, report in zip(SWEEP_ALPHAS, reports):
                rows.append((strategy, alpha, seed, report.test_accuracy))
    rows.sort(key=lambda row: (row[0], row[1], row[2]))

    lines = ["strategy,alpha,seed,test_accuracy"]
    for strategy, alpha, seed, acc in rows:
        lines.append(f"{strategy},{format_float(alpha)},{seed},{format_float(acc)}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    log.info("%d sweep cells -> %s", len(rows), args.out)
    return _input_paths(args), {"sweep": args.out}, args.out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kces",
        description="Kernel-complexity edge scoring, sanitization, and reference training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("score", help="score every edge by kernel-complexity contribution")
    _graph_flags(p, "node class file (skips pseudo-labeling)")
    _scoring_flags(p)
    p.add_argument("--out", required=True, help="score TSV path")
    _common_flags(p)
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser("prune", help="remove edges selected from a score table")
    _graph_flags(p, "node class file (skips pseudo-labeling)")
    _scoring_flags(p)
    p.add_argument("--scores", default=None, help="precomputed score TSV (skips scoring)")
    p.add_argument("--alpha", type=float, required=True, help="fraction of edges to remove")
    p.add_argument("--strategy", choices=STRATEGIES, default="high-kc")
    p.add_argument("--out", required=True, help="sanitized edge TSV path")
    p.add_argument("--plan-out", default=None, help="plan TSV path (default: <out>.plan.tsv)")
    _common_flags(p)
    p.set_defaults(handler=cmd_prune)

    p = sub.add_parser("attack", help="randomly or adversarially perturb the edge set")
    _graph_flags(p, "node class file (required for dice)")
    p.add_argument("--kind", choices=("random", "dice"), required=True)
    p.add_argument("--budget-ratio", type=float, required=True, help="modifications as a fraction of |E|")
    p.add_argument("--add-fraction", type=float, default=0.5, help="share of budget spent on additions (random only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="perturbed edge TSV path")
    p.add_argument("--record-out", default=None, help="record TSV path (default: <out>.record.tsv)")
    _common_flags(p)
    p.set_defaults(handler=cmd_attack)

    p = sub.add_parser("train", help="train the reference two-layer model and report accuracy")
    _graph_flags(p, "node class file (required)")
    p.add_argument("--seed", type=int, default=0)
    _train_flags(p)
    p.add_argument("--out", required=True, help="accuracy report CSV path")
    p.add_argument("--trace-dir", default=None, help="write per-class training traces here")
    _common_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("dist", help="export score distributions for graph variants")
    p.add_argument("--features", required=True, help="node feature CSV (shared by all variants)")
    p.add_argument("--labels", default=None, help="node class file (skips pseudo-labeling)")
    p.add_argument("--clean-edges", default=None)
    p.add_argument("--attacked-edges", default=None)
    p.add_argument("--pruned-edges", default=None)
    _scoring_flags(p)
    p.add_argument("--samples", type=int, default=None, help="uniform edge subsample size (default: all)")
    p.add_argument("--out-prefix", required=True, help="output CSV prefix")
    _common_flags(p)
    p.set_defaults(handler=cmd_dist)

    p = sub.add_parser("sweep", help="accuracy grid over (strategy, alpha, seed)")
    _graph_flags(p, "node class file (required)")
    p.add_argument("--strategies", default="high-kc,low-kc,random", help="comma-separated subset")
    p.add_argument("--seeds", default="0", help="comma-separated seed list")
    p.add_argument("--k", type=int, default=None, help="pseudo-label cluster count (default: class count)")
    p.add_argument("--restarts", type=int, default=10)
    _train_flags(p)
    p.add_argument("--out", required=True, help="sweep CSV path")
    _common_flags(p)
    p.set_defaults(handler=cmd_sweep)

    return parser


def _write_manifest(path: str, args, inputs: dict, outputs: dict, argv: list) -> None:
    """Write the run's record: its command, every parsed argument as the
    command left it (defaults included, and the values it resolved), its
    argv, and the sha256 of every input and output file.

    ``inputs`` and ``outputs`` map a role name (e.g. "edges") to a file
    path.  Re-running the argv must regenerate the outputs byte for byte,
    so the record holds no timestamp, host name or other field that
    varies between runs, and its keys are sorted.
    """

    def digest(file_path):
        sha = hashlib.sha256()
        with open(file_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha.update(chunk)
        return {"path": file_path, "sha256": sha.hexdigest()}

    parameters = {name: value for name, value in vars(args).items() if name not in ("command", "handler")}
    record = {
        "command": args.command,
        "version": VERSION,
        "parameters": parameters,
        "inputs": {name: digest(p) for name, p in inputs.items()},
        "outputs": {name: digest(p) for name, p in outputs.items()},
        "argv": argv,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    # basicConfig only acts while the root logger has no handler, so the
    # level is set on the package's logger, on every call
    logging.basicConfig(format="%(levelname)s %(message)s", stream=sys.stderr)
    logging.getLogger("kces").setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        inputs, outputs, primary = args.handler(args)
        _write_manifest(args.manifest_out or primary + ".manifest.json", args, inputs, outputs, argv)
    except (InputError, OSError) as exc:
        print(f"kces: input error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except NumericError as exc:
        print(f"kces: numeric error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except ConfigError as exc:
        print(f"kces: config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
