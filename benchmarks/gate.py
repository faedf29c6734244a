"""Correctness gate applied to the score table of every iteration.

The table is read only from its ``u v kc_score method`` TSV.  It passes
when every edge of the scored graph appears exactly once with a finite,
non-negative score, and a fixed seed-chosen sample of edges agrees with
``kc_score_naive`` within the test suite's fast-path tolerance
``max(1e-8 * |ref|, 1e-12)``.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from kces import Graph, KcesWarning, LabelMatrix, kc_score_naive

HEADER = "u\tv\tkc_score\tmethod"
REL_TOL = 1e-8
ABS_TOL = 1e-12
SAMPLE_SIZE = 5


class GateError(Exception):
    """An output of the program is malformed or wrong."""


@dataclass(frozen=True)
class Reference:
    """What a correct score table of ``graph`` contains."""

    graph: Graph
    edges: frozenset
    sample: dict  # (u, v) -> kc_score_naive
    naive_s: tuple  # wall time of each kc_score_naive call


def reference(g: Graph, labels: LabelMatrix, seed: int, size: int = SAMPLE_SIZE) -> Reference:
    """Re-score a seed-chosen sample of edges by full recomputation."""
    edges = [tuple(e) for e in g.edges.tolist()]
    rng = np.random.default_rng([seed & 0xFFFFFFFFFFFFFFFF, 0x6A7E])
    picks = sorted(rng.choice(len(edges), size=min(size, len(edges)), replace=False).tolist())
    sample, times = {}, []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KcesWarning)
        for i in picks:
            u, v = edges[i]
            start = time.perf_counter()
            sample[(u, v)] = kc_score_naive(g, labels, u, v)
            times.append(time.perf_counter() - start)
    return Reference(g, frozenset(edges), sample, tuple(times))


def parse_scores(tsv: bytes) -> dict:
    """Map each (u, v) row of a score TSV to (score, method)."""
    lines = tsv.decode("utf-8").splitlines()
    if not lines or lines[0] != HEADER:
        raise GateError(f"score table header is {lines[:1]!r}, expected {HEADER!r}")
    rows = {}
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 4:
            raise GateError(f"score table line {line_no} has {len(parts)} columns")
        try:
            u, v, score, method = int(parts[0]), int(parts[1]), float(parts[2]), parts[3]
        except ValueError:
            raise GateError(f"score table line {line_no} is malformed: {line!r}") from None
        if (u, v) in rows:
            raise GateError(f"edge ({u}, {v}) appears twice in the score table")
        rows[(u, v)] = (score, method)
    return rows


def check(tsv: bytes, ref: Reference) -> list[str]:
    """Every way ``tsv`` fails the gate; empty when it passes."""
    try:
        rows = parse_scores(tsv)
    except GateError as exc:
        return [str(exc)]
    errors = []
    missing = ref.edges - rows.keys()
    extra = rows.keys() - ref.edges
    if missing:
        errors.append(f"{len(missing)} edge(s) missing, first {min(missing)}")
    if extra:
        errors.append(f"{len(extra)} edge(s) not in the graph, first {min(extra)}")
    bad = sorted(e for e, (score, _) in rows.items() if not (math.isfinite(score) and score >= 0.0))
    if bad:
        errors.append(f"{len(bad)} score(s) not finite and >= 0, first {bad[0]}: {rows[bad[0]][0]!r}")
    for edge, want in ref.sample.items():
        if edge not in rows:
            continue
        got = rows[edge][0]
        if not abs(got - want) <= max(REL_TOL * abs(want), ABS_TOL):
            errors.append(f"edge {edge} scores {got!r}, kc_score_naive gives {want!r}")
    return errors
