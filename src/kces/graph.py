"""Node-attributed undirected graphs, file I/O, and feature aggregation.

A graph couples an N x F real feature matrix with an edge set stored once
per undirected pair (u, v), u < v.  Self-loops are never stored explicitly
but every node contributes one to its own degree, so an isolated node has
degree 1.  Instances are immutable after construction; structural edits
return new graphs that share the (read-only) feature matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    DegenerateFeatureError,
    EdgeRangeError,
    GraphFormatError,
    InputError,
    KcesWarning,
    MissingEdgeError,
    SelfLoopError,
)

#: Aggregated rows with pre-normalization norm below this are degenerate.
DEGENERATE_ROW_NORM = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    if a.flags.writeable or not a.flags.c_contiguous:
        a = a.copy(order="C")
        a.setflags(write=False)
    return a


class Graph:
    """Immutable undirected graph with node features and implicit self-loops.

    Parameters
    ----------
    features : (N, F) array of finite float64, one row per node.
    edges : iterable of (u, v) pairs; any orientation, no duplicates,
        no self-loops.  Stored canonically with u < v, sorted.
    labels : optional length-N integer vector of ground-truth classes.
    """

    __slots__ = (
        "features",
        "edges",
        "degrees",
        "labels",
        "_edge_set",
        "_neighbors",
        "_adjacency",
    )

    def __init__(self, features, edges, labels=None):
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] == 0 or feats.shape[1] == 0:
            raise InputError("features must be a nonempty N x F matrix")
        if not np.isfinite(feats).all():
            i, j = np.argwhere(~np.isfinite(feats))[0]
            raise InputError(f"feature ({i}, {j}) is not finite")
        self.features = _readonly(feats)
        n = feats.shape[0]

        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = np.empty((0, 2), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise InputError("edges must be an (E, 2) array of node pairs")
        if e.shape[0]:
            if e.min() < 0 or e.max() >= n:
                bad = e[((e < 0) | (e >= n)).any(axis=1)][0]
                raise EdgeRangeError(
                    f"edge ({bad[0]}, {bad[1]}) out of range for {n} nodes"
                )
            if (e[:, 0] == e[:, 1]).any():
                u = int(e[e[:, 0] == e[:, 1]][0, 0])
                raise SelfLoopError(f"self-loop ({u}, {u}) is not allowed")
            lo = e.min(axis=1)
            hi = e.max(axis=1)
            order = np.lexsort((hi, lo))
            e = np.column_stack([lo[order], hi[order]])
            dup = (np.diff(e[:, 0]) == 0) & (np.diff(e[:, 1]) == 0)
            if dup.any():
                u, v = e[1:][dup][0]
                raise InputError(f"duplicate edge ({u}, {v})")
        self.edges = _readonly(e)

        deg = np.ones(n, dtype=np.int64)
        deg += np.bincount(e[:, 0], minlength=n)
        deg += np.bincount(e[:, 1], minlength=n)
        self.degrees = _readonly(deg)

        if labels is None:
            self.labels = None
        else:
            lab = np.asarray(labels, dtype=np.int64)
            if lab.shape != (n,):
                raise InputError(f"labels must have length {n}")
            self.labels = _readonly(lab)

        self._edge_set = None
        self._neighbors = None
        self._adjacency = None

    # -- basic queries ---------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def edge_set(self) -> frozenset:
        if self._edge_set is None:
            self._edge_set = frozenset(map(tuple, self.edges.tolist()))
        return self._edge_set

    def has_edge(self, u: int, v: int) -> bool:
        a, b = (u, v) if u < v else (v, u)
        return (a, b) in self.edge_set()

    def neighbors(self, i: int) -> np.ndarray:
        """Adjacent nodes of i, sorted, self excluded."""
        if self._neighbors is None:
            lists = [[] for _ in range(self.n_nodes)]
            for u, v in self.edges.tolist():
                lists[u].append(v)
                lists[v].append(u)
            self._neighbors = tuple(
                np.array(sorted(l), dtype=np.int64) for l in lists
            )
        return self._neighbors[i]

    def adjacency_with_self_loops(self) -> sp.csr_matrix:
        """Sparse A + I over the stored edges."""
        if self._adjacency is None:
            n = self.n_nodes
            u, v = self.edges[:, 0], self.edges[:, 1]
            rows = np.concatenate([u, v, np.arange(n)])
            cols = np.concatenate([v, u, np.arange(n)])
            data = np.ones(rows.shape[0], dtype=np.float64)
            self._adjacency = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        return self._adjacency

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        if (self.labels is None) != (other.labels is None):
            return False
        return (
            np.array_equal(self.features, other.features)
            and np.array_equal(self.edges, other.edges)
            and (self.labels is None or np.array_equal(self.labels, other.labels))
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"Graph(n_nodes={self.n_nodes}, n_features={self.n_features}, "
            f"n_edges={self.n_edges})"
        )


@dataclass(frozen=True)
class AggregatedFeatures:
    """Degree-normalized neighborhood averages, rows scaled to unit norm.

    ``matrix`` holds the unit-norm rows; ``pre_norm_row_norms`` the row
    norms observed before the final normalization.
    """

    matrix: np.ndarray
    pre_norm_row_norms: np.ndarray

    @classmethod
    def from_unit_rows(cls, rows) -> "AggregatedFeatures":
        """Wrap an already-unit-norm matrix (used for synthetic inputs)."""
        m = np.asarray(rows, dtype=np.float64)
        norms = np.linalg.norm(m, axis=1)
        if (norms < DEGENERATE_ROW_NORM).any():
            i = int(np.argmax(norms < DEGENERATE_ROW_NORM))
            raise DegenerateFeatureError(f"row {i} has vanishing norm")
        return cls(
            matrix=_readonly(m / norms[:, None]),
            pre_norm_row_norms=_readonly(norms),
        )


def aggregate_features(g: Graph) -> AggregatedFeatures:
    """Average each node's features over its closed neighborhood.

    Computes D^{-1/2} (A + I) D^{-1/2} X with D the self-loop-inclusive
    degree matrix, then rescales every row to unit 2-norm.  A row whose
    pre-normalization norm falls below 1e-10 is a hard error: the kernel
    downstream is undefined on zero rows.
    """
    w = 1.0 / np.sqrt(g.degrees.astype(np.float64))
    raw = w[:, None] * (g.adjacency_with_self_loops() @ (w[:, None] * g.features))
    norms = np.linalg.norm(raw, axis=1)
    if (norms < DEGENERATE_ROW_NORM).any():
        i = int(np.argmax(norms < DEGENERATE_ROW_NORM))
        raise DegenerateFeatureError(
            f"aggregated features vanish at node {i} (norm {norms[i]:.3e})"
        )
    return AggregatedFeatures(
        matrix=_readonly(raw / norms[:, None]),
        pre_norm_row_norms=_readonly(norms),
    )


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    """Return a copy of g without edge (u, v); features are shared."""
    if u == v:
        raise SelfLoopError(f"({u}, {v}) is a self-loop")
    a, b = (u, v) if u < v else (v, u)
    if not g.has_edge(a, b):
        raise MissingEdgeError(f"edge ({a}, {b}) not in graph")
    keep = ~((g.edges[:, 0] == a) & (g.edges[:, 1] == b))
    return Graph(g.features, g.edges[keep], labels=g.labels)


def with_edges(g: Graph, edges) -> Graph:
    """Return a graph over g's nodes with a replaced edge set."""
    return Graph(g.features, edges, labels=g.labels)


def affected_nodes(g: Graph, u: int, v: int) -> np.ndarray:
    """Nodes whose aggregated rows can change when (u, v) is removed.

    These are the closed neighborhoods of both endpoints: every other
    row's neighbor multiset and degree weights are untouched by the
    removal, so it is bitwise identical afterwards.
    """
    a, b = (u, v) if u < v else (v, u)
    if not g.has_edge(a, b):
        raise MissingEdgeError(f"edge ({a}, {b}) not in graph")
    s = np.union1d(g.neighbors(a), g.neighbors(b))
    return np.union1d(s, np.array([a, b], dtype=np.int64))


# -- file formats --------------------------------------------------------


def _parse_int(token: str, path, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise GraphFormatError(
            f"{path}: line {line_no}: expected integer, got {token!r}"
        ) from None


def load_graph(edge_path, feature_path, label_path=None) -> Graph:
    """Load a graph from an edge TSV, a feature CSV, and optional labels.

    Edge file: one ``u<TAB>v`` pair per line, 0-indexed; ``#`` starts a
    comment line; blank lines are skipped.  Duplicate edges (in either
    orientation) are dropped and counted in a single warning; explicit
    self-loops are likewise dropped with a warning.  Feature file:
    headerless CSV of finite floats, one row per node; node count is inferred
    from it.  Label file: one integer per line, exactly N lines.
    """
    features = []
    width = None
    with open(feature_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise GraphFormatError(
                    f"{feature_path}: line {line_no}: expected {width} columns, "
                    f"got {len(cells)}"
                )
            row = []
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    raise GraphFormatError(
                        f"{feature_path}: line {line_no}: non-numeric value "
                        f"{cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise GraphFormatError(
                        f"{feature_path}: line {line_no}: non-finite value "
                        f"{cell.strip()!r}"
                    )
                row.append(value)
            features.append(row)
    if not features:
        raise GraphFormatError(f"{feature_path}: no feature rows")
    x = np.array(features, dtype=np.float64)
    n = x.shape[0]

    seen = set()
    edges = []
    n_dup = 0
    n_loops = 0
    with open(edge_path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(
                    f"{edge_path}: line {line_no}: expected 'u<TAB>v', got {line!r}"
                )
            u = _parse_int(parts[0], edge_path, line_no)
            v = _parse_int(parts[1], edge_path, line_no)
            if u < 0 or v < 0 or u >= n or v >= n:
                raise EdgeRangeError(
                    f"{edge_path}: line {line_no}: edge ({u}, {v}) out of range "
                    f"for {n} nodes"
                )
            if u == v:
                n_loops += 1
                continue
            key = (u, v) if u < v else (v, u)
            if key in seen:
                n_dup += 1
                continue
            seen.add(key)
            edges.append(key)
    if n_loops:
        warnings.warn(
            f"{edge_path}: dropped {n_loops} self-loop(s)", KcesWarning, stacklevel=2
        )
    if n_dup:
        warnings.warn(
            f"{edge_path}: deduplicated {n_dup} repeated edge(s)",
            KcesWarning,
            stacklevel=2,
        )

    labels = None
    if label_path is not None:
        labels = []
        with open(label_path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                labels.append(_parse_int(line, label_path, line_no))
        if len(labels) != n:
            raise InputError(
                f"{label_path}: expected {n} labels, found {len(labels)}"
            )

    return Graph(x, edges, labels=labels)


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips the float64 exactly."""
    return repr(float(x))


def write_edge_tsv(g: Graph, path) -> None:
    """Write the canonical edge list, one 'u<TAB>v' per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges.tolist():
            fh.write(f"{u}\t{v}\n")


def write_features_csv(g: Graph, path) -> None:
    """Write the feature matrix as headerless CSV with round-trip floats."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in g.features:
            fh.write(",".join(format_float(x) for x in row) + "\n")


def write_labels(labels, path) -> None:
    """Write integer labels, one per line."""
    lab = np.asarray(labels, dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        for value in lab.tolist():
            fh.write(f"{value}\n")
