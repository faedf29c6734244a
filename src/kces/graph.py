"""Node-attributed undirected graphs, file I/O, and feature aggregation.

A graph couples an N x F real feature matrix with an edge set stored once
per undirected pair (u, v), u < v.  Self-loops are never stored explicitly
but every node contributes one to its own degree, so an isolated node has
degree 1.  Instances are immutable after construction; structural edits
return new graphs that share the (read-only) feature matrix.

A graph's aggregated rows are a plain read-only N x F array.  Every row
set is scaled to unit norm, and a vanishing or overflowing row refused,
in ``unit_rows``: the aggregation's, K-means' and the scoring cache's.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

from .errors import InputError, KcesWarning, NumericError

#: A row whose norm before scaling to unit norm is below this is degenerate.
DEGENERATE_ROW_NORM = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    if a.flags.writeable or not a.flags.c_contiguous:
        a = a.copy(order="C")
        a.setflags(write=False)
    return a


def whole_ids(values, what: str) -> np.ndarray:
    """``values`` as an int64 array: node ids or class labels.

    Values must be bool, integer or float, in a regular array; any other
    dtype (text, None) or a ragged nesting is an InputError.  A cast alone
    would truncate 1.9 to 1 and wrap 1e30, so a float that is not a whole
    number below 2**63 in magnitude is an InputError naming the first
    such value.
    """
    try:
        a = np.asarray(values)
    except ValueError:
        raise InputError(f"{what}: values of ragged shape are not an array") from None
    if a.dtype.kind not in "biuf":
        raise InputError(f"{what}: values of dtype {a.dtype} are not whole numbers")
    if a.dtype.kind == "f":
        bad = ~(np.isfinite(a) & (a == np.trunc(a)) & (np.abs(a) < 2.0**63))
        if bad.any():
            raise InputError(f"{what}: {float(a[bad][0])!r} is not a whole number in int64 range")
    return np.asarray(a, dtype=np.int64)


def class_labels(values, n: int | None = None) -> np.ndarray:
    """``values`` as a read-only int64 vector of class labels.

    This is the one rule for a labeling, whether it comes from a file,
    a caller or K-means: whole numbers (see ``whole_ids``) in a vector,
    of length ``n`` when ``n`` is given, none of them negative.
    """
    lab = whole_ids(values, "labels")
    if lab.ndim != 1:
        raise InputError(f"labels must be a vector, got shape {lab.shape}")
    if n is not None and lab.shape[0] != n:
        raise InputError(f"labels must have length {n}")
    if lab.size and lab.min() < 0:
        raise InputError("labels must be non-negative")
    return _readonly(lab)


class Graph:
    """Immutable undirected graph with node features and implicit self-loops.

    Parameters
    ----------
    features : (N, F) array of finite float64, one row per node.
    edges : iterable of (u, v) pairs; any orientation, no duplicates,
        no self-loops.  Stored canonically with u < v, sorted.
    labels : optional length-N vector of non-negative integer classes,
        held as ``class_labels`` returns it.
    """

    __slots__ = (
        "features",
        "edges",
        "degrees",
        "labels",
        "_edge_set",
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

        e = whole_ids(edges, "edges")
        if e.size == 0:
            e = np.empty((0, 2), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise InputError("edges must be an (E, 2) array of node pairs")
        if e.shape[0]:
            if e.min() < 0 or e.max() >= n:
                bad = e[((e < 0) | (e >= n)).any(axis=1)][0]
                raise InputError(
                    f"edge ({bad[0]}, {bad[1]}) out of range for {n} nodes"
                )
            if (e[:, 0] == e[:, 1]).any():
                u = int(e[e[:, 0] == e[:, 1]][0, 0])
                raise InputError(f"self-loop ({u}, {u}) is not allowed")
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

        self.labels = None if labels is None else class_labels(labels, n)

        self._edge_set = None
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

    def _closed_neighborhood(self, i: int) -> np.ndarray:
        """Row i of A + I: i and its neighbors, sorted, as int64."""
        adj = self.adjacency_with_self_loops()
        return adj.indices[adj.indptr[i] : adj.indptr[i + 1]].astype(np.int64)

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


def unit_rows(raw: np.ndarray, what: str):
    """The rows of ``raw`` scaled to unit 2-norm, C-ordered, and their
    norms, both read-only.  An overflowing norm is an InputError (the row
    would divide down to zeros or NaNs); one below ``DEGENERATE_ROW_NORM``
    is a NumericError saying ``what`` vanish, as the kernel is undefined
    on zero rows."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(raw, axis=1)
    if not np.isfinite(norms).all():
        i = int(np.argmax(~np.isfinite(norms)))
        raise InputError(f"feature sums overflow at node {i}")
    if (norms < DEGENERATE_ROW_NORM).any():
        i = int(np.argmax(norms < DEGENERATE_ROW_NORM))
        raise NumericError(f"{what} vanish at node {i} (norm {norms[i]:.3e})")
    rows = np.divide(raw, norms[:, None], order="C")
    rows.setflags(write=False)
    norms.setflags(write=False)
    return rows, norms


def _aggregate(g: Graph):
    """``aggregate_features`` and the rows' norms before scaling."""
    w = 1.0 / np.sqrt(g.degrees.astype(np.float64))[:, None]
    raw = w * (g.adjacency_with_self_loops() @ (w * g.features))
    return unit_rows(raw, "aggregated features")


def aggregate_features(g: Graph) -> np.ndarray:
    """Average each node's features over its closed neighborhood.

    Computes D^{-1/2} (A + I) D^{-1/2} X with D the self-loop-inclusive
    degree matrix, each row scaled to unit 2-norm by ``unit_rows``: a
    read-only, C-ordered N x F float64 array.
    """
    return _aggregate(g)[0]


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    """Return a copy of g without edge (u, v); features are shared."""
    if u == v:
        raise InputError(f"({u}, {v}) is a self-loop")
    a, b = (u, v) if u < v else (v, u)
    if not g.has_edge(a, b):
        raise InputError(f"edge ({a}, {b}) not in graph")
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
        raise InputError(f"edge ({a}, {b}) not in graph")
    return np.union1d(g._closed_neighborhood(a), g._closed_neighborhood(b))


# -- file formats --------------------------------------------------------


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading.  A byte sequence that is not
    UTF-8 is an InputError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_int(token: str, path, line_no: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise InputError(
            f"{path}: line {line_no}: expected integer, got {token!r}"
        ) from None


def load_graph(edge_path, feature_path, label_path=None) -> Graph:
    """Load a graph from an edge TSV, a feature CSV, and optional labels.

    Edge file: one ``u<TAB>v`` pair per line, 0-indexed; ``#`` starts a
    comment line; blank lines are skipped.  Duplicate edges (in either
    orientation) are dropped and counted in a single warning; explicit
    self-loops are likewise dropped with a warning.  Feature file:
    headerless CSV of finite floats, one row per node; node count is inferred
    from it.  Label file: one non-negative integer class per line, exactly
    N lines.
    """
    features = []
    width = None
    with open_text(feature_path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise InputError(
                    f"{feature_path}: line {line_no}: expected {width} columns, "
                    f"got {len(cells)}"
                )
            row = []
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    raise InputError(
                        f"{feature_path}: line {line_no}: non-numeric value "
                        f"{cell.strip()!r}"
                    ) from None
                if not math.isfinite(value):
                    raise InputError(
                        f"{feature_path}: line {line_no}: non-finite value "
                        f"{cell.strip()!r}"
                    )
                row.append(value)
            features.append(row)
    if not features:
        raise InputError(f"{feature_path}: no feature rows")
    x = np.array(features, dtype=np.float64)
    n = x.shape[0]

    seen = set()
    edges = []
    n_dup = 0
    n_loops = 0
    with open_text(edge_path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise InputError(
                    f"{edge_path}: line {line_no}: expected 'u<TAB>v', got {line!r}"
                )
            u = _parse_int(parts[0], edge_path, line_no)
            v = _parse_int(parts[1], edge_path, line_no)
            if u < 0 or v < 0 or u >= n or v >= n:
                raise InputError(
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
        with open_text(label_path) as fh:
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


def seed_key(*parts) -> list[int]:
    """Integer parts as the unsigned 64-bit words numpy seeds from, so
    that a negative seed picks a stream rather than raising."""
    return [int(p) & 0xFFFFFFFFFFFFFFFF for p in parts]


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
    """Write a vector of class labels, one per line; see ``class_labels``."""
    lab = class_labels(labels)
    with open(path, "w", encoding="utf-8") as fh:
        for value in lab.tolist():
            fh.write(f"{value}\n")
