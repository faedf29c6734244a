"""Per-edge kernel complexity (KC) scores.

The KC score of edge (u, v) is |GKC(H) - GKC(H_without_uv)|: how much the
label-norm complexity moves when the edge is deleted.  Two routes compute
it.  The naive route rebuilds aggregation, Gram matrix, and GKC from
scratch per edge and is the reference.  The fast route exploits that a
single removal only touches the aggregated rows of the closed
neighborhoods of u and v, so the Gram update has low rank and the new
quadratic form follows from the Woodbury identity against the cached
base inverse, with no refactorization.

The fast route walks ``g.edges`` in consecutive blocks of
``BLOCK_EDGES``.  For each block it replays the affected aggregated rows
of every edge in one vectorized pass over the sparse A + I, builds all
changed kernel columns with one product and one kernel map, and
multiplies them by the cached inverse in one BLAS-3 call; only the small
capacitance systems are built and solved edge by edge.  The partition
depends on the edge list alone, never on a thread count, so every score
is the same however the caller is configured.  An edge goes to the naive
route when the base Gram matrix needed a ridge, when its affected set
covers half the graph, or when its capacitance system is not finite or
is ill-conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConfigError,
    DegenerateFeatureError,
    GraphFormatError,
    InputError,
    MissingEdgeError,
)
from .graph import (
    DEGENERATE_ROW_NORM,
    Graph,
    aggregate_features,
    format_float,
    remove_edge,
)
from .kernel import arccos_kernel, gkc, gram_matrix
from .pseudolabel import LabelMatrix

#: Fast path falls back to naive when the capacitance system is worse than this.
CAPACITANCE_COND_LIMIT = 1e12
#: Edges per fast-route block.  At N=1000 on a 2-vCPU Xeon, blocks of 32
#: were no faster than 16 and held 13 MB more.
BLOCK_EDGES = 16
TSV_HEADER = "u\tv\tkc_score\tmethod"


@dataclass(frozen=True)
class KcEntry:
    """Score of one edge plus the GKC of its removal and the path used."""

    score: float
    gkc_removed: float
    method: str


@dataclass
class KcScoreTable:
    """KC scores for a full edge set.

    ``entries`` maps canonical (u, v) pairs to entries; ``base_gkc`` is
    the unperturbed complexity; ``label_digest`` fingerprints the label
    matrix the scores were computed against (empty for tables re-read
    from disk, which do not carry enough to recompute it).
    """

    entries: dict
    base_gkc: float
    label_digest: str

    def sorted_edges(self) -> list:
        """Edges by score descending, ties by (u, v) ascending."""
        return sorted(
            self.entries, key=lambda e: (-self.entries[e].score, e[0], e[1])
        )

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(TSV_HEADER + "\n")
            for u, v in self.sorted_edges():
                entry = self.entries[(u, v)]
                fh.write(
                    f"{u}\t{v}\t{format_float(entry.score)}\t{entry.method}\n"
                )

    @classmethod
    def read_tsv(cls, path) -> "KcScoreTable":
        """Read a table written by ``write_tsv``.

        Line 1 must be the header, and each edge may appear once.
        """
        entries = {}
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            if header != TSV_HEADER:
                raise GraphFormatError(
                    f"{path}: line 1: expected header {TSV_HEADER!r}, got {header!r}"
                )
            for line_no, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise GraphFormatError(
                        f"{path}: line {line_no}: expected 4 columns"
                    )
                try:
                    u, v = int(parts[0]), int(parts[1])
                    score = float(parts[2])
                except ValueError:
                    raise GraphFormatError(
                        f"{path}: line {line_no}: unparseable row {line!r}"
                    ) from None
                if (u, v) in entries or (v, u) in entries:
                    raise GraphFormatError(
                        f"{path}: line {line_no}: repeated edge ({u}, {v})"
                    )
                entries[(u, v)] = KcEntry(
                    score=score, gkc_removed=float("nan"), method=parts[3]
                )
        return cls(entries=entries, base_gkc=float("nan"), label_digest="")


class ScoreCache:
    """Base-graph quantities shared by all fast per-edge evaluations.

    Holds the aggregated rows, the Gram matrix with its explicit inverse
    (one cached solve of the identity against the Cholesky factor), the
    solved label columns, and the pre-normalization neighbor sums needed
    to replay aggregation on the handful of rows an edge removal touches.
    ``fallbacks`` counts fast-route requests that took the naive route.
    """

    def __init__(self, g: Graph, labels: LabelMatrix):
        if labels.columns.shape[0] != g.n_nodes:
            raise InputError("label matrix does not match graph size")
        self.xt = aggregate_features(g)
        self.gm = gram_matrix(self.xt)
        self.base_gkc = gkc(self.gm, labels)
        self.label_digest = labels.digest()
        self.weights = 1.0 / np.sqrt(g.degrees.astype(np.float64))
        # Sum_{j in closed nbhd(k)} X_j / sqrt(d_j), recoverable from the
        # stored rows and their pre-normalization norms.
        self.neighbor_sums = (
            self.xt.matrix
            * self.xt.pre_norm_row_norms[:, None]
            / self.weights[:, None]
        )
        self.h_inv = None
        self.z = None
        self.quad = None
        if self.gm.ridge == 0.0:
            self.h_inv = self.gm.solve_factored(np.eye(g.n_nodes))
            self.z = self.gm.solve_factored(labels.columns)
            self.quad = np.einsum("nc,nc->c", labels.columns, self.z)
        self.columns = labels.columns
        self.fallbacks = 0


def build_score_cache(g: Graph, labels: LabelMatrix) -> ScoreCache:
    """Precompute everything the fast path reuses across edges."""
    return ScoreCache(g, labels)


def _gkc_removed_naive(g: Graph, labels: LabelMatrix, u: int, v: int) -> float:
    reduced = remove_edge(g, u, v)
    try:
        xt = aggregate_features(reduced)
    except DegenerateFeatureError as exc:
        raise DegenerateFeatureError(
            f"removing edge ({u}, {v}) degenerates aggregation: {exc}"
        ) from None
    return gkc(gram_matrix(xt), labels).value


def kc_score_naive(g: Graph, labels: LabelMatrix, u: int, v: int) -> float:
    """Reference score: full recompute of the edge-removed complexity."""
    base = gkc(gram_matrix(aggregate_features(g)), labels).value
    return abs(base - _gkc_removed_naive(g, labels, u, v))


def _replay_rows(cache: ScoreCache, g: Graph, us, vs, hit):
    """Aggregated rows of the affected sets after each edge's removal.

    ``hit`` holds one row per edge (u, v) of ``us``/``vs``: 1 on the
    closed neighborhood of u only, 2 on that of v only, 3 on both, with
    column indices sorted.  Returns the new unit rows, stacked edge after
    edge, and the pre-normalization norm of each.
    """
    x, w = g.features, cache.weights
    s = hit.indices
    owner = np.repeat(np.arange(hit.shape[0]), np.diff(hit.indptr))
    eu, ev = us[owner], vs[owner]
    wu_new = 1.0 / np.sqrt(g.degrees[us] - 1.0)
    wv_new = 1.0 / np.sqrt(g.degrees[vs] - 1.0)
    at_u, at_v = s == eu, s == ev

    # Node k gains du * x_u if it hangs off u and dv * x_v if it hangs off
    # v; an endpoint instead loses the other endpoint's term.
    coef_u = np.where(hit.data != 2.0, (wu_new - w[us])[owner], 0.0)
    coef_u[at_v] = -w[eu[at_v]]
    coef_v = np.where(hit.data >= 2.0, (wv_new - w[vs])[owner], 0.0)
    coef_v[at_u] = -w[ev[at_u]]
    sums = cache.neighbor_sums[s]
    sums += coef_u[:, None] * x[eu]
    sums += coef_v[:, None] * x[ev]

    w_new = w[s]
    w_new[at_u] = wu_new[owner[at_u]]
    w_new[at_v] = wv_new[owner[at_v]]
    raw = w_new[:, None] * sums
    norms = np.linalg.norm(raw, axis=1)
    # Rows of a degenerate removal are never used, but stay finite.
    return raw / np.maximum(norms, DEGENERATE_ROW_NORM)[:, None], norms


def _block_gkc_removed(cache: ScoreCache, g: Graph, labels: LabelMatrix, block):
    """Yield (GKC after removal, route) for each edge of one block, in order."""
    n, nb = g.n_nodes, block.shape[0]
    us, vs = block[:, 0], block[:, 1]
    # Row e of hit is 1 on N[u] only, 2 on N[v] only and 3 on both.
    pick = sp.csr_matrix(
        (
            np.repeat([1.0, 2.0], nb),
            (np.tile(np.arange(nb), 2), np.concatenate([us, vs])),
        ),
        shape=(nb, n),
    )
    hit = pick @ g.adjacency_with_self_loops()
    hit.sort_indices()
    fast = 2 * np.diff(hit.indptr) < n
    hit = hit[fast]
    us, vs = us[fast], vs[fast]
    bounds = hit.indptr.tolist()
    s_all = hit.indices

    # (a) row replay, (b) kernel columns, (c) one product with H^-1.
    rows, norms = _replay_rows(cache, g, us, vs, hit)
    dots = cache.xt.matrix @ rows.T
    for a, b in zip(bounds[:-1], bounds[1:]):
        new = rows[a:b]
        inner = new @ new.T
        inner = (inner + inner.T) / 2.0
        np.fill_diagonal(inner, 1.0)
        dots[s_all[a:b], a:b] = inner
    m_all = arccos_kernel(dots)
    # h is exactly symmetric, so its rows are the columns, read contiguously.
    m_all -= cache.gm.h[s_all].T
    h_inv_m_all = cache.h_inv @ m_all
    mt_z_all = m_all.T @ cache.z

    # (d) per-edge capacitance: Delta H = W C W^T with W = [m, P_s] and
    # C^{-1} = [[b, I], [I, 0]], b the symmetrized m[s]; m^T H^-1 P_s is
    # (H^-1 m)[s]^T because H^-1 is symmetric.
    j = 0
    for pos in range(nb):
        u, v = int(block[pos, 0]), int(block[pos, 1])
        if fast[pos]:
            a, b = bounds[j], bounds[j + 1]
            j += 1
            s = s_all[a:b]
            bad = norms[a:b] < DEGENERATE_ROW_NORM
            if bad.any():
                raise DegenerateFeatureError(
                    f"removing edge ({u}, {v}) degenerates aggregation "
                    f"at node {int(s[np.argmax(bad)])}"
                )
            ns = b - a
            m, h_inv_m = m_all[:, a:b], h_inv_m_all[:, a:b]
            m_s = m[s, :]
            cap = np.empty((2 * ns, 2 * ns))
            cap[:ns, :ns] = (m_s + m_s.T) / 2.0 + m.T @ h_inv_m
            cap[:ns, ns:] = np.eye(ns) + h_inv_m[s, :].T
            cap[ns:, :ns] = cap[:ns, ns:].T
            cap[ns:, ns:] = cache.h_inv[np.ix_(s, s)]
            if np.isfinite(cap).all() and np.linalg.cond(cap) <= CAPACITANCE_COND_LIMIT:
                wt_z = np.vstack([mt_z_all[a:b], cache.z[s, :]])
                correction = np.einsum("kc,kc->c", wt_z, np.linalg.solve(cap, wt_z))
                yield float(2.0 * (cache.quad - correction).sum() / n), "fast"
                continue
        cache.fallbacks += 1
        yield _gkc_removed_naive(g, labels, u, v), "naive"


def _gkc_removed(cache: ScoreCache, g: Graph, labels: LabelMatrix, edges, fast: bool):
    """Yield (GKC after removal, route) for each row of ``edges``, in order."""
    if not fast or cache.h_inv is None:
        for u, v in edges.tolist():
            if fast:
                cache.fallbacks += 1
            yield _gkc_removed_naive(g, labels, u, v), "naive"
        return
    for start in range(0, edges.shape[0], BLOCK_EDGES):
        yield from _block_gkc_removed(
            cache, g, labels, edges[start : start + BLOCK_EDGES]
        )


def kc_score_fast(
    g: Graph, cache: ScoreCache, labels: LabelMatrix, u: int, v: int
) -> float:
    """Low-rank update score; falls back to the naive route when the base
    needed a ridge, the affected set is too large, or the capacitance
    system is ill-conditioned."""
    if cache.label_digest != labels.digest():
        raise InputError("score cache was built for different labels")
    if not g.has_edge(u, v):
        raise MissingEdgeError(f"edge ({min(u, v)}, {max(u, v)}) not in graph")
    ((value, _),) = _gkc_removed(cache, g, labels, np.array([[u, v]]), fast=True)
    return abs(cache.base_gkc.value - value)


def kc_scores_all(
    g: Graph,
    labels: LabelMatrix,
    method: str = "fast",
    threads: int = 1,
) -> KcScoreTable:
    """Score every edge of g; returns a table keyed by canonical edge.

    ``method`` picks the route; fast-path edges that had to fall back are
    tagged 'naive' in the table.  ``threads`` is accepted so that stored
    command lines replay, and does not change how scoring runs.
    """
    if method not in ("naive", "fast"):
        raise ConfigError(f"unknown scoring method {method!r}")
    if g.n_edges == 0:
        raise ConfigError("cannot score a graph with no edges")

    cache = build_score_cache(g, labels)
    base = cache.base_gkc.value
    routes = _gkc_removed(cache, g, labels, g.edges, fast=method == "fast")
    entries = {
        (u, v): KcEntry(abs(base - value), value, route)
        for (u, v), (value, route) in zip(g.edges.tolist(), routes)
    }
    return KcScoreTable(
        entries=entries,
        base_gkc=base,
        label_digest=cache.label_digest,
    )
