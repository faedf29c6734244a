"""Per-edge kernel complexity (KC) scores.

The KC score of edge (u, v) is |GKC(H) - GKC(H_without_uv)|: how much the
label-norm complexity moves when the edge is deleted.  ``kc_scores_all``
scores every edge of a graph into a ``KcScoreTable``; ``kc_score_naive``
recomputes one edge from scratch as the reference.

Two routes compute a score.  Both rest on one fact: a single removal only
touches the aggregated rows of the closed neighborhoods of u and v.  The
naive route re-aggregates the removed graph and rebuilds its Gram matrix
from the base's, mapping only those rows' columns through the kernel,
then refactors it under the base's ridge; the result has the bits of a
full rebuild, which ``kc_score_naive`` makes.  The fast route notes that
the Gram update has low rank, so the new quadratic form follows from the
Woodbury identity against the base factorization, with no
refactorization.

The fast route works from the inverse Cholesky factor L^-1 of the base
Gram matrix H = L L^T, so H^-1 = L^-T L^-1 is never formed.  It walks
``g.edges`` in consecutive blocks of ``BLOCK_EDGES``.  For each block it
replays the affected aggregated rows of every edge in one vectorized
pass over the sparse A + I, builds all changed kernel columns M with one
product and one kernel map, and overwrites M with Y = L^-1 M in one
triangular product.  Per edge, with V = [Y_e, L^-1[:, s]], the
capacitance matrix is C^-1 + V^T V, one symmetric rank-k product, and
it is factored, condition-estimated and solved with LAPACK's symmetric
indefinite routines.  The partition depends on the edge list alone, so
every score is the same however the caller is configured.  A ridged
base changes nothing here: its removals are scored under its ridge, so
the update is exact against the factor of H + ridge I.  An edge goes to
the naive route when its affected set covers half the graph, or when
its capacitance system is not finite, singular or ill-conditioned by
its 1-norm condition estimate.

Every BLAS and LAPACK call of the fast route goes through scipy, the
runtime the Gram rebuild uses (see ``kernel``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .errors import (
    ConfigError,
    DegenerateFeatureError,
    GraphFormatError,
    InputError,
    NumericError,
)
from .graph import (
    DEGENERATE_ROW_NORM,
    Graph,
    affected_nodes,
    aggregate_features,
    format_float,
    remove_edge,
)
from .kernel import GramPatcher, arccos_kernel, gkc, gram_matrix
from .pseudolabel import LabelMatrix

#: Fast path falls back to naive when the capacitance system's estimated
#: 1-norm condition number is worse than this.  On 400-node sparse SBM
#: graphs with twin rows (seeds 0-5, about 480 edges each), 434-470
#: estimates per seed fall below 1e3, 1-6 in [1e3, 1e4), none in
#: [1e4, 1e7) and 20-30 at 1.68e7 or above; every fast score that missed
#: the naive one by more than 1e-8 relative (by 1.1e-8 to 0.47) was among
#: those last.
CAPACITANCE_COND_LIMIT = 1e6
#: Edges per fast-route block.  At N=1000 on a 2-vCPU Xeon, blocks of 32
#: were no faster than 16 and held 13 MB more.
BLOCK_EDGES = 16
TSV_HEADER = "u\tv\tkc_score\tmethod"
#: The ``method`` column's route names, indexed by the ``fast`` flag.
ROUTES = ("naive", "fast")


@dataclass
class KcScoreTable:
    """KC scores for a full edge set, one row per edge.

    ``edges`` holds canonical (u, v) pairs, u < v, in the (u, v) order of
    ``Graph.edges``; the constructor puts the rows in that order.  Row i
    of ``scores``, of ``gkc_removed`` (the complexity once edge i is
    removed) and of ``fast`` (whether the edge took the fast route)
    belongs to edge i.  ``base_gkc`` is the unperturbed complexity.  A
    table read from a file has NaN for ``gkc_removed`` and ``base_gkc``.
    """

    edges: np.ndarray
    scores: np.ndarray
    gkc_removed: np.ndarray
    fast: np.ndarray
    base_gkc: float

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        order = np.lexsort((edges[:, 1], edges[:, 0]))
        self.edges = edges[order]
        self.scores = np.asarray(self.scores, dtype=np.float64)[order]
        self.gkc_removed = np.asarray(self.gkc_removed, dtype=np.float64)[order]
        self.fast = np.asarray(self.fast, dtype=bool)[order]

    def _high_first(self) -> np.ndarray:
        """Row order by score descending, ties by (u, v) ascending."""
        return np.lexsort((self.edges[:, 1], self.edges[:, 0], -self.scores))

    def sorted_edges(self) -> list:
        """Edges by score descending, ties by (u, v) ascending."""
        return [tuple(e) for e in self.edges[self._high_first()].tolist()]

    def write_tsv(self, path) -> None:
        """One ``u v kc_score method`` line per edge, in ``sorted_edges`` order."""
        order = self._high_first()
        rows = zip(
            self.edges[order].tolist(),
            self.scores[order].tolist(),
            self.fast[order].tolist(),
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(TSV_HEADER + "\n")
            for (u, v), score, fast in rows:
                fh.write(f"{u}\t{v}\t{format_float(score)}\t{ROUTES[fast]}\n")

    @classmethod
    def read_tsv(cls, path) -> "KcScoreTable":
        """Read a table written by ``write_tsv``.

        Line 1 must be the header, each edge may appear once (in either
        orientation; it is stored as (min, max)), each score must be
        finite and non-negative, and each method must be a route name.
        """
        edges, scores, fast, seen = [], [], [], set()
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
                # A NaN would sort first and be pruned first.
                if not 0.0 <= score < float("inf"):
                    raise GraphFormatError(
                        f"{path}: line {line_no}: kc_score must be finite "
                        f"and non-negative, got {parts[2]!r}"
                    )
                if parts[3] not in ROUTES:
                    raise GraphFormatError(
                        f"{path}: line {line_no}: method must be one of "
                        f"{', '.join(ROUTES)}, got {parts[3]!r}"
                    )
                edge = (min(u, v), max(u, v))
                if edge in seen:
                    raise GraphFormatError(
                        f"{path}: line {line_no}: repeated edge ({u}, {v})"
                    )
                seen.add(edge)
                edges.append(edge)
                scores.append(score)
                fast.append(parts[3] == "fast")
        return cls(
            edges=edges,
            scores=scores,
            gkc_removed=np.full(len(scores), np.nan),
            fast=fast,
            base_gkc=float("nan"),
        )


class _ScoreCache:
    """Base-graph quantities shared by all per-edge evaluations.

    Holds the labels, the aggregated rows, the Gram matrix with its
    ``patcher`` for the naive route's rebuilds, the inverse of its lower
    Cholesky factor ``l_inv`` (one triangular inversion, in place of an
    explicit H^-1), ``l_inv_y`` = L^-1 y, the solved label columns
    ``z`` = H^-1 y with ``quad`` = y^T z, and the pre-normalization
    neighbor sums needed to replay aggregation on the handful of rows an
    edge removal touches.  A ridged base is factored as H + ridge I and
    its removals are scored under the same ridge, so the fast-route
    fields come from that factor; they are None unless ``fast``.  A
    cache scores one edge at a time: the patcher rebuilds every removal
    in the same buffers.
    """

    def __init__(self, g: Graph, labels: LabelMatrix, fast: bool):
        if labels.columns.shape[0] != g.n_nodes:
            raise InputError("label matrix does not match graph size")
        self.labels = labels
        self.xt = aggregate_features(g)
        self.gm = gram_matrix(self.xt)
        self.patcher = GramPatcher(self.gm)
        self.base_gkc = gkc(self.gm, labels).value
        self.weights = 1.0 / np.sqrt(g.degrees.astype(np.float64))
        # Sum_{j in closed nbhd(k)} X_j / sqrt(d_j), recoverable from the
        # stored rows and their pre-normalization norms.
        self.neighbor_sums = (
            self.xt.matrix
            * self.xt.pre_norm_row_norms[:, None]
            / self.weights[:, None]
        )
        self.l_inv = self.l_inv_y = self.z = self.quad = None
        if fast:
            # The blocks read whole columns of l_inv, so its upper triangle
            # must be zero: the factor's is, and dtrtri leaves it alone.
            l_inv, info = lapack.dtrtri(self.gm.chol_lower, lower=1)
            if info != 0:
                raise NumericError("Cholesky factor of the Gram matrix is singular")
            l_inv.setflags(write=False)
            self.l_inv = l_inv
            self.l_inv_y = blas.dtrmm(1.0, l_inv, labels.columns, lower=1)
            self.z = self.gm.solve_factored(labels.columns)
            self.quad = np.einsum("nc,nc->c", labels.columns, self.z)


def _removed_rows(g: Graph, u: int, v: int):
    """Aggregated rows of g without edge (u, v)."""
    try:
        return aggregate_features(remove_edge(g, u, v))
    except DegenerateFeatureError as exc:
        raise DegenerateFeatureError(
            f"removing edge ({u}, {v}) degenerates aggregation: {exc}"
        ) from None


def _gkc_removed_naive(cache: _ScoreCache, g: Graph, u: int, v: int) -> float:
    # Only the rows of the closed neighborhoods of u and v change.
    gm = cache.patcher.gram(_removed_rows(g, u, v), affected_nodes(g, u, v))
    return gkc(gm, cache.labels).value


def kc_score_naive(g: Graph, labels: LabelMatrix, u: int, v: int) -> float:
    """Reference score: full recompute of the edge-removed complexity.

    The removal is factored under the ridge the base graph got, as in
    ``kc_scores_all``.
    """
    base = gram_matrix(aggregate_features(g))
    removed = gram_matrix(_removed_rows(g, u, v), base.ridge)
    return abs(gkc(base, labels).value - gkc(removed, labels).value)


def _replay_rows(cache: _ScoreCache, g: Graph, us, vs, hit):
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


def _score_block(cache: _ScoreCache, g: Graph, block, gkc_removed, fast):
    """Fill ``gkc_removed`` and ``fast`` for the edges of one block, in order."""
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
    small = 2 * np.diff(hit.indptr) < n
    hit = hit[small]
    us, vs = us[small], vs[small]
    bounds = hit.indptr.tolist()
    s_all = hit.indices

    # (a) row replay, (b) kernel columns, (c) one triangular product with
    # L^-1.  Both dgemm operands are Fortran-ordered views of C-ordered
    # arrays, so neither is copied, and the product comes out Fortran-ordered.
    rows, norms = _replay_rows(cache, g, us, vs, hit)
    dots = blas.dgemm(1.0, cache.xt.matrix.T, rows.T, trans_a=1)
    spans = list(zip(bounds[:-1], bounds[1:]))
    for a, b in spans:
        tri = blas.dsyrk(1.0, rows[a:b].T, trans=1, lower=1)
        inner = tri + tri.T
        np.fill_diagonal(inner, 1.0)
        dots[s_all[a:b], a:b] = inner
    m_all = arccos_kernel(dots)
    # h is exactly symmetric, so its rows are the columns, read contiguously.
    m_all -= cache.gm.h[s_all].T
    # The product overwrites M, so each edge's m[s] is kept first.  It is
    # exactly symmetric: the inner products above are mirrored, the kernel
    # map is entrywise and h is exactly symmetric.
    m_s_all = [m_all[s_all[a:b], a:b] for a, b in spans]
    y_all = blas.dtrmm(1.0, cache.l_inv, m_all, lower=1, overwrite_b=1)
    mt_z_all = blas.dgemm(1.0, y_all, cache.l_inv_y, trans_a=1)

    # (d) per-edge capacitance: Delta H = W C W^T with W = [m, P_s] and
    # C^{-1} = [[b, I], [I, 0]], b = m[s].  With H^-1 = L^-T L^-1,
    # W^T H^-1 W = V^T V for V = L^-1 W = [Y_e, L^-1[:, s]], so one syrk
    # gives m^T H^-1 m, (H^-1 m)[s] and H^-1[s, s] at once.
    j = 0
    for pos in range(nb):
        u, v = int(block[pos, 0]), int(block[pos, 1])
        if small[pos]:
            a, b = spans[j]
            m_s = m_s_all[j]
            j += 1
            s = s_all[a:b]
            bad = norms[a:b] < DEGENERATE_ROW_NORM
            if bad.any():
                raise DegenerateFeatureError(
                    f"removing edge ({u}, {v}) degenerates aggregation "
                    f"at node {int(s[np.argmax(bad)])}"
                )
            ns = b - a
            vv = np.empty((n, 2 * ns), order="F")
            vv[:, :ns] = y_all[:, a:b]
            vv[:, ns:] = cache.l_inv[:, s]
            # syrk fills the lower triangle of a zeroed array, so the
            # mirror below doubles nothing but the diagonal.
            low = blas.dsyrk(1.0, vv, trans=1, lower=1)
            low[ns:, :ns] += np.eye(ns)
            cap = low + low.T
            np.fill_diagonal(cap, np.diagonal(low))
            cap[:ns, :ns] += m_s
            wt_z = np.vstack([mt_z_all[a:b], cache.z[s, :]])
            solved = _solve_capacitance(cap, wt_z)
            if solved is not None:
                correction = np.einsum("kc,kc->c", wt_z, solved)
                gkc_removed[pos] = 2.0 * (cache.quad - correction).sum() / n
                fast[pos] = True
                continue
        gkc_removed[pos] = _gkc_removed_naive(cache, g, u, v)


def _solve_capacitance(cap, rhs):
    """Solve the symmetric system ``cap x = rhs`` by LAPACK's ``?sytrf``.

    ``cap`` holds the full matrix: LAPACK reads its lower triangle, and
    the 1-norm that ``?sycon`` needs is taken over all of it.  Returns
    None when cap is not finite, is exactly singular, or its 1-norm
    condition estimate exceeds ``CAPACITANCE_COND_LIMIT``.
    """
    if not np.isfinite(cap).all():
        return None
    anorm = float(np.abs(cap).sum(axis=0).max())
    ldu, ipiv, info = lapack.dsytrf(cap, lower=1)
    if info != 0:
        return None
    rcond, info = lapack.dsycon(ldu, ipiv, anorm, lower=1)
    # Written so that a NaN estimate falls back too.
    if info != 0 or not rcond * CAPACITANCE_COND_LIMIT >= 1.0:
        return None
    x, info = lapack.dsytrs(ldu, ipiv, rhs, lower=1)
    return x if info == 0 else None


def kc_scores_all(g: Graph, labels: LabelMatrix, method: str = "fast") -> KcScoreTable:
    """Score every edge of g; the table's rows follow ``g.edges``.

    ``method`` picks the route.  With 'fast', an edge the update cannot
    handle takes the naive route, and its ``fast`` flag is False.
    """
    if method not in ROUTES:
        raise ConfigError(f"unknown scoring method {method!r}")
    if g.n_edges == 0:
        raise ConfigError("cannot score a graph with no edges")

    cache = _ScoreCache(g, labels, fast=method == "fast")
    gkc_removed = np.empty(g.n_edges)
    fast = np.zeros(g.n_edges, dtype=bool)
    if method == "fast":
        for start in range(0, g.n_edges, BLOCK_EDGES):
            rows = slice(start, start + BLOCK_EDGES)
            _score_block(cache, g, g.edges[rows], gkc_removed[rows], fast[rows])
    else:
        for i, (u, v) in enumerate(g.edges.tolist()):
            gkc_removed[i] = _gkc_removed_naive(cache, g, u, v)
    return KcScoreTable(
        edges=g.edges,
        scores=np.abs(cache.base_gkc - gkc_removed),
        gkc_removed=gkc_removed,
        fast=fast,
        base_gkc=cache.base_gkc,
    )
