"""Per-edge kernel complexity (KC) scores.

The KC score of edge (u, v) is |GKC(H) - GKC(H_without_uv)|: how much the
label-norm complexity moves when the edge is deleted.  ``kc_scores_all``
scores every edge of a graph into a ``KcScoreTable``; ``kc_score_naive``
recomputes one edge from scratch as the reference.  ``kc_scores_all``
is the one-set case of a private routine that scores a graph under
several label sets at once, as the sweep does for its seeds: the labels
enter only through a few solves, so the Gram matrix, the blocks and each
edge's route and factorization are built once per graph.  That routine
raises the first error any set meets.

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
Gram matrix H = L L^T, so H^-1 = L^-T L^-1 is never formed.  Removing
edge e changes the rows and columns s of H:
H_e = H + M_e P_s^T + P_s M_e^T - P_s b P_s^T, where the N x |s| matrix
M_e holds the change of those columns and b = M_e[s, :].  A node k in
N(u) but not N[v] gets a new row that depends on (k, u) alone, and
likewise for N(v) without N[u].  So the fast route maps every new row
against the *base* rows, M~_e, whose column for such a k is the same
for every edge at u; only the edge's own rows s differ, and
M_e = M~_e + P_s (b - b~) with b~ = M~_e[s, :].  Substituting, Delta H =
W~ C~ W~^T with W~ = [M~_e, P_s] and C~^-1 = [[b~ + b~^T - b, I], [I, 0]],
and with z = H^-1 y the Woodbury identity gives

    y^T H_e^-1 y = y^T z - (W~^T z)^T (C~^-1 + W~^T H^-1 W~)^-1 (W~^T z),

where W~^T z = [M~_e^T z; z[s]].  The route walks ``g.edges`` in
consecutive blocks of ``BLOCK_EDGES``.  A block needs one kernel column
per distinct key: (k, u), (k, v), or an endpoint or common neighbor of
one edge; a run keys its edges once, into one plan of every edge's
rows and every block's columns, and each block reads its slice of it
in place.  A pool keeps the columns Y~ = L^-1 M~, with their M~^T z,
across blocks, and one walk over the plan fixes every slot and move
before scoring starts: a shared key's column stays until its last
use, and when more than N columns would stay between blocks, those
whose next use is farthest ahead are dropped first.  Each block
replays the new row of every key, and builds the columns the pool
lacks, in slots after the kept ones, with one product, one kernel
map and one triangular product.  Per edge, b and b~ come from the
inner products of its new rows and of its base rows against them, and
with V = [Y~_e, L^-1[:, s]] the capacitance matrix is C~^-1 + V^T V,
one symmetric rank-k product; it is factored, condition-estimated and
solved with LAPACK's symmetric indefinite routines.

A run's blocks are cut into a fixed number of contiguous segments,
each with a column pool of its own, and a process pool of forked
workers scores the segments side by side; a run of one block is one
segment.  A run holds scipy's OpenBLAS to one thread throughout,
in-process and in the workers.  The partition, the segments and the
column pool's slots depend on the edge list alone, so a score's bits do
not depend on the CPU count, on whether the segments run in workers, or
(on the OpenBLAS builds checked) on the BLAS thread count the process
was started with.

A ridged base changes nothing here: its removals are scored under its
ridge, so the update is exact against the factor of H + ridge I.  An
edge goes to the naive route when its affected set covers half the
graph, which leaves it no rows in the plan, when one of its replayed
rows vanishes (the full re-aggregation then decides, and words any
error as ``kc_score_naive`` does), or when its capacitance system is
not finite, singular or ill-conditioned by its 1-norm condition
estimate.  Labels that differ between twins, nodes whose aggregated
rows are equal, make every score measure the ridge; a run warns of
them and scores them all the same.

Every BLAS and LAPACK call of the fast route goes through scipy, the
runtime the Gram rebuild uses (see ``kernel``).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

from .errors import ConfigError, InputError, KcesWarning, NumericError
from .graph import (
    DEGENERATE_ROW_NORM,
    Graph,
    _aggregate,
    affected_nodes,
    aggregate_features,
    format_float,
    open_text,
    remove_edge,
)
from .kernel import (
    GramPatcher,
    _one_blas_thread,
    _openblas_swap,
    _usable_cpus,
    arccos_kernel,
    gkc,
    gram_matrix,
    solve_labels,
)
from .pseudolabel import LabelMatrix

#: Fast path falls back to naive when the capacitance system's estimated
#: 1-norm condition number is worse than this.  On 400-node sparse SBM
#: graphs with twin rows (seeds 0-5, about 480 edges each), 434-470
#: estimates per seed fall below 1e3, 1-6 in [1e3, 1e4), none in
#: [1e4, 1e7) and 20-30 at 1.68e7 or above; every fast score that missed
#: the naive one by more than 1e-8 relative (by 1.1e-8 to 0.47) was among
#: those last.
CAPACITANCE_COND_LIMIT = 1e6
#: Edges per fast-route block.  With the kernel-column pool, on
#: ``dense-sbm-1000`` seeds 0-7 (25 s runs of ``benchmarks/run.py``, the
#: three sizes in rotating order, 2-vCPU AMD EPYC), blocks of 8, 16 and 32
#: edges built 43,721, 43,646 and 43,487 kernel columns on seed 0 and
#: took a median ``pipeline_s`` of 1.33, 1.26 and 1.23 s.  32 beat 16 on
#: 5 of the 8 seeds only, and its wider pool tail peaked at 110.6 MB RSS
#: against 106.0 MB.  Those counts are of a run in one segment; cut into
#: today's two, seed 0 builds 44,626, 44,554 and 44,372.
BLOCK_EDGES = 16
#: Kernel columns the fast route keeps between blocks, per node: the
#: pool then takes the memory of the base's Cholesky factor, which the
#: scoring run releases.
_POOL_COLUMNS_PER_NODE = 1
#: Segments of a run of two or more blocks, which worker processes score
#: side by side.  The cut depends on the plan alone, so the scores do not
#: depend on how many CPUs run them.
_SEGMENTS = 2
#: Blocks a run keys at once.  Chunks of 8, 16, 32 and 128 blocks, and
#: one chunk for the run, peaked at 4.69, 4.73, 4.85, 5.75 and 10.29 MiB
#: (tracemalloc) in 47.9, 44.7, 44.0, 44.2 and 45.9 ms on the
#: ``dense-sbm-1000`` seed-0 graph, whose plan holds 2.62 MiB, and at
#: 0.87, 0.91, 1.33, 2.03 and 2.03 MiB in 8.3, 8.0, 7.8, 7.4 and 7.4 ms
#: on the attacked ``defense-sweep-200`` seed-0 graph, whose plan holds
#: 0.48 MiB (medians of 31 calls, 2-vCPU Intel Xeon).
_KEY_CHUNK_BLOCKS = 16
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
        with open_text(path) as fh:
            header = fh.readline().rstrip("\n")
            if header != TSV_HEADER:
                raise InputError(
                    f"{path}: line 1: expected header {TSV_HEADER!r}, got {header!r}"
                )
            for line_no, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise InputError(
                        f"{path}: line {line_no}: expected 4 columns"
                    )
                try:
                    u, v = int(parts[0]), int(parts[1])
                    score = float(parts[2])
                except ValueError:
                    raise InputError(
                        f"{path}: line {line_no}: unparseable row {line!r}"
                    ) from None
                # A NaN would sort first and be pruned first.
                if not 0.0 <= score < float("inf"):
                    raise InputError(
                        f"{path}: line {line_no}: kc_score must be finite "
                        f"and non-negative, got {parts[2]!r}"
                    )
                if parts[3] not in ROUTES:
                    raise InputError(
                        f"{path}: line {line_no}: method must be one of "
                        f"{', '.join(ROUTES)}, got {parts[3]!r}"
                    )
                edge = (min(u, v), max(u, v))
                if edge in seen:
                    raise InputError(
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


class _LabelRun:
    """One label set's part of a scoring run.

    Holds the label matrix, its base complexity ``base_gkc``, the solved
    columns ``z`` = H^-1 y with ``quad`` = y^T z, ``l_inv_y`` = L^-1 y
    and each edge's ``gkc_removed``.
    """

    def __init__(self, labels: LabelMatrix, n_edges: int):
        self.labels = labels
        self.gkc_removed = np.empty(n_edges)


class _ScoreCache:
    """Base-graph quantities shared by all per-edge evaluations.

    Holds the Gram matrix ``h`` with its ``patcher`` for the naive
    route's rebuilds, the aggregated rows ``base_rows``, the inverse of
    its lower Cholesky factor ``l_inv`` (one triangular inversion, in
    place of an explicit H^-1), the pre-normalization neighbor sums
    needed to replay aggregation on the handful of rows an edge removal
    touches, and the solved quantities of each label set's run.  The
    factor itself is released: once the base complexities and solves
    are done, nothing reads it, so ``l_inv`` is built in its memory.  A
    ridged base is factored as H + ridge I and its removals are scored
    under the same ridge, so the fast-route fields come from that
    factor.  A cache scores one edge at a time: the patcher rebuilds
    every naive removal in the same buffers.
    """

    def __init__(self, g: Graph, runs):
        rows, norms = _aggregate(g)
        gm = gram_matrix(rows)
        self.h = gm.h
        self.patcher = GramPatcher(gm)
        for run in runs:
            run.base_gkc, run.z = solve_labels(gm, run.labels)
            run.quad = np.einsum("nc,nc->c", run.labels.columns, run.z)
        self.weights = 1.0 / np.sqrt(g.degrees.astype(np.float64))
        # Sum_{j in closed nbhd(k)} X_j / sqrt(d_j), recoverable from the
        # unit rows and their norms before scaling.
        self.neighbor_sums = rows * norms[:, None] / self.weights[:, None]
        # Nothing reads the factor after this, so its inverse overwrites
        # it (gram_matrix hands it over read-only).  The blocks read whole
        # columns of l_inv, so its upper triangle must be zero: the
        # factor's is, and dtrtri leaves it alone.
        factor = gm.chol_lower
        del gm
        factor.setflags(write=True)
        l_inv, info = lapack.dtrtri(factor, lower=1, overwrite_c=1)
        if info != 0:
            raise NumericError("Cholesky factor of the Gram matrix is singular")
        for run in runs:
            run.l_inv_y = blas.dtrmm(1.0, l_inv, run.labels.columns, lower=1)
        l_inv.setflags(write=False)
        self.base_rows = rows
        self.l_inv = l_inv


def _removed_rows(g: Graph, u: int, v: int):
    """Aggregated rows of g without edge (u, v)."""
    try:
        return aggregate_features(remove_edge(g, u, v))
    except NumericError as exc:
        raise NumericError(
            f"removing edge ({u}, {v}) degenerates aggregation: {exc}"
        ) from None


def kc_score_naive(g: Graph, labels: LabelMatrix, u: int, v: int) -> float:
    """Reference score: full recompute of the edge-removed complexity.

    The removal is factored under the ridge the base graph got, and the
    whole recompute runs on one OpenBLAS thread, as in ``kc_scores_all``.
    """
    with _one_blas_thread:
        base = gram_matrix(aggregate_features(g))
        removed = gram_matrix(_removed_rows(g, u, v), base.ridge)
        return abs(gkc(base, labels) - gkc(removed, labels))


def _replay_rows(cache: _ScoreCache, g: Graph, s, eu, ev, side):
    """Aggregated row of node s[i] once edge (eu[i], ev[i]) is removed.

    ``side[i]`` is 1 when s[i] is in the closed neighborhood of eu[i]
    only, 2 when in that of ev[i] only and 3 when in both.  Returns the
    new unit rows and the pre-normalization norm of each.
    """
    x, w = g.features, cache.weights
    wu_new = 1.0 / np.sqrt(g.degrees[eu] - 1.0)
    wv_new = 1.0 / np.sqrt(g.degrees[ev] - 1.0)
    at_u, at_v = s == eu, s == ev

    # Node k gains du * x_u if it hangs off u and dv * x_v if it hangs off
    # v; an endpoint instead loses the other endpoint's term.  A row off
    # one endpoint adds an exact zero for the other, so its bits depend on
    # (k, that endpoint) alone, whichever edge it was replayed for.
    coef_u = np.where(side != 2, wu_new - w[eu], 0.0)
    coef_u[at_v] = -w[eu[at_v]]
    coef_v = np.where(side >= 2, wv_new - w[ev], 0.0)
    coef_v[at_u] = -w[ev[at_u]]
    sums = cache.neighbor_sums[s]
    sums += coef_u[:, None] * x[eu]
    sums += coef_v[:, None] * x[ev]

    w_new = w[s]
    w_new[at_u] = wu_new[at_u]
    w_new[at_v] = wv_new[at_v]
    raw = w_new[:, None] * sums
    norms = np.linalg.norm(raw, axis=1)
    # Rows of a degenerate removal are never used, but stay finite.
    return raw / np.maximum(norms, DEGENERATE_ROW_NORM)[:, None], norms


@dataclass
class _Plan:
    """The kernel columns of a run, block by block, and the pool's slots.

    Edge i of ``g.edges`` has the affected rows
    ``s[indptr[i]:indptr[i + 1]]``, sorted, and ``col`` holds each row's
    column; an edge whose affected set covers half the graph has none.
    The columns of block t are ``col_cut[t]`` .. ``col_cut[t + 1]`` - 1,
    and each block reads its slice of the plan in place.  Column j is the
    new row of ``node[j]`` after removing edge (``eu[j]``, ``ev[j]``), on
    that edge's ``side[j]``.  One walk, ``_schedule``, fixes where the
    pool keeps it: column j is read from slot ``slot[j]``, where its
    block builds it if ``built[j]``, and after block t the pool copies the
    slots of row 0 of ``moves[t]`` to those of row 1.  Built columns fill
    the slots from ``main`` on, of ``n_slots`` in all.  The blocks fall
    into ``_SEGMENTS`` segments, or one for a run of one block, segment i
    being blocks ``segment_cut[i]`` .. ``segment_cut[i + 1]`` - 1: no
    column is kept from one segment into the next, so each can be scored
    with a pool of its own.
    """

    indptr: np.ndarray
    s: np.ndarray
    col: np.ndarray
    col_cut: np.ndarray
    node: np.ndarray
    eu: np.ndarray
    ev: np.ndarray
    side: np.ndarray
    slot: np.ndarray
    built: np.ndarray
    moves: list
    main: int
    n_slots: int
    segment_cut: np.ndarray


def _key_pass(g: Graph) -> _Plan:
    """Find the distinct kernel columns of each block of ``g.edges``, and
    place them in the pool.

    A node k in N(u) but not N[v] gets a new row that depends on (k, u)
    alone when (u, v) is removed, and likewise for N(v) without N[u]; the
    edges of a block that share such a key share its column, and the
    key, numbered as the entry (u, k) of A + I, names the same column in
    every block.  An endpoint or a common neighbor gets a column of its
    own edge.  A run keys its edges once, before the Gram matrix is
    built, ``_KEY_CHUNK_BLOCKS`` blocks at a time (``_key_chunk``): each
    chunk's columns follow the last one's, so the plan does not depend
    on the chunk size, and a temporary of one entry per row holds the
    rows of one chunk only.  The plan it keeps holds int32 indices and
    slots, and int8 sides.  A run is cut into ``_SEGMENTS`` segments of
    about equal rows, at block boundaries, and a key then names a column
    within its segment only; a run of one block, or whose rows a cut
    cannot split, is one segment.
    """
    n, edges = g.n_nodes, g.edges
    ne = edges.shape[0]
    n_blocks = -(-ne // BLOCK_EDGES)
    adj = g.adjacency_with_self_loops()
    # Row e of hit is 1 on N[u] only, 2 on N[v] only and 3 on both.
    pick = sp.csr_matrix(
        (np.tile([1.0, 2.0], ne), edges.ravel(), np.arange(0, 2 * ne + 1, 2)),
        shape=(ne, n),
    )
    hit = pick @ adj
    hit.sort_indices()
    # An edge whose affected set covers half the graph goes naive: it
    # keeps its range of indptr, but no rows.
    sizes = np.diff(hit.indptr)
    hit.data[np.repeat(2 * sizes >= n, sizes)] = 0.0
    hit.eliminate_zeros()
    indptr, s, sides = hit.indptr, hit.indices, hit.data.astype(np.int8)
    del hit
    # A cut that lands on either end of the run collapses into it.
    block_rows = indptr[np.arange(n_blocks) * BLOCK_EDGES]
    cuts = np.searchsorted(block_rows, np.arange(1, _SEGMENTS) * s.size / _SEGMENTS)
    segment_cut = np.unique(np.concatenate(([0], cuts, [n_blocks])))
    ends = edges.astype(np.int32)
    col = np.empty(s.size, dtype=np.int32)
    col_cut = np.zeros(n_blocks + 1, dtype=np.intp)
    parts = []
    for b0 in range(0, n_blocks, _KEY_CHUNK_BLOCKS):
        b1 = min(b0 + _KEY_CHUNK_BLOCKS, n_blocks)
        e0, e1 = b0 * BLOCK_EDGES, min(b1 * BLOCK_EDGES, ne)
        inv, per_block, columns = _key_chunk(n, adj.indptr, ends[e0:e1], indptr[e0 : e1 + 1], s, sides)
        col[indptr[e0] : indptr[e1]] = col_cut[b0] + inv
        col_cut[b0 + 1 : b1 + 1] = col_cut[b0] + np.cumsum(per_block)
        parts.append(columns)
    node, eu, ev, side, key = map(np.concatenate, zip(*parts))
    del parts
    slot, built, moves, main, n_slots = _schedule(
        key, col_cut, segment_cut, _POOL_COLUMNS_PER_NODE * n
    )
    return _Plan(
        indptr=indptr,
        s=s,
        col=col,
        col_cut=col_cut,
        node=node,
        eu=eu,
        ev=ev,
        side=side,
        slot=slot,
        built=built,
        moves=moves,
        main=main,
        n_slots=n_slots,
        segment_cut=segment_cut,
    )


def _key_chunk(n, adj_indptr, ends, indptr, s, sides):
    """Key the rows of a run of whole blocks, whose edges are ``ends``
    and whose rows of ``s`` and ``sides`` are ``indptr[0]`` ..
    ``indptr[-1]`` - 1.

    Returns each row's column, counted from the chunk's first, the
    number of columns of each block, and each column's node, endpoints
    (int32), side and key (-1 for a column of one edge).  Only here
    are keys int64, one per row: k * N + u alone outgrows int32 once N
    passes 46,340.
    """
    r0, r1 = int(indptr[0]), int(indptr[-1])
    owner = np.repeat(np.arange(ends.shape[0], dtype=np.int32), np.diff(indptr))
    node, side = s[r0:r1], sides[r0:r1]
    eu, ev = ends[owner, 0], ends[owner, 1]
    # Sorted by block first, so each block's columns are consecutive,
    # then by key, with a common neighbor's row, a column of its own,
    # after them.
    key = np.where(side == 3, n * n + np.arange(r1 - r0), node * np.int64(n) + np.where(side == 2, ev, eu))
    key += owner // BLOCK_EDGES * np.int64(n * n + r1 - r0)
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    per_block = np.bincount(owner[first] // BLOCK_EDGES, minlength=-(-ends.shape[0] // BLOCK_EDGES))
    # An edge's rows on N[u] are the entries of row u of A + I, in order,
    # so the entry (u, k) of a column off u is row u's first plus the
    # edge's rows on N[u] before k's; and likewise for v.
    on_u = np.concatenate(([0], np.cumsum(side & 1)))
    on_v = np.concatenate(([0], np.cumsum(side >> 1)))
    start = indptr[owner[first]] - r0
    eu, ev, side = eu[first], ev[first], side[first]
    key = np.where(
        side == 1,
        adj_indptr[eu] + on_u[first] - on_u[start],
        adj_indptr[ev] + on_v[first] - on_v[start],
    ).astype(adj_indptr.dtype)
    key[side == 3] = -1
    # Each column is replayed from the first row that takes it.
    return inv, per_block, (node[first], eu, ev, side, key)


def _schedule(key, col_cut, segment_cut, cap):
    """Walk a run's blocks once and fix every slot of the column pool.

    ``key[j]`` names column j by a small non-negative integer (-1 for a
    column of one edge), and the columns of block t are ``col_cut[t]``
    .. ``col_cut[t + 1]`` - 1.  Segment i is blocks ``segment_cut[i]``
    .. ``segment_cut[i + 1]`` - 1, and a key names a column within its
    segment only.  For each block in order: a column whose key the pool
    holds takes the holder's slot, and the others are built in column
    order, into the slots from ``main`` on.  The pool then keeps the
    columns whose key a later block of the segment has, at most ``cap``
    of them: past that, the farthest next use goes first, and of a tie
    the column held latest, which builds the fewest columns for a
    sequence known in advance (Belady, IBM Systems Journal 5(2), 1966).
    The dropped columns free their slots, and each built column that
    stays moves into the lowest free one, so the pool needs ``main``
    slots below the built ones, its most columns kept at once.

    Returns the slot each column is read from in its block, whether its
    block builds it, each block's moves (a row of sources over a row of
    destinations), ``main`` and the number of slots.
    """
    n_blocks, n_cols = col_cut.size - 1, key.size
    cuts, starts = col_cut.tolist(), segment_cut.tolist()
    # Two walks hold one entry per key, the last for key -1, which they
    # never write.  Walking back, column j's key is next used in block
    # nxt[j] of its segment (n_blocks for none).
    at = np.empty(int(key.max(initial=-1)) + 2, dtype=np.int32)
    nxt = np.empty(n_cols, dtype=np.int32)
    for t in reversed(range(n_blocks)):
        if t + 1 in starts:
            at.fill(n_blocks)
        k = key[cuts[t] : cuts[t + 1]]
        nxt[cuts[t] : cuts[t + 1]] = at[k]
        at[k[k >= 0]] = t
    # Walking forward, ``at`` holds the latest column of each key (-1 for
    # none).  pool lists the columns held after a block, in column order,
    # and held flags them; its last entry, read for -1, stays False.  No
    # column is held from one segment into the next, since none has a
    # next use there.
    at.fill(-1)
    pool = np.empty(0, dtype=np.intp)
    held = np.zeros(n_cols + 1, dtype=bool)
    slot = np.empty(n_cols, dtype=np.int32)
    built = np.empty(n_cols, dtype=bool)
    main, moved, dsts = 0, [], []
    for t in range(n_blocks):
        c0, c1 = cuts[t], cuts[t + 1]
        k = key[c0:c1]
        p = at[k]
        keyed = k >= 0
        at[k[keyed]] = np.arange(c0, c1)[keyed]
        taken = held[p]
        slot[c0:c1][taken] = slot[p[taken]]
        built[c0:c1] = ~taken
        # Of the columns with a later use, both lists in column order,
        # keep the cap nearest next uses, the earliest held first on a
        # tie: next uses past the (cap + 1)-th nearest go, and so do the
        # ties with it that do not fit.
        later = c0 + np.flatnonzero(nxt[c0:c1] < n_blocks)
        stay = np.concatenate((pool[nxt[pool] > t], later))
        if stay.size > cap:
            near = nxt[stay]
            edge = np.partition(near, cap)[cap]
            far = near > edge
            tied = np.flatnonzero(near == edge)
            far[tied[cap - np.count_nonzero(near < edge) :]] = True
            stay = stay[~far]
        held[pool] = False
        held[stay] = True
        pool = stay
        # The block's built columns that stay move into the lowest slots
        # the others do not hold.
        new = (pool >= c0) & built[pool]
        go = pool[new]
        busy = np.zeros(main + go.size, dtype=bool)
        busy[slot[pool[~new]]] = True
        dst = np.flatnonzero(~busy)[: go.size]
        slot[go] = dst
        main = max(main, int(dst.max(initial=-1)) + 1)
        moved.append(go)
        dsts.append(dst)
    # The built columns of each block are read from the slots from main on.
    width = 0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        new = built[c0:c1]
        count = int(np.count_nonzero(new))
        slot[c0:c1][new] = np.arange(main, main + count)
        width = max(width, count)
    # Every block's moves are views of one buffer.
    moves = np.array([slot[np.concatenate(moved)], np.concatenate(dsts)], dtype=np.int32)
    moves = np.split(moves, np.cumsum([go.size for go in moved[:-1]]), axis=1)
    return slot, built, moves, main, main + width


def _corners(cache: _ScoreCache, s, bounds, rows):
    """The true block b = m_e[s] and corner b~ = m~_e[s] of each edge of a
    block that has affected rows, both without their h[s, s] term.

    Edge i's rows are ``s[bounds[i]:bounds[i + 1]]``, and ``rows`` holds
    the new row of each.  b takes the new rows on both sides, and b~ the
    base rows against the new ones, so both come from one syrk over the
    edge's new rows and its base rows, stacked.  They share one buffer
    and one kernel map, and b is exactly symmetric: its inner products
    are mirrored and the map is entrywise.
    """
    # Edge [a, b) stacks its new rows at 2a .. a+b and its base rows at
    # a+b .. 2b.
    sizes = np.diff(bounds)
    k = np.arange(s.size)
    stack = np.empty((2 * s.size, rows.shape[1]))
    stack[k + np.repeat(bounds[:-1], sizes)] = rows
    stack[k + np.repeat(bounds[1:], sizes)] = cache.base_rows[s]
    buf = np.empty(2 * int(sizes @ sizes))
    true, shared = [], []
    end = 0
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a == b:
            continue
        ns = b - a
        tri = blas.dsyrk(1.0, stack[2 * a : 2 * b].T, trans=1, lower=1)
        start, mid, end = end, end + ns * ns, end + 2 * ns * ns
        inner = buf[start:mid].reshape(ns, ns)
        np.add(tri[:ns, :ns], tri[:ns, :ns].T, out=inner)
        np.fill_diagonal(inner, 1.0)
        true.append(inner)
        outer = buf[mid:end].reshape(ns, ns)
        outer[...] = tri[ns:, :ns]
        shared.append(outer)
    arccos_kernel(buf)
    return true, shared


def _score_block(cache: _ScoreCache, g: Graph, plan: _Plan, t, runs, fast, y, mt_z):
    """Fill ``fast`` and each run's ``gkc_removed`` for the edges of block
    t, in order, reading the pool's columns ``y`` and their rows ``mt_z``
    of each run.

    The block reads its slice of ``plan`` in place: its edges
    ``g.edges[e0 : e0 + BLOCK_EDGES]``, e0 = t * ``BLOCK_EDGES``, their
    rows from ``indptr[e0]`` on, and its columns from ``col_cut[t]`` on.
    An edge with no rows takes the naive route.
    """
    n, h = g.n_nodes, cache.h
    e0 = t * BLOCK_EDGES
    bounds = plan.indptr[e0 : e0 + BLOCK_EDGES + 1]
    cols = slice(plan.col_cut[t], plan.col_cut[t + 1])
    # (a) row replay of every column, then for the columns the pool
    # lacks: (b) kernel columns against the base rows, (c) one triangular
    # product with L^-1, both in place in the pool's slots after the kept
    # ones.  The dgemm operands are Fortran-ordered views of C-ordered
    # arrays.
    node = plan.node[cols]
    rows, norms = _replay_rows(cache, g, node, plan.eu[cols], plan.ev[cols], plan.side[cols])
    new = plan.built[cols]
    if new.any():
        build = slice(plan.main, plan.main + np.count_nonzero(new))
        built = y[:, build]
        blas.dgemm(1.0, cache.base_rows.T, rows[new].T, trans_a=1, c=built, overwrite_c=1)
        arccos_kernel(built)
        # h is exactly symmetric, so its rows are the columns, read contiguously.
        built -= h[node[new]].T
        blas.dtrmm(1.0, cache.l_inv, built, lower=1, overwrite_b=1)
        for run, mt in zip(runs, mt_z):
            mt[build] = blas.dgemm(1.0, built, run.l_inv_y, trans_a=1)

    # Each affected row's node, pool slot, new row and norm.
    a0, a1 = bounds[0], bounds[-1]
    affected, col = plan.s[a0:a1], plan.col[a0:a1]
    slots = plan.slot[col]
    rows, norms = rows[col - cols.start], norms[col - cols.start]
    bounds = (bounds - a0).tolist()
    corners = zip(*_corners(cache, affected, bounds, rows))

    # (d) per-edge capacitance C~^-1 + V^T V (see the module docstring).
    # With V = [Y~_e, L^-1[:, s]], one syrk gives m~^T H^-1 m~,
    # (H^-1 m~)[s] and H^-1[s, s] at once.  The matrix, its factorization
    # and the route are shared by every label set; each set solves for
    # its own right-hand side.
    for i, (u, v) in enumerate(g.edges[e0 : e0 + BLOCK_EDGES].tolist()):
        pos, a, b = e0 + i, bounds[i], bounds[i + 1]
        if a < b:
            b_true, b_shared = next(corners)
        # A removal whose replayed rows vanish goes naive, whose full
        # re-aggregation words the error as ``kc_score_naive`` does.
        if a < b and not (norms[a:b] < DEGENERATE_ROW_NORM).any():
            s, at_pool = affected[a:b], slots[a:b]
            ns = b - a
            vv = np.empty((n, 2 * ns), order="F")
            vv[:, :ns] = y[:, at_pool]
            vv[:, ns:] = cache.l_inv[:, s]
            # syrk fills the lower triangle of a zeroed array, so the
            # mirror below doubles nothing but the diagonal.
            low = blas.dsyrk(1.0, vv, trans=1, lower=1)
            low[ns:, :ns] += np.eye(ns)
            cap = low + low.T
            np.fill_diagonal(cap, np.diagonal(low))
            # b~ and b both lack h[s, s], which b~ + b~^T - b subtracts once.
            corner = b_shared + b_shared.T
            corner -= b_true
            corner -= h[s[:, None], s]
            cap[:ns, :ns] += corner
            wt_z = [
                np.concatenate((mt[at_pool], run.z[s]))
                for run, mt in zip(runs, mt_z)
            ]
            solved = _solve_capacitance(cap, wt_z)
            if solved is not None:
                for run, rhs, x in zip(runs, wt_z, solved):
                    correction = np.einsum("kc,kc->c", rhs, x)
                    run.gkc_removed[pos] = 2.0 * (run.quad - correction).sum() / n
                fast[pos] = True
                continue
        # Naive route; only the rows of the closed neighborhoods of u and
        # v change.
        gm = cache.patcher.gram(_removed_rows(g, u, v), affected_nodes(g, u, v))
        for run in runs:
            run.gkc_removed[pos] = gkc(gm, run.labels)


def _solve_capacitance(cap, rhs):
    """Solve the symmetric system ``cap x = r`` for each r in the list
    ``rhs`` by LAPACK's ``?sytrf``, one factorization and one solve each.

    ``cap`` holds the full matrix: LAPACK reads its lower triangle, and
    the 1-norm that ``?sycon`` needs is taken over all of it.  Returns
    the list of solutions, or None when cap is not finite, is exactly
    singular, or its 1-norm condition estimate exceeds
    ``CAPACITANCE_COND_LIMIT``.
    """
    # A NaN or inf entry, or a column sum that overflows, makes the norm
    # non-finite.
    anorm = float(np.abs(cap).sum(axis=0).max())
    if not np.isfinite(anorm):
        return None
    ldu, ipiv, info = lapack.dsytrf(cap, lower=1)
    if info != 0:
        return None
    rcond, info = lapack.dsycon(ldu, ipiv, anorm, lower=1)
    # Written so that a NaN estimate falls back too.
    if info != 0 or not rcond * CAPACITANCE_COND_LIMIT >= 1.0:
        return None
    solved = []
    for r in rhs:
        x, info = lapack.dsytrs(ldu, ipiv, r, lower=1)
        if info != 0:
            return None
        solved.append(x)
    return solved


def _score_segment(cache: _ScoreCache, g: Graph, plan: _Plan, i, runs, fast):
    """Score the blocks of segment i in order, with a pool of their own:
    the columns Y~ = L^-1 M~ kept across blocks, each with its M~^T z rows
    for every label set, in the slots the plan fixes."""
    y = np.empty((g.n_nodes, plan.n_slots), order="F")
    mt_z = [np.empty((plan.n_slots, run.labels.columns.shape[1])) for run in runs]
    for t in range(plan.segment_cut[i], plan.segment_cut[i + 1]):
        _score_block(cache, g, plan, t, runs, fast, y, mt_z)
        src, dst = plan.moves[t]
        y[:, dst] = y[:, src]
        for mt in mt_z:
            mt[dst] = mt[src]


def _worker_count(segments: int) -> int:
    """Worker processes for a run of ``segments`` segments: one per
    segment, on up to one per usable CPU, or 0 to score in-process.

    These rules alone keep a run in-process: it is one segment (a run
    of one block), the process has one usable CPU, it cannot fork
    safely (no ``os.fork``, or other Python threads alive), or it cannot
    pin OpenBLAS to one thread.  A worker run's own pool threads are
    joined before it returns, so they keep no later run in-process.
    """
    workers = min(segments, _usable_cpus())
    if (
        workers < 2
        or not hasattr(os, "fork")
        or threading.active_count() > 1
        or _openblas_swap() is None
    ):
        return 0
    return workers


def _enter_worker(*run):
    """Keep the run a forked worker inherits: cache, graph, plan, label
    set runs and ``fast`` flags.  Only worker processes set it."""
    global _worker_run
    _worker_run = run


def _score_in_worker(i, edges):
    """Score segment i in a worker, and return its warnings, the error
    that stopped it or None, and its rows ``edges`` of ``fast`` and of
    each run's ``gkc_removed``."""
    cache, g, plan, runs, fast = _worker_run
    error = None
    with warnings.catch_warnings(record=True) as caught:
        try:
            _score_segment(cache, g, plan, i, runs, fast)
        except Exception as exc:
            error = exc
    said = [(m.message, m.category, m.filename, m.lineno) for m in caught]
    return said, error, fast[edges], [run.gkc_removed[edges] for run in runs]


def _score_in_workers(cache: _ScoreCache, g: Graph, plan: _Plan, runs, fast, workers):
    """Score the segments on a pool of ``workers`` forked processes, to
    the results ``_score_segment`` leaves in-process.

    The workers inherit the run.  The parent takes the segments' results
    in order: it re-issues their warnings and raises the first error, as
    an in-process run would.  A worker that dies breaks the pool, which
    ends the others: that is a ``ChildProcessError`` naming every
    segment left without a result, since which worker died is not
    known.  Every child is reaped before this returns or raises.
    """
    cut = plan.segment_cut * BLOCK_EDGES
    segments = [slice(a, b) for a, b in zip(cut[:-1], cut[1:])]
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_enter_worker,
        initargs=(cache, g, plan, runs, fast),
    ) as pool:
        futures = [pool.submit(_score_in_worker, i, edges) for i, edges in enumerate(segments)]
        for future, edges in zip(futures, segments):
            try:
                said, error, flags, removed = future.result()
            except BrokenProcessPool as exc:
                lost = [str(i) for i, f in enumerate(futures) if f.exception() is not None]
                raise ChildProcessError(
                    f"a scoring worker exited, leaving segment(s) {', '.join(lost)} without a result"
                ) from exc
            for message, category, filename, lineno in said:
                warnings.warn_explicit(message, category, filename, lineno)
            if error is not None:
                pool.shutdown(cancel_futures=True)
                raise error
            fast[edges] = flags
            for run, part in zip(runs, removed):
                run.gkc_removed[edges] = part


def _warn_on_split_twins(rows, label_sets):
    """Warn of each label set that splits a group of twins, nodes whose
    aggregated ``rows`` are bitwise equal: the kernel cannot tell twins
    apart, so such labels make every score measure the ridge."""
    _, first, group = np.unique(rows.view(np.int64), axis=0, return_index=True, return_inverse=True)
    group = group.ravel()
    for labels in label_sets:
        cols = labels.columns
        split = np.unique(group[(cols != cols[first[group]]).any(axis=1)])
        if split.size:
            nodes = np.flatnonzero(group == split[np.argmin(first[split])])
            warnings.warn(
                f"the labels split {split.size} group(s) of nodes with equal aggregated rows, first "
                f"nodes {nodes.tolist()}: the kernel cannot tell them apart, so the scores measure the ridge",
                KcesWarning,
                stacklevel=3,
            )


def _kc_scores_each(g: Graph, label_sets) -> list:
    """Score every edge of g once for each label matrix in ``label_sets``.

    Entry i is the table ``kc_scores_all(g, label_sets[i])`` returns, to
    the bit.  What does not depend on the labels is done once: the Gram
    matrix, its factor and inverse, the kernel columns, and each
    edge's route with its capacitance factorization or its naive rebuild.
    Each label set adds its own solves, one product per block and one
    small solve per fast edge, so every edge takes one route for every
    set.  The first error any set meets is raised, and a set that splits
    twins is warned of (``_warn_on_split_twins``).

    The run holds scipy's OpenBLAS to one thread, so no score depends on
    the thread count.  Its segments are scored in order, in-process or
    on a pool of forked worker processes (see ``_worker_count`` and
    ``_score_in_workers``), to the same bits.
    """
    if g.n_edges == 0:
        raise ConfigError("cannot score a graph with no edges")
    if any(labels.columns.shape[0] != g.n_nodes for labels in label_sets):
        raise InputError("label matrix does not match graph size")
    runs = [_LabelRun(labels, g.n_edges) for labels in label_sets]
    fast = np.zeros(g.n_edges, dtype=bool)
    plan = _key_pass(g)
    with _one_blas_thread:
        cache = _ScoreCache(g, runs)
        _warn_on_split_twins(cache.base_rows, label_sets)
        workers = _worker_count(plan.segment_cut.size - 1)
        if workers:
            _score_in_workers(cache, g, plan, runs, fast, workers)
        else:
            for i in range(plan.segment_cut.size - 1):
                _score_segment(cache, g, plan, i, runs, fast)
    return [
        KcScoreTable(
            edges=g.edges,
            scores=np.abs(run.base_gkc - run.gkc_removed),
            gkc_removed=run.gkc_removed,
            fast=fast,
            base_gkc=run.base_gkc,
        )
        for run in runs
    ]


def kc_scores_all(g: Graph, labels: LabelMatrix) -> KcScoreTable:
    """Score every edge of g; the table's rows follow ``g.edges``.

    An edge the update cannot handle takes the naive route, and its
    ``fast`` flag is False.  This is the one-set case of
    ``_kc_scores_each``.
    """
    return _kc_scores_each(g, [labels])[0]
