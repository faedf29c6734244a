"""Edge perturbations: random insertion/deletion and a label-aware attack.

Both attacks return the perturbed graph together with a record of the
edges they added and removed.  The record's TSV export lists them, one
edge per line; the attack's parameters live in the run manifest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .graph import Graph, class_labels, seed_key, with_edges


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


@dataclass(frozen=True)
class PerturbationRecord:
    """The edges one attack added and removed, each sorted."""

    added: tuple
    removed: tuple

    def write_tsv(self, path) -> None:
        """One edge per line, '+' rows added and '-' rows removed."""
        with open(path, "w", encoding="utf-8") as fh:
            for u, v in self.added:
                fh.write(f"+\t{u}\t{v}\n")
            for u, v in self.removed:
                fh.write(f"-\t{u}\t{v}\n")


def _nonedge_pool(g: Graph, label_filter=None) -> np.ndarray:
    """All non-edges (u, v) with u < v, optionally only cross-label pairs."""
    n = g.n_nodes
    u, v = np.triu_indices(n, k=1)
    taken = np.zeros(u.shape[0], dtype=bool)
    if g.n_edges:
        # Map each pair to its rank in the upper-triangle enumeration.
        eu, ev = g.edges[:, 0], g.edges[:, 1]
        rank = eu * (2 * n - eu - 1) // 2 + (ev - eu - 1)
        taken[rank] = True
    keep = ~taken
    if label_filter is not None:
        keep &= label_filter[u] != label_filter[v]
    return np.column_stack([u[keep], v[keep]])


def _sample_rows(pool: np.ndarray, count: int, rng, what: str) -> np.ndarray:
    """Uniform ``count``-subset of pool rows."""
    if count > pool.shape[0]:
        raise ConfigError(
            f"need {count} {what} but only {pool.shape[0]} are available"
        )
    if count == 0:
        return pool[:0]
    return pool[rng.choice(pool.shape[0], size=count, replace=False)]


def _attacked(g: Graph, added: np.ndarray, removed_rows: np.ndarray):
    """g without the edges ``g.edges[removed_rows]`` and with the non-edges
    ``added``, and the record of both."""
    keep = np.ones(g.n_edges, dtype=bool)
    keep[removed_rows] = False
    record = PerturbationRecord(
        added=tuple(sorted(map(tuple, added.tolist()))),
        removed=tuple(sorted(map(tuple, g.edges[removed_rows].tolist()))),
    )
    return with_edges(g, np.concatenate([g.edges[keep], added])), record


def random_attack(
    g: Graph, budget_ratio: float, seed: int, add_fraction: float = 0.5
):
    """Insert and delete uniformly random edges.

    The budget is round(budget_ratio * |E|) total modifications, split
    into round(add_fraction * budget) insertions of uniformly sampled
    non-edges and deletions of uniformly sampled existing edges.
    """
    if not 0.0 < budget_ratio <= 1.0:
        raise ConfigError(f"budget_ratio must be in (0, 1], got {budget_ratio}")
    if not 0.0 <= add_fraction <= 1.0:
        raise ConfigError(f"add_fraction must be in [0, 1], got {add_fraction}")
    budget = _round_half_up(budget_ratio * g.n_edges)
    n_add = _round_half_up(add_fraction * budget)
    n_remove = budget - n_add

    if n_remove > g.n_edges:
        raise ConfigError(f"cannot remove {n_remove} of {g.n_edges} edges")

    rng = np.random.default_rng(seed_key(seed, 0xA77))
    added = _sample_rows(_nonedge_pool(g), n_add, rng, "non-edges")
    removed = _sample_rows(np.arange(g.n_edges), n_remove, rng, "edges")
    return _attacked(g, added, removed)


def dice_attack(g: Graph, labels, budget_ratio: float, seed: int):
    """Delete same-label edges and insert cross-label non-edges.

    Half the budget deletes uniformly sampled edges whose endpoints share
    a label, half inserts uniformly sampled non-edges whose endpoints
    differ; an odd budget favors insertions by one.
    """
    if not 0.0 < budget_ratio <= 1.0:
        raise ConfigError(f"budget_ratio must be in (0, 1], got {budget_ratio}")
    lab = class_labels(labels, g.n_nodes)
    budget = _round_half_up(budget_ratio * g.n_edges)
    n_add = (budget + 1) // 2
    n_remove = budget - n_add

    same = np.flatnonzero(lab[g.edges[:, 0]] == lab[g.edges[:, 1]])
    if n_remove > same.size:
        raise ConfigError(
            f"need {n_remove} same-label edges to delete, have {same.size}"
        )

    rng = np.random.default_rng(seed_key(seed, 0xD1CE))
    added = _sample_rows(
        _nonedge_pool(g, label_filter=lab), n_add, rng, "cross-label non-edges"
    )
    removed = _sample_rows(same, n_remove, rng, "same-label edges")
    return _attacked(g, added, removed)
