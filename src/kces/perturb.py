"""Edge perturbations: random insertion/deletion and a label-aware attack.

Both attacks return the perturbed graph together with a record of the
edges they added and removed.  The record's TSV export lists them, one
edge per line; the attack's parameters live in the run manifest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ConfigError, InputError
from .graph import Graph, seed_key, whole_ids, with_edges

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


def _canonical(u: int, v: int) -> tuple:
    return (u, v) if u < v else (v, u)


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


def _sample_rows(pool: np.ndarray, count: int, rng, what: str) -> list:
    """Uniform ``count``-subset of pool rows, as a list of tuples."""
    if count > pool.shape[0]:
        raise BudgetError(
            f"need {count} {what} but only {pool.shape[0]} are available"
        )
    if count == 0:
        return []
    idx = rng.choice(pool.shape[0], size=count, replace=False)
    return [tuple(int(x) for x in pool[i]) for i in idx]


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
        raise BudgetError(f"cannot remove {n_remove} of {g.n_edges} edges")

    rng = np.random.default_rng(seed_key(seed, 0xA77))
    added = _sample_rows(_nonedge_pool(g), n_add, rng, "non-edges")
    removed_idx = (
        rng.choice(g.n_edges, size=n_remove, replace=False) if n_remove else []
    )
    removed = [tuple(int(x) for x in g.edges[i]) for i in removed_idx]

    record = PerturbationRecord(added=tuple(sorted(added)), removed=tuple(sorted(removed)))
    return _apply_record(g, record), record


def dice_attack(g: Graph, labels, budget_ratio: float, seed: int):
    """Delete same-label edges and insert cross-label non-edges.

    Half the budget deletes uniformly sampled edges whose endpoints share
    a label, half inserts uniformly sampled non-edges whose endpoints
    differ; an odd budget favors insertions by one.
    """
    if not 0.0 < budget_ratio <= 1.0:
        raise ConfigError(f"budget_ratio must be in (0, 1], got {budget_ratio}")
    lab = whole_ids(labels, "labels")
    if lab.shape != (g.n_nodes,):
        raise InputError(f"labels must have length {g.n_nodes}")
    budget = _round_half_up(budget_ratio * g.n_edges)
    n_add = (budget + 1) // 2
    n_remove = budget - n_add

    same_edges = [
        (int(u), int(v)) for u, v in g.edges.tolist() if lab[u] == lab[v]
    ]
    if n_remove > len(same_edges):
        raise BudgetError(
            f"need {n_remove} same-label edges to delete, have {len(same_edges)}"
        )

    rng = np.random.default_rng(seed_key(seed, 0xD1CE))
    added = _sample_rows(
        _nonedge_pool(g, label_filter=lab), n_add, rng, "cross-label non-edges"
    )
    removed_idx = (
        rng.choice(len(same_edges), size=n_remove, replace=False)
        if n_remove
        else []
    )
    removed = [same_edges[i] for i in removed_idx]

    record = PerturbationRecord(added=tuple(sorted(added)), removed=tuple(sorted(removed)))
    return _apply_record(g, record), record


def _apply_record(g: Graph, record: PerturbationRecord) -> Graph:
    """Replay a record: remove its removed edges, insert its added ones."""
    edge_set = set(g.edge_set())
    for e in record.removed:
        if _canonical(*e) not in edge_set:
            raise InputError(f"record removes edge {e} not present in graph")
        edge_set.discard(_canonical(*e))
    for e in record.added:
        if _canonical(*e) in edge_set:
            raise InputError(f"record adds edge {e} already in graph")
        edge_set.add(_canonical(*e))
    return with_edges(g, sorted(edge_set))
