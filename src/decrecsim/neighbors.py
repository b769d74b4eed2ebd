"""Server role: sign-random-projection sketches of item tables, pairwise
cosine similarity, and top-N neighbor assignment.

Hyperplanes are drawn once per run from the global seed and shared by every
client, so equal tables always produce equal sketches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from decrecsim.errors import ContractError


@dataclass
class NeighborMap:
    """Per-client neighbor sets for one refresh period, as ascending ids:
    the sender order in which a round's packets are sent and read."""

    assignments: list[np.ndarray]

    def neighbors_of(self, client_id: int) -> np.ndarray:
        return self.assignments[client_id]


def make_hyperplanes(
    embed_dim: int, sketch_dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Shared random projection matrix (sketch_dim, embed_dim), standard normal."""
    return rng.standard_normal((sketch_dim, embed_dim))


def sketch_item_table(item_table: np.ndarray, hyperplanes: np.ndarray) -> np.ndarray:
    """Concatenated per-item projection signs, sign(0) = +1.

    Returns a float32 vector of +-1 of length num_items * sketch_dim; item
    rows appear in index order.
    """
    item_table = np.asarray(item_table)
    if item_table.ndim != 2 or hyperplanes.ndim != 2 or item_table.shape[1] != hyperplanes.shape[1]:
        raise ContractError("item table and hyperplane widths must match")
    proj = item_table @ hyperplanes.T  # (num_items, sketch_dim)
    bits = np.where(proj >= 0.0, 1.0, -1.0).astype(np.float32)
    return bits.ravel()


def assign_neighbors(sketches: np.ndarray | list[np.ndarray], n_neighbors: int) -> NeighborMap:
    """Top-min(N, C-1) most cosine-similar clients per client, as ascending ids.

    They are picked by descending similarity, ties broken by ascending
    client id; a client is never its own neighbor.  Adversary clients submit
    sketches like everyone else and are indistinguishable here.

    Inputs are +-1 vectors: all norms are equal, so ranking by the (exactly
    integer) dot products equals ranking by cosine.
    """
    mat = np.asarray(sketches, dtype=np.float32)
    if mat.ndim != 2:
        raise ContractError("sketches must form a (clients, length) matrix")
    num_clients = mat.shape[0]
    if num_clients < 2:
        raise ContractError("neighbor assignment needs at least 2 clients")
    # float32 sums of +-1 products are exact integers (|sum| <= 2^24).
    sims = (mat @ mat.T).astype(np.float64) / mat.shape[1]
    np.fill_diagonal(sims, -np.inf)  # never self
    # A stable sort of the negated similarities breaks ties by ascending id;
    # the sorted copy keeps only the picked columns alive.
    order = np.argsort(-sims, axis=1, kind="stable")[:, : min(n_neighbors, num_clients - 1)]
    return NeighborMap(assignments=list(np.sort(order, axis=1)))
