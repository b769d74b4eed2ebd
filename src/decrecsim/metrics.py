"""Ranking metrics over benign users: top-K lists, hit rate, exposure rate.

Rankings exclude a user's train positives; held-out test items stay in the
candidate pool.  Adversary clients never contribute to either metric.
Hit rate and exposure rate are reductions over one ranking pass: each takes
the benign users' top-K lists (benign_top_lists) and ranks nothing itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from decrecsim.errors import ContractError
from decrecsim.model import ClientState, score_items


class UndefinedMetricError(ValueError):
    """Raised when a metric has an empty population."""


@dataclass
class MetricsRecord:
    """One evaluation snapshot of a run."""

    round: int
    hr_at_k: float
    er_at_k: float
    attack: str
    defense: str
    seed: int


def top_k_list(state: ClientState, k: int, exclude: np.ndarray) -> np.ndarray:
    """The k items with highest predicted rating outside `exclude`.

    Ordered by descending score, ties by ascending item id; returns all
    candidates when fewer than k remain.
    """
    if k < 1:
        raise ContractError("k must be >= 1")
    excl = np.asarray(exclude, dtype=np.int64)
    negated = -score_items(state)
    negated[excl] = np.inf
    order = np.argsort(negated, kind="stable")
    n_candidates = state.num_items - len(excl)
    return order[: min(k, n_candidates)].astype(np.int64)


def benign_ids(world) -> list[int]:
    """Ascending ids of the world's clients that are not adversaries."""
    return [i for i in range(len(world.clients)) if i not in world.adversary_ids]


def benign_top_lists(world, k: int) -> dict[int, np.ndarray]:
    """Top-k list per benign user, excluding that user's train positives."""
    return {
        u: top_k_list(world.clients[u], k, world.dataset.train[u])
        for u in benign_ids(world)
    }


def exposure_rate(world, lists: dict[int, np.ndarray]) -> float:
    """Mean over targets of the fraction of eligible users exposing the target.

    A user is eligible for target t when they never interacted with t (train
    or test); the numerator counts eligible users whose top-k list contains
    t.  Targets with no eligible users contribute 0.
    """
    targets = world.target_items
    if len(targets) == 0:
        raise ContractError("exposure_rate requires a nonempty target set")
    # Every (user, target) pair is one key user * num_items + target, so one
    # membership test over all users finds the pairs each list holds.
    users = list(lists)
    if not users:
        return 0.0
    num_items = world.clients[0].num_items
    wanted = (np.arange(len(users)) * num_items)[:, None] + targets

    def holds(per_user: list[np.ndarray]) -> np.ndarray:
        owner = np.repeat(np.arange(len(users)) * num_items, [len(x) for x in per_user])
        return np.isin(wanted, owner + np.concatenate(per_user))

    fresh = ~holds([world.dataset.train[u] for u in users])
    fresh &= ~holds([world.dataset.test[u] for u in users])
    eligible = fresh.sum(axis=0)
    exposed = (fresh & holds([lists[u] for u in users])).sum(axis=0)
    per_target = [e / n if n else 0.0 for e, n in zip(exposed.tolist(), eligible.tolist())]
    return float(np.mean(per_target))


def hit_rate(world, lists: dict[int, np.ndarray]) -> float:
    """Mean over benign users with test items of the top-k hit indicator."""
    values = []
    for u, top in lists.items():
        test = world.dataset.test[u]
        if len(test) == 0:
            continue
        inter = np.intersect1d(top, test, assume_unique=False)
        values.append(float(len(inter) > 0))
    if not values:
        raise UndefinedMetricError("no benign user has held-out test items")
    return float(np.mean(values))


def evaluate_world(world, k: int, attack: str, defense: str, seed: int) -> MetricsRecord:
    """Hit rate and exposure rate from one shared ranking pass."""
    lists = benign_top_lists(world, k)
    return MetricsRecord(
        round=world.round,
        hr_at_k=hit_rate(world, lists),
        er_at_k=exposure_rate(world, lists),
        attack=attack,
        defense=defense,
        seed=seed,
    )
