"""Deterministic synthetic interaction data in MovieLens format.

Generates clustered implicit-feedback data with a popularity skew: users
belong to preference clusters and mostly interact with their own cluster's
items, whose within-cluster popularity follows a Zipf profile.  It is the
desk-scale stand-in for ML-1M: the shape constants below are fixed, and a
world is chosen by (users, items, seed) alone.  The repo's tests and
benchmarks generate their fixtures with it.

Run ``python -m decrecsim.synthetic --users U --items I --seed S --out F``.
"""

from __future__ import annotations

import argparse

import numpy as np

from decrecsim.rng import stream

CLUSTERS = 6
ZIPF_S = 1.05  # within-cluster popularity: weight 1 / (rank + 1) ** ZIPF_S
MIX = 0.85  # chance that a draw comes from the user's own cluster
# A user's activity is lognormal(ACT_MEAN, ACT_SIGMA), rounded and clipped
# to [ACT_MIN, ACT_MAX].
ACT_MEAN = 3.3
ACT_SIGMA = 0.45
ACT_MIN = 8
ACT_MAX = 120


def generate_interactions(num_users: int, num_items: int, seed: int) -> list[tuple[int, int]]:
    """Sample (user, item) interactions from stream(seed); ids are 0-based."""
    rng = stream(seed)
    perm = rng.permutation(num_items)
    item_cluster = np.empty(num_items, dtype=np.int64)
    for c in range(CLUSTERS):
        item_cluster[perm[c::CLUSTERS]] = c

    weights = np.empty(num_items)
    for c in range(CLUSTERS):
        members = np.flatnonzero(item_cluster == c)
        ranks = rng.permutation(len(members))
        weights[members] = 1.0 / (ranks + 1.0) ** ZIPF_S
    global_p = weights / weights.sum()

    user_cluster = rng.integers(0, CLUSTERS, size=num_users)
    activity = np.clip(
        np.round(rng.lognormal(ACT_MEAN, ACT_SIGMA, size=num_users)), ACT_MIN, ACT_MAX
    ).astype(np.int64)

    cluster_items = [np.flatnonzero(item_cluster == c) for c in range(CLUSTERS)]
    cluster_p = [weights[ci] / weights[ci].sum() for ci in cluster_items]

    out: list[tuple[int, int]] = []
    for u in range(num_users):
        c = int(user_cluster[u])
        want = int(activity[u])
        chosen: list[int] = []
        seen: set[int] = set()
        attempts = 0
        while len(chosen) < want and attempts < 20:
            n_draw = (want - len(chosen)) * 2
            in_cluster = rng.random(n_draw) < MIX
            draws = np.where(
                in_cluster,
                cluster_items[c][rng.choice(len(cluster_items[c]), size=n_draw, p=cluster_p[c])],
                rng.choice(num_items, size=n_draw, p=global_p),
            )
            for item in draws.tolist():
                if item not in seen:
                    seen.add(item)
                    chosen.append(item)
                    if len(chosen) >= want:
                        break
            attempts += 1
        out.extend((u, item) for item in chosen)
    return out


def write_movielens_dat(path: str, interactions: list[tuple[int, int]]) -> None:
    """Write user::item::rating::timestamp lines with 1-based ids."""
    with open(path, "w", encoding="utf-8") as fh:
        for ts, (u, i) in enumerate(interactions):
            fh.write(f"{u + 1}::{i + 1}::5::{978300000 + ts}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Generate a synthetic MovieLens-format interaction file."
    )
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    interactions = generate_interactions(args.users, args.items, args.seed)
    write_movielens_dat(args.out, interactions)
    print(f"wrote {len(interactions)} interactions to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
