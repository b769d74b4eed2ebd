"""benchmarks/aggregate_digest.py on a tiny eb/trimmed world: one and two
workers give one digest, an aggregate one ulp off changes it, and the
wrapped function is restored."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from aggregate_digest import aggregate_digest
from decrecsim import simulation
from decrecsim.config import parse_config
from decrecsim.synthetic import generate_interactions, write_movielens_dat


@pytest.fixture
def config(tmp_path):
    data = tmp_path / "ratings.dat"
    write_movielens_dat(str(data), generate_interactions(40, 60, seed=3))
    world = "attack=eb defense=trimmed rounds=2 min_count=2 neighbors=6 embed_dim=4 layer_widths=8,4"
    return parse_config(None, dict(kv.split("=") for kv in world.split()) | {"dataset_path": str(data)})


def test_two_workers_hash_like_one(config):
    real = simulation.apply_neighbor_aggregate
    one = aggregate_digest(config)
    assert simulation.apply_neighbor_aggregate is real
    assert len(one) == 64
    assert aggregate_digest(dataclasses.replace(config, workers=2)) == one


def test_an_aggregate_one_ulp_off_changes_the_digest(config, monkeypatch):
    want = aggregate_digest(config)
    real = simulation.trimmed_mean_aggregate

    def nudged(*args):
        items, rows = real(*args)
        rows[:, 0] = np.nextafter(rows[:, 0], np.inf)
        return items, rows

    monkeypatch.setattr(simulation, "trimmed_mean_aggregate", nudged)
    assert aggregate_digest(config) != want
