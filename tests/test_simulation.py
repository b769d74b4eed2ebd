"""Round loop on a tiny synthetic world: thread-count invariance and
same-seed determinism for every per-receiver robust aggregator."""

import dataclasses

import numpy as np
import pytest

from decrecsim.cli import load_dataset
from decrecsim.config import ExperimentConfig
from decrecsim.simulation import run_experiment
from decrecsim.synthetic import generate_interactions, write_movielens_dat

DEFENSES = ("median", "trimmed", "krum", "l2clip")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """An EB-attacked config over 40 users x 60 items, and its dataset."""
    path = tmp_path_factory.mktemp("data") / "ratings.dat"
    write_movielens_dat(str(path), generate_interactions(40, 60, seed=3))
    config = ExperimentConfig(
        dataset_path=str(path),
        embed_dim=4,
        layer_widths=(8, 4),
        neighbors=6,
        rounds=2,
        eval_every=1,
        top_k=5,
        attack="eb",
        xi=0.1,
        alpha=5,
        e_ft=1,
        num_targets=2,
        min_count=2,
        seed=11,
    )
    return config, load_dataset(config)


def run(tiny, **overrides):
    config, dataset = tiny
    return run_experiment(dataclasses.replace(config, **overrides), dataset, keep_world=True)


def client_params(world):
    return [(c.user_vec, c.item_table, c.net) for c in world.clients]


@pytest.mark.parametrize("defense", DEFENSES)
def test_two_workers_bit_identical_to_one(tiny, defense):
    _, serial = run(tiny, defense=defense, workers=1)
    _, threaded = run(tiny, defense=defense, workers=2)
    assert serial.adversary_ids and serial.round == 2
    for a, b in zip(client_params(serial), client_params(threaded), strict=True):
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("defense", DEFENSES)
def test_same_seed_same_metrics(tiny, defense):
    first, _ = run(tiny, defense=defense)
    second, _ = run(tiny, defense=defense)
    assert [r.round for r in first] == [0, 1, 2]
    assert first == second
