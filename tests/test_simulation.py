"""Round loop on a tiny synthetic world: thread-count invariance and
same-seed determinism for every per-receiver robust aggregator, and for
PAMN against UCSU with banks small enough to evict."""

import dataclasses

import numpy as np
import pytest

from decrecsim.cli import load_dataset
from decrecsim.config import ExperimentConfig
from decrecsim.simulation import _mean_in_order, run_experiment
from decrecsim.synthetic import generate_interactions, write_movielens_dat

# (overrides, test id): EB against each per-receiver aggregator, and PAMN
# against UCSU over 4 rounds with a 2-round bank, so eviction runs.
CASES = [
    pytest.param({"defense": d}, id=d) for d in ("median", "trimmed", "krum", "l2clip")
] + [
    pytest.param(
        {"attack": "pamn", "defense": "ucsu", "capacity_rounds": 2, "rounds": 4},
        id="pamn-ucsu",
    )
]


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


@pytest.mark.parametrize("case", CASES)
def test_two_workers_bit_identical_to_one(tiny, case):
    _, serial = run(tiny, **case, workers=1)
    _, threaded = run(tiny, **case, workers=2)
    assert serial.adversary_ids and serial.round == case.get("rounds", 2)
    if case["defense"] == "ucsu":
        for i, bank in serial.banks.items():
            assert bank.size() == threaded.banks[i].size()
        # round 1's rows were evicted at round 4; rounds 2-4 are still held
        held = {r for bank in serial.banks.values() for r, *_ in bank.entries()}
        assert held == {2, 3, 4}
    for a, b in zip(client_params(serial), client_params(threaded), strict=True):
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("case", CASES)
def test_same_seed_same_metrics(tiny, case):
    first, _ = run(tiny, **case)
    second, _ = run(tiny, **case)
    assert [r.round for r in first] == list(range(case.get("rounds", 2) + 1))
    assert first == second


@pytest.mark.parametrize("count", [1, 2, 7, 50])
def test_mean_in_order_has_the_bits_of_stacked_mean(count):
    rng = np.random.default_rng(count)
    # magnitudes spread over 16 decades make the rounding order-sensitive
    vectors = [rng.normal(size=257) * 10.0 ** rng.integers(-8, 8, size=257) for _ in range(count)]
    vectors[0][:3] = [-0.0, 0.0, -0.0]
    assert _mean_in_order(vectors).tobytes() == np.stack(vectors).mean(axis=0).tobytes()
