"""Round loop on a tiny synthetic world: thread-count invariance and
same-seed determinism for every per-receiver robust aggregator, and for
PAMN against UCSU with banks small enough to evict; the round rows UCSU
keeps alive; the packets dropped once a round's rows are consolidated;
what adversaries absorb; init_world's pair checks and each client's Adam
item-moment cover."""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from decrecsim.cli import load_dataset
from decrecsim.config import ExperimentConfig
from decrecsim.defenses import RoundRows
from decrecsim.errors import ContractError
from decrecsim import simulation
from decrecsim.simulation import _mean_in_order, init_world, run_experiment, run_round
from decrecsim.synthetic import generate_interactions, write_movielens_dat
from helpers import absorb, assert_round_compacted

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


@pytest.mark.parametrize(
    "overrides",
    [{}, {"ucsu_clean_bank": True}, {"ucsu_clip": False}],
    ids=["default", "clean-bank", "no-clip"],
)
def test_ucsu_keeps_only_round_rows_a_bank_holds(tiny, overrides):
    config, dataset = tiny
    config = dataclasses.replace(
        config, attack="pamn", defense="ucsu", capacity_rounds=2, rounds=4, **overrides
    )
    world = init_world(config, dataset)
    earlier = [o for o in gc.get_objects() if isinstance(o, RoundRows)]
    for t in range(1, config.rounds + 1):
        run_round(world, config)
        gc.collect()
        alive = {
            id(o)
            for o in gc.get_objects()
            if isinstance(o, RoundRows) and not any(o is e for e in earlier)
        }
        held = {id(rr) for bank in world.banks.values() for rr, _ in bank._chunks}
        # a round no bank holds is no longer referenced
        assert alive == held
        assert_round_compacted(t, world.banks.values())
        if overrides.get("ucsu_clean_bank"):
            assert not held
        else:
            assert any(rr.round == t for bank in world.banks.values() for rr, _ in bank._chunks)


@pytest.mark.parametrize(
    "defense, reader",
    [("none", "l2_clip_aggregate"), ("median", "median_aggregate"), ("ucsu", "ucsu_aggregate")],
)
def test_packets_dropped_once_round_rows_are_built(tiny, monkeypatch, defense, reader):
    # Every defense reads item rows from the round's RoundRows, so no
    # packet's rows may still be alive when the first receiver reads.
    config, dataset = tiny
    config = dataclasses.replace(config, attack="pamn", defense=defense)
    world = init_world(config, dataset)
    rows = []
    reads = []
    real_build = simulation.build_round_rows
    real_reader = getattr(simulation, reader)

    def build_spy(packets, *args, **kwargs):
        rows.extend(weakref.ref(q.item_rows) for q in packets)
        return real_build(packets, *args, **kwargs)

    def reader_spy(*args, **kwargs):
        if any(r() is not None for r in rows):
            gc.collect()
        reads.append(sum(r() is not None for r in rows))
        return real_reader(*args, **kwargs)

    monkeypatch.setattr(simulation, "build_round_rows", build_spy)
    monkeypatch.setattr(simulation, reader, reader_spy)
    for _ in range(2):  # round 2 carries poisoned packets
        run_round(world, config)
    assert len(rows) > 2 * world.num_clients and reads
    assert set(reads) == {0}


def test_adversary_absorbs_the_honest_packet_of_another_adversary(tiny, monkeypatch):
    config, dataset = tiny
    config = dataclasses.replace(config, attack="pamn", refresh_every=10)
    world = init_world(config, dataset)
    run_round(world, config)  # round 1 refreshes the neighbors and conceals
    a, b = sorted(world.adversary_ids)[:2]
    world.neighbor_map.assignments[a] = np.array([b])
    honest, poisoned, seen = {}, {}, {}
    real_gradients = simulation.compute_gradients
    real_poison = simulation.pamn_poison
    real_collab = simulation.adversary_collab_update

    def gradients_spy(state, pairs, sender=-1, round_no=-1):
        user_grad, pkt = real_gradients(state, pairs, sender=sender, round_no=round_no)
        honest[sender] = pkt
        return user_grad, pkt

    def poison_spy(adv, *args):
        poisoned[adv.client_id] = real_poison(adv, *args)
        return poisoned[adv.client_id]

    def collab_spy(adv, *args):
        if adv.client_id == a:
            seen["before"] = adv.base.copy()
        real_collab(adv, *args)
        if adv.client_id == a:
            seen["after"] = adv.base.copy()

    monkeypatch.setattr(simulation, "compute_gradients", gradients_spy)
    monkeypatch.setattr(simulation, "pamn_poison", poison_spy)
    monkeypatch.setattr(simulation, "adversary_collab_update", collab_spy)
    run_round(world, config)
    sent, shipped = honest[b], poisoned[b]
    assert not (
        np.array_equal(sent.item_idx, shipped.item_idx)
        and np.array_equal(sent.item_rows, shipped.item_rows)
    )
    expect = seen["before"].copy()
    absorb(expect, [sent], config.lr)
    for got, want in ((seen["after"].item_table, expect.item_table), (seen["after"].net, expect.net)):
        assert got.tobytes() == want.tobytes()
    assert not np.array_equal(seen["after"].item_table, seen["before"].item_table)


@pytest.mark.parametrize("count", [1, 2, 7, 50])
def test_mean_in_order_has_the_bits_of_stacked_mean(count):
    rng = np.random.default_rng(count)
    # magnitudes spread over 16 decades make the rounding order-sensitive
    vectors = [rng.normal(size=257) * 10.0 ** rng.integers(-8, 8, size=257) for _ in range(count)]
    vectors[0][:3] = [-0.0, 0.0, -0.0]
    assert _mean_in_order(vectors).tobytes() == np.stack(vectors).mean(axis=0).tobytes()


@pytest.mark.parametrize("attack", ["eb", "pamn", "ra", "psmu"])
def test_item_moments_cover_exactly_the_training_items(tiny, attack):
    config, dataset = tiny
    world = init_world(dataclasses.replace(config, attack=attack), dataset)
    assert world.adversary_ids
    for opt, state, pairs in zip(world.optimizers, world.clients, world.pairs, strict=True):
        assert np.array_equal(opt.rows, np.unique(pairs))
        assert opt.m_items.shape == opt.v_items.shape == (len(opt.rows), state.layout.embed_dim)


@pytest.mark.parametrize(
    "bad, message",
    [([3, 3], "must differ"), ([0, 10_000], "out of range")],
    ids=["self-pair", "out-of-range-item"],
)
def test_init_world_rejects_bad_training_pairs(tiny, bad, message):
    config, dataset = tiny
    pairs = list(dataset.pairs)
    pairs[7] = np.vstack([pairs[7], bad])
    with pytest.raises(ContractError, match=message):
        init_world(config, dataclasses.replace(dataset, pairs=pairs))
