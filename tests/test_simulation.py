"""Round loop on a tiny synthetic world: thread-count invariance and
same-seed determinism for every per-receiver robust aggregator, and for
PAMN against UCSU with banks small enough to evict; the round rows UCSU
keeps alive and the norms its clip bounds; the packets dropped once a
round's rows are consolidated, once per round; the round block that holds
the bytes of every sent packet; what adversaries absorb; the empty
packets of clients without training pairs; the neighbor
refresh cadence; init_world's pair checks and each client's Adam
item-moment cover; the cold targets select_cold_targets draws."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from decrecsim.cli import load_dataset
from decrecsim.config import ExperimentConfig
from decrecsim.dataset import Dataset
from decrecsim.defenses import RoundRows
from decrecsim.errors import ConfigError, ContractError
from decrecsim import simulation
from decrecsim.simulation import (
    _mean_in_order,
    init_world,
    run_experiment,
    run_round,
    select_cold_targets,
)
from decrecsim.synthetic import generate_interactions, write_movielens_dat
from helpers import absorb, assert_round_compacted, client_moments, run_keeping_world

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
    return run_keeping_world(dataclasses.replace(config, **overrides), dataset)


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


@pytest.mark.parametrize("overrides", [{}, {"mu": np.inf}], ids=["default", "mu-inf"])
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
        held = {id(rr) for bank in world.banks.values() for rr, _ in bank.chunks()}
        # a round no bank holds is no longer referenced
        assert alive == held
        assert_round_compacted(t, world.banks.values())
        assert any(rr.round == t for bank in world.banks.values() for rr, _ in bank.chunks())


def test_ucsu_clip_bounds_the_rows_banks_hold(tiny, monkeypatch):
    # PAMN's rows arrive with p-norm about 2; with the clip UCSU banks them
    # at mu, with mu = inf as sent, and the benign models end up apart.
    mu, p = tiny[0].mu, tiny[0].p
    real_build = simulation.build_round_rows

    def run_banking(bound):
        sent, banked = [], []

        def build_spy(rr, *args, **kwargs):
            # The build clips the round's rows in place, so the sent norms
            # are read first.
            if kwargs.get("bank"):
                sent.append(np.linalg.norm(rr.rows, ord=p, axis=1))
            rr = real_build(rr, *args, **kwargs)
            if kwargs.get("bank"):
                banked.append(np.linalg.norm(rr.rows, ord=p, axis=1))
            return rr

        monkeypatch.setattr(simulation, "build_round_rows", build_spy)
        _, world = run(
            tiny, attack="pamn", defense="ucsu", capacity_rounds=2, rounds=4, mu=bound
        )
        return np.concatenate(sent), np.concatenate(banked), world

    sent, banked, clipped = run_banking(mu)
    assert sent.max() > 1.5 * mu
    # the scale mu / norm may leave a row an ulp above mu
    assert banked.max() == pytest.approx(mu) and banked.max() <= mu * (1 + 1e-12)
    _, banked, unclipped = run_banking(np.inf)
    assert banked.max() > 1.5 * mu
    assert not np.array_equal(clipped.stacked.item_table, unclipped.stacked.item_table)


@pytest.mark.parametrize(
    "defense, reader",
    [("none", "l2_clip_aggregate"), ("median", "median_aggregate"), ("ucsu", "ucsu_aggregate")],
)
def test_packets_dropped_once_round_rows_are_built(tiny, monkeypatch, defense, reader):
    # Every defense reads item rows from the round's RoundRows, so no
    # packet's rows, honest (the adversaries' absorbed ones among them) or
    # crafted, may still be alive when the first receiver reads.
    config, dataset = tiny
    config = dataclasses.replace(config, attack="pamn", defense=defense)
    world = init_world(config, dataset)
    rows = []
    reads = []
    builds = []
    real_gradients = simulation.compute_gradients
    real_poison = simulation.pamn_poison
    real_build = simulation.build_round_rows
    real_reader = getattr(simulation, reader)

    def gradients_spy(*args, **kwargs):
        user_grad, pkt = real_gradients(*args, **kwargs)
        rows.append(weakref.ref(pkt.item_rows))
        return user_grad, pkt

    def poison_spy(*args):
        pkt = real_poison(*args)
        rows.append(weakref.ref(pkt.item_rows))
        return pkt

    def build_spy(*args, **kwargs):
        builds.append(world.round + 1)
        return real_build(*args, **kwargs)

    def reader_spy(*args, **kwargs):
        if any(r() is not None for r in rows):
            gc.collect()
        reads.append(sum(r() is not None for r in rows))
        return real_reader(*args, **kwargs)

    monkeypatch.setattr(simulation, "compute_gradients", gradients_spy)
    monkeypatch.setattr(simulation, "pamn_poison", poison_spy)
    monkeypatch.setattr(simulation, "build_round_rows", build_spy)
    monkeypatch.setattr(simulation, reader, reader_spy)
    for _ in range(2):  # round 2 carries poisoned packets
        run_round(world, config)
    assert builds == [1, 2]  # one consolidation per round
    assert len(rows) == 2 * world.num_clients + len(world.adversary_ids) and reads
    assert set(reads) == {0}


@pytest.mark.parametrize("defense", ["ucsu", "l2clip", "trimmed"])
def test_round_rows_are_the_sent_packets_in_the_round_block(tiny, monkeypatch, defense):
    # A round's RoundRows views its block, and before clipping its rows
    # are, byte for byte, the packets the round sent in ascending sender
    # order: every honest one in round 1, where adversaries conceal, and
    # from round 2 the benign ones and the adversaries' crafted ones.  Each
    # net row is its sender's sent net gradient.
    config, dataset = tiny
    config = dataclasses.replace(config, attack="pamn", defense=defense, mu=1e-6)
    world = init_world(config, dataset)
    sent, blocks, builds = {}, [], []
    real_gradients = simulation.compute_gradients
    real_poison = simulation.pamn_poison
    real_build = simulation.build_round_rows

    class BlockSpy(simulation.RoundBlock):
        def __init__(self, *args):
            super().__init__(*args)
            blocks.append(self)

    def gradients_spy(*args, **kwargs):
        user_grad, pkt = real_gradients(*args, **kwargs)
        sent[pkt.sender] = pkt
        return user_grad, pkt

    def poison_spy(*args):
        pkt = real_poison(*args)
        sent[pkt.sender] = pkt
        return pkt

    def build_spy(rr, *args, **kwargs):
        packets = [sent[k] for k in sorted(sent)]
        sent.clear()
        block = blocks[-1]
        assert np.shares_memory(rr.rows, block.rows)
        raw = (rr.senders.copy(), rr.items.copy(), rr.rows.copy())
        built = real_build(rr, *args, **kwargs)
        builds.append((packets, raw, built, block.nets.copy()))
        return built

    monkeypatch.setattr(simulation, "RoundBlock", BlockSpy)
    monkeypatch.setattr(simulation, "compute_gradients", gradients_spy)
    monkeypatch.setattr(simulation, "pamn_poison", poison_spy)
    monkeypatch.setattr(simulation, "build_round_rows", build_spy)
    for _ in range(2):  # round 1 sends honest packets, round 2 crafted ones
        run_round(world, config)
    assert len(blocks) == len(builds) == 2
    dim = world.clients[0].layout.embed_dim
    for packets, (senders, items, rows), rr, nets in builds:
        assert [q.sender for q in packets] == list(range(world.num_clients))
        assert senders.tobytes() == np.concatenate(
            [np.full(len(q.item_idx), q.sender, dtype=np.int32) for q in packets]
        ).tobytes()
        assert items.tobytes() == np.concatenate([q.item_idx for q in packets]).tobytes()
        assert rows.tobytes() == np.concatenate(
            [np.zeros((0, dim)), *(q.item_rows for q in packets)]
        ).tobytes()
        for q in packets:
            assert nets[q.sender].tobytes() == q.net_grad.tobytes()
        if defense != "trimmed":
            assert not np.array_equal(rows, rr.rows)  # clipped in the block
    # round 2's adversary rows are the crafted ones
    crafted = [q for q in builds[1][0] if q.sender in world.adversary_ids]
    assert crafted and all(len(q.item_idx) for q in crafted)


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

    def gradients_spy(state, pairs, sender=-1):
        user_grad, pkt = real_gradients(state, pairs, sender=sender)
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


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"attack": "ra", "neg_ratio": 0}, id="ra-no-pairs"),
        pytest.param({"attack": "eb", "neg_ratio": 0}, id="eb-no-pairs"),
        pytest.param(
            {"attack": "pamn", "defense": "ucsu", "neg_ratio": 0}, id="pamn-ucsu-no-pairs"
        ),
        pytest.param({"attack": "eb", "alpha": 0}, id="eb-alpha-zero"),
        pytest.param({"attack": "psmu", "alpha": 0}, id="psmu-alpha-zero"),
    ],
)
def test_clients_without_pairs_send_empty_packets(tiny, monkeypatch, overrides):
    config = dataclasses.replace(tiny[0], **overrides)
    dataset = load_dataset(config)
    second = run_experiment(config, dataset)
    honest, absorbed, builds, current = [], [], [], {}
    real_gradients = simulation.compute_gradients
    real_collab = simulation.adversary_collab_update
    real_build = simulation.build_round_rows

    def gradients_spy(*args, **kwargs):
        user_grad, pkt = real_gradients(*args, **kwargs)
        honest.append(pkt)
        current[pkt.sender] = pkt
        return user_grad, pkt

    def collab_spy(adv, rr, *args):
        absorbed.append(([current[k] for k in sorted(current)], rr.senders.copy(), rr.rows.copy()))
        return real_collab(adv, rr, *args)

    def build_spy(*args, **kwargs):
        current.clear()  # the round's honest packets
        rr = real_build(*args, **kwargs)
        builds.append(set(rr.senders.tolist()))
        return rr

    monkeypatch.setattr(simulation, "compute_gradients", gradients_spy)
    monkeypatch.setattr(simulation, "adversary_collab_update", collab_spy)
    monkeypatch.setattr(simulation, "build_round_rows", build_spy)
    first, world = run_keeping_world(config, dataset)
    assert first == second
    no_pairs = {i for i, pairs in enumerate(world.pairs) if len(pairs) == 0}
    assert world.adversary_ids <= no_pairs
    # Every client's honest packet each round; a pairless client's carries
    # no item rows, and adversaries absorb honest packets only.
    assert len(honest) == config.rounds * world.num_clients and absorbed
    dim = world.clients[0].layout.embed_dim
    for q in honest:
        if q.sender in no_pairs:
            assert q.item_idx.shape == (0,) and q.item_rows.shape == (0, dim)
    for round_honest, senders, rows in absorbed:
        assert senders.tolist() == [q.sender for q in round_honest for _ in q.item_idx]
        assert rows.tobytes() == np.concatenate(
            [np.zeros((0, dim)), *(q.item_rows for q in round_honest)]
        ).tobytes()
    # One consolidation per round; round 1's packets are honest (the
    # adversaries conceal), later rounds carry the crafted ones.
    assert len(builds) == config.rounds
    assert builds[0].isdisjoint(no_pairs)
    if config.neg_ratio == 0:
        # no client has pairs, so only crafted packets carry item rows
        assert no_pairs == set(range(world.num_clients))
        craft = set() if config.attack == "ra" else world.adversary_ids
        assert all(senders <= craft for senders in builds[1:])



@pytest.mark.parametrize(
    "period, due",
    [(1, [1, 2, 3, 4, 5, 6, 7]), (2, [1, 3, 5, 7]), (3, [1, 4, 7]), (10, [1])],
)
def test_neighbors_refresh_on_rounds_one_mod_period(tiny, monkeypatch, period, due):
    config = dataclasses.replace(tiny[0], attack="none", refresh_every=period)
    calls = []
    real_assign = simulation.assign_neighbors

    def assign_spy(*args, **kwargs):
        calls.append(None)
        return real_assign(*args, **kwargs)

    monkeypatch.setattr(simulation, "assign_neighbors", assign_spy)
    world = init_world(config, tiny[1])
    refreshed = []
    for t in range(1, 8):
        before = len(calls)
        run_round(world, config)
        if len(calls) > before:
            refreshed.append(t)
    assert refreshed == due

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
    for i, (state, pairs) in enumerate(zip(world.clients, world.pairs, strict=True)):
        opt = client_moments(world, i)
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


def toy_dataset(num_items, seed):
    """Six users' train sets over num_items items, with tied and zero train
    counts (test sets and pairs are not read by select_cold_targets)."""
    rng = np.random.default_rng(seed)
    train = [np.unique(rng.integers(0, num_items, size=rng.integers(0, 12))) for _ in range(6)]
    empty = [np.zeros(0, dtype=np.int64)] * 6
    return Dataset(num_users=6, num_items=num_items, train=train, test=empty, pairs=empty)


@pytest.mark.parametrize(
    "num_items, num_targets",
    [(1, 1), (9, 1), (9, 3), (9, 9), (37, 1), (37, 3), (37, 9), (120, 3), (120, 12)],
)
def test_cold_targets_come_from_the_coldest_decile(num_items, num_targets):
    for seed in range(5):
        dataset = toy_dataset(num_items, seed)
        counts = [0] * num_items
        for items in dataset.train:
            for i in items.tolist():
                counts[i] += 1
        pool_size = max(num_targets, math.ceil(num_items / 10))
        pool = sorted(range(num_items), key=lambda i: (counts[i], i))[:pool_size]
        targets = select_cold_targets(dataset, num_targets, root_seed=seed)
        assert targets.dtype == np.int64
        assert targets.tolist() == sorted(set(targets.tolist()))
        assert len(targets) == num_targets and set(targets.tolist()) <= set(pool)
        if pool_size == num_targets:
            assert targets.tolist() == sorted(pool)
        again = select_cold_targets(dataset, num_targets, root_seed=seed)
        assert again.tobytes() == targets.tobytes()


def test_more_targets_than_items_is_rejected():
    with pytest.raises(ConfigError, match="num_targets exceeds the item count"):
        select_cold_targets(toy_dataset(4, 0), 5, root_seed=0)
