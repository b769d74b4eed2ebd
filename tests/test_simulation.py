"""Round loop on a tiny synthetic world: thread-count invariance and
same-seed determinism for every per-receiver robust aggregator, and for
PAMN against UCSU with banks small enough to evict; the round rows UCSU
keeps alive and the norms its clip bounds; the packets dropped once a
round's rows are consolidated, once per round; the round block that holds
the bytes of every sent packet; what adversaries absorb; the attacks that
craft through pamn_poison, and the one snapshot of every adversary's user
embedding their diversity step reads; the empty
packets of clients without training pairs; the neighbor
refresh cadence; init_world's pair checks and each client's Adam
item-moment cover; the cold targets select_cold_targets draws; and every
aggregate a receiver applies, under each defense, against its oracle in
helpers.py, byte for byte."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from decrecsim.cli import load_dataset
from decrecsim.config import ExperimentConfig
from decrecsim.dataset import Dataset
from decrecsim.defenses import RoundRows, resolve_trim_k
from decrecsim.errors import ConfigError, ContractError
from decrecsim.metrics import benign_ids
from decrecsim import defenses, simulation
from decrecsim.simulation import (
    _mean_in_order,
    init_world,
    run_experiment,
    run_round,
    select_cold_targets,
)
from decrecsim.synthetic import generate_interactions, write_movielens_dat
from helpers import (
    ReferenceBank,
    absorb,
    adaptive_clip,
    assert_round_compacted,
    brute_force_krum,
    brute_force_l2clip,
    client_moments,
    concat_round_rows,
    dense_block_median,
    dense_block_trimmed,
    per_item_mean_loop,
    received_packets,
    row_senders,
    run_keeping_world,
)

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


def run_recording_aggregates(config, dataset, monkeypatch):
    """A world after config.rounds rounds, and every aggregate its benign
    receivers applied: {(round, receiver): (senders, items, rows, net mean)}."""
    world = init_world(config, dataset)
    receiver = {id(c): i for i, c in enumerate(world.clients)}
    applied = {}
    real_apply = simulation.apply_neighbor_aggregate

    def apply_spy(state, items, rows, net_mean, lr):
        i = receiver[id(state)]
        applied[world.round + 1, i] = (world.neighbor_map.neighbors_of(i), items.copy(), rows.copy(), net_mean.copy())
        real_apply(state, items, rows, net_mean, lr)

    with monkeypatch.context() as m:
        m.setattr(simulation, "apply_neighbor_aggregate", apply_spy)
        for _ in range(config.rounds):
            run_round(world, config)
    return world, applied


@pytest.mark.parametrize("case", CASES)
def test_two_workers_bit_identical_to_one(tiny, monkeypatch, case):
    # The applied aggregates are compared too: the lr step absorbs their
    # last bits, so equal client parameters could hide aggregates off by ulps.
    config, dataset = tiny
    serial, serial_applied = run_recording_aggregates(
        dataclasses.replace(config, **case, workers=1), dataset, monkeypatch
    )
    threaded, threaded_applied = run_recording_aggregates(
        dataclasses.replace(config, **case, workers=2), dataset, monkeypatch
    )
    assert serial_applied.keys() == threaded_applied.keys()
    assert len(serial_applied) == serial.round * len(benign_ids(serial))
    for key, got in threaded_applied.items():
        for a, b in zip(serial_applied[key], got, strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), key
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


def dict_rows(rows_of: dict, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """A per-item oracle's {item: row} as (ascending item ids, their rows)."""
    ids = sorted(rows_of)
    return np.array(ids, dtype=np.int64), np.array([rows_of[i] for i in ids]).reshape(-1, dim)


def ucsu_oracle(banks, config, t, i, pkts):
    """Receiver i's UCSU aggregate of round t by its ReferenceBank: the
    packets its neighbors sent, clipped to mu, banked, the top nu popped,
    adaptively clipped and averaged per item, one row at a time."""
    dim = config.embed_dim
    bank = banks.setdefault(i, ReferenceBank(config.capacity_rounds))
    rr = concat_round_rows(pkts, t, config.mu, config.p, bank=True, embed_dim=dim)
    bank.ingest(rr, range(len(rr.items)))
    bank.evict(t)
    items, rows = bank.pop(config.nu)
    return dict_rows(per_item_mean_loop(items, adaptive_clip(np.array(rows), config.p)) if items else {}, dim)


@pytest.mark.parametrize("defense", ["none", "l2clip", "median", "trimmed", "krum", "ucsu"])
def test_applied_aggregates_have_the_oracle_bits(tiny, monkeypatch, defense):
    """Over 2 rounds of a pamn world with 20 neighbors, each benign
    receiver applies, byte for byte, its defense's oracle over the packets
    its neighbors sent (read before build_round_rows clips them in place),
    and the bits of nets[senders].mean(axis=0) as its net mean.  The
    aggregates are compared, not the world: the lr step absorbs their last
    bits.  At 20 neighbors trim_k is 2, so the trimmed mean sorts some
    items' lines narrower than 20; pamn's rows exceed mu, so the clips act;
    and some item reaches the median's sorted ranks."""
    config, dataset = tiny
    config = dataclasses.replace(config, attack="pamn", defense=defense, neighbors=20)
    dim = config.embed_dim
    sent, blocks = {}, []
    real_build = simulation.build_round_rows

    class BlockSpy(simulation.RoundBlock):
        def __init__(self, *args):
            super().__init__(*args)
            blocks.append(self)

    def build_spy(rr, *args, **kwargs):
        sent[rr.round] = RoundRows(rr.round, rr.sender_start.copy(), rr.items.copy(), rr.rows.copy())
        return real_build(rr, *args, **kwargs)

    monkeypatch.setattr(simulation, "RoundBlock", BlockSpy)
    monkeypatch.setattr(simulation, "build_round_rows", build_spy)
    world, applied = run_recording_aggregates(config, dataset, monkeypatch)
    assert len(applied) == config.rounds * len(benign_ids(world))
    assert max(np.linalg.norm(rr.rows, axis=1).max() for rr in sent.values()) > config.mu
    # per receiver: the median sorts some item, the trimmed mean some line narrow
    banks, engaged = {}, []
    for (t, i), (senders, items, rows, net_mean) in sorted(applied.items()):
        n = len(senders)
        assert n == config.neighbors
        pkts = received_packets(sent[t], senders)
        carriers = np.bincount(np.concatenate([q.item_idx for q in pkts]))
        if defense in ("none", "l2clip"):
            mu = config.mu if defense == "l2clip" else np.inf
            want = dict_rows(brute_force_l2clip(pkts, dataset.num_items, dim, mu, config.p), dim)
        elif defense == "median":
            engaged.append(carriers.max() >= (n - 1) // 2 + 1)
            want = dense_block_median(pkts)
        elif defense == "trimmed":
            trim_k = resolve_trim_k(n)
            kept = carriers[carriers > trim_k]
            engaged.append(np.any(defenses._trimmed_widths(kept, n, trim_k) < n))
            want = dense_block_trimmed(pkts, trim_k)
        elif defense == "krum":
            want = dict_rows(brute_force_krum(pkts, dataset.num_items, dim), dim)
        else:
            want = ucsu_oracle(banks, config, t, i, pkts)
        assert items.tolist() == want[0].tolist(), (t, i)
        assert (rows.shape, rows.tobytes()) == (want[1].shape, want[1].tobytes()), (t, i)
        assert net_mean.tobytes() == blocks[t - 1].nets[senders].mean(axis=0).tobytes(), (t, i)
    assert any(engaged) or defense not in ("median", "trimmed")


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
    # net row is its sender's sent net gradient.  The benign packets fill
    # the block but for num_items rows per adversary.
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
        raw = (row_senders(rr), rr.items.copy(), rr.rows.copy())
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
    reserve = len(world.adversary_ids) * dataset.num_items
    for block, (packets, (senders, items, rows), rr, nets) in zip(blocks, builds):
        assert [q.sender for q in packets] == list(range(world.num_clients))
        benign_rows = sum(len(q.item_idx) for q in packets if q.sender not in world.adversary_ids)
        assert benign_rows == len(block.rows) - reserve
        assert senders.tobytes() == np.concatenate(
            [np.full(len(q.item_idx), q.sender, dtype=np.int32) for q in packets]
        ).tobytes()
        assert items.tobytes() == np.concatenate(
            [q.item_idx.astype(np.int32) for q in packets]
        ).tobytes()
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


def run_spying_attacks(world, config, monkeypatch):
    """Run config.rounds rounds of world; return every call run_round made
    to the attack step's functions, in call order, as (round, name,
    adversary id, copies of the arguments after the adversary, result)."""
    calls = []
    for name in (
        "update_adversary_user_embedding",
        "select_substitute_items",
        "pamn_poison",
        "baseline_poison",
    ):
        real = getattr(simulation, name)

        def spy(adv, *args, _real=real, _name=name):
            t = world.round + 1
            seen = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
            result = _real(adv, *args)
            calls.append((t, _name, adv.client_id, seen, result))
            return result

        monkeypatch.setattr(simulation, name, spy)
    for _ in range(config.rounds):
        run_round(world, config)
    return calls


def same_bytes(a, b):
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


@pytest.mark.parametrize(
    "attack, workers",
    [("pamn", 1), ("psmu", 1), ("pamn", 2), ("psmu", 2)],
    ids=["pamn", "psmu", "pamn-threads", "psmu-threads"],
)
def test_fine_tune_attacks_craft_through_pamn_poison(tiny, monkeypatch, attack, workers):
    # psmu crafts as pamn does, with the same substitute selection, and only
    # pamn steps its user embedding first.  Each adversary's pamn_poison
    # call takes, as its substitutes, the array its own
    # select_substitute_items call returned that round, on the pool too.
    config, dataset = tiny
    config = dataclasses.replace(config, attack=attack, workers=workers)
    world = init_world(config, dataset)
    calls = run_spying_attacks(world, config, monkeypatch)
    per_adversary = ["select_substitute_items", "pamn_poison"]
    if attack == "pamn":
        per_adversary = ["update_adversary_user_embedding", *per_adversary]
    assert {t for t, *_ in calls} == {2}  # round 1 conceals
    if workers == 1:
        assert [name for _, name, *_ in calls] == per_adversary * len(world.adversary_ids)
    for a in world.adversary_ids:
        own = [(name, args, result) for _, name, cid, args, result in calls if cid == a]
        assert [name for name, _, _ in own] == per_adversary
        (_, _, substitutes), (_, poison_args, _) = own[-2:]
        assert same_bytes(poison_args[0], world.target_items)
        assert same_bytes(poison_args[1], substitutes)


def test_diversity_step_reads_one_snapshot_of_every_adversary(tiny, monkeypatch):
    # Every adversary's round-2 diversity step sums over one snapshot, the
    # adversaries' user embeddings in ascending id order as they stand at
    # the round's first step, on the pool too; and the configured lambda
    # and norm order reach it.
    config, dataset = tiny
    config = dataclasses.replace(config, attack="pamn", lam=0.37, p=1)
    real = simulation.update_adversary_user_embedding
    snapshots = []
    for workers in (1, 2):
        world = init_world(config, dataset)
        adv_ids = sorted(world.adversary_ids)
        live = []

        def live_spy(adv, *args):
            live.append(np.stack([world.clients[a].user_vec for a in adv_ids]))
            real(adv, *args)

        with monkeypatch.context() as m:
            m.setattr(simulation, "update_adversary_user_embedding", live_spy)
            calls = run_spying_attacks(world, dataclasses.replace(config, workers=workers), m)
        steps = [args for _, name, _, args, _ in calls if name == "update_adversary_user_embedding"]
        assert len(steps) == len(adv_ids) >= 2
        for others, lam, p, lr in steps:
            assert same_bytes(others, steps[0][0])
            assert (lam, p, lr) == (config.lam, config.p, config.lr)
        snapshots.append(steps[0][0])
        if workers == 1:
            # the later steps would read live embeddings that earlier ones moved
            assert same_bytes(steps[0][0], live[0])
            assert not any(same_bytes(steps[0][0], now) for now in live[1:])
    assert same_bytes(snapshots[1], snapshots[0])


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
        absorbed.append(([current[k] for k in sorted(current)], row_senders(rr), rr.rows.copy()))
        return real_collab(adv, rr, *args)

    def build_spy(*args, **kwargs):
        current.clear()  # the round's honest packets
        rr = real_build(*args, **kwargs)
        builds.append(set(row_senders(rr).tolist()))
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
    nets = rng.normal(size=(60, 257)) * 10.0 ** rng.integers(-8, 8, size=(60, 257))
    senders = np.sort(rng.choice(60, size=count, replace=False))
    nets[senders[0], :3] = [-0.0, 0.0, -0.0]
    assert _mean_in_order(nets, senders).tobytes() == nets[senders].mean(axis=0).tobytes()


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
