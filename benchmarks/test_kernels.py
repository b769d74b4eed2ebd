"""Kernel microbenchmarks at the sizes of the `pamn_ucsu_m` workload.

One client has 848 items, embed_dim 32 and the default (64, 32, 16) net; a
local minibatch is 32 pairs; a client trains on 111 items; a UCSU receiver
banks the rows of 50 senders of about 110 rows each per round, and its bank
is timed in the steady state, after 11 rounds that each end with a 10% pop,
and so is one UCSU receive on it (ingest, pop, adaptive clip and per-item
mean); a round's rows are compacted after the 10% pops of 600 such receivers
among 630 senders; the server picks N = 50 neighbors for 630 clients from
sketches of 16 bits per item.  Evaluation is timed on the `eb_trimmed_s` world (S: 200 users x
400 items).

Time them with ``PYTHONPATH=src python -m pytest benchmarks``; CI runs
each once with ``--benchmark-disable``.  They sit outside the tier-1
``testpaths``.
"""

from __future__ import annotations

import numpy as np
import pytest

from decrecsim.cli import load_dataset
from decrecsim.config import ExperimentConfig
from decrecsim.defenses import MemoryBank, build_round_rows, compact_round_rows, ucsu_aggregate
from decrecsim.metrics import evaluate_world
from decrecsim.model import (
    LOCAL_BATCH_SIZE,
    AdamState,
    GradientPacket,
    _backward,
    _forward,
    adam_step,
    init_client_state,
    scatter_add_rows,
)
from decrecsim.neighbors import assign_neighbors
from decrecsim.simulation import init_world
from decrecsim.synthetic import generate_interactions, write_movielens_dat

NUM_ITEMS = 848
EMBED_DIM = 32
WIDTHS = [64, 32, 16]
TRAIN_ITEMS = 111
SENDERS = 50
ROWS_PER_SENDER = 110
BANK_ROUNDS = 11  # capacity_rounds (10) + 1: the bank's steady size
POP_FRACTION = 0.1
CLIENTS = 630
RECEIVERS = 600
SKETCH_BITS = 16
NEIGHBORS = 50


@pytest.fixture(scope="module")
def client():
    """(state, training item ids, one minibatch's item ids in pair order)."""
    rng = np.random.default_rng(0)
    state = init_client_state(NUM_ITEMS, EMBED_DIM, WIDTHS, rng)
    train_items = np.sort(rng.choice(NUM_ITEMS, size=TRAIN_ITEMS, replace=False))
    batch = rng.choice(train_items, size=2 * LOCAL_BATCH_SIZE)
    return state, train_items, batch


def test_forward(benchmark, client):
    state, _, batch = client
    z, _, _ = benchmark(_forward, state, batch)
    assert z.shape == (len(batch),)


def test_backward(benchmark, client):
    state, _, batch = client
    z, inputs, masks = _forward(state, batch)
    g = np.random.default_rng(1).normal(size=len(z))
    net_grad, _, item_rows = benchmark(_backward, state, inputs, masks, g)
    assert net_grad.shape == state.net.shape and item_rows.shape == (len(batch), EMBED_DIM)


def test_scatter_add_rows(benchmark, client):
    _, _, batch = client
    rows = np.random.default_rng(2).normal(size=(len(batch), EMBED_DIM))
    uniq, sums, _ = benchmark(scatter_add_rows, batch, rows)
    assert np.allclose(sums.sum(axis=0), rows.sum(axis=0))
    assert np.array_equal(uniq, np.unique(batch))


@pytest.mark.parametrize("cover", ["full", "compact"])
def test_adam_step(benchmark, client, cover):
    state, train_items, batch = client
    state = state.copy()
    opt = AdamState.for_state(state) if cover == "full" else AdamState.for_state(state, train_items)
    rng = np.random.default_rng(3)
    item_idx = np.unique(batch)
    item_rows = rng.normal(size=(len(item_idx), EMBED_DIM)) * 1e-3
    net_grad = rng.normal(size=state.layout.size) * 1e-3
    benchmark(adam_step, state, opt, item_idx, item_rows, net_grad, 1e-3)
    assert opt.t >= 1


def round_rows(round_no: int, rng: np.random.Generator, senders: int = SENDERS):
    packets = []
    for sender in range(senders):
        idx = np.sort(rng.choice(NUM_ITEMS, size=ROWS_PER_SENDER, replace=False))
        packets.append(
            GradientPacket(
                sender=sender,
                round=round_no,
                item_idx=idx,
                item_rows=rng.normal(size=(ROWS_PER_SENDER, EMBED_DIM)),
                net_grad=np.zeros(1),
            )
        )
    return build_round_rows(packets, round_no, NUM_ITEMS, EMBED_DIM, 1)


@pytest.fixture(scope="module")
def rounds():
    rng = np.random.default_rng(4)
    return [round_rows(r, rng) for r in range(1, BANK_ROUNDS + 2)]


def steady_bank(rounds) -> MemoryBank:
    """A bank after ingest, evict and a 10% pop in each of the given rounds,
    so its chunks hold popped remainders."""
    bank = MemoryBank(capacity_rounds=BANK_ROUNDS - 1)
    for rr in rounds:
        bank.ingest(rr, np.arange(len(rr.items)))
        bank.evict(rr.round)
        bank.pop_top_fraction(POP_FRACTION)
    return bank


def test_bank_ingest(benchmark, rounds):
    banked, last = rounds[:BANK_ROUNDS], rounds[BANK_ROUNDS]
    refs = np.arange(len(last.items))

    def setup():
        return (steady_bank(banked), last, refs), {}

    benchmark.pedantic(MemoryBank.ingest, setup=setup, rounds=20)
    bank = steady_bank(banked)
    before = bank.size()
    bank.ingest(last, refs)
    assert bank.size() == before + len(refs)


def test_bank_pop_top_fraction(benchmark, rounds):
    banked, last = rounds[:BANK_ROUNDS], rounds[BANK_ROUNDS]

    def setup():
        bank = steady_bank(banked)
        bank.ingest(last, np.arange(len(last.items)))
        bank.evict(last.round)
        return (bank, POP_FRACTION), {}

    (bank, _), _ = setup()
    want = -(-bank.size() // 10)
    items, rows, norms = benchmark.pedantic(MemoryBank.pop_top_fraction, setup=setup, rounds=20)
    assert len(items) == len(rows) == len(norms) == want


def test_ucsu_aggregate(benchmark, rounds):
    banked, last = rounds[:BANK_ROUNDS], rounds[BANK_ROUNDS]
    senders = np.arange(SENDERS)

    def setup():
        return (steady_bank(banked), last, senders, POP_FRACTION), {}

    items, rows = benchmark.pedantic(ucsu_aggregate, setup=setup, rounds=20)
    assert len(items) == len(rows) and np.array_equal(items, np.unique(items))
    assert np.all(np.linalg.norm(rows, axis=1) <= 1.0 + 1e-12)


def test_compact_round_rows(benchmark):
    rng = np.random.default_rng(6)
    rr = round_rows(1, rng, senders=CLIENTS)
    neighbors = [np.sort(rng.choice(CLIENTS, size=SENDERS, replace=False)) for _ in range(RECEIVERS)]

    def setup():
        banks = [MemoryBank(capacity_rounds=BANK_ROUNDS - 1) for _ in range(RECEIVERS)]
        for bank, senders in zip(banks, neighbors):
            bank.ingest(rr, rr.refs_of(senders))
            bank.pop_top_fraction(POP_FRACTION)
        return (rr, banks), {}

    (_, banks), _ = setup()
    held = sum(bank.size() for bank in banks)
    benchmark.pedantic(compact_round_rows, setup=setup, rounds=5)
    compact_round_rows(rr, banks)
    small = banks[0]._chunks[0][0]
    assert small is not rr and len(small.items) < len(rr.items)
    assert sum(bank.size() for bank in banks) == held


def test_assign_neighbors(benchmark):
    rng = np.random.default_rng(5)
    sketches = rng.choice(np.array([-1.0, 1.0], dtype=np.float32), size=(CLIENTS, NUM_ITEMS * SKETCH_BITS))
    nmap = benchmark(assign_neighbors, sketches, NEIGHBORS, 1)
    assert len(nmap.assignments) == CLIENTS
    assert all(len(a) == NEIGHBORS and i not in a for i, a in enumerate(nmap.assignments))


@pytest.fixture(scope="module")
def small_world(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ratings.dat"
    write_movielens_dat(str(path), generate_interactions(200, 400, seed=6))
    config = ExperimentConfig(dataset_path=str(path), attack="eb", defense="trimmed", xi=0.05, seed=6)
    return config, init_world(config, load_dataset(config))


def test_evaluate_world(benchmark, small_world):
    config, world = small_world
    record = benchmark(evaluate_world, world, config.top_k, config.attack, config.defense, config.seed)
    assert 0.0 <= record.hr_at_k <= 1.0 and 0.0 <= record.er_at_k <= 1.0
