"""Kernel microbenchmarks at the sizes of the `pamn_ucsu_m` workload.

One client has 848 items, embed_dim 32 and the default (64, 32, 16) net; a
local minibatch is 32 pairs; a client trains on 111 items; a PAMN
adversary crafts its packet from such a client with 5 fine-tune steps
against a top-20 list, promoting 5 targets and 10 substitutes; a lockstep step
trains 630 such clients, stacked, each on one full minibatch (step 0 of a
round), in blocks of LOCKSTEP_BLOCK; a UCSU receiver banks the rows of 50
senders of about 110 rows each per round, and its bank is timed in the
steady state, after 11 rounds that each end with a 10% pop, and so is one
UCSU receive on it (ingest, pop, adaptive clip and per-item mean); one
receiver of all 50 senders of a round reads their rows with each
per-receiver defense (median, trimmed mean, Krum, plain mean); a round's
rows are compacted after the 10% pops of 600 such receivers among 630
senders, with every pop key tied at mu and with every key distinct; the
server picks N = 50 neighbors for 630 clients from sketches of 16 bits per
item.  Evaluation is timed on the `eb_trimmed_s` world (S: 200 users x 400
items).

The receiver benchmarks first touch and free one round's rows (630 senders
of 110 rows).  glibc's malloc raises its mmap threshold to the size of a
mapped block it frees, and a run frees its round rows every round, so a
receiver in a run allocates its temporaries from the heap.  In a fresh
process the threshold is still 128 KiB, so every large temporary of a krum
or mean receive is mapped and unmapped: run alone, they took about twice as
long as after a benchmark that happened to free a large block.

Time them with ``PYTHONPATH=src python -m pytest benchmarks``; CI runs
each once with ``--benchmark-disable``.  They sit outside the tier-1
``testpaths``.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from decrecsim.attacks import AdversaryState, build_adversary_dataset, pamn_poison
from decrecsim.cli import load_dataset
from decrecsim.config import ExperimentConfig
from decrecsim.defenses import (
    MemoryBank,
    RoundBlock,
    build_round_rows,
    compact_round_rows,
    item_krum_aggregate,
    l2_clip_aggregate,
    median_aggregate,
    resolve_trim_k,
    trimmed_mean_aggregate,
    ucsu_aggregate,
)
from decrecsim.metrics import evaluate_world
from decrecsim.model import (
    LOCAL_BATCH_SIZE,
    GradientPacket,
    NetLayout,
    _backward,
    _forward,
    block_views,
    client_views,
    draw_client_params,
    local_train_step,
    scatter_add_rows,
    stack_states,
)
from decrecsim.neighbors import assign_neighbors
from decrecsim.simulation import LOCKSTEP_BLOCK, init_world
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
    """(state, training item ids, one minibatch's item ids in pair order),
    the state drawn as a world draws a client's."""
    rng = np.random.default_rng(0)
    train_items = np.sort(rng.choice(NUM_ITEMS, size=TRAIN_ITEMS, replace=False))
    stacked, stacked_opt = stack_states(NetLayout(EMBED_DIM, WIDTHS), NUM_ITEMS, [train_items])
    state = client_views(stacked, 0)
    draw_client_params(state, rng)
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


def test_pamn_poison(benchmark, client):
    # One adversary's craft with the default knobs: e_ft 5 fine-tune steps
    # against a top-20 list, 5 targets and 10 substitutes, from the client's
    # state afresh each round.
    state, _, _ = client
    rng = np.random.default_rng(3)
    targets = np.sort(rng.choice(NUM_ITEMS, size=5, replace=False))
    positives, pairs = build_adversary_dataset(NUM_ITEMS, targets, 30, seed=3)
    substitutes = np.sort(rng.choice(np.setdiff1d(np.arange(NUM_ITEMS), targets), size=10, replace=False))

    def setup():
        adv = AdversaryState(0, state.copy(), positives, pairs, substitute_items=substitutes)
        return (adv, targets, 20, 5, 1e-3), {}

    pkt = benchmark.pedantic(pamn_poison, setup=setup, rounds=20)
    assert len(pkt.item_idx) and np.isfinite(pkt.net_grad).all()


@pytest.fixture(scope="module")
def stack():
    """(stacked state, its moments, one minibatch per client) of CLIENTS
    clients, each training on TRAIN_ITEMS items."""
    rng = np.random.default_rng(7)
    rows = [np.sort(rng.choice(NUM_ITEMS, size=TRAIN_ITEMS, replace=False)) for _ in range(CLIENTS)]
    state, opt = stack_states(NetLayout(EMBED_DIM, WIDTHS), NUM_ITEMS, rows)
    for j in range(CLIENTS):
        draw_client_params(client_views(state, j), rng)
    batches = np.stack([
        np.column_stack([r[:LOCAL_BATCH_SIZE], r[LOCAL_BATCH_SIZE : 2 * LOCAL_BATCH_SIZE]])
        for r in (rng.permutation(items) for items in rows)
    ])
    return state, opt, batches


def test_lockstep_step(benchmark, stack):
    state, opt, batches = stack

    def step():
        for first in range(0, CLIENTS, LOCKSTEP_BLOCK):
            last = min(first + LOCKSTEP_BLOCK, CLIENTS)
            block, block_opt = block_views(state, opt, first, last)
            local_train_step(block, batches[first:last], block_opt, 1e-3)

    before = opt.t.copy()
    benchmark.pedantic(step, rounds=5)
    steps = opt.t - before
    assert steps.min() == steps.max() >= 1 and np.isfinite(state.net).all()


def round_rows(round_no: int, rng: np.random.Generator, senders: int = SENDERS, mu: float = 1.0):
    """A banked round of standard normal rows sent into one round block.
    Their 2-norms are about 5.7, so at mu = 1 every pop key ties at mu, and
    at mu = inf the keys are distinct."""
    block = RoundBlock(senders * ROWS_PER_SENDER, EMBED_DIM, senders, 1)
    for sender in range(senders):
        idx = np.sort(rng.choice(NUM_ITEMS, size=ROWS_PER_SENDER, replace=False))
        block.send(
            GradientPacket(
                sender=sender,
                item_idx=idx,
                item_rows=rng.normal(size=(ROWS_PER_SENDER, EMBED_DIM)),
                net_grad=np.zeros(1),
            )
        )
    return build_round_rows(block.round_rows(round_no), NUM_ITEMS, mu, 2, bank=True)


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


def test_steady_bank_stores_two_bytes_per_entry(rounds):
    bank = steady_bank(rounds[:BANK_ROUNDS])
    assert bank.size() > 0 and bank.nbytes() == 2 * bank.size()


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


@pytest.fixture(scope="module")
def warm_allocator():
    """Touch and free one round's rows, as a round frees its RoundRows."""
    np.ones((CLIENTS * ROWS_PER_SENDER, EMBED_DIM))


@pytest.mark.parametrize(
    "aggregate",
    [
        median_aggregate,
        functools.partial(trimmed_mean_aggregate, trim_k=resolve_trim_k(SENDERS)),
        item_krum_aggregate,
        l2_clip_aggregate,
    ],
    ids=["median", "trimmed", "krum", "mean"],
)
def test_receiver_aggregate(benchmark, aggregate, warm_allocator):
    rr = round_rows(1, np.random.default_rng(8))
    items, rows = benchmark(aggregate, rr, np.arange(SENDERS))
    assert np.array_equal(items, np.unique(rr.items)) and rows.shape == (len(items), EMBED_DIM)


@pytest.mark.parametrize("mu", [1.0, np.inf], ids=["tied", "distinct"])
def test_compact_round_rows(benchmark, mu):
    rng = np.random.default_rng(6)
    rr = round_rows(1, rng, senders=CLIENTS, mu=mu)
    assert len(np.unique(rr.pop_neg_norm)) == (1 if mu == 1.0 else len(rr.items))
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
    small = banks[0].chunks()[0][0]
    assert small is not rr and len(small.items) < len(rr.items)
    assert sum(bank.size() for bank in banks) == held


def test_assign_neighbors(benchmark):
    rng = np.random.default_rng(5)
    sketches = rng.choice(np.array([-1.0, 1.0], dtype=np.float32), size=(CLIENTS, NUM_ITEMS * SKETCH_BITS))
    nmap = benchmark(assign_neighbors, sketches, NEIGHBORS)
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
