"""Kernel microbenchmarks at the sizes of the `pamn_ucsu_m` workload.

One client has 848 items, embed_dim 32 and the default (64, 32, 16) net; a
local minibatch is 32 pairs; a client trains on 111 items; a UCSU receiver
banks the rows of 50 senders of about 110 rows each per round.

Time them with ``PYTHONPATH=src python -m pytest benchmarks``; CI runs
each once with ``--benchmark-disable``.  They sit outside the tier-1
``testpaths``.
"""

from __future__ import annotations

import numpy as np
import pytest

from decrecsim.defenses import MemoryBank, build_round_rows
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

NUM_ITEMS = 848
EMBED_DIM = 32
WIDTHS = [64, 32, 16]
TRAIN_ITEMS = 111
SENDERS = 50
ROWS_PER_SENDER = 110
BANK_ROUNDS = 6


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


def round_rows(round_no: int, rng: np.random.Generator):
    packets = []
    for sender in range(SENDERS):
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
    return build_round_rows(packets, round_no)


@pytest.fixture(scope="module")
def rounds():
    rng = np.random.default_rng(4)
    return [round_rows(r, rng) for r in range(1, BANK_ROUNDS + 1)]


def filled_bank(rounds) -> MemoryBank:
    bank = MemoryBank(capacity_rounds=len(rounds))
    for rr in rounds:
        bank.ingest(rr, np.arange(len(rr.items)))
    return bank


def test_bank_ingest(benchmark, rounds):
    banked, last = rounds[:-1], rounds[-1]
    refs = np.arange(len(last.items))

    def setup():
        return (filled_bank(banked), last, refs), {}

    benchmark.pedantic(MemoryBank.ingest, setup=setup, rounds=20)
    bank = filled_bank(banked)
    bank.ingest(last, refs)
    assert bank.size() == sum(len(rr.items) for rr in rounds)


def test_bank_pop_top_fraction(benchmark, rounds):
    def setup():
        return (filled_bank(rounds), 0.1), {}

    items, rows = benchmark.pedantic(MemoryBank.pop_top_fraction, setup=setup, rounds=20)
    assert len(items) == len(rows) == -(-sum(len(rr.items) for rr in rounds) // 10)
