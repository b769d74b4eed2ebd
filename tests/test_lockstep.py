"""Lockstep local training: every client of a world trained in blocks, one
batched step per block, against helpers.reference_step run per client, byte
for byte; and the stacked state a World keeps, whose per-client states are
views of it."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decrecsim.cli import load_dataset
from decrecsim.config import ExperimentConfig
from decrecsim.model import (
    LOCAL_BATCH_SIZE,
    block_views,
    client_views,
    local_train_step,
    stack_states,
)
from decrecsim.simulation import _train_in_lockstep, init_world
from decrecsim.synthetic import generate_interactions, write_movielens_dat
from helpers import (
    MOMENT_FIELDS,
    block_of_one,
    copy_moments,
    init_client_state,
    make_state,
    random_pairs,
    reference_round_training,
    reference_step,
)

@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A psmu-attacked config over 40 users x 60 items, and its dataset."""
    path = tmp_path_factory.mktemp("data") / "ratings.dat"
    write_movielens_dat(str(path), generate_interactions(40, 60, seed=3))
    config = ExperimentConfig(
        dataset_path=str(path),
        embed_dim=4,
        layer_widths=(8, 4),
        attack="psmu",
        xi=0.1,
        alpha=5,
        num_targets=2,
        min_count=2,
        lr=0.05,
        seed=11,
    )
    return config, load_dataset(config)


def with_pair_counts(dataset, counts, seed=0):
    """The dataset with user u's pairs replaced by counts[u] random pairs."""
    rng = np.random.default_rng(seed)
    pairs = [random_pairs(rng, dataset.num_items, int(c)) for c in counts]
    return dataclasses.replace(dataset, pairs=pairs)


def assert_matches_reference(world, expected):
    for i, (want_state, want_opt) in enumerate(expected):
        state, opt = world.clients[i], world.optimizers[i]
        for name in ("user_vec", "item_table", "net"):
            assert getattr(state, name).tobytes() == getattr(want_state, name).tobytes(), (i, name)
        for name in MOMENT_FIELDS:
            assert getattr(opt, name).tobytes() == getattr(want_opt, name).tobytes(), (i, name)


def train_rounds(world, lr, rounds):
    for t in range(1, rounds + 1):
        expected = reference_round_training(world, t, lr)
        _train_in_lockstep(world, t, lr)
        assert_matches_reference(world, expected)


def test_every_remainder_size_matches_reference(tiny):
    # Pair counts 0-31 give every last-batch size 1-31 and clients with no
    # pairs; the larger counts give full batches next to ragged ones.
    config, dataset = tiny
    counts = list(range(32)) + [32, 33, 63, 64, 65, 97, 150, 0]
    world = init_world(config, with_pair_counts(dataset, counts))
    before = [(s.copy(), opt.t.copy()) for s, opt in zip(world.clients, world.optimizers)]
    train_rounds(world, config.lr, 2)
    for i in range(len(counts)):
        if counts[i] == 0:
            state, t = before[i]
            assert world.clients[i].item_table.tobytes() == state.item_table.tobytes()
            assert world.clients[i].net.tobytes() == state.net.tobytes()
            assert int(world.optimizers[i].t) == int(t) == 0
        else:
            assert int(world.optimizers[i].t) == 2 * -(-counts[i] // LOCAL_BATCH_SIZE)


def test_psmu_adversaries_keep_their_shared_user(tiny):
    config, dataset = tiny
    world = init_world(config, dataset)
    assert world.adversary_ids
    shared = {a: world.clients[a].user_vec.copy() for a in world.adversary_ids}
    train_rounds(world, config.lr, 2)
    for a in world.adversary_ids:
        assert world.clients[a].user_vec.tobytes() == shared[a].tobytes()
        assert not world.optimizers[a].m_user.any() and int(world.optimizers[a].t) > 0
    benign = next(i for i in range(world.num_clients) if i not in world.adversary_ids)
    assert world.optimizers[benign].m_user.any()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 80), min_size=40, max_size=40), st.integers(0, 2**16))
def test_random_pair_counts_match_reference(tiny, counts, seed):
    config, dataset = tiny
    world = init_world(config, with_pair_counts(dataset, counts, seed))
    train_rounds(world, config.lr, 1)


@pytest.mark.parametrize("size", [1, 5, 32, 33])
@pytest.mark.parametrize("update_user", [True, False])
def test_block_of_one_matches_reference(size, update_user):
    rng = np.random.default_rng(size)
    want = make_state(size, num_items=30)
    pairs = random_pairs(rng, 30, size)
    block, opt = block_of_one(want, np.unique(pairs))
    want_opt = copy_moments(client_views(block, opt, 0)[1])
    for _ in range(3):
        local_train_step(block, pairs[None], opt, 0.05, update_user=update_user)
        reference_step(want, want_opt, pairs, 0.05, update_user)
    state, client_opt = client_views(block, opt, 0)
    for name in ("user_vec", "item_table", "net"):
        assert getattr(state, name).tobytes() == getattr(want, name).tobytes()
    for name in MOMENT_FIELDS:
        assert getattr(client_opt, name).tobytes() == getattr(want_opt, name).tobytes()


def test_block_steps_each_client_as_alone():
    # Three clients of one stack stepped as one block, against each stepped
    # alone at production widths: a mixed update_user mask, and item moments
    # that cover different items per client.
    rng = np.random.default_rng(7)
    num_items = 50
    alone = [init_client_state(num_items, 32, [64, 32, 16], np.random.default_rng(s)) for s in range(3)]
    batches = np.stack([random_pairs(rng, num_items, 12) for _ in range(3)])
    stacked, stacked_opt = stack_states(alone[0].layout, num_items, [np.unique(b) for b in batches])
    for j, s in enumerate(alone):
        view, _ = client_views(stacked, stacked_opt, j)
        view.user_vec[...], view.item_table[...], view.net[...] = s.user_vec, s.item_table, s.net
    opts = [copy_moments(client_views(stacked, stacked_opt, j)[1]) for j in range(3)]
    mask = np.array([True, False, True])
    for _ in range(2):
        state, opt = block_views(stacked, stacked_opt, 0, 3)
        local_train_step(state, batches, opt, 0.01, update_user=mask)
        for j in range(3):
            reference_step(alone[j], opts[j], batches[j], 0.01, bool(mask[j]))
    for j in range(3):
        view, view_opt = client_views(stacked, stacked_opt, j)
        for name in ("user_vec", "item_table", "net"):
            assert getattr(view, name).tobytes() == getattr(alone[j], name).tobytes()
        for name in MOMENT_FIELDS:
            assert getattr(view_opt, name).tobytes() == getattr(opts[j], name).tobytes()


def same_memory(view, stacked_row):
    return (
        view.shape == stacked_row.shape
        and view.__array_interface__["data"][0] == stacked_row.__array_interface__["data"][0]
        and view.strides == stacked_row.strides
    )


@pytest.mark.parametrize("attack", ["none", "psmu", "pamn"])
def test_client_states_are_views_of_the_stack(tiny, attack):
    config, dataset = tiny
    world = init_world(dataclasses.replace(config, attack=attack), dataset)
    stacked, opt = world.stacked, world.stacked_opt
    counts = [len(world.pairs[i]) for i in world.stack_ids.tolist()]
    assert counts == sorted(counts, reverse=True)
    assert sorted(world.stack_ids.tolist()) == list(range(world.num_clients))
    for pos, i in enumerate(world.stack_ids.tolist()):
        state, client_opt = world.clients[i], world.optimizers[i]
        assert same_memory(state.user_vec, stacked.user_vec[pos])
        assert same_memory(state.item_table, stacked.item_table[pos])
        assert same_memory(state.net, stacked.net[pos])
        assert same_memory(client_opt.t, opt.t[pos, ...])
        for name in ("m_user", "v_user", "m_net", "v_net"):
            assert same_memory(getattr(client_opt, name), getattr(opt, name)[pos])
        rows = slice(opt.row_start[pos], opt.row_start[pos + 1])
        for name in ("rows", "m_items", "v_items"):
            assert same_memory(getattr(client_opt, name), getattr(opt, name)[rows])
        if i in world.adversaries:
            assert world.adversaries[i].base is state
    # a write through a client's view lands in the stack, and back
    first = world.stack_ids[0]
    world.clients[first].item_table[0, 0] = 123.0
    world.stacked.net[0, 0] = -7.0
    assert world.stacked.item_table[0, 0, 0] == 123.0 and world.clients[first].net[0] == -7.0
    block, block_opt = block_views(stacked, opt, 1, 4)
    assert np.shares_memory(block.item_table, stacked.item_table)
    assert np.shares_memory(block_opt.m_items, opt.m_items)
    assert block_opt.row_start[0] == 0 and len(block_opt.rows) == block_opt.row_start[-1]
