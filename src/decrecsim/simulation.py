"""Round engine: periodic neighbor refresh, lockstep local training,
gradient exchange, benign-side defenses, adversary-side attacks, and metric
snapshots.

Rounds are 1-based so the neighbor refresh condition ((round - 1) mod
period = 0) fires on the very first round.  Adversaries behave benignly
during round 1 (concealment before the initial neighbor identification) and
attack from round 2 on.  Every randomized step draws from a stream keyed by
(root seed, domain, client, round), so results never depend on execution
order.

Every client's parameters and Adam moments live in one stack on the World,
ordered by descending training-pair count, and each client's ClientState
and AdamState are views of its rows.  Local training runs in lockstep: at
each minibatch step the clients with a batch of one size form a slice of
the stack and train as blocks of at most LOCKSTEP_BLOCK clients, each
client with the bits of training alone.  The end-of-round gradients stay
per client.  The workers setting drives only the attack and defense phases,
whose thread-parallel execution is bit-identical to sequential execution.

A round's packets are consolidated once.  Adversaries absorb their
neighbors' honest packets straight from the packets; the defenses read the
one RoundRows of the round's final packets, after which only the packets'
net gradients are kept.  Every receiver's aggregate and mean net gradient
are applied by model.apply_neighbor_aggregate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from decrecsim import rng as rngmod
from decrecsim.attacks import (
    AdversaryState,
    AttackCoordinator,
    adversary_collab_update,
    baseline_poison,
    build_adversary_dataset,
    pamn_poison,
    select_substitute_items,
    update_adversary_user_embedding,
)
from decrecsim.config import ExperimentConfig
from decrecsim.dataset import Dataset
from decrecsim.defenses import (
    MemoryBank,
    build_round_rows,
    compact_round_rows,
    item_krum_aggregate,
    l2_clip_aggregate,
    median_aggregate,
    resolve_trim_k,
    trimmed_mean_aggregate,
    ucsu_aggregate,
)
from decrecsim.errors import ConfigError, ContractError
from decrecsim.metrics import MetricsRecord, benign_ids, evaluate_world
from decrecsim.model import (
    LOCAL_BATCH_SIZE,
    AdamState,
    ClientState,
    GradientPacket,
    NetLayout,
    apply_neighbor_aggregate,
    block_views,
    check_pairs,
    client_views,
    compute_gradients,
    draw_client_params,
    local_train_step,
    stack_states,
)
from decrecsim.neighbors import NeighborMap, assign_neighbors, make_hyperplanes, sketch_item_table

# Most clients a lockstep block trains at once.  At the default sizes a
# client-step's activations, gradients and Adam scratch take about 0.3 MB,
# so a block of 8 stays near a 2 MB L2 cache; larger blocks measured no
# faster within a round and slower alone.
LOCKSTEP_BLOCK = 8


@dataclass
class World:
    """Full mutable state of one simulated deployment.

    Every client's parameters and Adam moments live in one stack (stacked,
    stacked_opt), ordered by descending training-pair count (ties by
    ascending id; stack_ids[p] is the client at position p), so the clients
    that train at a lockstep step form a slice.  clients[i] and
    optimizers[i] are views of client i's rows of the stack.
    """

    clients: list[ClientState]
    optimizers: list[AdamState]
    pairs: list[np.ndarray]
    dataset: Dataset
    neighbor_map: NeighborMap | None
    adversary_ids: frozenset[int]
    adversaries: dict[int, AdversaryState]
    banks: dict[int, MemoryBank]
    target_items: np.ndarray
    hyperplanes: np.ndarray
    round: int
    rng_root: int
    stacked: ClientState
    stacked_opt: AdamState
    stack_ids: np.ndarray  # (clients,) int64

    @property
    def num_clients(self) -> int:
        return len(self.clients)


def select_cold_targets(dataset: Dataset, num_targets: int, root_seed: int) -> np.ndarray:
    """Sample targets uniformly from the coldest decile by train popularity."""
    if num_targets > dataset.num_items:
        raise ConfigError("num_targets exceeds the item count")
    counts = np.bincount(np.concatenate(dataset.train), minlength=dataset.num_items)
    order = np.argsort(counts, kind="stable")
    pool_size = max(num_targets, math.ceil(dataset.num_items / 10))
    pool = order[:pool_size]
    gen = rngmod.stream(root_seed, rngmod.DOMAIN_TARGET_CHOICE)
    return np.sort(pool[gen.choice(len(pool), size=num_targets, replace=False)])


def init_world(config: ExperimentConfig, dataset: Dataset) -> World:
    """Create benign clients from the dataset plus appended adversaries.

    The adversary count is ceil(xi * benign users) when an attack is
    configured, zero otherwise.  All parameters come from per-client streams
    derived from the root seed.  Every client's training pairs are checked
    here, once (ContractError on a bad pair), and its Adam item moments
    cover exactly the items of those pairs.
    """
    num_users = dataset.num_users
    root = int(config.seed)

    targets = select_cold_targets(dataset, config.num_targets, root)

    n_adv = math.ceil(config.xi * num_users) if config.attack != "none" else 0

    pairs = [check_pairs(p, dataset.num_items) for p in dataset.pairs]
    adv_positives: dict[int, np.ndarray] = {}
    for j in range(n_adv):
        cid = num_users + j
        data_seed = int(
            np.random.SeedSequence(
                [root, rngmod.DOMAIN_ADVERSARY_DATA, cid]
            ).generate_state(1)[0]
        )
        adv_positives[cid], adv_pairs = build_adversary_dataset(
            dataset.num_items,
            targets,
            config.alpha,
            data_seed,
            neg_ratio=config.neg_ratio,
            include_targets=(config.attack == "ra"),
        )
        pairs.append(check_pairs(adv_pairs, dataset.num_items))

    layout = NetLayout(config.embed_dim, list(config.layer_widths))
    stack_ids = np.argsort([-len(p) for p in pairs], kind="stable")
    stacked, stacked_opt = stack_states(
        layout, dataset.num_items, [np.unique(pairs[i]) for i in stack_ids.tolist()]
    )
    position = np.empty_like(stack_ids)
    position[stack_ids] = np.arange(len(stack_ids))
    clients: list[ClientState] = []
    optimizers: list[AdamState] = []
    for cid, pos in enumerate(position.tolist()):
        state, opt = client_views(stacked, stacked_opt, pos)
        draw_client_params(state, rngmod.stream(root, rngmod.DOMAIN_CLIENT_INIT, cid))
        clients.append(state)
        optimizers.append(opt)

    adversaries: dict[int, AdversaryState] = {}
    shared_user = rngmod.stream(root, rngmod.DOMAIN_SHARED_USER).uniform(
        -0.05, 0.05, size=config.embed_dim
    )
    for cid, positives in adv_positives.items():
        if config.attack == "psmu":
            clients[cid].user_vec[...] = shared_user
        adversaries[cid] = AdversaryState(
            client_id=cid,
            base=clients[cid],
            positives=positives,
            pairs=pairs[cid],
            fixed_user=config.attack == "psmu",
        )

    banks: dict[int, MemoryBank] = {}
    if config.defense == "ucsu":
        banks = {u: MemoryBank(config.capacity_rounds) for u in range(num_users)}

    hyperplanes = make_hyperplanes(
        config.embed_dim, config.sketch_dim, rngmod.stream(root, rngmod.DOMAIN_HYPERPLANES)
    )
    return World(
        clients=clients,
        optimizers=optimizers,
        pairs=pairs,
        dataset=dataset,
        neighbor_map=None,
        adversary_ids=frozenset(adversaries),
        adversaries=adversaries,
        banks=banks,
        target_items=targets,
        hyperplanes=hyperplanes,
        round=0,
        rng_root=root,
        stacked=stacked,
        stacked_opt=stacked_opt,
        stack_ids=stack_ids,
    )


def _train_in_lockstep(world: World, t: int, lr: float) -> None:
    """Every client's local minibatch steps of round t, in lockstep blocks.

    Each client shuffles its pairs with its own stream and steps through
    them in batches of LOCAL_BATCH_SIZE, the last batch holding the rest.
    At step s the clients with a batch of one size form slices of the stack
    (it is ordered by descending pair count), and each slice of at most
    LOCKSTEP_BLOCK clients trains as one block.  Blocks keep every client's
    batch size and step order, so each client gets the bits of training
    alone.  psmu adversaries keep their shared user embedding fixed.
    """
    ids = world.stack_ids.tolist()
    counts = np.array([len(world.pairs[i]) for i in ids], dtype=np.int64)
    starts = np.cumsum(counts) - counts
    shuffled = np.concatenate(
        [
            world.pairs[i][
                rngmod.stream(world.rng_root, rngmod.DOMAIN_ROUND_SHUFFLE, i, t).permutation(
                    len(world.pairs[i])
                )
            ]
            for i in ids
        ]
    )
    update_user = np.array(
        [not (i in world.adversaries and world.adversaries[i].fixed_user) for i in ids]
    )
    for offset in range(0, int(counts[0]), LOCAL_BATCH_SIZE):
        sizes = np.clip(counts - offset, 0, LOCAL_BATCH_SIZE)
        # Sizes never grow along the stack, so each run of one size is a slice.
        bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), len(sizes)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            size = int(sizes[lo])
            if size == 0:
                break
            for first in range(lo, hi, LOCKSTEP_BLOCK):
                last = min(first + LOCKSTEP_BLOCK, hi)
                state, opt = block_views(world.stacked, world.stacked_opt, first, last)
                batch = shuffled[starts[first:last, None] + offset + np.arange(size)]
                local_train_step(state, batch, opt, lr, update_user=update_user[first:last])


def _map_clients(worker, ids: list[int], workers: int) -> list:
    if workers <= 1:
        return [worker(i) for i in ids]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, ids))


def _mean_in_order(vectors: list[np.ndarray]) -> np.ndarray:
    """Add the vectors one by one in list order to zeros, then divide by
    their count.

    These are the bits of np.stack(vectors).mean(axis=0), whose reduction
    over the leading axis also adds row by row starting from 0.0 (so -0.0
    sums to 0.0), without building the stack.
    """
    total = np.zeros_like(vectors[0])
    for v in vectors:
        total += v
    total /= len(vectors)
    return total


def run_round(world: World, config: ExperimentConfig) -> None:
    """Advance the world by one round of the integration loop."""
    if world.round < 0:
        raise ContractError("world round must be >= 0")
    t = world.round + 1
    lr = config.lr

    # Phase 1: the server refreshes neighbors from everyone's sketches.
    if (t - 1) % config.refresh_every == 0:
        first = sketch_item_table(world.clients[0].item_table, world.hyperplanes)
        sketches = np.empty((world.num_clients, first.size), dtype=first.dtype)
        sketches[0] = first
        for i, c in enumerate(world.clients[1:], start=1):
            sketches[i] = sketch_item_table(c.item_table, world.hyperplanes)
        world.neighbor_map = assign_neighbors(sketches, config.neighbors)
        del sketches  # not held through the rest of the round

    nbr = world.neighbor_map

    # Phase 2: every client trains locally, in lockstep, then produces its
    # honest packet.
    _train_in_lockstep(world, t, lr)
    all_ids = list(range(world.num_clients))
    packets = [compute_gradients(world.clients[i], world.pairs[i], sender=i)[1] for i in all_ids]

    # Phase 3: adversaries absorb their neighbors' honest packets, then
    # craft this round's outgoing packets (from round 2 on; round 1 conceals).
    outgoing: dict[int, GradientPacket] = {}
    adv_ids = sorted(world.adversary_ids)
    if adv_ids and nbr is not None:
        for a in adv_ids:
            neigh = np.sort(nbr.neighbors_of(a)).tolist()
            if neigh:
                adversary_collab_update(
                    world.adversaries[a],
                    [packets[k] for k in neigh],
                    _mean_in_order([packets[k].net_grad for k in neigh]),
                    lr,
                )
    if adv_ids and t >= 2:
        coord = None
        if config.attack == "pamn":
            coord = AttackCoordinator(
                embeddings={a: world.clients[a].user_vec.copy() for a in adv_ids},
                lam=config.lam,
                norm_order=config.p,
            )

        def attack_one(a: int) -> GradientPacket:
            adv = world.adversaries[a]
            if config.attack == "pamn":
                update_adversary_user_embedding(adv, coord, lr)
                adv.substitute_items = select_substitute_items(
                    adv, world.target_items, config.s
                )
                return pamn_poison(adv, world.target_items, config.top_k, config.e_ft, lr)
            if config.attack == "psmu":
                adv.substitute_items = select_substitute_items(
                    adv, world.target_items, config.s
                )
            return baseline_poison(
                adv, world.target_items, config.attack, config.top_k, config.e_ft, lr
            )

        outgoing = dict(zip(adv_ids, _map_clients(attack_one, adv_ids, config.workers)))

    # Phase 4: benign clients apply the configured defense and aggregate.
    final_packets = [outgoing.get(i, packets[i]) for i in all_ids]
    benign = benign_ids(world)

    # Clipping to mu is receiver-independent, so l2clip and UCSU clip once
    # here, for every receiver; only UCSU's banks read the pop order.  Every
    # client shares one model shape, and each packet is checked against it.
    layout = world.clients[0].layout
    shared_rows = build_round_rows(
        final_packets,
        t,
        num_items=world.dataset.num_items,
        embed_dim=layout.embed_dim,
        net_size=layout.size,
        mu=config.mu,
        p=config.p,
        clip=config.defense in ("l2clip", "ucsu"),
        bank=config.defense == "ucsu",
    )
    # Every defense reads item rows from shared_rows, so of the packets only
    # the net gradients outlive consolidation.
    net_grads = [q.net_grad for q in final_packets]
    del packets, outgoing, final_packets

    def defend_one(i: int) -> None:
        neigh = nbr.neighbors_of(i) if nbr is not None else np.zeros(0, dtype=np.int64)
        if len(neigh) == 0:
            return
        ordered = np.sort(neigh)
        if config.defense in ("none", "l2clip"):
            items, rows = l2_clip_aggregate(shared_rows, ordered)
        elif config.defense == "ucsu":
            items, rows = ucsu_aggregate(world.banks[i], shared_rows, ordered, config.nu)
        elif config.defense == "median":
            items, rows = median_aggregate(shared_rows, ordered)
        elif config.defense == "trimmed":
            items, rows = trimmed_mean_aggregate(shared_rows, ordered, resolve_trim_k(len(ordered)))
        elif config.defense == "krum":
            items, rows = item_krum_aggregate(shared_rows, ordered)
        else:
            raise ConfigError(f"unknown defense: {config.defense!r}")
        net_mean = _mean_in_order([net_grads[k] for k in ordered.tolist()])
        apply_neighbor_aggregate(world.clients[i], items, rows, net_mean, lr)

    _map_clients(defend_one, benign, config.workers)
    if config.defense == "ucsu":
        # Of the round's rows only those some bank still holds outlive the
        # round.
        compact_round_rows(shared_rows, world.banks.values())
    world.round = t


def run_experiment(
    config: ExperimentConfig, dataset: Dataset, keep_world: bool = False
) -> list[MetricsRecord] | tuple[list[MetricsRecord], World]:
    """Run T rounds, evaluating every eval_every rounds plus rounds 0 and T."""
    world = init_world(config, dataset)
    records = [_snapshot(world, config)]
    for t in range(1, config.rounds + 1):
        run_round(world, config)
        if t % config.eval_every == 0 or t == config.rounds:
            records.append(_snapshot(world, config))
    return (records, world) if keep_world else records


def _snapshot(world: World, config: ExperimentConfig) -> MetricsRecord:
    return evaluate_world(world, config.top_k, config.attack, config.defense, config.seed)
