"""Round engine: periodic neighbor refresh, per-client local training,
gradient exchange, benign-side defenses, adversary-side attacks, and metric
snapshots.

Rounds are 1-based so the neighbor refresh condition (round mod period = 1)
fires on the very first round.  Adversaries behave benignly during round 1
(concealment before the initial neighbor identification) and attack from
round 2 on.  Every randomized step draws from a stream keyed by (root seed,
domain, client, round), so thread-parallel execution is bit-identical to
sequential execution.

Item rows reach a receiver only through a round's consolidated RoundRows.
Adversaries absorb their neighbors' honest packets from an unclipped
RoundRows built before the attack and dropped once they have absorbed;
the defenses read the RoundRows of the round's final packets, after which
only the packets' net gradients are kept.  Every receiver's aggregate and
mean net gradient are applied by model.apply_neighbor_aggregate.
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
from decrecsim.config import ExperimentConfig, resolve_trim_k
from decrecsim.dataset import Dataset
from decrecsim.defenses import (
    MemoryBank,
    build_round_rows,
    compact_round_rows,
    item_krum_aggregate,
    l2_clip_aggregate,
    median_aggregate,
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
    apply_neighbor_aggregate,
    check_pairs,
    compute_gradients,
    empty_packet,
    init_client_state,
    local_train_step,
)
from decrecsim.neighbors import NeighborMap, assign_neighbors, make_hyperplanes, sketch_item_table


@dataclass
class World:
    """Full mutable state of one simulated deployment."""

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

    @property
    def num_clients(self) -> int:
        return len(self.clients)


def select_cold_targets(dataset: Dataset, num_targets: int, root_seed: int) -> np.ndarray:
    """Sample targets uniformly from the coldest decile by train popularity."""
    if num_targets > dataset.num_items:
        raise ConfigError("num_targets exceeds the item count")
    counts = np.zeros(dataset.num_items, dtype=np.int64)
    for tr in dataset.train:
        counts[tr] += 1
    order = np.lexsort((np.arange(dataset.num_items), counts))
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

    if config.target_items is not None:
        targets = np.asarray(sorted(set(config.target_items)), dtype=np.int64)
        if targets.min() < 0 or targets.max() >= dataset.num_items:
            raise ConfigError("target item absent from the item index")
    else:
        targets = select_cold_targets(dataset, config.num_targets, root)

    n_adv = math.ceil(config.xi * num_users) if config.attack != "none" else 0

    clients: list[ClientState] = []
    optimizers: list[AdamState] = []
    pairs: list[np.ndarray] = []

    def add_client(state: ClientState, client_pairs: np.ndarray) -> None:
        client_pairs = check_pairs(client_pairs, dataset.num_items)
        clients.append(state)
        optimizers.append(AdamState.for_state(state, np.unique(client_pairs)))
        pairs.append(client_pairs)

    for u in range(num_users):
        state = init_client_state(
            dataset.num_items,
            config.embed_dim,
            list(config.layer_widths),
            rngmod.stream(root, rngmod.DOMAIN_CLIENT_INIT, u),
        )
        add_client(state, dataset.pairs[u])

    adversaries: dict[int, AdversaryState] = {}
    shared_user = rngmod.stream(root, rngmod.DOMAIN_SHARED_USER).uniform(
        -0.05, 0.05, size=config.embed_dim
    )
    for j in range(n_adv):
        cid = num_users + j
        state = init_client_state(
            dataset.num_items,
            config.embed_dim,
            list(config.layer_widths),
            rngmod.stream(root, rngmod.DOMAIN_CLIENT_INIT, cid),
        )
        data_seed = int(
            np.random.SeedSequence(
                [root, rngmod.DOMAIN_ADVERSARY_DATA, cid]
            ).generate_state(1)[0]
        )
        positives, adv_pairs = build_adversary_dataset(
            dataset.num_items,
            targets,
            config.alpha,
            data_seed,
            neg_ratio=config.neg_ratio,
            include_targets=(config.attack == "ra"),
        )
        if config.attack == "psmu":
            state.user_vec = shared_user.copy()
        adversaries[cid] = AdversaryState(
            client_id=cid,
            base=state,
            positives=positives,
            pairs=adv_pairs,
            fixed_user=config.attack == "psmu",
        )
        add_client(state, adv_pairs)

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
    )


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


def _refresh_due(t: int, period: int) -> bool:
    # period 1 means refresh every round; t mod 1 = 1 never holds.
    return period == 1 or t % period == 1


def run_round(world: World, config: ExperimentConfig) -> None:
    """Advance the world by one round of the integration loop."""
    if world.round < 0:
        raise ContractError("world round must be >= 0")
    t = world.round + 1
    lr = config.lr

    # Phase 1: the server refreshes neighbors from everyone's sketches.
    if _refresh_due(t, config.refresh_every):
        first = sketch_item_table(world.clients[0].item_table, world.hyperplanes)
        sketches = np.empty((world.num_clients, first.size), dtype=first.dtype)
        sketches[0] = first
        for i, c in enumerate(world.clients[1:], start=1):
            sketches[i] = sketch_item_table(c.item_table, world.hyperplanes)
        world.neighbor_map = assign_neighbors(sketches, config.neighbors, t)
        del sketches  # not held through the rest of the round

    nbr = world.neighbor_map

    # Phase 2: every client trains locally and produces its honest packet.
    def train_one(i: int) -> GradientPacket:
        state = world.clients[i]
        local_pairs = world.pairs[i]
        if len(local_pairs) == 0:
            return empty_packet(state, i)
        perm = rngmod.stream(
            world.rng_root, rngmod.DOMAIN_ROUND_SHUFFLE, i, t
        ).permutation(len(local_pairs))
        shuffled = local_pairs[perm]
        keep_user_fixed = i in world.adversaries and world.adversaries[i].fixed_user
        for start in range(0, len(shuffled), LOCAL_BATCH_SIZE):
            local_train_step(
                state,
                shuffled[start : start + LOCAL_BATCH_SIZE],
                world.optimizers[i],
                lr,
                update_user=not keep_user_fixed,
            )
        _, packet = compute_gradients(state, local_pairs, sender=i)
        return packet

    all_ids = list(range(world.num_clients))
    packets: list[GradientPacket] = _map_clients(train_one, all_ids, config.workers)

    # Every client shares one model shape; packets are checked against it.
    layout = world.clients[0].layout
    shape = dict(num_items=world.dataset.num_items, embed_dim=layout.embed_dim, net_size=layout.size)

    # Phase 3: adversaries absorb their neighbors' honest packets, then
    # craft this round's outgoing packets (from round 2 on; round 1 conceals).
    outgoing: dict[int, GradientPacket] = {}
    adv_ids = sorted(world.adversary_ids)
    if adv_ids and nbr is not None:
        honest_rows = build_round_rows(packets, t, **shape, p=config.p, clip=False)
        for a in adv_ids:
            neigh = np.sort(nbr.neighbors_of(a))
            if len(neigh):
                adversary_collab_update(
                    world.adversaries[a],
                    honest_rows,
                    neigh,
                    _mean_in_order([packets[k].net_grad for k in neigh.tolist()]),
                    lr,
                )
        del honest_rows
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
    # here, for every receiver.
    shared_rows = build_round_rows(
        final_packets,
        t,
        **shape,
        mu=config.mu,
        p=config.p,
        clip=config.defense == "l2clip" or (config.defense == "ucsu" and config.ucsu_clip),
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
            items, rows = ucsu_aggregate(
                world.banks[i],
                shared_rows,
                ordered,
                config.nu,
                clean_bank=config.ucsu_clean_bank,
            )
        elif config.defense == "median":
            items, rows = median_aggregate(shared_rows, ordered)
        elif config.defense == "trimmed":
            items, rows = trimmed_mean_aggregate(
                shared_rows, ordered, resolve_trim_k(config.trim_k, len(ordered))
            )
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
    return evaluate_world(
        world,
        config.top_k,
        attack=config.attack,
        defense=config.defense,
        seed=config.seed,
        fraction_mode=config.hr_fraction,
    )
