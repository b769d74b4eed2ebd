"""Adversary strategies for target-item promotion.

The adaptive strategy absorbs neighbor gradients, learns a diversified user
embedding against the other adversaries, widens the promoted set with
substitute items, fine-tunes its item table and scoring net to rank the
promoted items above its own top list, and ships the resulting parameter
delta encoded as a gradient so that standard receivers reproduce it.
The promise is relative: promoted items rise against the adversary's top
list.  Their absolute predicted ratings may fall, because the fine-tune
also steps the shared scoring net, which moves every item's logit.
Baselines: ra (random data including targets, honest gradients), eb
(explicit score boosting), psmu (the non-adaptive ablation with one shared
fixed user embedding; it runs the same fine-tune and inherits the same
relative promise).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from decrecsim.defenses import RoundRows, l2_clip_aggregate
from decrecsim.errors import ConfigError, ContractError
from decrecsim.metrics import top_k_list
from decrecsim.model import (
    AdamState,
    ClientState,
    GradientPacket,
    _backward,
    _forward,
    _sigmoid,
    adam_step,
    apply_neighbor_aggregate,
    compute_gradients,
    scatter_add_rows,
    score_items,
)

STRATEGIES = ("pamn", "ra", "eb", "psmu")


@dataclass
class AdversaryState:
    """One adversary client: base model plus constructed data and strategy."""

    client_id: int
    base: ClientState
    positives: np.ndarray
    pairs: np.ndarray
    strategy: str
    substitute_items: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    fixed_user: np.ndarray | None = None  # psmu: shared embedding, never trained


@dataclass
class AttackCoordinator:
    """Per-round snapshot of every adversary's user embedding.

    The controller of all adversaries reads their private embeddings; the
    diversity term of each adversary's update sums over this snapshot, not
    over live values, so adversary updates can run in parallel.
    """

    embeddings: dict[int, np.ndarray]
    lam: float
    norm_order: int = 2


def build_adversary_dataset(
    num_items: int,
    targets: np.ndarray,
    alpha: int,
    seed: int,
    neg_ratio: int = 4,
    include_targets: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Construct an adversary's local positives and (positive, negative) pairs.

    alpha items are drawn uniformly from the non-target items; with
    include_targets (the ra strategy) every target is appended as a
    positive.  Negatives are drawn per positive without replacement from
    items outside both the positives and the targets.
    """
    targets = np.asarray(sorted(set(int(t) for t in targets)), dtype=np.int64)
    if alpha < 0:
        raise ContractError("alpha must be >= 0")
    pool = np.setdiff1d(np.arange(num_items, dtype=np.int64), targets)
    if alpha > len(pool):
        raise ContractError(
            f"alpha={alpha} exceeds the {len(pool)} available non-target items"
        )
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    positives = np.sort(pool[rng.choice(len(pool), size=alpha, replace=False)])
    if include_targets:
        positives = np.union1d(positives, targets)
    neg_pool = np.setdiff1d(
        np.arange(num_items, dtype=np.int64), np.union1d(positives, targets)
    )
    rows: list[np.ndarray] = []
    for pos in positives.tolist():
        k = min(neg_ratio, len(neg_pool))
        if k == 0:
            continue
        negs = neg_pool[rng.choice(len(neg_pool), size=k, replace=False)]
        rows.append(np.column_stack([np.full(k, pos, dtype=np.int64), negs]))
    pairs = np.concatenate(rows, axis=0) if rows else np.empty((0, 2), dtype=np.int64)
    return positives, pairs


def adversary_collab_update(
    adv: AdversaryState, rr: RoundRows, senders: np.ndarray, net_mean: np.ndarray, lr: float
) -> None:
    """Absorb the neighbors' gradients as a benign client with defense none
    does: the plain mean of the rows the ascending sender ids sent in rr,
    and the mean net gradient net_mean."""
    items, rows = l2_clip_aggregate(rr, senders)
    apply_neighbor_aggregate(adv.base, items, rows, net_mean, lr)


def update_adversary_user_embedding(
    adv: AdversaryState, coord: AttackCoordinator, lr: float
) -> None:
    """One gradient step on the local BPR loss minus the diversity term.

    Only the user embedding moves.  The repulsion gradient at zero distance
    is defined as the zero vector.
    """
    grad = np.zeros_like(adv.base.user_vec)
    if len(adv.pairs):
        grad, _ = compute_gradients(adv.base, adv.pairs)
    grad = grad - coord.lam * _repulsion_direction(
        adv.base.user_vec, coord.embeddings, coord.norm_order
    )
    adv.base.user_vec -= lr * grad


def _repulsion_direction(
    u: np.ndarray, embeddings: dict[int, np.ndarray], p: int
) -> np.ndarray:
    """Gradient of sum_k |u - u_k|_p with zero-distance terms dropped."""
    if p not in (1, 2):
        raise ContractError("repulsion norm order must be 1 or 2")
    total = np.zeros_like(u)
    for other in embeddings.values():
        diff = u - other
        if p == 2:
            norm = float(np.linalg.norm(diff))
            if norm > 0.0:
                total += diff / norm
        else:
            total += np.sign(diff)
    return total


def eq8_loss(
    adv: AdversaryState, coord: AttackCoordinator, user_vec: np.ndarray | None = None
) -> float:
    """Local BPR loss minus lam * sum of distances to the snapshot embeddings.

    Exposed so the user-embedding gradient can be finite-difference checked.
    """
    from decrecsim.model import bpr_loss

    state = adv.base
    saved = state.user_vec
    if user_vec is not None:
        state.user_vec = user_vec
    try:
        local = bpr_loss(state, adv.pairs) if len(adv.pairs) else 0.0
        rep = sum(
            float(np.linalg.norm(state.user_vec - other, ord=coord.norm_order))
            for other in coord.embeddings.values()
        )
        return local - coord.lam * rep
    finally:
        state.user_vec = saved


def select_substitute_items(
    adv: AdversaryState, targets: np.ndarray, s: int
) -> np.ndarray:
    """Non-target items similar to targets with above-median predicted ratings.

    Candidate score is the max cosine similarity between the item embedding
    and any target embedding; candidates must score strictly above the
    median predicted rating over non-target items.  The top s by candidate
    score are returned, ties by ascending item id.
    """
    if s < 0:
        raise ContractError("substitute count must be >= 0")
    if s == 0:
        return np.zeros(0, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    state = adv.base
    table = state.item_table
    norms = np.linalg.norm(table, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = table / safe[:, None]
    sims = unit @ unit[targets].T  # (num_items, num_targets)
    best_sim = sims.max(axis=1)

    candidates = np.setdiff1d(np.arange(state.num_items, dtype=np.int64), targets)
    logits = score_items(state, candidates)
    median = np.median(logits)
    eligible = candidates[logits > median]
    if len(eligible) == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort((eligible, -best_sim[eligible]))
    return np.sort(eligible[order[: min(s, len(eligible))]])


def rate_loss(
    state: ClientState, competitors: np.ndarray, promoted: np.ndarray
) -> float:
    """Sum over (competitor j, promoted t) of sigmoid(logit_j - logit_t)."""
    if len(competitors) == 0 or len(promoted) == 0:
        return 0.0
    zc = score_items(state, competitors)
    zp = score_items(state, promoted)
    return float(np.asarray(_sigmoid(zc[:, None] - zp[None, :])).sum())


def pamn_poison(
    adv: AdversaryState,
    targets: np.ndarray,
    top_k: int,
    e_ft: int,
    lr: float,
    round_no: int,
) -> GradientPacket:
    """Fine-tune toward the promoted items and encode the delta as a gradient.

    With the user embedding frozen, e_ft Adam steps minimize the pairwise
    promotion loss: for each item of the adversary's current top list that
    is not a target, and each promoted item (targets plus substitutes,
    minus constructed positives), accumulate sigmoid(logit_competitor -
    logit_promoted).  The top list is recomputed before every step.  The
    packet carries (parameter change) / (-lr) so receivers applying the
    standard aggregation reproduce the intended direction.

    The loss is pairwise, so the promise is relative: the promoted items
    rise against the top list.  Both the item rows and the shared scoring
    net move, and a net step moves every item's logit, so the promoted
    items' absolute ratings may fall while the competitors fall further.
    """
    if lr <= 0:
        raise ContractError("fine-tuning requires lr > 0")
    state = adv.base
    targets = np.asarray(targets, dtype=np.int64)
    promoted = np.setdiff1d(
        np.union1d(targets, adv.substitute_items), adv.positives
    )
    table_before = state.item_table.copy()
    net_before = state.net.copy()

    # Fresh moments each call, over every item: the competitors change at
    # every step.  Only the rows a step touches are read or written.
    opt = AdamState.for_state(state)
    for _ in range(max(0, e_ft)):
        toplist = top_k_list(state, top_k, exclude=np.zeros(0, dtype=np.int64))
        competitors = toplist[~np.isin(toplist, targets)]
        if len(competitors) == 0 or len(promoted) == 0:
            break
        batch = np.concatenate([competitors, promoted])
        z, inputs, masks = _forward(state, batch)
        nc = len(competitors)
        diffs = z[:nc, None] - z[nc:, None].T
        sig = np.asarray(_sigmoid(diffs))
        sprime = sig * (1.0 - sig)
        g = np.concatenate([sprime.sum(axis=1), -sprime.sum(axis=0)])
        net_grad, _, item_rows = _backward(state, inputs, masks, g)
        uniq, acc, _ = scatter_add_rows(batch, item_rows)
        adam_step(state, opt, uniq, acc, net_grad, lr)

    delta_table = state.item_table - table_before
    changed = np.flatnonzero(np.any(delta_table != 0.0, axis=1))
    return GradientPacket(
        sender=adv.client_id,
        round=round_no,
        item_idx=changed.astype(np.int64),
        item_rows=delta_table[changed] / (-lr),
        net_grad=(state.net - net_before) / (-lr),
    )


def boosted_gradient_packet(
    adv: AdversaryState, targets: np.ndarray, lr: float, round_no: int
) -> GradientPacket:
    """Honest BPR gradient plus a boosting term pushing target ratings to 1.

    The boosting term is the sum over targets of -ln sigmoid(logit), i.e.
    binary cross-entropy against label 1.
    """
    state = adv.base
    targets = np.asarray(targets, dtype=np.int64)
    if len(adv.pairs):
        _, packet = compute_gradients(adv.base, adv.pairs)
        net_grad = packet.net_grad
        idx = packet.item_idx
        rows = packet.item_rows
    else:
        net_grad = np.zeros_like(state.net)
        idx = np.zeros(0, dtype=np.int64)
        rows = np.zeros((0, state.layout.embed_dim))

    z, inputs, masks = _forward(state, targets)
    g = np.asarray(_sigmoid(z)) - 1.0  # d(-ln sigmoid(z)) / dz
    boost_net, _, boost_rows = _backward(state, inputs, masks, g)
    uniq, acc, _ = scatter_add_rows(targets, boost_rows)

    all_idx = np.union1d(idx, uniq)
    all_rows = np.zeros((len(all_idx), state.layout.embed_dim))
    all_rows[np.searchsorted(all_idx, idx)] += rows
    all_rows[np.searchsorted(all_idx, uniq)] += acc
    return GradientPacket(
        sender=adv.client_id,
        round=round_no,
        item_idx=all_idx,
        item_rows=all_rows,
        net_grad=net_grad + boost_net,
    )


def baseline_poison(
    adv: AdversaryState,
    targets: np.ndarray,
    strategy: str,
    top_k: int,
    e_ft: int,
    lr: float,
    round_no: int,
) -> GradientPacket:
    """Dispatch the non-adaptive strategies.

    ra sends its honest gradient over the target-including dataset; eb adds
    the explicit boosting term; psmu runs the same fine-tuning pipeline as
    the adaptive attack but with the shared fixed user embedding and no
    diversity step.
    """
    if strategy == "ra":
        if not len(adv.pairs):
            return GradientPacket(
                sender=adv.client_id,
                round=round_no,
                item_idx=np.zeros(0, dtype=np.int64),
                item_rows=np.zeros((0, adv.base.layout.embed_dim)),
                net_grad=np.zeros_like(adv.base.net),
            )
        _, packet = compute_gradients(adv.base, adv.pairs, sender=adv.client_id, round_no=round_no)
        return packet
    if strategy == "eb":
        return boosted_gradient_packet(adv, targets, lr, round_no)
    if strategy == "psmu":
        return pamn_poison(adv, targets, top_k, e_ft, lr, round_no)
    raise ConfigError(f"unknown attack strategy: {strategy!r}")
