"""Adversary strategies for target-item promotion.

Adversaries emulate benign clients: each trains on a dataset sampled as a
benign user's is (dataset.sample_pairs) and absorbs its neighbors' honest
rows as defense none does, from the round's unclipped RoundRows.  From round
2 on, pamn learns a diversified user embedding against the other
adversaries, widens the promoted set with substitute items, fine-tunes its
item table and scoring net to rank the promoted items above its own top
list, and ships the parameter change divided by -lr.  The promise is
relative: promoted items rise against the adversary's top list; their
absolute ratings may fall, because the fine-tune also steps the shared
scoring net.  Baselines: ra (honest gradients over data including the
targets), eb (honest gradient plus explicit score boosting), psmu (the
non-adaptive ablation with one shared fixed user embedding, running the
same fine-tune).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from decrecsim.dataset import sample_pairs
from decrecsim.defenses import RoundRows, l2_clip_aggregate
from decrecsim.errors import ConfigError, ContractError
from decrecsim.metrics import top_k_list
from decrecsim.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ClientState,
    GradientPacket,
    _adam_update,
    _backward,
    _forward,
    _sigmoid,
    apply_neighbor_aggregate,
    bpr_loss,
    compute_gradients,
    scatter_add_rows,
    score_items,
)

@dataclass
class AdversaryState:
    """One adversary client: base model plus constructed data."""

    client_id: int
    base: ClientState
    positives: np.ndarray
    pairs: np.ndarray
    substitute_items: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    fixed_user: bool = False  # psmu: the user embedding is shared and never trained


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
    positive.  Negatives come from sample_pairs over the items outside both
    the positives and the targets.
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
    return positives, sample_pairs(positives, neg_pool, neg_ratio, rng)


def adversary_collab_update(
    adv: AdversaryState, rr: RoundRows, senders: np.ndarray, net_mean: np.ndarray, lr: float
) -> None:
    """Absorb the neighbors' gradients as a benign client with defense none
    does: the plain mean of the item rows the given ascending senders sent
    in rr, absent rows as zero (defenses.l2_clip_aggregate), and the mean
    net gradient net_mean.

    rr is the round's unclipped honest rows.  ContractError without
    senders.
    """
    uniq, rows = l2_clip_aggregate(rr, senders)
    apply_neighbor_aggregate(adv.base, uniq, rows, net_mean, lr)


def update_adversary_user_embedding(
    adv: AdversaryState, coord: AttackCoordinator, lr: float
) -> None:
    """One gradient step on the local BPR loss minus the diversity term.

    Only the user embedding moves.  The repulsion gradient at zero distance
    is defined as the zero vector.
    """
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
    order = np.argsort(-best_sim[eligible], kind="stable")  # eligible is ascending
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
    adv: AdversaryState, targets: np.ndarray, top_k: int, e_ft: int, lr: float
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

    # Fresh Adam moments each call, dense over every item: the competitors
    # change at every step.  Step s reads and writes only the rows it
    # touches, with the bias corrections of step count s.
    m_items, v_items = np.zeros_like(state.item_table), np.zeros_like(state.item_table)
    m_net, v_net = np.zeros_like(state.net), np.zeros_like(state.net)
    for s in range(1, e_ft + 1):
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
        bc1, bc2 = 1.0 - ADAM_BETA1**s, 1.0 - ADAM_BETA2**s
        rows, m_rows, v_rows = state.item_table[uniq], m_items[uniq], v_items[uniq]
        _adam_update(rows, acc, m_rows, v_rows, lr, bc1, bc2)
        state.item_table[uniq], m_items[uniq], v_items[uniq] = rows, m_rows, v_rows
        _adam_update(state.net, net_grad, m_net, v_net, lr, bc1, bc2)

    delta_table = state.item_table - table_before
    changed = np.flatnonzero(np.any(delta_table != 0.0, axis=1))
    return GradientPacket(
        sender=adv.client_id,
        item_idx=changed.astype(np.int64),
        item_rows=delta_table[changed] / (-lr),
        net_grad=(state.net - net_before) / (-lr),
    )


def boosted_gradient_packet(adv: AdversaryState, targets: np.ndarray) -> GradientPacket:
    """Honest BPR gradient plus a boosting term pushing target ratings to 1.

    The boosting term is the sum over targets of -ln sigmoid(logit), i.e.
    binary cross-entropy against label 1.
    """
    state = adv.base
    targets = np.asarray(targets, dtype=np.int64)
    honest = compute_gradients(state, adv.pairs, sender=adv.client_id)[1]
    z, inputs, masks = _forward(state, targets)
    g = np.asarray(_sigmoid(z)) - 1.0  # d(-ln sigmoid(z)) / dz
    boost_net, _, boost_rows = _backward(state, inputs, masks, g)
    all_idx, all_rows, _ = scatter_add_rows(
        np.concatenate([honest.item_idx, targets]), np.vstack([honest.item_rows, boost_rows])
    )
    return GradientPacket(
        sender=adv.client_id,
        item_idx=all_idx,
        item_rows=all_rows,
        net_grad=honest.net_grad + boost_net,
    )


def baseline_poison(
    adv: AdversaryState, targets: np.ndarray, strategy: str, top_k: int, e_ft: int, lr: float
) -> GradientPacket:
    """Dispatch the non-adaptive strategies.

    ra sends its honest gradient over the target-including dataset; eb adds
    the explicit boosting term; psmu runs the same fine-tuning pipeline as
    the adaptive attack but with the shared fixed user embedding and no
    diversity step.
    """
    if strategy == "ra":
        return compute_gradients(adv.base, adv.pairs, sender=adv.client_id)[1]
    if strategy == "eb":
        return boosted_gradient_packet(adv, targets)
    if strategy == "psmu":
        return pamn_poison(adv, targets, top_k, e_ft, lr)
    raise ConfigError(f"unknown attack strategy: {strategy!r}")
