"""Shared builders and independent oracles for the test suite.

The oracles here are deliberately naive (double loops, dense matrices,
finite differences) and never call the implementation paths they check.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np

from decrecsim import rng as rngmod
from decrecsim import simulation
from decrecsim.defenses import RoundBlock, RoundRows, build_round_rows, l2_clip_aggregate
from decrecsim.errors import ContractError
from decrecsim.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    LOCAL_BATCH_SIZE,
    AdamState,
    ClientState,
    GradientPacket,
    NetLayout,
    apply_neighbor_aggregate,
    block_views,
    bpr_loss,
    client_views,
    draw_client_params,
    stack_states,
)

# Every AdamState field.
MOMENT_FIELDS = tuple(f.name for f in dataclasses.fields(AdamState))


def init_client_state(
    num_items: int, embed_dim: int, layer_widths: list[int], rng: np.random.Generator
) -> ClientState:
    """One client's own arrays, drawn as a world draws them:
    uniform(-0.05, 0.05) embeddings and weights, zero biases."""
    layout = NetLayout(embed_dim, layer_widths)
    state = ClientState(np.empty(embed_dim), np.empty((num_items, embed_dim)), np.zeros(layout.size), layout)
    draw_client_params(state, rng)
    return state


def block_of_one(state: ClientState, rows) -> tuple[ClientState, AdamState]:
    """A one-client stack holding a copy of state, with zero moments over
    the item ids rows: a block local_train_step steps, built as init_world
    builds its clients (stack_states, then the parameters copied into the
    client's view)."""
    block, opt = stack_states(state.layout, state.num_items, [np.asarray(rows, dtype=np.int64)])
    view = client_views(block, 0)
    view.user_vec[...], view.item_table[...], view.net[...] = state.user_vec, state.item_table, state.net
    return block, opt


def client_moments(world, i: int) -> AdamState:
    """Client i's Adam moments as a one-client block of the world's stack
    (views, see block_views)."""
    pos = int(np.flatnonzero(world.stack_ids == i)[0])
    return block_views(world.stacked, world.stacked_opt, pos, pos + 1)[1]


def run_keeping_world(config, dataset):
    """run_experiment's records, and the world it ran them on (caught from
    its init_world call)."""
    worlds, real = [], simulation.init_world

    def init_world(*args):
        worlds.append(real(*args))
        return worlds[-1]

    with mock.patch.object(simulation, "init_world", init_world):
        records = simulation.run_experiment(config, dataset)
    return records, worlds[0]


def copy_moments(opt: AdamState) -> AdamState:
    """A copy of a block's moments (a one-client block's, for reference_step)."""
    return AdamState(**{f: getattr(opt, f).copy() for f in MOMENT_FIELDS})


def make_state(
    seed: int,
    num_items: int = 20,
    embed_dim: int = 4,
    widths: tuple[int, ...] = (8, 6, 4),
    scale: float = 0.5,
) -> ClientState:
    """Random small client state with well-scaled weights."""
    rng = np.random.default_rng(seed)
    state = init_client_state(num_items, embed_dim, list(widths), rng)
    state.user_vec = rng.uniform(-scale, scale, size=embed_dim)
    state.item_table = rng.uniform(-scale, scale, size=(num_items, embed_dim))
    state.net = rng.uniform(-scale, scale, size=state.layout.size)
    # biases stay random here on purpose: the gradient check should cover them
    return state


def random_pairs(rng: np.random.Generator, num_items: int, n: int) -> np.ndarray:
    pos = rng.integers(0, num_items, size=n)
    neg = (pos + 1 + rng.integers(0, num_items - 1, size=n)) % num_items
    return np.column_stack([pos, neg]).astype(np.int64)


def min_preactivation(state: ClientState, items: np.ndarray) -> float:
    """Smallest |preactivation| across the forward pass; relu-kink guard."""
    k = state.layout.embed_dim
    x = np.empty((len(items), 2 * k))
    x[:, :k] = state.user_vec
    x[:, k:] = state.item_table[items]
    ws, bs, _ = state.layout.views(state.net)
    worst = np.inf
    h = x
    for mat, b in zip(ws, bs):
        a = h @ mat.T + b
        worst = min(worst, float(np.abs(a).min()))
        h = np.maximum(a, 0.0)
    return worst


def fd_scalar(fn, vec: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    grad = np.zeros_like(vec)
    for i in range(vec.size):
        orig = vec.flat[i]
        vec.flat[i] = orig + eps
        hi = fn()
        vec.flat[i] = orig - eps
        lo = fn()
        vec.flat[i] = orig
        grad.flat[i] = (hi - lo) / (2.0 * eps)
    return grad


def assert_close_grad(analytic: np.ndarray, fd: np.ndarray, rtol: float = 1e-4) -> None:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
    rel = np.abs(analytic - fd) / denom
    assert rel.max() < rtol, f"max relative error {rel.max():.3e}"


def full_bpr_fd_grads(
    state: ClientState, pairs: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FD gradients of bpr_loss w.r.t. (user_vec, item_table, net)."""
    loss = lambda: bpr_loss(state, pairs)  # noqa: E731
    gu = fd_scalar(loss, state.user_vec, eps)
    gv = fd_scalar(loss, state.item_table, eps).reshape(state.item_table.shape)
    gn = fd_scalar(loss, state.net, eps)
    return gu, gv, gn


def packet(
    sender: int,
    rows: dict[int, np.ndarray],
    net: np.ndarray,
    dim: int = 2,
) -> GradientPacket:
    idx = np.array(sorted(rows), dtype=np.int64)
    mat = (
        np.vstack([np.asarray(rows[i], dtype=np.float64) for i in idx.tolist()])
        if len(idx)
        else np.zeros((0, dim))
    )
    return GradientPacket(sender=sender, item_idx=idx, item_rows=mat, net_grad=net)


def pop_fields(key: np.ndarray) -> dict[str, np.ndarray]:
    """The pop fields of rows with the given pop keys, in row order, as
    RoundRows holds them: row indices by descending key, row index on ties
    (a stable argsort), each row's position in that order, and the negated
    keys in it."""
    order = np.argsort(-key, kind="stable")
    rank = np.empty(len(key), dtype=np.int32)
    rank[order] = np.arange(len(key), dtype=np.int32)
    return {"order": order.astype(np.int32), "rank": rank, "pop_neg_norm": -key[order]}


def round_rows(
    pkts, round_no=1, mu=1.0, p=2, bank=True, num_items=None, embed_dim=None, net_size=None
):
    """build_round_rows over pkts sent, in ascending sender order, into a
    fresh round block of exactly their rows' size, as a round sends its
    packets; the given packets are left as they are.  The model is shaped
    like the packets unless told otherwise: row width and net size from the
    first packet (2 and 2 without packets), and room for every item id they
    carry.  By default the rows are clipped to mu and carry the pop order a
    bank reads; mu = inf keeps every row bit for bit."""
    if num_items is None:
        num_items = 1 + max((int(q.item_idx.max()) for q in pkts if len(q.item_idx)), default=0)
    if embed_dim is None:
        embed_dim = pkts[0].item_rows.shape[1] if pkts else 2
    if net_size is None:
        net_size = len(pkts[0].net_grad) if pkts else 2
    ordered = sorted(pkts, key=lambda q: q.sender)
    clients = 1 + max((q.sender for q in ordered), default=0)
    block = RoundBlock(sum(len(q.item_idx) for q in ordered), embed_dim, clients, net_size)
    for q in ordered:
        block.send(q)
    return build_round_rows(block.round_rows(round_no), num_items, mu, p, bank)


def concat_round_rows(pkts, round_no=1, mu=1.0, p=2, bank=False, embed_dim=2):
    """The RoundRows of pkts built from concatenated copies of their rows:
    ascending sender order, rows clipped to mu by their p-norms, and for a
    bank the stored rows' own norms and the pop fields of the capped key
    (pop_fields).  The given packets are left as they are."""
    ordered = sorted(pkts, key=lambda q: q.sender)
    rows = np.concatenate([np.zeros((0, embed_dim)), *(q.item_rows for q in ordered)])
    senders = np.array([q.sender for q in ordered for _ in q.item_idx], dtype=np.int32)
    items = np.array([i for q in ordered for i in q.item_idx.tolist()], dtype=np.int32)
    norms = np.linalg.norm(rows, ord=p, axis=1)
    factors = np.ones(len(rows))
    factors[norms > mu] = mu / norms[norms > mu]
    rows = rows * factors[:, None]
    if not bank:
        return RoundRows(round_no, senders, items, rows)
    row_norms = np.linalg.norm(rows, ord=p, axis=1)
    return RoundRows(round_no, senders, items, rows, row_norms, **pop_fields(np.minimum(norms, mu)))


def absorb(state: ClientState, pkts: list[GradientPacket], lr: float) -> None:
    """Apply pkts as a receiver with defense none does in a round: their
    unclipped round rows read by l2_clip_aggregate, and the mean of their net
    gradients in ascending sender order, applied by apply_neighbor_aggregate."""
    rr = round_rows(
        pkts,
        mu=np.inf,
        bank=False,
        num_items=state.num_items,
        embed_dim=state.layout.embed_dim,
        net_size=state.layout.size,
    )
    ordered = sorted(pkts, key=lambda q: q.sender)
    items, rows = l2_clip_aggregate(rr, np.array([q.sender for q in ordered], dtype=np.int64))
    net_mean = np.stack([q.net_grad for q in ordered]).mean(axis=0)
    apply_neighbor_aggregate(state, items, rows, net_mean, lr)


def dense_rows(packets: list[GradientPacket], num_items: int, dim: int) -> np.ndarray:
    """(num_packets, num_items, dim) dense matrix, absent rows zero."""
    out = np.zeros((len(packets), num_items, dim))
    for pi, p in enumerate(sorted(packets, key=lambda q: q.sender)):
        for k, item in enumerate(p.item_idx.tolist()):
            out[pi, item] = p.item_rows[k]
    return out


def brute_force_median(packets, num_items, dim):
    dense = dense_rows(packets, num_items, dim)
    touched = sorted({int(i) for p in packets for i in p.item_idx})
    return {i: np.median(dense[:, i, :], axis=0) for i in touched}


def brute_force_trimmed(packets, num_items, dim, trim_k):
    dense = dense_rows(packets, num_items, dim)
    touched = sorted({int(i) for p in packets for i in p.item_idx})
    out = {}
    n = len(packets)
    for i in touched:
        vals = np.sort(dense[:, i, :], axis=0)
        if trim_k == 0 or n <= 2 * trim_k:
            out[i] = vals.mean(axis=0)
        else:
            out[i] = vals[trim_k : n - trim_k].mean(axis=0)
    return out


def dense_block_rows(packets, min_carriers, reduce):
    """(item ids, rows) of reduce applied to one dense (items, dim, packets)
    block of every received item carried by at least min_carriers packets,
    absent rows zero, sorted along the packet axis; other received items
    get a zero row.

    Item ids are int32, as consolidation stores them.  The whole block is
    sorted and reduced at once, so a kernel that works in chunks of items
    can be checked against it byte for byte.
    """
    ordered = sorted(packets, key=lambda q: q.sender)
    items = np.concatenate([q.item_idx for q in ordered]).astype(np.int32)
    rows = np.vstack([q.item_rows for q in ordered])
    pos = np.repeat(np.arange(len(ordered)), [len(q.item_idx) for q in ordered])
    uniq, inverse, counts = np.unique(items, return_inverse=True, return_counts=True)
    keep = counts >= min_carriers
    slot = np.cumsum(keep) - 1
    sel = keep[inverse]
    block = np.zeros((int(keep.sum()), rows.shape[1], len(ordered)))
    block[slot[inverse[sel]], :, pos[sel]] = rows[sel]
    block.sort(axis=-1)
    out = np.zeros((len(uniq), rows.shape[1]))
    out[keep] = reduce(block)
    return uniq, out


def dense_block_median(packets):
    """The median of dense_block_rows: the mean of the two middle ranks."""
    n = len(packets)
    lo, hi = (n - 1) // 2, n // 2
    return dense_block_rows(packets, lo + 1, lambda block: 0.5 * (block[..., lo] + block[..., hi]))


def dense_block_trimmed(packets, trim_k):
    """The trimmed mean of dense_block_rows, for 1 <= trim_k < n / 2."""
    n = len(packets)
    if not 1 <= trim_k < n / 2:
        raise ContractError("dense_block_trimmed needs 1 <= trim_k < packets / 2")
    return dense_block_rows(
        packets,
        trim_k + 1,
        lambda block: block[..., trim_k : n - trim_k].sum(axis=-1) / (n - 2 * trim_k),
    )


def brute_force_krum(packets, num_items, dim):
    ordered = sorted(packets, key=lambda q: q.sender)
    dense = dense_rows(packets, num_items, dim)
    touched = sorted({int(i) for p in packets for i in p.item_idx})
    out = {}
    for i in touched:
        mean = dense[:, i, :].sum(axis=0) / len(ordered)
        best = None
        for pi, p in enumerate(ordered):
            d = float(((dense[pi, i] - mean) ** 2).sum())
            key = (d, p.sender)
            if best is None or key < best[0]:
                best = (key, dense[pi, i])
        out[i] = best[1]
    return out


def brute_force_l2clip(packets, num_items, dim, mu, p=2):
    """Every received row clipped by clip_row, one row at a time, then the
    dense mean over packets."""
    dense = np.zeros((len(packets), num_items, dim))
    for pi, q in enumerate(sorted(packets, key=lambda q: q.sender)):
        for k, item in enumerate(q.item_idx.tolist()):
            dense[pi, item] = clip_row(q.item_rows[k], mu, p)
    touched = sorted({int(i) for q in packets for i in q.item_idx})
    return {i: dense[:, i, :].mean(axis=0) for i in touched}


def clip_row(grad_row: np.ndarray, mu: float, p: int = 2) -> np.ndarray:
    """A copy of grad_row scaled by min(1, mu / |grad_row|_p); zero rows pass."""
    if mu <= 0:
        raise ContractError("mu must be > 0")
    row = np.array(grad_row, dtype=np.float64)
    norm = float(np.sum(np.abs(row) ** p) ** (1.0 / p))
    return row * (mu / norm) if norm > mu else row


def adaptive_clip(rows: np.ndarray, p: int = 2) -> np.ndarray:
    """A copy of rows, each scaled by min(1, mean_norm / own_norm), one row
    at a time; zero rows pass.

    Norms come from one np.linalg.norm call, whose bits per row equal the
    blocked norms of the program (test_norms_are_row_local), so UCSU's
    output can be compared byte for byte.
    """
    rows = np.array(rows, dtype=np.float64)
    if rows.ndim != 2 or len(rows) == 0:
        raise ContractError("adaptive_clip requires a nonempty (n, dim) row matrix")
    norms = np.linalg.norm(rows, ord=p, axis=1)
    bound = norms.mean()
    for row, norm in zip(rows, norms):
        if norm > bound:
            row *= bound / norm
    return rows


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """(a . b) / (|a||b|); inputs are +-1 sketches so norms are never zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractError("sketch length mismatch")
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def predict_rating(state: ClientState, item: int) -> float:
    """sigmoid(w^T FFN([u, v_item])) by a plain per-layer loop over one item;
    strictly in (0, 1)."""
    if not 0 <= item < state.num_items:
        raise IndexError(f"item {item} out of range [0, {state.num_items})")
    ws, bs, w = state.layout.views(state.net)
    h = np.concatenate([state.user_vec, state.item_table[item]])
    for mat, b in zip(ws, bs):
        h = np.maximum(mat @ h + b, 0.0)
    return float(1.0 / (1.0 + np.exp(-(w @ h))))


def pop_key(rr) -> np.ndarray:
    """The pop key of a banked RoundRows' rows, in row order."""
    return -rr.pop_neg_norm[rr.rank]


def brute_force_top_nu(entries: list[tuple[float, int]], nu: float) -> list[int]:
    """Indices of the top ceil(nu*n) entries by (norm desc, insertion asc)."""
    import math

    n = len(entries)
    k = math.ceil(nu * n)
    order = sorted(range(n), key=lambda j: (-entries[j][0], entries[j][1]))
    return order[:k]


class ReferenceBank:
    """List-based memory bank: every entry in insertion order, and a pop that
    sorts the whole list by (pop key desc, insertion asc) and takes the top
    ceil(nu * n).  Reads only the rows, items and pop keys of a RoundRows."""

    def __init__(self, capacity_rounds: int):
        self.capacity_rounds = capacity_rounds
        self.entries: list[tuple[int, int, np.ndarray, float]] = []  # round, item, row, norm

    def ingest(self, rr, refs) -> None:
        key = pop_key(rr)
        for ref in refs:
            ref = int(ref)
            self.entries.append((rr.round, int(rr.items[ref]), rr.rows[ref], float(key[ref])))

    def evict(self, current_round: int) -> None:
        horizon = current_round - self.capacity_rounds
        self.entries = [e for e in self.entries if e[0] >= horizon]

    def pop(self, nu: float) -> tuple[list[int], list[np.ndarray]]:
        import math

        k = math.ceil(nu * len(self.entries))
        ranked = sorted(range(len(self.entries)), key=lambda j: (-self.entries[j][3], j))
        chosen = ranked[:k]
        popped = [self.entries[j] for j in chosen]
        gone = set(chosen)
        self.entries = [e for j, e in enumerate(self.entries) if j not in gone]
        return [e[1] for e in popped], [e[2] for e in popped]


def assert_round_compacted(round_no: int, banks) -> None:
    """The banks' chunks of round_no share one RoundRows, which holds exactly
    the rows those chunks bank."""
    chunks = [(rr, ranks) for bank in banks for rr, ranks in bank.chunks() if rr.round == round_no]
    if not chunks:
        return
    shared = chunks[0][0]
    assert all(rr is shared for rr, _ in chunks)
    held = np.unique(np.concatenate([ranks for _, ranks in chunks]))
    assert held.tolist() == list(range(len(shared.items)))


def per_item_mean_loop(items: list[int], rows: np.ndarray) -> dict[int, np.ndarray]:
    """Per item, add its rows one at a time in the given order, then divide."""
    sums: dict[int, np.ndarray] = {}
    counts: dict[int, int] = {}
    for item, row in zip(items, rows):
        sums[item] = sums[item] + row if item in sums else 0.0 + row
        counts[item] = counts.get(item, 0) + 1
    return {i: sums[i] / counts[i] for i in sums}


def _reference_forward(state: ClientState, items: np.ndarray):
    """A per-layer forward over 2-d arrays with np.where relu masks:
    (logits, layer inputs, masks)."""
    k = state.layout.embed_dim
    x = np.concatenate([np.tile(state.user_vec, (len(items), 1)), state.item_table[items]], axis=1)
    ws, bs, w = state.layout.views(state.net)
    inputs, masks, h = [x], [], x
    for mat, b in zip(ws, bs):
        a = h @ mat.T + b
        masks.append(a >= 0.0)
        h = np.where(a >= 0.0, a, 0.0)
        inputs.append(h)
    return h @ w, inputs, masks


def _reference_backward(state: ClientState, inputs, masks, g: np.ndarray):
    """Backpropagate per-row logit weights g: (net gradient, per-row input
    gradients, user columns first)."""
    ws, _, w = state.layout.views(state.net)
    net_grad = np.zeros(state.layout.size)
    gws, gbs, gw = state.layout.views(net_grad)
    gw[...] = inputs[-1].T @ g
    dh = g[:, None] * w[None, :]
    for li in range(len(ws) - 1, -1, -1):
        da = np.where(masks[li], dh, 0.0)
        gws[li][...] = da.T @ inputs[li]
        gbs[li][...] = da.sum(axis=0)
        dh = da @ ws[li]
    return net_grad, dh


def _reference_sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _reference_adam(param, grad, m, v, lr: float, bc1: float, bc2: float) -> None:
    """One Adam update of param and its moments, in place."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def reference_step(
    state: ClientState, opt: AdamState, pairs: np.ndarray, lr: float, update_user: bool = True
) -> None:
    """One client's local Adam step on one batch, computed alone: a per-layer
    forward and backward over 2-d arrays with np.where relu masks, np.add.at
    per item, and a per-array Adam update of the moments of a one-client
    block (copy_moments of block_of_one's or client_moments').  Calls no
    model code but the layout's views, so the lockstep kernel can be checked
    byte for byte."""
    k = state.layout.embed_dim
    n = len(pairs)
    items = np.concatenate([pairs[:, 0], pairs[:, 1]])
    z, inputs, masks = _reference_forward(state, items)
    gpos = -_reference_sigmoid(-(z[:n] - z[n:])) / n
    net_grad, dh = _reference_backward(state, inputs, masks, np.concatenate([gpos, -gpos]))
    uniq, inverse = np.unique(items, return_inverse=True)
    item_grads = np.zeros((len(uniq), k))
    np.add.at(item_grads, inverse, dh[:, k:])

    assert opt.row_start.tolist() == [0, len(opt.rows)]
    opt.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** int(opt.t[0])
    bc2 = 1.0 - ADAM_BETA2 ** int(opt.t[0])
    if update_user:
        _reference_adam(state.user_vec, dh[:, :k].sum(axis=0), opt.m_user[0], opt.v_user[0], lr, bc1, bc2)
    slots = np.searchsorted(opt.rows, uniq)
    assert np.array_equal(opt.rows[slots], uniq)
    rows, m, v = state.item_table[uniq], opt.m_items[slots], opt.v_items[slots]
    _reference_adam(rows, item_grads, m, v, lr, bc1, bc2)
    state.item_table[uniq], opt.m_items[slots], opt.v_items[slots] = rows, m, v
    _reference_adam(state.net, net_grad, opt.m_net[0], opt.v_net[0], lr, bc1, bc2)


def reference_pamn_poison(
    state: ClientState,
    targets: np.ndarray,
    substitutes: np.ndarray,
    positives: np.ndarray,
    top_k: int,
    e_ft: int,
    lr: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PAMN's fine-tune of state (in place), computed alone: the packet's
    (item ids, item rows, net gradient).

    Each step ranks every item by a per-layer forward and a stable argsort,
    takes the non-target items of the top list as competitors, backpropagates
    the pairwise promotion loss by hand, sums item gradients with np.add.at
    and takes one Adam step with scalar bias corrections over dense moments.
    Calls no model code but the layout's views, so pamn_poison can be
    checked byte for byte."""
    k = state.layout.embed_dim
    promoted = np.setdiff1d(np.union1d(targets, substitutes), positives)
    table_before, net_before = state.item_table.copy(), state.net.copy()
    m_items, v_items = np.zeros_like(state.item_table), np.zeros_like(state.item_table)
    m_net, v_net = np.zeros_like(state.net), np.zeros_like(state.net)
    for s in range(1, e_ft + 1):
        scores, _, _ = _reference_forward(state, np.arange(state.num_items))
        toplist = np.argsort(-scores, kind="stable")[:top_k]
        competitors = np.array([i for i in toplist.tolist() if i not in set(targets.tolist())], dtype=np.int64)
        if len(competitors) == 0 or len(promoted) == 0:
            break
        batch = np.concatenate([competitors, promoted])
        z, inputs, masks = _reference_forward(state, batch)
        nc = len(competitors)
        sig = _reference_sigmoid(z[:nc, None] - z[None, nc:])
        sprime = sig * (1.0 - sig)
        g = np.concatenate([sprime.sum(axis=1), -sprime.sum(axis=0)])
        net_grad, dh = _reference_backward(state, inputs, masks, g)
        uniq, inverse = np.unique(batch, return_inverse=True)
        item_grads = np.zeros((len(uniq), k))
        np.add.at(item_grads, inverse, dh[:, k:])
        bc1, bc2 = 1.0 - ADAM_BETA1**s, 1.0 - ADAM_BETA2**s
        rows, m, v = state.item_table[uniq], m_items[uniq], v_items[uniq]
        _reference_adam(rows, item_grads, m, v, lr, bc1, bc2)
        state.item_table[uniq], m_items[uniq], v_items[uniq] = rows, m, v
        _reference_adam(state.net, net_grad, m_net, v_net, lr, bc1, bc2)

    delta = state.item_table - table_before
    changed = np.array([i for i in range(state.num_items) if (delta[i] != 0.0).any()], dtype=np.int64)
    return changed, delta[changed] / (-lr), (state.net - net_before) / (-lr)


def reference_round_training(world, t: int, lr: float) -> list[tuple[ClientState, AdamState]]:
    """Copies of every client's state and moments (a one-client block)
    after round t's local training, each client trained alone by
    reference_step: its pairs in its own shuffled order, batches of
    LOCAL_BATCH_SIZE, the last one holding the rest; psmu adversaries keep
    their user embedding."""
    out = []
    for i, state in enumerate(world.clients):
        state, opt = state.copy(), copy_moments(client_moments(world, i))
        pairs = world.pairs[i]
        fixed = i in world.adversaries and world.adversaries[i].fixed_user
        if len(pairs):
            perm = rngmod.stream(world.rng_root, rngmod.DOMAIN_ROUND_SHUFFLE, i, t).permutation(len(pairs))
            shuffled = pairs[perm]
            for start in range(0, len(pairs), LOCAL_BATCH_SIZE):
                reference_step(state, opt, shuffled[start : start + LOCAL_BATCH_SIZE], lr, not fixed)
        out.append((state, opt))
    return out
