"""Shared builders and independent oracles for the test suite.

The oracles here are deliberately naive (double loops, dense matrices,
finite differences) and never call the implementation paths they check.
"""

from __future__ import annotations

import numpy as np

from decrecsim.defenses import build_round_rows, l2_clip_aggregate
from decrecsim.errors import ContractError
from decrecsim.model import (
    ClientState,
    GradientPacket,
    NetLayout,
    apply_neighbor_aggregate,
    bpr_loss,
    init_client_state,
)


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
    round_no: int = 1,
    dim: int = 2,
) -> GradientPacket:
    idx = np.array(sorted(rows), dtype=np.int64)
    mat = (
        np.vstack([np.asarray(rows[i], dtype=np.float64) for i in idx.tolist()])
        if len(idx)
        else np.zeros((0, dim))
    )
    return GradientPacket(sender=sender, round=round_no, item_idx=idx, item_rows=mat, net_grad=net)


def round_rows(pkts, round_no=1, mu=1.0, p=2, clip=True, num_items=None):
    """build_round_rows for a model shaped like the packets: row width and
    net size from the first packet (2 and 2 without packets), and room for
    every item id they carry unless num_items is given."""
    if num_items is None:
        num_items = 1 + max((int(q.item_idx.max()) for q in pkts if len(q.item_idx)), default=0)
    embed_dim = pkts[0].item_rows.shape[1] if pkts else 2
    net_size = len(pkts[0].net_grad) if pkts else 2
    return build_round_rows(
        pkts, round_no, num_items, embed_dim, net_size, mu=mu, p=p, clip=clip
    )


def absorb(state: ClientState, pkts: list[GradientPacket], lr: float) -> None:
    """Apply pkts as a receiver with defense none does in a round: their
    unclipped round rows read by l2_clip_aggregate, and the mean of their net
    gradients in ascending sender order, applied by apply_neighbor_aggregate."""
    rr = build_round_rows(
        pkts, 1, state.num_items, state.layout.embed_dim, state.layout.size, clip=False
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


def brute_force_top_nu(entries: list[tuple[float, int]], nu: float) -> list[int]:
    """Indices of the top ceil(nu*n) entries by (norm desc, insertion asc)."""
    import math

    n = len(entries)
    k = math.ceil(nu * n)
    order = sorted(range(n), key=lambda j: (-entries[j][0], entries[j][1]))
    return order[:k]


class ReferenceBank:
    """List-based memory bank: every entry in insertion order, and a pop that
    sorts the whole list by (norm desc, insertion asc) and takes the top
    ceil(nu * n).  Reads only the rows, items and norms of a RoundRows."""

    def __init__(self, capacity_rounds: int):
        self.capacity_rounds = capacity_rounds
        self.entries: list[tuple[int, int, np.ndarray, float]] = []  # round, item, row, norm

    def ingest(self, rr, refs) -> None:
        for ref in refs:
            ref = int(ref)
            self.entries.append((rr.round, int(rr.items[ref]), rr.rows[ref], float(rr.norms[ref])))

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
    chunks = [(rr, ranks) for bank in banks for rr, ranks in bank._chunks if rr.round == round_no]
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
