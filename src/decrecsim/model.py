"""Per-client recommender: embedding lookup, feedforward scoring, BPR loss,
analytic gradients, Adam local updates, and the neighbor update rule.

A client scores item j as sigmoid(w^T FFN([u, v_j])) where FFN is a relu
multilayer perceptron over the concatenated user and item embeddings.  The
pairwise BPR loss is computed on pre-sigmoid logits (the sigmoid is applied
once, to the logit difference) to avoid double-sigmoid saturation.
Everything runs in double precision so finite-difference checks are
meaningful.

A client's Adam item moments cover only the item ids its AdamState names
(for a simulated client, the items of its own training pairs), so a client
holds one dense item table but moments for a small share of its rows.

apply_neighbor_aggregate is the only place the neighbor update rule lives:
the defenses and the adversaries compute aggregates of the neighbors'
gradients, and every aggregate is applied there (perfbench's tracer times
it by this name, where simulation calls it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from decrecsim.errors import ContractError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

INIT_SCALE = 0.05
LOCAL_BATCH_SIZE = 32


class NetLayout:
    """Shapes and flat-vector slices for the scoring network parameters.

    The network input is the concatenation [u, v] of width 2 * embed_dim,
    followed by relu dense layers of the given widths and a final projection
    to a scalar logit.
    """

    def __init__(self, embed_dim: int, layer_widths: list[int]):
        if embed_dim < 1 or not layer_widths or any(w < 1 for w in layer_widths):
            raise ContractError("embed_dim and layer widths must be positive")
        self.embed_dim = int(embed_dim)
        self.layer_widths = [int(w) for w in layer_widths]
        self.shapes: list[tuple[int, ...]] = []
        in_dim = 2 * embed_dim
        for width in self.layer_widths:
            self.shapes.append((width, in_dim))
            self.shapes.append((width,))
            in_dim = width
        self.shapes.append((in_dim,))  # final projection
        self.slices: list[slice] = []
        offset = 0
        for shape in self.shapes:
            size = int(np.prod(shape))
            self.slices.append(slice(offset, offset + size))
            offset += size
        self.size = offset

    def views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
        """Split a flat parameter vector into (weights, biases, projection) views."""
        if flat.shape != (self.size,):
            raise ContractError(
                f"flat parameter vector has size {flat.shape}, expected ({self.size},)"
            )
        ws, bs = [], []
        for li in range(len(self.layer_widths)):
            ws.append(flat[self.slices[2 * li]].reshape(self.shapes[2 * li]))
            bs.append(flat[self.slices[2 * li + 1]])
        return ws, bs, flat[self.slices[-1]]


@dataclass
class ClientState:
    """One simulated client's private model parameters."""

    user_vec: np.ndarray  # (embed_dim,)
    item_table: np.ndarray  # (num_items, embed_dim)
    net: np.ndarray  # flat parameter vector, see NetLayout
    layout: NetLayout

    @property
    def num_items(self) -> int:
        return self.item_table.shape[0]

    def copy(self) -> "ClientState":
        return ClientState(
            self.user_vec.copy(), self.item_table.copy(), self.net.copy(), self.layout
        )


@dataclass
class GradientPacket:
    """Gradients a client shares with its neighbors in one round.

    item_idx/item_rows encode the sparse item-table gradient (rows sorted by
    ascending item index); net_grad matches the sender's flat net layout.
    The private user embedding never travels; the round is stamped on the
    round's RoundRows, not on packets.
    """

    sender: int
    item_idx: np.ndarray  # (n,) int64, strictly increasing
    item_rows: np.ndarray  # (n, embed_dim) float64
    net_grad: np.ndarray  # flat float64


def empty_packet(state: ClientState, sender: int) -> GradientPacket:
    """No item rows and a zero net gradient: what a client without pairs sends."""
    return GradientPacket(
        sender=sender,
        item_idx=np.zeros(0, dtype=np.int64),
        item_rows=np.zeros((0, state.layout.embed_dim)),
        net_grad=np.zeros_like(state.net),
    )


def init_client_state(
    num_items: int, embed_dim: int, layer_widths: list[int], rng: np.random.Generator
) -> ClientState:
    """Initialize embeddings and weights uniform(-0.05, 0.05); biases zero."""
    layout = NetLayout(embed_dim, layer_widths)
    user_vec = rng.uniform(-INIT_SCALE, INIT_SCALE, size=embed_dim)
    item_table = rng.uniform(-INIT_SCALE, INIT_SCALE, size=(num_items, embed_dim))
    net = np.zeros(layout.size)
    ws, bs, w = layout.views(net)
    for mat in ws:
        mat[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=mat.shape)
    w[...] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=w.shape)
    return ClientState(user_vec, item_table, net, layout)


def _forward(
    state: ClientState, items: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Forward pass for the given item ids.

    Returns (logits, layer inputs, relu masks); the extra outputs feed the
    backward pass.
    """
    k = state.layout.embed_dim
    x = np.empty((len(items), 2 * k))
    x[:, :k] = state.user_vec
    x[:, k:] = state.item_table[items]
    ws, bs, w = state.layout.views(state.net)
    inputs = [x]
    masks = []
    h = x
    for mat, b in zip(ws, bs):
        a = h @ mat.T + b
        masks.append(a >= 0.0)
        # For finite a, the bits of np.where(a >= 0.0, a, 0.0) except at
        # a == -0.0, and a pre-activation is never -0.0: biases start at +0.0
        # and change only by b -= step.  A NaN pre-activation passes on here
        # where np.where set it to 0 (only a diverged run has one).
        h = np.maximum(a, 0.0)
        inputs.append(h)
    z = inputs[-1] @ w
    return z, inputs, masks


def _backward(
    state: ClientState,
    inputs: list[np.ndarray],
    masks: list[np.ndarray],
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate per-row logit weights g.

    Returns (net_grad_flat, user_grad, per-row item-embedding gradients).
    """
    ws, _, w = state.layout.views(state.net)
    k = state.layout.embed_dim
    net_grad = np.zeros(state.layout.size)
    gws, gbs, gw = state.layout.views(net_grad)
    gw[...] = inputs[-1].T @ g
    dh = g[:, None] * w[None, :]
    for li in range(len(ws) - 1, -1, -1):
        # For finite dh, np.where(mask, dh, 0.0) without its per-element
        # branch: a masked dh * 0 is +-0, and adding +0.0 makes it +0.0.  An
        # unmasked -0.0 turns +0.0 too, which no output sees: the sum and the
        # matmuls below start from +0.0.  A masked inf or NaN becomes NaN
        # here where np.where gave 0 (only a diverged run has one).
        da = dh * masks[li]
        da += 0.0
        gws[li][...] = da.T @ inputs[li]
        gbs[li][...] = da.sum(axis=0)
        dh = da @ ws[li]
    user_grad = dh[:, :k].sum(axis=0)
    return net_grad, user_grad, dh[:, k:]


def score_items(state: ClientState, items: np.ndarray | None = None) -> np.ndarray:
    """Pre-sigmoid logits for the given items (all items when None)."""
    if items is None:
        items = np.arange(state.num_items)
    z, _, _ = _forward(state, np.asarray(items, dtype=np.int64))
    return z


def _sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below; exp only ever
    # sees -|x|, so neither form overflows.
    x = np.asarray(x)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x), stable for large |x|
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


_BATCH_SHAPE = "training batch must be a nonempty (n, 2) array of item pairs"


def check_pairs(pairs: np.ndarray, num_items: int) -> np.ndarray:
    """Validate (positive, negative) item pairs as an int64 array; n may be 0.

    The checks every gradient batch gets: an (n, 2) shape, no self-pair,
    and ids in [0, num_items).
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ContractError(_BATCH_SHAPE)
    if len(pairs) == 0:
        return pairs
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise ContractError("positive and negative item must differ within a pair")
    if pairs.min() < 0 or pairs.max() >= num_items:
        raise ContractError("batch item index out of range")
    return pairs


def _check_batch(state: ClientState, pairs: np.ndarray) -> np.ndarray:
    pairs = check_pairs(pairs, state.num_items)
    if len(pairs) == 0:
        raise ContractError(_BATCH_SHAPE)
    return pairs


def bpr_loss(state: ClientState, pairs: np.ndarray) -> float:
    """Mean over pairs of -ln sigmoid(logit_pos - logit_neg)."""
    pairs = _check_batch(state, pairs)
    items = np.concatenate([pairs[:, 0], pairs[:, 1]])
    z, _, _ = _forward(state, items)
    n = len(pairs)
    diff = z[:n] - z[n:]
    return float(np.mean(_softplus(-diff)))


def scatter_add_rows(
    idx: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sum the rows that share an index: (sorted unique indices, sums, counts).

    Each sum adds its rows one at a time in input order, starting from
    zero, exactly as np.add.at does, so callers get the same bits.
    """
    idx = np.asarray(idx, dtype=np.int64)
    dim = rows.shape[1]
    if idx.size == 0:
        return idx, np.zeros((0, dim)), np.zeros(0, dtype=np.int64)
    counts = np.bincount(idx)
    uniq = np.flatnonzero(counts)
    sums = np.bincount(
        (idx[:, None] * dim + np.arange(dim)).ravel(),
        weights=rows.ravel(),
        minlength=len(counts) * dim,
    ).reshape(-1, dim)
    return uniq, sums[uniq], counts[uniq]


def compute_gradients(
    state: ClientState, pairs: np.ndarray, sender: int = -1
) -> tuple[np.ndarray, GradientPacket]:
    """Analytic gradients of bpr_loss w.r.t. u, touched item rows, and net.

    Rows of items absent from the batch are absent from the packet.
    """
    return _gradients(state, _check_batch(state, pairs), sender)


def _gradients(
    state: ClientState, pairs: np.ndarray, sender: int = -1
) -> tuple[np.ndarray, GradientPacket]:
    """compute_gradients on a batch that already passed its checks."""
    items = np.concatenate([pairs[:, 0], pairs[:, 1]])
    z, inputs, masks = _forward(state, items)
    n = len(pairs)
    diff = z[:n] - z[n:]
    # d mean(softplus(-diff)) / d z_pos = -sigmoid(-diff) / n
    gpos = -np.asarray(_sigmoid(-diff)) / n
    g = np.concatenate([gpos, -gpos])
    net_grad, user_grad, item_rows = _backward(state, inputs, masks, g)

    uniq, acc, _ = scatter_add_rows(items, item_rows)
    packet = GradientPacket(sender=sender, item_idx=uniq, item_rows=acc, net_grad=net_grad)
    return user_grad, packet


@dataclass
class AdamState:
    """Adam moments for one client.

    The item moments cover only the item ids in ``rows`` (sorted, unique):
    row s of m_items and v_items belongs to item rows[s].  Stepping an item
    outside ``rows`` raises ContractError; the update is never dropped.
    """

    t: int
    m_user: np.ndarray
    v_user: np.ndarray
    rows: np.ndarray  # (r,) int64, strictly increasing item ids
    m_items: np.ndarray  # (r, embed_dim)
    v_items: np.ndarray  # (r, embed_dim)
    m_net: np.ndarray
    v_net: np.ndarray

    @classmethod
    def for_state(cls, state: ClientState, rows: np.ndarray | None = None) -> "AdamState":
        """Zero moments, with item moments over ``rows`` (every item when None)."""
        if rows is None:
            rows = np.arange(state.num_items, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        shape = (len(rows), state.layout.embed_dim)
        return cls(
            t=0,
            m_user=np.zeros_like(state.user_vec),
            v_user=np.zeros_like(state.user_vec),
            rows=rows,
            m_items=np.zeros(shape),
            v_items=np.zeros(shape),
            m_net=np.zeros_like(state.net),
            v_net=np.zeros_like(state.net),
        )


def _adam_update(
    param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
    lr: float, bc1: float, bc2: float,
) -> None:
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def local_train_step(
    state: ClientState,
    pairs: np.ndarray,
    opt: AdamState,
    lr: float,
    update_user: bool = True,
) -> None:
    """One Adam update of u, touched item rows, and net from batch gradients.

    The pairs are not re-checked: they must be a nonempty batch that passed
    check_pairs (init_world checks every client's pairs once).
    """
    if lr < 0:
        raise ContractError("learning rate must be >= 0")
    user_grad, packet = _gradients(state, pairs)
    adam_step(
        state, opt, packet.item_idx, packet.item_rows, packet.net_grad, lr,
        user_grad if update_user else None,
    )


def adam_step(
    state: ClientState,
    opt: AdamState,
    item_idx: np.ndarray,
    item_rows: np.ndarray,
    net_grad: np.ndarray,
    lr: float,
    user_grad: np.ndarray | None = None,
) -> None:
    """One Adam step of the given item rows and the net (and u, given its gradient).

    Only the given rows of the table and of the item moments are touched;
    every given item must be one the moments cover.
    """
    slots = np.searchsorted(opt.rows, item_idx)
    if (slots == len(opt.rows)).any() or (opt.rows[slots] != item_idx).any():
        raise ContractError("Adam item moments do not cover a stepped item")
    opt.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** opt.t
    bc2 = 1.0 - ADAM_BETA2 ** opt.t
    if user_grad is not None:
        _adam_update(state.user_vec, user_grad, opt.m_user, opt.v_user, lr, bc1, bc2)
    m_rows = opt.m_items[slots]
    v_rows = opt.v_items[slots]
    rows = state.item_table[item_idx]
    _adam_update(rows, item_rows, m_rows, v_rows, lr, bc1, bc2)
    state.item_table[item_idx] = rows
    opt.m_items[slots] = m_rows
    opt.v_items[slots] = v_rows
    _adam_update(state.net, net_grad, opt.m_net, opt.v_net, lr, bc1, bc2)


def apply_neighbor_aggregate(
    state: ClientState, items: np.ndarray, rows: np.ndarray, net_mean: np.ndarray, lr: float
) -> None:
    """The neighbor update rule: subtract lr times an aggregate of the
    neighbors' gradients, given as item ids with their aggregate rows and the
    mean net gradient.

    Every defense's aggregate, and an adversary's absorption of its
    neighbors' packets, is applied here.  Item rows and the net move; the
    private user embedding does not.
    """
    if len(items):
        state.item_table[items] -= lr * rows
    state.net -= lr * net_mean
