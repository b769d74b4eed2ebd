"""Per-client recommender: embedding lookup, feedforward scoring, BPR loss,
analytic gradients, Adam local updates, and the neighbor update rule.

A client scores item j as sigmoid(w^T FFN([u, v_j])) where FFN is a relu
multilayer perceptron over the concatenated user and item embeddings.  The
pairwise BPR loss is computed on pre-sigmoid logits (the sigmoid is applied
once, to the logit difference) to avoid double-sigmoid saturation.
Everything runs in double precision so finite-difference checks are
meaningful.

A client's Adam item moments cover only the item ids listed in its rows of
an AdamState (for a simulated client, the items of its own training
pairs), so a client holds one dense item table but moments for a small
share of its rows.

Client state is stacked: stack_states holds many clients' parameters and
moments along a leading client axis, client_views hands out each client's
own ClientState as views of it, and block_views a slice of clients, with
their moments, as a block.  Adam moments exist only in that form, a
stack's or a block's.  local_train_step is the one training step, and it
takes blocks only: it steps a block of clients in lockstep (one batched
forward, backward, scatter-add and Adam step, each client on its own batch
of one shared size).  Every client of a block gets the bits of stepping
alone.  _adam_update is the one Adam kernel; besides the block step, only
PAMN's fine-tune calls it, on moments it keeps itself.

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
        """Split flat parameter vectors into (weights, biases, projection) views.

        flat is (size,) or (..., size); the views keep its leading axes.
        """
        if flat.shape[-1:] != (self.size,):
            raise ContractError(
                f"flat parameter vector has size {flat.shape}, expected ({self.size},)"
            )
        lead = flat.shape[:-1]
        ws, bs = [], []
        for li in range(len(self.layer_widths)):
            ws.append(flat[..., self.slices[2 * li]].reshape(lead + self.shapes[2 * li]))
            bs.append(flat[..., self.slices[2 * li + 1]])
        return ws, bs, flat[..., self.slices[-1]]


@dataclass
class ClientState:
    """One simulated client's private model parameters, or a block's.

    A block of B clients holds the same arrays with a leading client axis:
    user_vec (B, embed_dim), item_table (B, num_items, embed_dim) and net
    (B, size).  A World keeps every client's parameters in one such stack
    and hands out per-client views of it.
    """

    user_vec: np.ndarray  # (embed_dim,)
    item_table: np.ndarray  # (num_items, embed_dim)
    net: np.ndarray  # flat parameter vector, see NetLayout
    layout: NetLayout

    @property
    def num_items(self) -> int:
        return self.item_table.shape[-2]

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

    A packet owns its arrays.  A round copies each packet it sends into
    its defenses.RoundBlock once and keeps no reference to it.
    """

    sender: int
    item_idx: np.ndarray  # (n,) int64, strictly increasing
    item_rows: np.ndarray  # (n, embed_dim) float64
    net_grad: np.ndarray  # flat float64


def draw_client_params(state: ClientState, rng: np.random.Generator) -> None:
    """Draw one client's parameters into its arrays (a stack's views
    included, so nothing is allocated twice): the user embedding, the item
    table, then each weight matrix and the projection, uniform(-0.05, 0.05);
    biases zero.

    Each array is filled with rng.random and scaled in place: the draws and
    bits of rng.uniform(-INIT_SCALE, INIT_SCALE), which computes
    low + (high - low) * u.
    """
    ws, bs, w = state.layout.views(state.net)
    for arr in (state.user_vec, state.item_table, *ws, w):
        rng.random(out=arr)
        arr *= 2.0 * INIT_SCALE  # high - low
        arr += -INIT_SCALE
    for b in bs:
        b[...] = 0.0


def _item_rows(table: np.ndarray, items: np.ndarray) -> np.ndarray:
    """table[items] for one client; for a block, each client's rows of its
    own table."""
    if table.ndim == 2:
        return table[items]
    return table[np.arange(len(table))[:, None], items]


def _forward(
    state: ClientState, items: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Forward pass for the given item ids: (m,) for one client, (B, m) for
    a block, one row of ids per client.

    Returns (logits, layer inputs, relu masks); the extra outputs feed the
    backward pass.  A block runs each layer as one matmul over its leading
    client axis, which calls the same BLAS kernel on the same operands per
    client, so every client gets the bits of its own forward pass.
    """
    k = state.layout.embed_dim
    x = np.empty(items.shape + (2 * k,))
    x[..., :k] = state.user_vec[..., None, :]
    x[..., k:] = _item_rows(state.item_table, items)
    ws, bs, w = state.layout.views(state.net)
    inputs = [x]
    masks = []
    h = x
    for mat, b in zip(ws, bs):
        h = h @ np.swapaxes(mat, -1, -2)
        h += b[..., None, :]
        masks.append(h >= 0.0)
        # For finite a, the bits of np.where(a >= 0.0, a, 0.0) except at
        # a == -0.0, and a pre-activation is never -0.0: biases start at +0.0
        # and change only by b -= step.  A NaN pre-activation passes on here
        # where np.where set it to 0 (only a diverged run has one).
        np.maximum(h, 0.0, out=h)
        inputs.append(h)
    z = (inputs[-1] @ w[..., None])[..., 0]
    return z, inputs, masks


def _backward(
    state: ClientState,
    inputs: list[np.ndarray],
    masks: list[np.ndarray],
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backpropagate per-row logit weights g ((m,), or (B, m) for a block).

    Returns (net_grad_flat, user_grad, per-row item-embedding gradients),
    each with the block's leading axis.  Row sums run over axis -2 one row
    at a time, for one client and for a block alike.
    """
    ws, _, w = state.layout.views(state.net)
    k = state.layout.embed_dim
    net_grad = np.zeros(state.net.shape)
    gws, gbs, gw = state.layout.views(net_grad)
    gw[...] = (np.swapaxes(inputs[-1], -1, -2) @ g[..., None])[..., 0]
    dh = g[..., None] * w[..., None, :]
    for li in range(len(ws) - 1, -1, -1):
        # For finite dh, np.where(mask, dh, 0.0) without its per-element
        # branch: a masked dh * 0 is +-0, and adding +0.0 makes it +0.0.  An
        # unmasked -0.0 turns +0.0 too, which no output sees: the sum and the
        # matmuls below start from +0.0.  A masked inf or NaN becomes NaN
        # here where np.where gave 0 (only a diverged run has one).
        da = np.multiply(dh, masks[li], out=dh)
        da += 0.0
        gws[li][...] = np.swapaxes(da, -1, -2) @ inputs[li]
        gbs[li][...] = da.sum(axis=-2)
        dh = da @ ws[li]
    user_grad = dh[..., :k].sum(axis=-2)
    return net_grad, user_grad, dh[..., k:]


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


def check_pairs(pairs: np.ndarray, num_items: int) -> np.ndarray:
    """Validate (positive, negative) item pairs as an int64 array; n may be 0.

    The checks every gradient batch gets: an (n, 2) shape, no self-pair,
    and ids in [0, num_items).
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ContractError("training batch must be an (n, 2) array of item pairs")
    if len(pairs) == 0:
        return pairs
    if (pairs[:, 0] == pairs[:, 1]).any():
        raise ContractError("positive and negative item must differ within a pair")
    if pairs.min() < 0 or pairs.max() >= num_items:
        raise ContractError("batch item index out of range")
    return pairs


def bpr_loss(state: ClientState, pairs: np.ndarray) -> float:
    """Mean over pairs of -ln sigmoid(logit_pos - logit_neg); the mean of
    an empty batch is undefined, so it is rejected."""
    pairs = check_pairs(pairs, state.num_items)
    if len(pairs) == 0:
        raise ContractError("training batch must be nonempty")
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
    zero, exactly as np.add.at does, so callers get the same bits.  An
    empty input gives empty sums of shape (0, dim).
    """
    idx = np.asarray(idx, dtype=np.int64)
    dim = rows.shape[1]
    counts = np.bincount(idx)
    uniq = np.flatnonzero(counts)
    # bincount of no ids is int64 even with weights; float64 input is not copied.
    sums = np.bincount(
        (idx[:, None] * dim + np.arange(dim)).ravel(),
        weights=rows.ravel(),
        minlength=len(counts) * dim,
    ).astype(np.float64, copy=False).reshape(-1, dim)
    return uniq, sums[uniq], counts[uniq]


def compute_gradients(
    state: ClientState, pairs: np.ndarray, sender: int = -1
) -> tuple[np.ndarray, GradientPacket]:
    """Analytic gradients of bpr_loss w.r.t. u, touched item rows, and net.

    Rows of items absent from the batch are absent from the packet.  An
    empty batch has zero gradients: a +0.0 user gradient and a packet of no
    item rows and a +0.0 net gradient, which is what a client without
    training pairs sends.
    """
    pairs = check_pairs(pairs, state.num_items)
    items, user_grad, net_grad, item_rows = _pair_gradients(state, pairs)
    uniq, acc, _ = scatter_add_rows(items, item_rows)
    return user_grad, GradientPacket(sender=sender, item_idx=uniq, item_rows=acc, net_grad=net_grad)


def _pair_gradients(
    state: ClientState, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the mean BPR loss over each client's pairs ((n, 2), or
    (B, n, 2) for a block): the batch's item ids (positives, then
    negatives), the user and net gradients, and one item gradient per id."""
    n = pairs.shape[-2]
    items = np.concatenate([pairs[..., 0], pairs[..., 1]], axis=-1)
    z, inputs, masks = _forward(state, items)
    diff = z[..., :n] - z[..., n:]
    # d mean(softplus(-diff)) / d z_pos = -sigmoid(-diff) / n
    gpos = -np.asarray(_sigmoid(-diff)) / n
    g = np.concatenate([gpos, -gpos], axis=-1)
    net_grad, user_grad, item_rows = _backward(state, inputs, masks, g)
    return items, user_grad, net_grad, item_rows


@dataclass
class AdamState:
    """Adam moments of a stack or block of B clients (stack_states,
    block_views).

    The per-client arrays carry a leading client axis (t (B,), m_user
    (B, d), m_net (B, size)).  The item moments are each client's in turn,
    client j's at rows row_start[j]:row_start[j + 1], and cover only the
    item ids in those rows of ``rows`` (sorted, unique per client): row s of
    m_items and v_items belongs to item rows[s].  Stepping an item outside
    a client's rows raises ContractError; the update is never dropped.
    """

    t: np.ndarray  # (B,) int64
    m_user: np.ndarray
    v_user: np.ndarray
    rows: np.ndarray  # (r,) int64 item ids
    m_items: np.ndarray  # (r, embed_dim)
    v_items: np.ndarray  # (r, embed_dim)
    m_net: np.ndarray
    v_net: np.ndarray
    row_start: np.ndarray  # (B + 1,) int64


def stack_states(
    layout: NetLayout, num_items: int, rows: list[np.ndarray]
) -> tuple[ClientState, AdamState]:
    """Zero parameters and moments of len(rows) clients, stacked along a
    leading client axis; client j's item moments cover rows[j]."""
    c, d = len(rows), layout.embed_dim
    row_start = np.zeros(c + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=row_start[1:])
    state = ClientState(np.zeros((c, d)), np.zeros((c, num_items, d)), np.zeros((c, layout.size)), layout)
    opt = AdamState(
        t=np.zeros(c, dtype=np.int64),
        m_user=np.zeros((c, d)),
        v_user=np.zeros((c, d)),
        rows=np.concatenate(rows).astype(np.int64) if c else np.zeros(0, dtype=np.int64),
        m_items=np.zeros((int(row_start[-1]), d)),
        v_items=np.zeros((int(row_start[-1]), d)),
        m_net=np.zeros((c, layout.size)),
        v_net=np.zeros((c, layout.size)),
        row_start=row_start,
    )
    return state, opt


# AdamState fields with one entry per client, and per item-moment row.
_PER_CLIENT = ("t", "m_user", "v_user", "m_net", "v_net")
_PER_ROW = ("rows", "m_items", "v_items")


def block_views(
    state: ClientState, opt: AdamState, lo: int, hi: int
) -> tuple[ClientState, AdamState]:
    """Clients lo..hi-1 of a stack as a block: views, not copies."""
    rows = slice(opt.row_start[lo], opt.row_start[hi])
    return (
        ClientState(state.user_vec[lo:hi], state.item_table[lo:hi], state.net[lo:hi], state.layout),
        AdamState(
            **{f: getattr(opt, f)[lo:hi] for f in _PER_CLIENT},
            **{f: getattr(opt, f)[rows] for f in _PER_ROW},
            row_start=opt.row_start[lo : hi + 1] - rows.start,
        ),
    )


def client_views(state: ClientState, j: int) -> ClientState:
    """Client j of a stack: its own ClientState, as views."""
    return ClientState(state.user_vec[j], state.item_table[j], state.net[j], state.layout)


def _moment_slots(opt: AdamState, items: np.ndarray, num_items: int) -> np.ndarray:
    """Each client's item-moment row of each of its items ((B, m) ids, one
    row per client of the block); ContractError if a client's moments do not
    cover one of its items."""
    keys = np.repeat(np.arange(len(opt.row_start) - 1) * num_items, np.diff(opt.row_start))
    keys += opt.rows
    want = (np.arange(len(items)) * num_items)[:, None] + items
    slots = np.searchsorted(keys, want)
    if (slots == len(keys)).any() or (keys[slots] != want).any():
        raise ContractError("Adam item moments do not cover a stepped item")
    return slots


def _adam_update(
    param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
    lr: float, bc1: float | np.ndarray, bc2: float | np.ndarray,
) -> None:
    # param -= lr * (m / bc1) / (sqrt(v / bc2) + eps) after the moment
    # updates, op by op in that order, through two scratch arrays.
    m *= ADAM_BETA1
    step = np.multiply(grad, 1.0 - ADAM_BETA1)
    m += step
    v *= ADAM_BETA2
    np.multiply(grad, 1.0 - ADAM_BETA2, out=step)
    step *= grad
    v += step
    np.divide(m, bc1, out=step)
    step *= lr
    scale = np.divide(v, bc2)
    np.sqrt(scale, out=scale)
    scale += ADAM_EPS
    step /= scale
    param -= step


def _adam_block(
    state: ClientState,
    opt: AdamState,
    slots: np.ndarray,
    item_grads: np.ndarray,
    net_grad: np.ndarray,
    lr: float,
    user_grad: np.ndarray,
    update_user: bool | np.ndarray,
) -> None:
    """One Adam step of every client of a block: the item-moment rows slots
    (each once) with their gradients, every net, and the user vectors that
    update_user selects.  Each client's bias corrections come from its own
    step count."""
    opt.t += 1
    bc1 = np.array([[1.0 - ADAM_BETA1 ** t] for t in opt.t.tolist()])
    bc2 = np.array([[1.0 - ADAM_BETA2 ** t] for t in opt.t.tolist()])
    j = np.flatnonzero(np.broadcast_to(update_user, len(bc1)))
    u, m, v = state.user_vec[j], opt.m_user[j], opt.v_user[j]
    _adam_update(u, user_grad[j], m, v, lr, bc1[j], bc2[j])
    state.user_vec[j], opt.m_user[j], opt.v_user[j] = u, m, v
    owner = np.searchsorted(opt.row_start, slots, side="right") - 1
    items = opt.rows[slots]
    rows = state.item_table[owner, items]
    m_rows = opt.m_items[slots]
    v_rows = opt.v_items[slots]
    _adam_update(rows, item_grads, m_rows, v_rows, lr, bc1[owner], bc2[owner])
    state.item_table[owner, items] = rows
    opt.m_items[slots] = m_rows
    opt.v_items[slots] = v_rows
    _adam_update(state.net, net_grad, opt.m_net, opt.v_net, lr, bc1, bc2)


def local_train_step(
    state: ClientState,
    pairs: np.ndarray,
    opt: AdamState,
    lr: float,
    update_user: bool | np.ndarray = True,
) -> None:
    """One Adam update of u, touched item rows, and net from batch gradients,
    for a block of B clients trained in lockstep.

    state and opt are a block (see block_views), pairs is (B, n, 2), one
    batch of the same size per client, and update_user may be a (B,) mask.
    Each client gets the bits of its own step: its rows of every matmul, its
    bins of the one scatter-add (keyed by client and item) and its own Adam
    bias corrections.

    The pairs are not re-checked: they must be nonempty batches that passed
    check_pairs (init_world checks every client's pairs once).
    """
    if lr < 0:
        raise ContractError("learning rate must be >= 0")
    if state.user_vec.ndim != 2:
        raise ContractError("local_train_step steps a block of clients (see block_views)")
    items, user_grad, net_grad, item_rows = _pair_gradients(state, pairs)
    slots = _moment_slots(opt, items, state.num_items)
    uniq, sums, _ = scatter_add_rows(slots.ravel(), item_rows.reshape(-1, state.layout.embed_dim))
    _adam_block(state, opt, uniq, sums, net_grad, lr, user_grad, update_user)


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
