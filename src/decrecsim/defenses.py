"""Benign-side aggregation defenses over received item-row gradients.

All defenses consume the item-row part of neighbor packets and produce
per-item aggregate rows; network-parameter gradients are always aggregated
by plain mean outside these functions.  For median / trimmed mean / Krum,
an item row absent from a packet counts as a zero vector, mirroring the
FedAvg convention of dividing by the packet count.

A round's packets are consolidated once (RoundRows), and every robust
defense reads a receiver's rows from it by the receiver's ascending
neighbor ids.  Clipping to the fixed mu bound, for l2clip and for UCSU,
happens once, at consolidation, so l2clip itself is a plain mean.

Median and trimmed mean scatter a receiver's rows into one dense
(items, dim, packets) block, absent rows zero, and sort it once along the
packet axis; the kept ranks are then slices of that axis.  A skip mask
keeps out of the block every item carried by too few packets to reach the
kept ranks (at most (n - 1) // 2 for the median, at most trim_k for the
trimmed mean), whose aggregate row is exactly zero.

Every receiver's UCSU MemoryBank references the round's rows by a packed
(round, row) id.  A bank is kept in pop order (descending stored norm,
insertion order on ties): each round's rows are sorted into pop order
once, shared by all receivers, and merged into a bank with one
searchsorted, so taking the top fraction is a prefix slice and no
receiver ever sorts its whole bank.  Per-item sums add rows in pop order,
one at a time, so the aggregate has the same bits as a sequential per-row
loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from decrecsim.errors import ContractError
from decrecsim.model import GradientPacket, scatter_add_rows


def _norms(rows: np.ndarray, p: int) -> np.ndarray:
    if p < 1:
        raise ContractError("norm order must be >= 1")
    if len(rows) == 0:
        return np.zeros(0)
    return np.linalg.norm(rows, ord=p, axis=1)


def _clip(rows: np.ndarray, norms: np.ndarray, bound: float) -> np.ndarray:
    """Scale each row by min(1, bound / its norm).

    Rows with norm <= bound, zero rows among them (bound >= 0), pass
    unchanged.
    """
    factors = np.ones(len(rows))
    over = norms > bound
    factors[over] = bound / norms[over]
    return rows * factors[:, None]


def clip_row(grad_row: np.ndarray, mu: float, p: int = 2) -> np.ndarray:
    """Scale grad_row by min(1, mu / |grad_row|_p); zero rows pass through."""
    if mu <= 0:
        raise ContractError("mu must be > 0")
    rows = np.asarray(grad_row, dtype=np.float64)[None, :]
    return _clip(rows, _norms(rows, p), mu)[0]


def adaptive_clip(rows: np.ndarray, p: int = 2) -> np.ndarray:
    """Scale each row by min(1, mean_norm / own_norm); zero rows pass through."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or len(rows) == 0:
        raise ContractError("adaptive_clip requires a nonempty (n, dim) row matrix")
    norms = _norms(rows, p)
    return _clip(rows, norms, float(norms.mean()))


@dataclass
class RoundRows:
    """All item-row gradients received in one round, consolidated.

    One instance per round is shared by every receiving client; each
    reads, or banks, the subset of rows its neighbors sent.  Rows are
    stored by ascending sender.  The pop order (descending norm, row index
    on ties) and each sender's row range are computed once here and shared
    by every receiver.
    """

    round: int
    senders: np.ndarray  # (n,) int32, ascending
    items: np.ndarray  # (n,) int32
    rows: np.ndarray  # (n, embed_dim) float64
    norms: np.ndarray  # (n,) float64 p-norms
    order: np.ndarray = field(init=False)  # row indices in pop order
    rank: np.ndarray = field(init=False)  # position of each row in order
    sender_start: np.ndarray = field(init=False)  # first row, per sender id
    sender_count: np.ndarray = field(init=False)  # row count, per sender id

    def __post_init__(self) -> None:
        self.order = np.argsort(-self.norms, kind="stable")
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(len(self.order))
        self.sender_count = np.bincount(self.senders)
        self.sender_start = np.cumsum(self.sender_count) - self.sender_count

    def refs_of(self, senders: np.ndarray) -> np.ndarray:
        """Row indices sent by the given ascending sender ids, in sender order."""
        senders = senders[senders < len(self.sender_count)]
        counts = self.sender_count[senders]
        ends = np.cumsum(counts)
        offsets = np.repeat(self.sender_start[senders] - (ends - counts), counts)
        return np.arange(len(offsets)) + offsets

    def receive(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What a receiver with the given ascending neighbor ids reads: the
        item ids, rows and sender positions (index into senders) of the
        rows those senders sent, in sender order."""
        if len(senders) == 0:
            raise ContractError("aggregation requires at least one packet")
        refs = self.refs_of(senders)
        return self.items[refs], self.rows[refs], np.searchsorted(senders, self.senders[refs])


def build_round_rows(
    packets: list[GradientPacket],
    round_no: int,
    mu: float = 1.0,
    p: int = 2,
    clip: bool = True,
) -> RoundRows:
    """Consolidate packets (ascending sender order) into one RoundRows.

    With clip enabled every row is clipped to the fixed mu bound before
    storage; clipping is receiver-independent, so the result may be shared.
    """
    ordered = sorted(packets, key=lambda q: q.sender)
    if ordered:
        senders = np.concatenate(
            [np.full(len(q.item_idx), q.sender, dtype=np.int32) for q in ordered]
        )
        items = np.concatenate([q.item_idx for q in ordered]).astype(np.int32)
        rows = (
            np.vstack([q.item_rows for q in ordered])
            if items.size
            else np.zeros((0, 0))
        )
    else:
        senders = np.zeros(0, dtype=np.int32)
        items = np.zeros(0, dtype=np.int32)
        rows = np.zeros((0, 0))
    norms = _norms(rows, p)
    if clip and len(rows):
        if mu <= 0:
            raise ContractError("mu must be > 0")
        rows = _clip(rows, norms, mu)
        norms = np.minimum(norms, mu)
    return RoundRows(round=round_no, senders=senders, items=items, rows=rows, norms=norms)


# A bank entry is the id round * _ROUND_STRIDE + row index within the round.
_ROUND_STRIDE = 1 << 32


class MemoryBank:
    """Per-client store of received item-row gradients awaiting application.

    Entries reference rows inside shared RoundRows objects.  The bank keeps
    them in pop order, descending stored norm with insertion order on ties,
    as two parallel arrays: the packed (round, row) id and the negated
    norm, which ascends.  A new round's rows arrive already in pop order
    from their RoundRows and are merged in after every banked entry of
    equal norm, so the order never has to be recomputed: the top fraction
    is a prefix, and eviction is one compare on the id.  Within a round the
    rows go in by row index, i.e. by sender; across rounds by round.  The
    popped set matches a brute-force (norm desc, insertion asc) oracle.
    """

    def __init__(self, capacity_rounds: int):
        if capacity_rounds < 1:
            raise ContractError("capacity_rounds must be >= 1")
        self.capacity_rounds = capacity_rounds
        self.clear()

    def ingest(self, rr: RoundRows, refs: np.ndarray) -> None:
        """Bank the given row indices of a round's consolidated gradients.

        Rows of equal norm go in by row index, whatever the order of refs.
        """
        refs = np.asarray(refs, dtype=np.int64)
        if len(refs) == 0:
            return
        self._rounds[rr.round] = rr
        new = rr.order[np.sort(rr.rank[refs])]
        neg = -rr.norms[new]
        # Final positions of the new entries: after every banked entry of
        # equal norm, and after the new entries ahead of them.
        at = np.searchsorted(self._neg_norm, neg, side="right") + np.arange(len(new))
        banked = np.ones(self.size() + len(new), dtype=bool)
        banked[at] = False
        ids = np.empty(len(banked), dtype=np.int64)
        ids[at] = rr.round * _ROUND_STRIDE + new
        ids[banked] = self._id
        neg_norm = np.empty(len(banked))
        neg_norm[at] = neg
        neg_norm[banked] = self._neg_norm
        self._id, self._neg_norm = ids, neg_norm

    def evict(self, current_round: int) -> None:
        """Drop entries with round_received older than current - capacity_rounds."""
        horizon = current_round - self.capacity_rounds
        keep = self._id >= horizon * _ROUND_STRIDE
        if not keep.all():
            self._id = self._id[keep]
            self._neg_norm = self._neg_norm[keep]
        for r in [r for r in self._rounds if r < horizon]:
            del self._rounds[r]

    def clear(self) -> None:
        self._rounds: dict[int, RoundRows] = {}
        self._id = np.zeros(0, dtype=np.int64)
        self._neg_norm = np.zeros(0)

    def size(self) -> int:
        return len(self._id)

    def entries(self) -> list[tuple[int, int, int, np.ndarray]]:
        """(round_received, sender, item, grad_row) for every banked row,
        in insertion order (round, then row index)."""
        out = []
        for entry in np.sort(self._id).tolist():
            r, ref = divmod(entry, _ROUND_STRIDE)
            rr = self._rounds[r]
            out.append((r, int(rr.senders[ref]), int(rr.items[ref]), rr.rows[ref]))
        return out

    def pop_top_fraction(self, nu: float) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return the top ceil(nu * size) rows by stored norm.

        Output is ordered by descending norm, insertion order on ties.
        """
        if not (0.0 < nu <= 1.0):
            raise ContractError("nu must be in (0, 1]")
        total = self.size()
        if total == 0:
            return np.zeros(0, dtype=np.int64), np.zeros((0, 0))
        k = math.ceil(nu * total)
        popped = self._id[:k]
        self._id = self._id[k:]
        self._neg_norm = self._neg_norm[k:]
        return self._gather(popped)

    def _gather(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Items and rows of the given entries, in the given order."""
        by_id = np.argsort(ids)
        sorted_ids = ids[by_id]
        dim = next(iter(self._rounds.values())).rows.shape[1]
        items = np.empty(len(ids), dtype=np.int64)
        rows = np.empty((len(ids), dim))
        live = sorted(self._rounds)
        bounds = np.searchsorted(sorted_ids, np.array(live + [live[-1] + 1]) * _ROUND_STRIDE)
        for r, a, b in zip(live, bounds[:-1].tolist(), bounds[1:].tolist()):
            if a == b:
                continue
            refs = sorted_ids[a:b] - r * _ROUND_STRIDE
            dest = by_id[a:b]
            items[dest] = self._rounds[r].items[refs]
            rows[dest] = self._rounds[r].rows[refs]
        return items, rows


def ucsu_aggregate(
    bank: MemoryBank,
    rr: RoundRows,
    senders: np.ndarray,
    nu: float,
    p: int = 2,
    clean_bank: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Bank what the senders sent this round, pop the top-nu fraction by
    norm, rescale, and average.

    The senders' rows (clipped at consolidation when UCSU clips) are
    inserted into the bank, then entries beyond the retention window of
    round rr.round are evicted.  The top ceil(nu * bank size) rows by norm
    are removed, rescaled by the adaptive mean-norm clip, and averaged per
    item.  Rows left unselected stay banked unless clean_bank is set, which
    discards them (the literal pop-and-clean variant).  Returns (item ids,
    aggregate rows); an empty bank yields an empty aggregate.
    """
    if not (0.0 < nu <= 1.0):
        raise ContractError("nu must be in (0, 1]")
    bank.ingest(rr, rr.refs_of(senders))
    bank.evict(rr.round)
    if bank.size() == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0))
    items, rows = bank.pop_top_fraction(nu)
    rows = adaptive_clip(rows, p)
    if clean_bank:
        bank.clear()
    uniq, sums, counts = scatter_add_rows(items, rows)
    return uniq, sums / counts[:, None]


def _sorted_block(
    idx_cat: np.ndarray,
    rows_cat: np.ndarray,
    pos_cat: np.ndarray,
    n_pkts: int,
    min_carriers: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Received item ids, the mask of items carried by >= min_carriers packets,
    and those items' (items, dim, packets) block, absent rows zero, with each
    coordinate's values sorted ascending along the last axis."""
    uniq, inverse, counts = np.unique(idx_cat, return_inverse=True, return_counts=True)
    keep = counts >= min_carriers
    slot = np.cumsum(keep) - 1
    sel = keep[inverse]
    block = np.zeros((int(keep.sum()), rows_cat.shape[1], n_pkts))
    block[slot[inverse[sel]], :, pos_cat[sel]] = rows_cat[sel]
    block.sort(axis=-1)
    return uniq, keep, block


def median_aggregate(rr: RoundRows, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-wise median per item over the senders' packets, absent rows
    as zero.

    Even counts average the two middle values.  Items absent from every
    packet are untouched (not returned).
    """
    idx_cat, rows_cat, pos_cat = rr.receive(senders)
    n_pkts = len(senders)
    # With at most (n_pkts - 1) // 2 carriers the zero block always spans
    # both middle ranks, so the median row is exactly zero.
    uniq, keep, block = _sorted_block(idx_cat, rows_cat, pos_cat, n_pkts, (n_pkts - 1) // 2 + 1)
    out = np.zeros((len(uniq), rows_cat.shape[1]))
    out[keep] = 0.5 * (block[..., (n_pkts - 1) // 2] + block[..., n_pkts // 2])
    return uniq, out


def trimmed_mean_aggregate(
    rr: RoundRows, senders: np.ndarray, trim_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per coordinate, drop the trim_k smallest and largest values, mean the rest.

    Absent rows count as zero.  When a coordinate has too few values
    (count <= 2 * trim_k) the plain mean is used instead.
    """
    if trim_k < 0:
        raise ContractError("trim_k must be >= 0")
    idx_cat, rows_cat, pos_cat = rr.receive(senders)
    n_pkts = len(senders)
    if trim_k == 0 or n_pkts <= 2 * trim_k:
        uniq, sums, _ = scatter_add_rows(idx_cat, rows_cat)
        return uniq, sums / n_pkts
    # Items carried by at most trim_k packets lose every nonzero value to
    # the trimmed tails.
    uniq, keep, block = _sorted_block(idx_cat, rows_cat, pos_cat, n_pkts, trim_k + 1)
    out = np.zeros((len(uniq), rows_cat.shape[1]))
    out[keep] = block[..., trim_k : n_pkts - trim_k].sum(axis=-1) / (n_pkts - 2 * trim_k)
    return uniq, out


def item_krum_aggregate(rr: RoundRows, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per item, the single received row closest (l2) to the mean of received rows.

    Absent rows count as zero rows; ties break by ascending sender id.
    """
    idx_cat, rows_cat, pos_cat = rr.receive(senders)
    n_pkts = len(senders)
    dim = rows_cat.shape[1]
    if idx_cat.size == 0:
        return idx_cat, np.zeros((0, dim))
    uniq, sums, _ = scatter_add_rows(idx_cat, rows_cat)
    inverse = np.searchsorted(uniq, idx_cat)
    means = sums / n_pkts

    # Candidate rows: every carried row, plus one zero row per item that at
    # least one packet omitted (the smallest absent sender represents it).
    # Squared distances computed as ((x - m)**2).sum() keep the ordering
    # reproducible by a naive reimplementation.
    d_rows = ((rows_cat - means[inverse]) ** 2).sum(axis=1)
    cand_item = [inverse]
    cand_dist = [d_rows]
    cand_sender = [senders[pos_cat]]
    cand_rowid = [np.arange(len(idx_cat), dtype=np.int64)]

    carried = np.zeros((len(uniq), n_pkts), dtype=bool)
    carried[inverse, pos_cat] = True
    has_zero = ~carried.all(axis=1)
    if has_zero.any():
        zero_items = np.flatnonzero(has_zero)
        first_absent = np.argmax(~carried[zero_items], axis=1)
        cand_item.append(zero_items)
        cand_dist.append((means[zero_items] ** 2).sum(axis=1))
        cand_sender.append(senders[first_absent])
        cand_rowid.append(np.full(len(zero_items), -1, dtype=np.int64))

    items_all = np.concatenate(cand_item)
    dist_all = np.concatenate(cand_dist)
    sender_all = np.concatenate(cand_sender)
    rowid_all = np.concatenate(cand_rowid)
    order = np.lexsort((sender_all, dist_all, items_all))
    _, firsts = np.unique(items_all[order], return_index=True)
    winners = order[firsts]

    out = np.zeros((len(uniq), dim))
    won_rows = rowid_all[winners]
    carried_winners = won_rows >= 0
    out[items_all[winners][carried_winners]] = rows_cat[won_rows[carried_winners]]
    return uniq, out


def l2_clip_aggregate(rr: RoundRows, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain FedAvg mean of the senders' rows, which consolidation clipped
    to the fixed mu bound."""
    idx_cat, rows_cat, _ = rr.receive(senders)
    uniq, sums, _ = scatter_add_rows(idx_cat, rows_cat)
    return uniq, sums / len(senders)
