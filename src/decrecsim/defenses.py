"""Benign-side aggregation defenses over received item-row gradients.

All defenses consume the item-row part of neighbor packets and produce
per-item aggregate rows; network-parameter gradients are always aggregated
by plain mean outside these functions, and model.apply_neighbor_aggregate
applies both.  For median / trimmed mean / Krum, an item row absent from a
packet counts as a zero vector, mirroring the FedAvg convention of dividing
by the packet count.

A round's packets are consolidated once (RoundRows), for every defense,
and every defense reads a receiver's rows from it by the receiver's
ascending neighbor ids; consolidation checks each packet against the
receivers' model shape, once per round.  Clipping to the fixed mu bound,
for l2clip and for UCSU, happens once, at consolidation, so defense none
and l2clip share one plain-mean reader, l2_clip_aggregate (named for the
defense that introduced it; perfbench's tracer times it by that name).
Adversaries read an unclipped RoundRows of their neighbors' honest packets
with it too.

Median and trimmed mean scatter a receiver's rows into one dense
(items, dim, packets) block, absent rows zero, and sort it once along the
packet axis; the kept ranks are then slices of that axis.  A skip mask
keeps out of the block every item carried by too few packets to reach the
kept ranks (at most (n - 1) // 2 for the median, at most trim_k for the
trimmed mean), whose aggregate row is exactly zero.

Every receiver's UCSU MemoryBank holds one chunk per banked round: the
round's shared RoundRows and the int32 pop positions of the receiver's
rows still banked.  Each round's rows are sorted into pop order (descending
stored norm, row index on ties) once, shared by all receivers, so every
chunk is already in pop order and the bank's top fraction is a prefix of
each chunk; no receiver ever sorts its whole bank.  Each stored row's
p-norm is taken once, at consolidation, and popped with the row, so UCSU's
adaptive clip never re-takes it.  Per-item sums add rows in pop order, one
at a time, so the aggregate has the same bits as a sequential per-row loop.

Once a round's pops are done, compact_round_rows shrinks that round's
RoundRows to the rows some bank still holds and remaps the banks' pop
positions.  Kept rows keep their relative order, so pop order, ties and
every aggregate are unchanged.  A round is compacted once: few of its rows
are popped in later rounds, so older RoundRows may still hold rows that no
bank holds any more, until eviction drops the round.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from decrecsim.errors import ContractError
from decrecsim.model import GradientPacket, scatter_add_rows


# Rows per block of _norms: its temporaries stay block-sized, not
# round-sized.  A row's norm reads only that row, so blocking keeps its bits.
_NORM_BLOCK = 4096


def _norms(rows: np.ndarray, p: int) -> np.ndarray:
    if p < 1:
        raise ContractError("norm order must be >= 1")
    norms = np.empty(len(rows))
    for start in range(0, len(rows), _NORM_BLOCK):
        block = rows[start : start + _NORM_BLOCK]
        norms[start : start + len(block)] = np.linalg.norm(block, ord=p, axis=1)
    return norms


def _clip(rows: np.ndarray, norms: np.ndarray, bound: float) -> np.ndarray:
    """Scale each row, in place, by min(1, bound / its norm); returns rows.

    Rows with norm <= bound, zero rows among them (bound >= 0), pass
    unchanged.
    """
    factors = np.ones(len(rows))
    over = norms > bound
    factors[over] = bound / norms[over]
    rows *= factors[:, None]
    return rows


@dataclass
class RoundRows:
    """All item-row gradients received in one round, consolidated.

    One instance per round is shared by every receiving client; each
    reads, or banks, the subset of rows its neighbors sent.  Rows are
    stored by ascending sender.  The pop order (descending norm, row index
    on ties) and each sender's row range are computed once here and shared
    by every receiver.  Once the round's pops are done, compact_round_rows
    replaces it in the banks by a RoundRows of exactly the rows some bank
    holds, in the same relative order.
    """

    round: int
    senders: np.ndarray  # (n,) int32, ascending
    items: np.ndarray  # (n,) int32
    rows: np.ndarray  # (n, embed_dim) float64
    norms: np.ndarray  # (n,) float64 p-norms, capped at mu where clipped: the pop key
    # (n,) float64 p-norms of the stored rows; norms itself when none was clipped
    row_norms: np.ndarray | None = None
    order: np.ndarray = field(init=False)  # row indices in pop order
    rank: np.ndarray = field(init=False)  # int32 position of each row in order
    pop_neg_norm: np.ndarray = field(init=False)  # negated norms in pop order
    sender_start: np.ndarray = field(init=False)  # first row, per sender id
    sender_count: np.ndarray = field(init=False)  # row count, per sender id

    def __post_init__(self) -> None:
        if self.row_norms is None:
            self.row_norms = self.norms
        neg = -self.norms
        self.order = np.argsort(neg, kind="stable")
        self.rank = np.empty(len(self.order), dtype=np.int32)
        self.rank[self.order] = np.arange(len(self.order), dtype=np.int32)
        self.pop_neg_norm = neg[self.order]
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
    num_items: int,
    embed_dim: int,
    net_size: int,
    mu: float = 1.0,
    p: int = 2,
    clip: bool = True,
) -> RoundRows:
    """Consolidate packets (ascending sender order) into one RoundRows.

    Every packet must fit the receivers' model: item ids in [0, num_items),
    an (ids, embed_dim) row block and a (net_size,) net gradient, else
    ContractError.  With clip enabled every row is clipped to the fixed mu
    bound before storage; clipping is receiver-independent, so the result
    may be shared.
    """
    ordered = sorted(packets, key=lambda q: q.sender)
    for q in ordered:
        if q.net_grad.shape != (net_size,):
            raise ContractError("packet net gradient shape mismatch")
        if q.item_rows.shape != (len(q.item_idx), embed_dim):
            raise ContractError("packet item row shape mismatch")
    # The rows are allocated once: norms are taken in blocks and clipping
    # scales the stacked rows in place.
    if ordered:
        senders = np.concatenate(
            [np.full(len(q.item_idx), q.sender, dtype=np.int32) for q in ordered]
        )
        items = np.concatenate([q.item_idx for q in ordered])
        if items.size and (items.min() < 0 or items.max() >= num_items):
            raise ContractError("packet item index out of range")
        items = items.astype(np.int32)
        rows = np.vstack([q.item_rows for q in ordered])
    else:
        senders = np.zeros(0, dtype=np.int32)
        items = np.zeros(0, dtype=np.int32)
        rows = np.zeros((0, embed_dim))
    norms = _norms(rows, p)
    row_norms = None
    if clip and len(rows):
        if mu <= 0:
            raise ContractError("mu must be > 0")
        rows = _clip(rows, norms, mu)
        # UCSU's adaptive clip scales by the stored rows' own norms.
        row_norms = _norms(rows, p)
        norms = np.minimum(norms, mu)
    return RoundRows(
        round=round_no, senders=senders, items=items, rows=rows, norms=norms, row_norms=row_norms
    )


class MemoryBank:
    """Per-client store of received item-row gradients awaiting application.

    Entries reference rows inside shared RoundRows objects, one chunk per
    banked round in round order: the RoundRows and the ascending pop
    positions (rr.rank) of the rows still banked.  After its round's pops,
    compact_round_rows may swap a chunk's RoundRows for a compacted one and
    remap its positions, keeping their order.  Pop order is descending
    stored norm, insertion order (round, then row index) on ties, and each
    chunk is already in it, so the top fraction is a prefix of every
    chunk: a pop cuts each chunk at the k-th smallest negated norm (ties go
    to the earliest rounds), merges the prefixes stably and keeps a copy of
    each remainder.  Eviction drops whole chunks.  The popped set matches a
    brute-force (norm desc, insertion asc) oracle.
    """

    def __init__(self, capacity_rounds: int):
        if capacity_rounds < 1:
            raise ContractError("capacity_rounds must be >= 1")
        self.capacity_rounds = capacity_rounds
        self._last_round: int | None = None
        self.clear()

    def ingest(self, rr: RoundRows, refs: np.ndarray) -> None:
        """Bank the given row indices of a round's consolidated gradients.

        Rounds arrive in increasing order, each at most once.  Rows of equal
        norm go in by row index, whatever the order of refs.
        """
        if self._last_round is not None and rr.round <= self._last_round:
            raise ContractError("rounds must be ingested in increasing order, each at most once")
        self._last_round = rr.round
        if len(refs):
            self._chunks.append((rr, np.sort(rr.rank[np.asarray(refs, dtype=np.int64)])))

    def evict(self, current_round: int) -> None:
        """Drop entries with round_received older than current - capacity_rounds."""
        horizon = current_round - self.capacity_rounds
        self._chunks = [c for c in self._chunks if c[0].round >= horizon]

    def clear(self) -> None:
        self._chunks: list[tuple[RoundRows, np.ndarray]] = []

    def size(self) -> int:
        return sum(len(ranks) for _, ranks in self._chunks)

    def entries(self) -> list[tuple[int, int, int, np.ndarray]]:
        """(round_received, sender, item, grad_row) for every banked row,
        in insertion order (round, then row index)."""
        return [
            (rr.round, int(rr.senders[ref]), int(rr.items[ref]), rr.rows[ref])
            for rr, ranks in self._chunks
            for ref in np.sort(rr.order[ranks]).tolist()
        ]

    def pop_top_fraction(self, nu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove and return the top ceil(nu * size) rows by stored norm:
        their item ids, the rows, and the rows' own p-norms (row_norms).

        Output is ordered by descending norm, insertion order on ties.
        """
        if not (0.0 < nu <= 1.0):
            raise ContractError("nu must be in (0, 1]")
        total = self.size()
        if total == 0:
            return np.zeros(0, dtype=np.int64), np.zeros((0, 0)), np.zeros(0)
        k = math.ceil(nu * total)
        negs = [rr.pop_neg_norm[ranks] for rr, ranks in self._chunks]
        cut = np.partition(np.concatenate(negs), k - 1)[k - 1]
        # Each chunk gives every entry above the cut; entries at the cut go
        # to the earliest rounds first.
        below = [int(np.searchsorted(neg, cut, side="left")) for neg in negs]
        spare = k - sum(below)
        takes = []
        for neg, n in zip(negs, below):
            tied = min(int(np.searchsorted(neg, cut, side="right")) - n, spare)
            spare -= tied
            takes.append(n + tied)
        merged = np.argsort(np.concatenate([neg[:n] for neg, n in zip(negs, takes)]), kind="stable")
        dest = np.empty(k, dtype=np.int64)
        dest[merged] = np.arange(k)
        items = np.empty(k, dtype=np.int64)
        rows = np.empty((k, self._chunks[0][0].rows.shape[1]))
        row_norms = np.empty(k)
        kept = []
        start = 0
        for (rr, ranks), n in zip(self._chunks, takes):
            refs = rr.order[ranks[:n]]
            items[dest[start : start + n]] = rr.items[refs]
            rows[dest[start : start + n]] = rr.rows[refs]
            row_norms[dest[start : start + n]] = rr.row_norms[refs]
            start += n
            if n < len(ranks):
                kept.append((rr, ranks[n:].copy() if n else ranks))
        self._chunks = kept
        return items, rows, row_norms


def compact_round_rows(rr: RoundRows, banks: Iterable[MemoryBank]) -> None:
    """Shrink rr, in every given bank, to the rows some bank holds.

    Call once a round's pops are done, with every bank that may hold rr.
    The chunks that hold rr get one shared RoundRows of those rows, kept in
    their relative order, and ranks remapped to it; rows no bank holds are
    freed with rr once nothing else references it.
    """
    held = [
        (bank, j, ranks)
        for bank in banks
        for j, (chunk_rr, ranks) in enumerate(bank._chunks)
        if chunk_rr is rr
    ]
    live = np.zeros(len(rr.order), dtype=bool)  # per pop position
    for _, _, ranks in held:
        live[ranks] = True
    if not held or live.all():
        return
    keep = np.flatnonzero(live[rr.rank])  # held row indices, ascending
    small = RoundRows(
        round=rr.round,
        senders=rr.senders[keep],
        items=rr.items[keep],
        rows=rr.rows[keep],
        norms=rr.norms[keep],
        row_norms=None if rr.row_norms is rr.norms else rr.row_norms[keep],
    )
    # Kept rows keep their order and the pop order is a stable sort, so a
    # held position's new rank is the number of held positions before it.
    new_rank = np.cumsum(live, dtype=np.int32) - 1
    for bank, j, ranks in held:
        bank._chunks[j] = (small, new_rank[ranks])


def ucsu_aggregate(
    bank: MemoryBank,
    rr: RoundRows,
    senders: np.ndarray,
    nu: float,
    clean_bank: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Bank what the senders sent this round, pop the top-nu fraction by
    norm, rescale, and average.

    The senders' rows (clipped at consolidation when UCSU clips) are
    inserted into the bank, then entries beyond the retention window of
    round rr.round are evicted.  The top ceil(nu * bank size) rows by norm
    are removed, rescaled by the adaptive mean-norm clip (each row by
    min(1, mean norm / its norm), over the norms the pop returns), and
    averaged per item.  Rows left unselected stay banked unless clean_bank
    is set, which discards them (the literal pop-and-clean variant).  Returns (item ids,
    aggregate rows); an empty bank yields an empty aggregate.
    """
    if not (0.0 < nu <= 1.0):
        raise ContractError("nu must be in (0, 1]")
    bank.ingest(rr, rr.refs_of(senders))
    bank.evict(rr.round)
    if bank.size() == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 0))
    items, rows, norms = bank.pop_top_fraction(nu)
    rows = _clip(rows, norms, norms.mean())
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
    """Plain FedAvg mean of the senders' rows, absent rows as zero.

    Defense none reads unclipped rows with it, l2clip the rows consolidation
    clipped to the fixed mu bound, and adversaries their neighbors' honest
    rows.  Rows are summed in ascending sender order.
    """
    idx_cat, rows_cat, _ = rr.receive(senders)
    uniq, sums, _ = scatter_add_rows(idx_cat, rows_cat)
    return uniq, sums / len(senders)
