"""Benign-side aggregation defenses over received item-row gradients.

All defenses consume the item-row part of neighbor packets and produce
per-item aggregate rows; network-parameter gradients are always aggregated
by plain mean outside these functions, and model.apply_neighbor_aggregate
applies both.  For median / trimmed mean / Krum, an item row absent from a
packet counts as a zero vector, mirroring the FedAvg convention of dividing
by the packet count.

A round's RoundBlock owns what the round sends: each packet is copied in
once, in ascending sender order, and checked there against the block's
row width and net size; its rows go back to back into one row block, with
each row's sender and item id, and its net gradient into the sender's net
row.  The round's one RoundRows is a view of the rows sent, and every
defense reads a receiver's rows from it by the receiver's ascending
neighbor ids.  build_round_rows checks the item ids and clips every row to
a fixed bound mu once, in the block: the configured mu for l2clip and
UCSU, and mu = inf, which keeps every row bit for bit, for the other
defenses.  So defense none and l2clip share one plain-mean reader,
l2_clip_aggregate (named for the defense that introduced it; perfbench's
tracer times it by that name), and adversaries absorb through it too.

Median and trimmed mean share one rank kernel, _ranked_rows.  It skips
every item carried by too few packets to reach the kept ranks (at most
(n - 1) // 2 for the median, at most trim_k for the trimmed mean), whose
aggregate row is exactly zero, and sorts the others in chunks of whole
items: each chunk is a dense (items, dim, packets) block of at most
_RANK_BLOCK_BYTES, absent rows zero, sorted along the packet axis and
reduced by the caller.  An item's lines are sorted and reduced on their
own, so the chunk size moves no bit, and a receiver's sort memory stays one
block whatever its item count.  The block is allocated per call, because
receivers may run on threads.

Every receiver's UCSU MemoryBank holds one chunk per banked round: the
round's shared RoundRows and the pop positions of the receiver's rows still
banked, 2 bytes each when they lie in one aligned block of 0x10000
positions (always, in a round of at most 0x10000 rows), else 4.  Only
rows built for banks carry pop fields: build_round_rows sorts each round's
rows into pop order (descending pop key, min(p-norm, mu), row index on
ties) once, shared by all receivers, so every chunk is already in pop order
and the bank's top fraction is a prefix of each chunk; no receiver ever
sorts its whole bank.  The pop key is kept once, negated in pop order.
Each stored row's own p-norm is taken once, at consolidation, and popped
with the row, so UCSU's adaptive clip never re-takes it.  Per-item sums add
rows in pop order, one at a time, so the aggregate has the same bits as a
sequential per-row loop.

Once a round's pops are done, compact_round_rows shrinks that round's
RoundRows to the rows some bank still holds and remaps, and re-encodes, the
banks' pop positions.  Kept rows keep their relative order, so the pop
order restricted to them is theirs: compaction carries it over instead of
sorting again, and pop order, ties and every aggregate are unchanged.  A
round is compacted once: few of its rows are popped in later rounds, so
older RoundRows may still hold rows that no bank holds any more, until
eviction drops the round.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

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


@dataclass(eq=False)
class RoundRows:
    """All item-row gradients received in one round, consolidated.

    One instance per round is shared by every receiving client; each
    reads, or banks, the subset of rows its neighbors sent.  Rows are
    stored by ascending sender, with each sender's row range.  Rows built
    for UCSU's banks also carry their own p-norms (row_norms) and the pop
    fields build_round_rows computes once for every receiver: the pop order
    (row indices by descending pop key, row index on ties), each row's
    position in it (rank), and the pop key, negated, in pop order
    (pop_neg_norm).  Rows for any other reader carry none of them.  Once
    the round's pops are done, compact_round_rows replaces it in the banks
    by a RoundRows of exactly the rows some bank holds, in the same
    relative order.
    """

    round: int
    senders: np.ndarray  # (n,) int32, ascending
    items: np.ndarray  # (n,) int32; int64 in a RoundBlock's rows, until built
    rows: np.ndarray  # (n, embed_dim) float64
    row_norms: np.ndarray | None = None  # (n,) p-norms of the stored rows
    order: np.ndarray | None = None  # (n,) int32 row indices in pop order
    rank: np.ndarray | None = None  # (n,) int32 position of each row in order
    pop_neg_norm: np.ndarray | None = None  # (n,) negated pop key, in pop order

    def __post_init__(self):
        self.sender_count = np.bincount(self.senders)  # row count, per sender id
        self.sender_start = np.cumsum(self.sender_count) - self.sender_count  # first row

    def refs_of(self, senders: np.ndarray) -> np.ndarray:
        """Row indices sent by the given ascending sender ids, in sender order."""
        senders = senders[senders < len(self.sender_count)]
        counts = self.sender_count[senders]
        ends = np.cumsum(counts)
        offsets = np.repeat(self.sender_start[senders] - (ends - counts), counts)
        return np.arange(len(offsets)) + offsets

    def receiver_refs(self, senders: np.ndarray) -> np.ndarray:
        """refs_of for a receiver, which must have at least one neighbor."""
        if len(senders) == 0:
            raise ContractError("aggregation requires at least one packet")
        return self.refs_of(senders)


class RoundBlock:
    """What one round sends, owned in one place: a row block of every sent
    item row with each row's sender and item id, and one net gradient row
    per client (nets).

    send copies a packet in, its rows after the rows sent so far, and keeps
    no reference to it; packets come in ascending sender order, each
    sender at most once.  keep_first(count) drops every packet after the
    first count sent, so later packets take their place.  round_rows(t)
    is the RoundRows of the rows sent so far: views of the block, which
    build_round_rows clips in place.  np.empty leaves the rows never
    written without memory behind them.
    """

    def __init__(self, capacity: int, embed_dim: int, num_clients: int, net_size: int):
        self.rows = np.empty((capacity, embed_dim))
        self.senders = np.empty(capacity, dtype=np.int32)
        self.items = np.empty(capacity, dtype=np.int64)
        self.nets = np.empty((num_clients, net_size))
        self._sent: list[tuple[int, int]] = []  # (sender, row end) per packet

    def send(self, q: GradientPacket) -> None:
        """Copy q in.  ContractError if q comes out of ascending sender
        order or from no client, its rows do not match its ids and the
        block's row width, they overflow the block, or its net gradient does
        not match a net row."""
        last, start = self._sent[-1] if self._sent else (-1, 0)
        if not last < q.sender < len(self.nets):
            raise ContractError("packets must come in ascending sender order, from clients")
        n = len(q.item_idx)
        if q.item_rows.shape != (n, self.rows.shape[1]):
            raise ContractError("packet item row shape mismatch")
        if start + n > len(self.rows):
            raise ContractError("packet rows overflow the round block")
        if q.net_grad.shape != self.nets.shape[1:]:
            raise ContractError("packet net gradient shape mismatch")
        self.rows[start : start + n] = q.item_rows
        self.senders[start : start + n] = q.sender
        self.items[start : start + n] = q.item_idx
        self.nets[q.sender] = q.net_grad
        self._sent.append((q.sender, start + n))

    def keep_first(self, count: int) -> None:
        """Drop every packet after the first count sent."""
        del self._sent[count:]

    def round_rows(self, round_no: int) -> RoundRows:
        """The RoundRows of round round_no over the rows sent so far."""
        end = self._sent[-1][1] if self._sent else 0
        return RoundRows(
            round=round_no,
            senders=self.senders[:end],
            items=self.items[:end],
            rows=self.rows[:end],
        )


def build_round_rows(rr: RoundRows, num_items: int, mu: float, p: int, bank: bool) -> RoundRows:
    """Clip a round's RoundRows in place and, for banks, order it; returns rr.

    Every item id must lie in [0, num_items), else ContractError; the ids
    are then held as int32.  Every row is clipped to the fixed bound mu by
    its p-norm; mu = inf keeps every row bit for bit.  Clipping is
    receiver-independent, so the result may be shared.  With bank, the rows
    are for UCSU's banks: they get their own p-norms and the pop order by
    the key min(p-norm, mu).
    """
    if mu <= 0:
        raise ContractError("mu must be > 0")
    if (rr.items < 0).any() or (rr.items >= num_items).any():
        raise ContractError("packet item index out of range")
    rr.items = rr.items.astype(np.int32)
    if mu == math.inf and not bank:
        return rr  # every row stays as sent, and no reader needs its norm
    # Norms are taken in blocks and clipping scales the block in place.
    norms = _norms(rr.rows, p)
    _clip(rr.rows, norms, mu)
    if bank:
        # UCSU's adaptive clip scales by the stored rows' own norms.
        rr.row_norms = _norms(rr.rows, p)
        neg = -np.minimum(norms, mu)
        order = np.argsort(neg, kind="stable")
        rr.order = order.astype(np.int32)
        rr.rank = np.empty(len(order), dtype=np.int32)
        rr.rank[order] = np.arange(len(order), dtype=np.int32)
        rr.pop_neg_norm = neg[order]
    return rr


def _encode(positions: np.ndarray) -> tuple[int, np.ndarray]:
    """(base, offsets) of ascending int32 pop positions, offsets = positions -
    base.  Positions that share one aligned block of 0x10000 keep their low
    16 bits, as uint16 offsets from the block's start; others stay int32,
    from base 0."""
    base = int(positions[0]) & ~0xFFFF
    if positions[-1] - base > 0xFFFF:
        return 0, positions
    return base, positions.astype(np.uint16)


class MemoryBank:
    """Per-client store of received item-row gradients awaiting application.

    Entries reference rows inside shared RoundRows objects, one chunk per
    banked round in round order: the RoundRows and the ascending pop
    positions (rr.rank) of the rows still banked.  A chunk stores them as
    (base, offsets), positions = base + offsets: uint16 offsets from the
    start of the aligned block of 0x10000 positions that holds them all, or,
    when they straddle blocks, the int32 positions from base 0.  Ingest and
    compaction encode; a pop keeps base and drops a prefix of offsets.
    After its round's pops, compact_round_rows may swap a chunk's RoundRows
    for a compacted one and remap its positions, keeping their order, and
    encode them anew.  Pop order is descending
    stored norm, insertion order (round, then row index) on ties, and each
    chunk is already in it, so the top fraction is a prefix of every
    chunk: a pop cuts each chunk at the k-th smallest negated norm (ties go
    to the earliest rounds), merges the prefixes stably and keeps a copy of
    each remainder.  Eviction drops whole chunks.  The popped set matches a
    brute-force (norm desc, insertion asc) oracle.

    The retention window at round t is rounds t - capacity_rounds to t, so
    a bank holds rows of up to capacity_rounds + 1 rounds: with the default
    10, round 11 still holds round 1's rows.
    """

    def __init__(self, capacity_rounds: int):
        if capacity_rounds < 1:
            raise ContractError("capacity_rounds must be >= 1")
        self.capacity_rounds = capacity_rounds
        self._last_round: int | None = None
        self._chunks: list[tuple[RoundRows, int, np.ndarray]] = []  # (rr, base, offsets)

    def ingest(self, rr: RoundRows, refs: np.ndarray) -> None:
        """Bank the given row indices of a round's consolidated gradients.

        Rounds arrive in increasing order, each at most once.  Rows of equal
        norm go in by row index, whatever the order of refs.
        """
        if self._last_round is not None and rr.round <= self._last_round:
            raise ContractError("rounds must be ingested in increasing order, each at most once")
        if rr.rank is None:
            raise ContractError("round rows built without a pop order cannot be banked")
        self._last_round = rr.round
        if len(refs):
            self._chunks.append((rr, *_encode(np.sort(rr.rank[np.asarray(refs, dtype=np.int64)]))))

    def evict(self, current_round: int) -> None:
        """Drop the chunks of rounds before current_round - capacity_rounds.

        Rounds current_round - capacity_rounds to current_round stay, so
        capacity_rounds + 1 rounds may be banked.
        """
        horizon = current_round - self.capacity_rounds
        self._chunks = [c for c in self._chunks if c[0].round >= horizon]

    def size(self) -> int:
        return sum(len(offsets) for _, _, offsets in self._chunks)

    def nbytes(self) -> int:
        """Bytes of the banked positions; the shared RoundRows are not counted."""
        return sum(offsets.nbytes for _, _, offsets in self._chunks)

    def chunks(self) -> list[tuple[RoundRows, np.ndarray]]:
        """(RoundRows, ascending intp pop positions) of every chunk, in round
        order."""
        return [(rr, offsets.astype(np.intp) + base) for rr, base, offsets in self._chunks]

    def entries(self) -> list[tuple[int, int, int, np.ndarray]]:
        """(round_received, sender, item, grad_row) for every banked row,
        in insertion order (round, then row index)."""
        return [
            (rr.round, int(rr.senders[ref]), int(rr.items[ref]), rr.rows[ref])
            for rr, positions in self.chunks()
            for ref in np.sort(rr.order[positions]).tolist()
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
        # Banked offsets are 2 or 4 bytes, and rr.order is int32, to save
        # memory; numpy indexes faster by intp, so each chunk's offsets are
        # converted once per pop.  They index views that start at the
        # chunk's base, which spares adding base to each.
        offs = [offsets.astype(np.intp) for _, _, offsets in self._chunks]
        negs = [rr.pop_neg_norm[base:][off] for (rr, base, _), off in zip(self._chunks, offs)]
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
        for (rr, base, offsets), off, n in zip(self._chunks, offs, takes):
            refs = rr.order[base:][off[:n]].astype(np.intp)
            items[dest[start : start + n]] = rr.items[refs]
            rows[dest[start : start + n]] = rr.rows[refs]
            row_norms[dest[start : start + n]] = rr.row_norms[refs]
            start += n
            if n < len(offsets):
                kept.append((rr, base, offsets[n:].copy() if n else offsets))
        self._chunks = kept
        return items, rows, row_norms


def compact_round_rows(rr: RoundRows, banks: Iterable[MemoryBank]) -> None:
    """Shrink rr, in every given bank, to the rows some bank holds.

    Call once a round's pops are done, with every bank that may hold rr.
    The chunks that hold rr get one shared RoundRows of those rows, kept in
    their relative order, and positions remapped to it and re-encoded; rows
    no bank holds are freed with rr once nothing else references it.
    """
    held = [
        (bank, j, base, offsets)
        for bank in banks
        for j, (chunk_rr, base, offsets) in enumerate(bank._chunks)
        if chunk_rr is rr
    ]
    # Banked offsets are 2 or 4 bytes; numpy indexes faster by intp.  Each
    # chunk's offsets are converted where they index a view that starts at
    # its base, so only one copy is alive.
    live = np.zeros(len(rr.order), dtype=bool)  # per pop position
    for _, _, base, offsets in held:
        live[base:][offsets.astype(np.intp)] = True
    if not held or live.all():
        return
    held_row = live[rr.rank]  # per row
    keep = np.flatnonzero(held_row)  # held row indices, ascending
    # Kept rows keep their order and the pop order is a stable sort, so the
    # kept rows' pop order is the old one restricted to held positions: a
    # held position's new rank is the number of held positions before it,
    # and a held row's new index the number of held rows before it.
    new_rank = np.cumsum(live, dtype=np.int32) - 1
    new_row = np.cumsum(held_row, dtype=np.int32) - 1
    small = RoundRows(
        round=rr.round,
        senders=rr.senders[keep],
        items=rr.items[keep],
        rows=rr.rows[keep],
        row_norms=rr.row_norms[keep],
        order=new_row[rr.order[live]],
        rank=new_rank[rr.rank[keep]],
        pop_neg_norm=rr.pop_neg_norm[live],
    )
    for bank, j, base, offsets in held:
        bank._chunks[j] = (small, *_encode(new_rank[base:][offsets.astype(np.intp)]))


def ucsu_aggregate(
    bank: MemoryBank,
    rr: RoundRows,
    senders: np.ndarray,
    nu: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Bank what the senders sent this round, pop the top-nu fraction by
    norm, rescale, and average.

    The senders' rows (clipped to mu at consolidation) are inserted into
    the bank, then entries beyond the retention window of round rr.round
    (rounds rr.round - capacity_rounds to rr.round, see MemoryBank.evict)
    are evicted.  The top ceil(nu * bank size) rows by norm are removed,
    rescaled by the adaptive mean-norm clip (each row by min(1, mean norm /
    its norm), over the norms the pop returns), and averaged per item.
    Rows left unselected stay banked.  Returns (item ids, aggregate rows);
    an empty bank yields no ids and a (0, embed_dim) row block.
    """
    if not (0.0 < nu <= 1.0):
        raise ContractError("nu must be in (0, 1]")
    bank.ingest(rr, rr.refs_of(senders))
    bank.evict(rr.round)
    if bank.size() == 0:
        return np.zeros(0, dtype=np.int64), np.zeros((0, rr.rows.shape[1]))
    items, rows, norms = bank.pop_top_fraction(nu)
    rows = _clip(rows, norms, norms.mean())
    uniq, sums, counts = scatter_add_rows(items, rows)
    return uniq, sums / counts[:, None]


# Bytes per sorted block of _ranked_rows.  Each item's lines are sorted and
# reduced on their own, so the block size keeps their bits.
_RANK_BLOCK_BYTES = 512 * 1024


def _ranked_rows(
    rr: RoundRows,
    senders: np.ndarray,
    min_carriers: int,
    reduce: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Per received item, reduce applied to its values sorted along the
    packet axis, absent rows as zero.

    Returns the received item ids, ascending, and their rows.  Items carried
    by fewer than min_carriers packets get a zero row and are never sorted;
    the rest are sorted in chunks of whole items, each an (items, dim,
    packets) block of at most _RANK_BLOCK_BYTES, that reduce maps to its
    (items, dim) rows.
    """
    refs = rr.receiver_refs(senders)
    items = rr.items[refs]
    counts = np.bincount(items)
    uniq = np.flatnonzero(counts).astype(items.dtype)
    out = np.zeros((len(uniq), rr.rows.shape[1]))
    kept = counts >= min_carriers  # per item id
    dest = np.flatnonzero(kept[uniq])  # kept items' rows of out
    sel = kept[items]
    # Each kept row's item slot (its rank among kept items); the rows are
    # gathered once, grouped by slot in sender order, so a chunk of whole
    # items is a run of rows.
    slot = (np.cumsum(kept) - 1)[items[sel]]
    order = np.argsort(slot, kind="stable")
    refs, slot = refs[sel][order], slot[order]
    rows = rr.rows[refs]
    pos = np.searchsorted(senders, rr.senders[refs])
    n_pkts = len(senders)
    per = max(1, _RANK_BLOCK_BYTES // (rows.shape[1] * n_pkts * rows.itemsize))
    block = np.empty((min(per, len(dest)), rows.shape[1], n_pkts))
    for first in range(0, len(dest), per):
        last = min(first + per, len(dest))
        lo, hi = np.searchsorted(slot, (first, last))
        chunk = block[: last - first]
        chunk.fill(0.0)
        chunk[slot[lo:hi] - first, :, pos[lo:hi]] = rows[lo:hi]
        chunk.sort(axis=-1)
        out[dest[first:last]] = reduce(chunk)
    return uniq, out


def median_aggregate(rr: RoundRows, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate-wise median per item over the senders' packets, absent rows
    as zero.

    Even counts average the two middle values.  Items absent from every
    packet are untouched (not returned).
    """
    n_pkts = len(senders)
    lo, hi = (n_pkts - 1) // 2, n_pkts // 2
    # With at most lo carriers the zero rows span both middle ranks, so the
    # median row is exactly zero.
    return _ranked_rows(rr, senders, lo + 1, lambda block: 0.5 * (block[..., lo] + block[..., hi]))


def resolve_trim_k(count: int) -> int:
    """The trim policy: 10% of count, floor, min 1 when count >= 3."""
    if count < 3:
        return 0
    return max(1, count // 10)


def trimmed_mean_aggregate(
    rr: RoundRows, senders: np.ndarray, trim_k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per coordinate, drop the trim_k smallest and largest values, mean the rest.

    Absent rows count as zero.  When a coordinate has too few values
    (count <= 2 * trim_k) the plain mean is used instead.
    """
    if trim_k < 0:
        raise ContractError("trim_k must be >= 0")
    n_pkts = len(senders)
    if trim_k == 0 or n_pkts <= 2 * trim_k:
        return l2_clip_aggregate(rr, senders)
    # Items carried by at most trim_k packets lose every nonzero value to
    # the trimmed tails.
    return _ranked_rows(
        rr,
        senders,
        trim_k + 1,
        lambda block: block[..., trim_k : n_pkts - trim_k].sum(axis=-1) / (n_pkts - 2 * trim_k),
    )


def item_krum_aggregate(rr: RoundRows, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per item, the packet row closest (squared l2) to the item's mean row.

    A per-item "closest row to the mean" rule, not Krum's score (the sum of
    distances to the nearest n - f - 2 packets).  Absent rows count as zero
    rows; ties break by ascending sender id.
    """
    refs = rr.receiver_refs(senders)
    idx_cat, rows_cat = rr.items[refs], rr.rows[refs]
    pos_cat = np.searchsorted(senders, rr.senders[refs])  # each row's sender position
    uniq, sums, _ = scatter_add_rows(idx_cat, rows_cat)
    inverse = np.searchsorted(uniq, idx_cat)
    means = sums / len(senders)
    # (items, packets) squared distances, each ((x - m)**2).sum() as a naive
    # reimplementation takes it; a cell no row was sent for holds the zero
    # row's.  argmin's first minimum is the smallest sender.
    dist = np.repeat((means**2).sum(axis=1)[:, None], len(senders), axis=1)
    dist[inverse, pos_cat] = ((rows_cat - means[inverse]) ** 2).sum(axis=1)
    row_of = np.full(dist.shape, -1)  # the cell's row index, -1 where none was sent
    row_of[inverse, pos_cat] = np.arange(len(idx_cat))
    won = row_of[np.arange(len(uniq)), dist.argmin(axis=1)]
    # Index -1 picks the zero row appended last.
    return uniq, np.vstack([rows_cat, np.zeros((1, rows_cat.shape[1]))])[won]


def l2_clip_aggregate(rr: RoundRows, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain FedAvg mean of the senders' rows, absent rows as zero.

    Defense none reads unclipped rows with it, and l2clip the rows
    consolidation clipped to the fixed mu bound.  Rows are summed in
    ascending sender order.
    """
    refs = rr.receiver_refs(senders)
    uniq, sums, _ = scatter_add_rows(rr.items[refs], rr.rows[refs])
    return uniq, sums / len(senders)
