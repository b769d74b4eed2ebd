"""Benign-side aggregation defenses over received item-row gradients.

All defenses consume the item-row part of neighbor packets and produce
per-item aggregate rows; network-parameter gradients are always aggregated
by plain mean outside these functions, and model.apply_neighbor_aggregate
applies both.  For median / trimmed mean / Krum, an item row absent from a
packet counts as a zero vector, mirroring the FedAvg convention of dividing
by the packet count.

A round's RoundBlock owns what the round sends: each packet is checked
against the model's item count, row width and net size and copied in once,
in ascending sender order; its rows go back to back into one row block,
with each row's int32 item id, and its net gradient into the sender's net
row.  The round's one RoundRows is a view of the rows sent, with each
sender's row range, and every defense reads a receiver's rows from it by
the receiver's ascending neighbor ids.  build_round_rows clips every row to
a fixed bound mu once, in the block: the configured mu for l2clip and UCSU, and mu =
inf, which keeps every row bit for bit, for the other defenses.  So defense none and l2clip share one plain-mean reader,
l2_clip_aggregate (named for the defense that introduced it; perfbench's
tracer times it by that name), and adversaries absorb through it too.

Median and trimmed mean share one rank kernel, _ranked_rows.  It skips
every item carried by too few packets to reach the kept ranks (at most
(n - 1) // 2 for the median, at most trim_k for the trimmed mean), whose
aggregate row is exactly zero, and sorts the others in chunks of whole
items: each chunk is a dense (items, dim, width) block of at most
_RANK_BLOCK_BYTES, absent rows zero, sorted along its last axis and
reduced by the caller.  An item's lines are sorted and reduced on their
own, so the chunk size moves no bit, and a receiver's sort memory stays one
block whatever its item count.  The chunks are views of one buffer
allocated per call, because receivers may run on threads.

The median's lines are n = len(senders) wide, each row at its sender's
position.  The trimmed mean sorts an item of c carriers at a width w of at
least c + trim_k, with w = n mod 8, each row at its rank among the item's
rows (_trimmed_widths), and sums the middle w - 2 * trim_k values.  That
sum has the full width's bits whenever n - 2 * trim_k is a multiple of 8
from 8 to 128 (40 at the default 50 neighbors); elsewhere w = n:
- With at least trim_k zeros in the line, its trim_k smallest and largest
  values are those of the full-width line, whose middle is then the narrow
  middle with n - w more zeros in its run of zeros.
- numpy sums a float64 line of 8 to 128 contiguous values, from a +0.0
  start, in 8 interleaved accumulators, value i into accumulator i mod 8,
  each in order.  The narrow middle is a multiple of 8 long, so it has no
  tail added after them, and n - w is a multiple of 8, so each value keeps
  its accumulator and its order there; the extra terms are zeros.
- Adding a zero changes no nonzero partial sum, and a sum that ends at
  zero is +0.0 from the +0.0 start, so neither the extra zeros nor the
  order of signed zeros in a run moves a bit.
The median keeps the full width and sender positions: its kept items carry
at least n / 2 rows anyway, and it picks ranks instead of summing them, so
a picked zero's sign follows where the sort leaves signed zeros, which
depends on the input order.  tests/test_defenses.py checks the rule for
every legal width, so a numpy release that sums in another order fails
there.

Every receiver's UCSU MemoryBank holds one chunk per banked round: the
round's shared RoundRows and the pop positions of the receiver's rows still
banked, 2 bytes each when the last of them is at most 0xFFFF (always, in a
round of at most 0x10000 rows), else 4.  Only rows built for banks carry
pop fields: build_round_rows sorts each round's rows into pop order
(descending pop key, min(p-norm, mu), row index on ties) once, shared by
all receivers, so every chunk is already in pop order and the bank's top
fraction is a prefix of each chunk; no receiver ever sorts its whole bank.
The pop key is kept once, negated in pop order.  Each stored row's own
p-norm is taken once, at consolidation, and popped with the row, so UCSU's
adaptive clip never re-takes it.  Per-item sums add rows in pop order, one
at a time, so the aggregate has the same bits as a sequential per-row loop.

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
    stored by ascending sender, sender s's rows from sender_start[s] up to
    sender_start[s + 1].  Rows built for UCSU's banks also carry their own
    p-norms (row_norms) and the pop fields build_round_rows computes once
    for every receiver: the pop order (row indices by descending pop key,
    row index on ties), each row's position in it (rank), and the pop key,
    negated, in pop order (pop_neg_norm).  Rows for any other reader carry
    none of them.  Once the round's pops are done, compact_round_rows
    replaces it in the banks by a RoundRows of exactly the rows some bank
    holds, in the same relative order.
    """

    round: int
    sender_start: np.ndarray  # (clients + 1,) first row per sender id, then the row count
    items: np.ndarray  # (n,) int32
    rows: np.ndarray  # (n, embed_dim) float64
    row_norms: np.ndarray | None = None  # (n,) p-norms of the stored rows
    order: np.ndarray | None = None  # (n,) int32 row indices in pop order
    rank: np.ndarray | None = None  # (n,) int32 position of each row in order
    pop_neg_norm: np.ndarray | None = None  # (n,) negated pop key, in pop order

    def refs_of(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row indices sent by the given ascending sender ids, in sender
        order, and each sender's row count.  ContractError without senders."""
        if len(senders) == 0:
            raise ContractError("aggregation requires at least one packet")
        starts = self.sender_start[senders]
        counts = self.sender_start[senders + 1] - starts
        ends = np.cumsum(counts)
        return np.arange(ends[-1]) + np.repeat(starts - (ends - counts), counts), counts


class RoundBlock:
    """What one round sends, owned in one place: a row block of at most
    capacity sent item rows with each row's item id (int32, in [0,
    num_items)), and one net gradient row per client (nets).

    send copies a packet in, its rows after the rows sent so far, and keeps
    no reference to it; packets come in ascending sender order, each
    sender at most once.  keep_first(count) drops every packet after the
    first count sent, so later packets take their place.  round_rows(t)
    is the RoundRows of the rows sent so far: views of the block, which
    build_round_rows clips in place.  np.empty leaves the rows never
    written without memory behind them.
    """

    def __init__(self, capacity: int, num_items: int, embed_dim: int, num_clients: int, net_size: int):
        self.num_items = num_items
        self.rows = np.empty((capacity, embed_dim))
        self.items = np.empty(capacity, dtype=np.int32)
        self.nets = np.empty((num_clients, net_size))
        self._sent: list[tuple[int, int]] = []  # (sender, row end) per packet

    def send(self, q: GradientPacket) -> None:
        """Copy q in.  ContractError, before any copy, if q comes out of
        ascending sender order or from no client, an item id lies outside
        [0, num_items), its rows do not match its ids and the block's row
        width, they overflow the block, or its net gradient does not match a
        net row."""
        last, start = self._sent[-1] if self._sent else (-1, 0)
        if not last < q.sender < len(self.nets):
            raise ContractError("packets must come in ascending sender order, from clients")
        n = len(q.item_idx)
        if n and not (0 <= q.item_idx.min() and q.item_idx.max() < self.num_items):
            raise ContractError("packet item index out of range")
        if q.item_rows.shape != (n, self.rows.shape[1]):
            raise ContractError("packet item row shape mismatch")
        if start + n > len(self.rows):
            raise ContractError("packet rows overflow the round block")
        if q.net_grad.shape != self.nets.shape[1:]:
            raise ContractError("packet net gradient shape mismatch")
        self.rows[start : start + n] = q.item_rows
        self.items[start : start + n] = q.item_idx
        self.nets[q.sender] = q.net_grad
        self._sent.append((q.sender, start + n))

    def keep_first(self, count: int) -> None:
        """Drop every packet after the first count sent."""
        del self._sent[count:]

    def round_rows(self, round_no: int) -> RoundRows:
        """The RoundRows of round round_no over the rows sent so far."""
        sent = np.array(self._sent, dtype=np.int64).reshape(-1, 2)
        ends = np.zeros(len(self.nets) + 1, dtype=np.int64)
        ends[sent[:, 0] + 1] = sent[:, 1]
        # A sender that sent nothing starts, and ends, where the last before it ended.
        sender_start = np.maximum.accumulate(ends)
        return RoundRows(round_no, sender_start, self.items[: sender_start[-1]], self.rows[: sender_start[-1]])


def build_round_rows(rr: RoundRows, mu: float, p: int, bank: bool) -> RoundRows:
    """Clip a round's RoundRows in place and, for banks, order it; returns rr.

    Every row is clipped to the fixed bound mu by its p-norm; mu = inf
    keeps every row bit for bit.  Clipping is receiver-independent, so the
    result may be shared.  With bank, the rows
    are for UCSU's banks: they get their own p-norms and the pop order by
    the key min(p-norm, mu).
    """
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


def _encode(positions: np.ndarray) -> np.ndarray:
    """Ascending int32 pop positions as uint16 when the last is at most
    0xFFFF, else as they are."""
    return positions.astype(np.uint16) if positions[-1] <= 0xFFFF else positions


class MemoryBank:
    """Per-client store of received item-row gradients awaiting application.

    Entries reference rows inside shared RoundRows objects, one chunk per
    banked round in round order: the RoundRows and the ascending pop
    positions (rr.rank) of the rows still banked, uint16 when the last of
    them is at most 0xFFFF and int32 otherwise.  Ingest and compaction
    encode; a pop drops a prefix, which keeps the last position and so the
    width.  After its round's pops, compact_round_rows may swap a chunk's
    RoundRows for a compacted one and remap its positions, keeping their
    order, and encode them anew.  Pop order is descending stored norm,
    insertion order (round, then row index) on ties, and each chunk is
    already in it, so the top fraction is a prefix of every chunk: a pop
    cuts each chunk at the k-th smallest negated norm (ties go to the
    earliest rounds), merges the prefixes stably and keeps a copy of each
    remainder.  Eviction drops whole chunks.  The popped set matches a
    brute-force (norm desc, insertion asc) oracle.

    The retention window at round t is rounds t - capacity_rounds to t, so
    a bank holds rows of up to capacity_rounds + 1 rounds: with the default
    10, round 11 still holds round 1's rows.
    """

    def __init__(self, capacity_rounds: int):
        self.capacity_rounds = capacity_rounds
        self._last_round: int | None = None
        self._chunks: list[tuple[RoundRows, np.ndarray]] = []  # (rr, positions)

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
            self._chunks.append((rr, _encode(np.sort(rr.rank[np.asarray(refs, dtype=np.int64)]))))

    def evict(self, current_round: int) -> None:
        """Drop the chunks of rounds before current_round - capacity_rounds.

        Rounds current_round - capacity_rounds to current_round stay, so
        capacity_rounds + 1 rounds may be banked.
        """
        horizon = current_round - self.capacity_rounds
        self._chunks = [c for c in self._chunks if c[0].round >= horizon]

    def size(self) -> int:
        return sum(len(positions) for _, positions in self._chunks)

    def nbytes(self) -> int:
        """Bytes of the banked positions; the shared RoundRows are not counted."""
        return sum(positions.nbytes for _, positions in self._chunks)

    def chunks(self) -> list[tuple[RoundRows, np.ndarray]]:
        """(RoundRows, ascending intp pop positions) of every chunk, in round
        order."""
        return [(rr, positions.astype(np.intp)) for rr, positions in self._chunks]

    def entries(self) -> list[tuple[int, int, int, np.ndarray]]:
        """(round_received, sender, item, grad_row) for every banked row,
        in insertion order (round, then row index)."""
        # A row's sender is the last whose range starts at or before it.
        return [
            (rr.round, int(np.searchsorted(rr.sender_start, ref, "right")) - 1, int(rr.items[ref]), rr.rows[ref])
            for rr, positions in self.chunks()
            for ref in np.sort(rr.order[positions]).tolist()
        ]

    def pop_top_fraction(self, nu: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove and return the top ceil(nu * size) rows by stored norm:
        their item ids, the rows, and the rows' own p-norms (row_norms).

        Output is ordered by descending norm, insertion order on ties.
        """
        total = self.size()
        if total == 0:
            return np.zeros(0, dtype=np.int64), np.zeros((0, 0)), np.zeros(0)
        k = math.ceil(nu * total)
        # Banked positions are 2 or 4 bytes, and rr.order is int32, to save
        # memory; numpy indexes faster by intp, so each chunk's positions
        # are converted once per pop.
        idx = [positions.astype(np.intp) for _, positions in self._chunks]
        negs = [rr.pop_neg_norm[ix] for (rr, _), ix in zip(self._chunks, idx)]
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
        for (rr, positions), ix, n in zip(self._chunks, idx, takes):
            refs = rr.order[ix[:n]].astype(np.intp)
            items[dest[start : start + n]] = rr.items[refs]
            rows[dest[start : start + n]] = rr.rows[refs]
            row_norms[dest[start : start + n]] = rr.row_norms[refs]
            start += n
            if n < len(positions):
                kept.append((rr, positions[n:].copy() if n else positions))
        self._chunks = kept
        return items, rows, row_norms


def compact_round_rows(rr: RoundRows, banks: Iterable[MemoryBank]) -> None:
    """Shrink rr, in every given bank, to the rows some bank holds.

    Call once a round's pops are done, before the next round's ingest, with
    every bank that may hold rr: a bank that holds rr holds it in its newest
    chunk, and only that chunk is read.  The chunks that hold rr get one
    shared RoundRows of those rows, kept in their relative order, and
    positions remapped to it and re-encoded; rows no bank holds are freed
    with rr once nothing else references it.
    """
    held = [bank for bank in banks if bank._chunks and bank._chunks[-1][0] is rr]
    # Banked positions are 2 or 4 bytes; numpy indexes faster by intp.
    live = np.zeros(len(rr.order), dtype=bool)  # per pop position
    for bank in held:
        live[bank._chunks[-1][1].astype(np.intp)] = True
    if not held or live.all():
        return
    held_row = live[rr.rank]  # per row
    keep = np.flatnonzero(held_row)  # held row indices, ascending
    # Kept rows keep their order and the pop order is a stable sort, so the
    # kept rows' pop order is the old one restricted to held positions: a
    # held position's new rank is the number of held positions before it,
    # and a row's new index, or a sender's new first row, the number of
    # held rows before it.
    new_rank = np.cumsum(live, dtype=np.int32) - 1
    held_before = np.zeros(len(held_row) + 1, dtype=np.int32)
    np.cumsum(held_row, out=held_before[1:])
    small = RoundRows(
        round=rr.round,
        sender_start=held_before[rr.sender_start],
        items=rr.items[keep],
        rows=rr.rows[keep],
        row_norms=rr.row_norms[keep],
        order=held_before[rr.order[live]],
        rank=new_rank[rr.rank[keep]],
        pop_neg_norm=rr.pop_neg_norm[live],
    )
    for bank in held:
        bank._chunks[-1] = (small, _encode(new_rank[bank._chunks[-1][1].astype(np.intp)]))


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
    bank.ingest(rr, rr.refs_of(senders)[0])
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
    widths: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Per received item, reduce applied to its values sorted along the
    packet axis, absent rows as zero.

    Returns the received item ids, ascending, and their rows.  Items carried
    by fewer than min_carriers packets get a zero row and are never sorted.
    Without widths every kept item's lines are len(senders) wide and each
    row sits at its sender's position; with widths, which maps the kept
    items' carrier counts to their line widths, each row sits at its rank
    among its item's rows, and the rest of the line is zeros.  Items of one
    width are sorted in chunks of whole items, each an (items, dim, width)
    view of one buffer of at most _RANK_BLOCK_BYTES (or one item), that
    reduce maps to its (items, dim) rows.
    """
    refs, sent = rr.refs_of(senders)
    items = rr.items[refs]
    counts = np.bincount(items)
    uniq = np.flatnonzero(counts).astype(items.dtype)
    out = np.zeros((len(uniq), rr.rows.shape[1]))
    kept = counts >= min_carriers  # per item id
    dest = np.flatnonzero(kept[uniq])  # kept items' rows of out
    if len(dest) == 0:
        return uniq, out
    carriers = counts[uniq[dest]]
    n_pkts = len(senders)
    # Kept items in sort order, by width, then id.  Each kept row's slot is
    # its item's place in that order; the rows are gathered once, grouped by
    # slot in sender order, so a chunk of whole items is a run of rows.
    if widths is None:
        width = np.full(len(dest), n_pkts)
    else:
        width = widths(carriers)
        turn = np.argsort(width, kind="stable")
        dest, carriers, width = dest[turn], carriers[turn], width[turn]
    slot_of = np.empty(len(counts), dtype=np.intp)  # per kept item id
    slot_of[uniq[dest]] = np.arange(len(dest))
    sel = kept[items]
    slot = slot_of[items[sel]]
    # Keys of at most 16 bits take numpy's radix sort.
    order = np.argsort(slot.astype(np.min_scalar_type(len(dest))), kind="stable")
    refs, slot = refs[sel][order], slot[order]
    rows = rr.rows[refs]
    ends = np.cumsum(carriers)  # each kept item's end in rows
    if widths is None:
        line = np.repeat(np.arange(n_pkts), sent)[sel][order]  # each row's sender position
    else:
        line = np.arange(len(rows)) - np.repeat(ends - carriers, carriers)
    dim = rows.shape[1]
    chunks = []  # (first slot, last slot, width): whole items of one width
    starts = [0, *(np.flatnonzero(width[1:] != width[:-1]) + 1).tolist()]
    for g0, g1 in zip(starts, starts[1:] + [len(width)]):
        w = int(width[g0])
        per = max(1, _RANK_BLOCK_BYTES // (dim * w * rows.itemsize))
        chunks += [(first, min(first + per, g1), w) for first in range(g0, g1, per)]
    buf = np.empty(max((last - first) * dim * w for first, last, w in chunks))
    for first, last, w in chunks:
        lo, hi = (ends[first - 1] if first else 0), ends[last - 1]
        chunk = buf[: (last - first) * dim * w].reshape(last - first, dim, w)
        chunk.fill(0.0)
        chunk[slot[lo:hi] - first, :, line[lo:hi]] = rows[lo:hi]
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

    Absent rows count as zero.  When there are too few packets (count <=
    2 * trim_k) the plain mean is used instead.
    """
    n_pkts = len(senders)
    if trim_k == 0 or n_pkts <= 2 * trim_k:
        return l2_clip_aggregate(rr, senders)
    # Items carried by at most trim_k packets lose every nonzero value to
    # the trimmed tails.
    return _ranked_rows(
        rr,
        senders,
        trim_k + 1,
        lambda block: block[..., trim_k : block.shape[-1] - trim_k].sum(axis=-1) / (n_pkts - 2 * trim_k),
        lambda carriers: _trimmed_widths(carriers, n_pkts, trim_k),
    )


def _trimmed_widths(carriers: np.ndarray, n_pkts: int, trim_k: int) -> np.ndarray:
    """Line widths whose trimmed sums have the bits of the full width's.

    Where n_pkts - 2 * trim_k is a multiple of 8 from 8 to 128, an item of c
    carriers gets the smallest width of at least c + trim_k that is
    congruent to n_pkts mod 8, capped at n_pkts; elsewhere every width is
    n_pkts.  A kept item has c > trim_k, and n_pkts is congruent to
    2 * trim_k mod 8, so its width is at least 2 * trim_k + 8 and its middle
    at least 8 long.  See the module docstring for why.
    """
    middle = n_pkts - 2 * trim_k
    if middle % 8 or not 8 <= middle <= 128:
        return np.full(len(carriers), n_pkts)
    need = carriers + trim_k
    return np.minimum(need + (n_pkts - need) % 8, n_pkts)


def item_krum_aggregate(rr: RoundRows, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per item, the packet row closest (squared l2) to the item's mean row.

    A per-item "closest row to the mean" rule, not Krum's score (the sum of
    distances to the nearest n - f - 2 packets).  Absent rows count as zero
    rows; ties break by ascending sender id.
    """
    refs, sent = rr.refs_of(senders)
    idx_cat, rows_cat = rr.items[refs], rr.rows[refs]
    pos_cat = np.repeat(np.arange(len(senders)), sent)  # each row's sender position
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
    refs, _ = rr.refs_of(senders)
    uniq, sums, _ = scatter_add_rows(rr.items[refs], rr.rows[refs])
    return uniq, sums / len(senders)
