"""Defense aggregators vs brute-force oracles, clipping bounds, and the
memory-bank lifecycle."""

import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from decrecsim import defenses
from decrecsim.defenses import (
    _NORM_BLOCK,
    MemoryBank,
    RoundBlock,
    RoundRows,
    _norms,
    _trimmed_widths,
    build_round_rows,
    compact_round_rows,
    item_krum_aggregate,
    l2_clip_aggregate,
    median_aggregate,
    resolve_trim_k,
    trimmed_mean_aggregate,
    ucsu_aggregate,
)
from decrecsim.errors import ContractError
from decrecsim.model import GradientPacket
from helpers import (
    ReferenceBank,
    adaptive_clip,
    assert_round_compacted,
    brute_force_krum,
    brute_force_l2clip,
    brute_force_median,
    brute_force_top_nu,
    brute_force_trimmed,
    clip_row,
    concat_round_rows,
    dense_block_median,
    dense_block_trimmed,
    packet,
    per_item_mean_loop,
    pop_fields,
    pop_key,
    round_rows,
    row_senders,
)


def received(pkts, round_no=1, mu=np.inf, p=2, bank=False):
    """The round rows of pkts and their ascending sender ids: what a
    receiver whose neighbors sent pkts reads (unclipped unless mu is
    finite; UCSU's banks read rows built with bank)."""
    rr = round_rows(pkts, round_no, mu=mu, p=p, bank=bank)
    return rr, np.array(sorted(q.sender for q in pkts), dtype=np.int64)


def random_packets(rng, n_pkts, num_items, dim, p_touch=0.5):
    pkts = []
    for s in range(n_pkts):
        rows = {
            int(i): rng.normal(size=dim) * rng.choice([0.1, 1.0, 10.0])
            for i in range(num_items)
            if rng.random() < p_touch
        }
        pkts.append(packet(s, rows, np.zeros(2), dim=dim))
    return pkts


class TestClipRow:
    def test_below_threshold_unchanged(self):
        g = np.array([0.3, 0.4])
        assert np.array_equal(clip_row(g, mu=1.0), g)

    def test_hand_example(self):
        out = clip_row(np.array([3.0, 4.0]), mu=1.0)
        assert np.allclose(out, [0.6, 0.8])

    def test_norm_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = rng.normal(size=4) * rng.choice([0.1, 10.0])
            assert np.linalg.norm(clip_row(g, mu=1.0)) <= 1.0 + 1e-12

    def test_zero_row(self):
        assert np.array_equal(clip_row(np.zeros(3), mu=0.5), np.zeros(3))

    def test_l1_norm(self):
        out = clip_row(np.array([1.0, 1.0]), mu=1.0, p=1)
        assert np.allclose(out, [0.5, 0.5])

    def test_bad_mu(self):
        with pytest.raises(ContractError):
            clip_row(np.ones(2), mu=0.0)

    def test_sum_bound_over_subsets(self):
        # after clipping, any subset sum has norm at most mu * subset size
        rng = np.random.default_rng(1)
        mu = 0.7
        rows = [clip_row(rng.normal(size=5) * rng.choice([0.1, 3.0, 40.0]), mu) for _ in range(40)]
        for _ in range(200):
            size = int(rng.integers(1, 41))
            subset = rng.choice(40, size=size, replace=False)
            total = np.sum([rows[i] for i in subset], axis=0)
            assert np.linalg.norm(total) <= mu * size + 1e-9


class TestAdaptiveClip:
    def test_equal_norms_unchanged(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert np.allclose(adaptive_clip(rows), rows)

    def test_hand_example(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [4.0, 0.0]])
        out = adaptive_clip(rows)
        assert np.allclose(out[0], [1.0, 0.0])
        assert np.allclose(out[1], [0.0, 1.0])
        assert np.allclose(out[2], [2.0, 0.0])

    def test_max_norm_at_most_mean(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            rows = rng.normal(size=(6, 3)) * rng.choice([0.1, 1.0, 5.0], size=(6, 1))
            out = adaptive_clip(rows)
            m = np.linalg.norm(rows, axis=1).mean()
            assert np.linalg.norm(out, axis=1).max() <= m + 1e-9

    def test_zero_rows_pass(self):
        rows = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = adaptive_clip(rows)
        assert np.array_equal(out[0], [0.0, 0.0])

    def test_inputs_unchanged(self):
        # clipping scales in place, but never the caller's arrays
        row = np.array([3.0, 4.0])
        rows = np.array([[3.0, 4.0], [0.1, 0.0]])
        clip_row(row, 1.0)
        adaptive_clip(rows)
        assert row.tolist() == [3.0, 4.0]
        assert rows.tolist() == [[3.0, 4.0], [0.1, 0.0]]

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            adaptive_clip(np.zeros((0, 3)))


class TestMedian:
    def test_hand_median_odd(self):
        pkts = [
            packet(0, {0: np.array([1.0, 1.0])}, np.zeros(2)),
            packet(1, {0: np.array([2.0, 2.0])}, np.zeros(2)),
            packet(2, {0: np.array([100.0, 100.0])}, np.zeros(2)),
        ]
        items, rows = median_aggregate(*received(pkts))
        assert items.tolist() == [0]
        assert np.allclose(rows[0], [2.0, 2.0])

    def test_even_count_averages_middles(self):
        pkts = [
            packet(0, {0: np.array([1.0])}, np.zeros(2)),
            packet(1, {0: np.array([3.0])}, np.zeros(2)),
        ]
        _, rows = median_aggregate(*received(pkts))
        assert rows[0][0] == 2.0

    def test_single_packet_identity(self):
        pkts = [packet(0, {2: np.array([5.0, -1.0])}, np.zeros(2))]
        items, rows = median_aggregate(*received(pkts))
        assert items.tolist() == [2]
        assert np.allclose(rows[0], [5.0, -1.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for trial in range(300):
            n_pkts = int(rng.integers(1, 8))
            num_items = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 4))
            pkts = random_packets(rng, n_pkts, num_items, dim)
            expect = brute_force_median(pkts, num_items, dim)
            items, rows = median_aggregate(*received(pkts))
            assert items.tolist() == sorted(expect)
            for k, item in enumerate(items.tolist()):
                assert np.allclose(rows[k], expect[item], atol=1e-12), f"trial {trial}"


class TestTrimmedMean:
    def test_hand_example(self):
        pkts = [
            packet(s, {0: np.array([v])}, np.zeros(2))
            for s, v in enumerate([1.0, 2.0, 3.0, 4.0, 100.0])
        ]
        _, rows = trimmed_mean_aggregate(*received(pkts), trim_k=1)
        assert rows[0][0] == pytest.approx(3.0)

    def test_trim_zero_is_plain_mean(self):
        pkts = [
            packet(0, {1: np.array([2.0, 0.0])}, np.zeros(2)),
            packet(1, {1: np.array([4.0, 2.0])}, np.zeros(2)),
        ]
        _, rows = trimmed_mean_aggregate(*received(pkts), trim_k=0)
        assert np.allclose(rows[0], [3.0, 1.0])

    def test_constant_values(self):
        pkts = [packet(s, {0: np.array([7.0])}, np.zeros(2)) for s in range(5)]
        _, rows = trimmed_mean_aggregate(*received(pkts), trim_k=1)
        assert rows[0][0] == pytest.approx(7.0)

    def test_fallback_when_too_few(self):
        pkts = [packet(s, {0: np.array([float(s)])}, np.zeros(2)) for s in range(3)]
        _, rows = trimmed_mean_aggregate(*received(pkts), trim_k=2)  # 3 <= 2*2 -> plain mean
        assert rows[0][0] == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for trial in range(300):
            n_pkts = int(rng.integers(1, 9))
            num_items = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 4))
            trim_k = int(rng.integers(0, 4))
            pkts = random_packets(rng, n_pkts, num_items, dim)
            expect = brute_force_trimmed(pkts, num_items, dim, trim_k)
            items, rows = trimmed_mean_aggregate(*received(pkts), trim_k)
            assert items.tolist() == sorted(expect)
            for k, item in enumerate(items.tolist()):
                assert np.allclose(rows[k], expect[item], atol=1e-12), f"trial {trial}"


# Few distinct values, signed zeros among them, so that ties, stored zeros
# next to absent rows, and all-zero columns are common.
TIE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0])


@st.composite
def packet_sets(draw):
    """(packets, num_items, dim): 1-60 packets over 1-8 items, dim 1-4."""
    # half the cases have few packets, where the skip thresholds are low
    n_pkts = draw(st.one_of(st.integers(1, 8), st.integers(9, 60)))
    num_items = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 4))
    # density/10 of the (packet, item) slots are carried, so items near
    # the skip thresholds (few carriers) occur as well as dense ones
    density = draw(st.integers(1, 10))
    carried = draw(hnp.arrays(
        bool, (n_pkts, num_items),
        elements=st.integers(0, 9).map(lambda v: v < density), fill=st.nothing(),
    ))
    values = draw(hnp.arrays(
        np.float64, (n_pkts, num_items, dim), elements=TIE_VALUES, fill=st.nothing()
    ))
    pkts = [
        packet(s, {i: values[s, i] for i in np.flatnonzero(carried[s]).tolist()},
               np.zeros(2), dim=dim)
        for s in range(n_pkts)
    ]
    return pkts, num_items, dim


def chunks_of(per, dim, n_pkts):
    """Patch the rank kernels' block budget to per items of (dim, n_pkts)."""
    return mock.patch.object(defenses, "_RANK_BLOCK_BYTES", per * dim * n_pkts * 8)


def assert_same_bytes(got, expect):
    """Two (item ids, rows) results hold the same dtypes, shapes and bytes."""
    for a, b in zip(got, expect, strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


def assert_matches(items, rows, expect, exact=False):
    """items and rows match expect's per-item rows: to 1e-12, or with exact
    byte for byte (signed zeros included)."""
    assert items.tolist() == sorted(expect)
    for k, item in enumerate(items.tolist()):
        if exact:
            assert rows[k].tobytes() == expect[item].tobytes()
        else:
            assert np.allclose(rows[k], expect[item], atol=1e-12, rtol=0.0)


class TestDenseKernelProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(packet_sets())
    def test_median_matches_brute_force(self, case):
        pkts, num_items, dim = case
        assert_matches(*median_aggregate(*received(pkts)), brute_force_median(pkts, num_items, dim))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(packet_sets(), st.one_of(st.none(), st.integers(0, 6)))
    def test_trimmed_matches_brute_force(self, case, fixed_k):
        """trim_k drawn from the ints or (None) from the policy."""
        pkts, num_items, dim = case
        trim_k = resolve_trim_k(len(pkts)) if fixed_k is None else fixed_k
        expect = brute_force_trimmed(pkts, num_items, dim, trim_k)
        assert_matches(*trimmed_mean_aggregate(*received(pkts), trim_k), expect, exact=True)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(packet_sets(), st.sampled_from([1, 2]))
    def test_median_in_chunks_of_one_or_two_items(self, case, per):
        pkts, num_items, dim = case
        with chunks_of(per, dim, len(pkts)):
            items, rows = median_aggregate(*received(pkts))
        assert_matches(items, rows, brute_force_median(pkts, num_items, dim))
        assert_same_bytes((items, rows), dense_block_median(pkts))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(packet_sets(), st.sampled_from([1, 2]), st.one_of(st.none(), st.integers(0, 6)))
    def test_trimmed_in_chunks_of_one_or_two_items(self, case, per, fixed_k):
        pkts, num_items, dim = case
        trim_k = resolve_trim_k(len(pkts)) if fixed_k is None else fixed_k
        expect = brute_force_trimmed(pkts, num_items, dim, trim_k)
        with chunks_of(per, dim, len(pkts)):
            got = trimmed_mean_aggregate(*received(pkts), trim_k)
        assert_matches(*got, expect, exact=True)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(packet_sets())
    def test_krum_matches_brute_force(self, case):
        pkts, num_items, dim = case
        expect = brute_force_krum(pkts, num_items, dim)
        assert_matches(*item_krum_aggregate(*received(pkts)), expect, exact=True)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(packet_sets(), st.sampled_from([0.25, 1.0, 2.0, 10.0]), st.sampled_from([1, 2]))
    def test_l2clip_matches_brute_force(self, case, mu, p):
        pkts, num_items, dim = case
        expect = brute_force_l2clip(pkts, num_items, dim, mu, p)
        assert_matches(*l2_clip_aggregate(*received(pkts, mu=mu, p=p)), expect)


@pytest.mark.parametrize(
    "aggregate",
    [
        median_aggregate,
        functools.partial(trimmed_mean_aggregate, trim_k=1),
        item_krum_aggregate,
        l2_clip_aggregate,
        lambda rr, senders: ucsu_aggregate(MemoryBank(1), rr, senders, nu=0.1),
    ],
    ids=["median", "trimmed", "krum", "l2clip", "ucsu"],
)
def test_empty_receiver_rejected(aggregate):
    rr, _ = received([packet(0, {0: np.ones(2)}, np.zeros(2))])
    with pytest.raises(ContractError, match="at least one packet"):
        aggregate(rr, np.zeros(0, dtype=np.int64))


# A receiver's (senders, items, carried share): on the eb_trimmed_s workload
# (S data), and on the kernel benchmark's receiver (110 rows of 848 items
# per sender, M data).
RECEIVER_SHAPES = {"S": (50, 360, 0.29), "M": (50, 848, 110 / 848)}


def receiver_packets(shape, seed, dim=32):
    """Packets of random float rows of mixed magnitude at a receiver shape,
    a (senders, items, carried share) triple.

    Each item has its own carry probability, beta-distributed with the
    shape's share as mean, so that at S most items reach the trimmed mean's
    carrier threshold (6 of 50) and some the median's (25 of 50).
    """
    senders, num_items, share = shape
    rng = np.random.default_rng(seed)
    carry = rng.beta(2.0, 2.0 * (1.0 - share) / share, size=num_items)
    carried = rng.random((senders, num_items)) < carry
    pkts = []
    for s in range(senders):
        idx = np.flatnonzero(carried[s])
        scale = 10.0 ** rng.integers(-3, 3, size=(len(idx), 1))
        pkts.append(GradientPacket(s, idx, rng.normal(size=(len(idx), dim)) * scale, np.zeros(2)))
    return pkts


class TestRankKernelsAtReceiverSizes:
    """Median and trimmed mean on float rows whose sums round, against the
    one-block formula, byte for byte."""

    @pytest.mark.parametrize("shape", sorted(RECEIVER_SHAPES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_median_matches_dense_block(self, shape, seed):
        pkts = receiver_packets(RECEIVER_SHAPES[shape], seed)
        assert_same_bytes(median_aggregate(*received(pkts)), dense_block_median(pkts))

    @pytest.mark.parametrize("shape", sorted(RECEIVER_SHAPES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_trimmed_matches_dense_block(self, shape, seed):
        pkts = receiver_packets(RECEIVER_SHAPES[shape], seed)
        trim_k = resolve_trim_k(len(pkts))
        got = trimmed_mean_aggregate(*received(pkts), trim_k)
        assert_same_bytes(got, dense_block_trimmed(pkts, trim_k))

    @pytest.mark.parametrize(
        "senders, narrow",
        [(20, True), (30, True), (45, False), (50, True), (170, False)],
    )
    def test_trimmed_at_sender_counts_matches_dense_block(self, senders, narrow):
        """The narrow lines engage where senders - 2 * trim_k is a multiple
        of 8 from 8 to 128 (16, 24 and 40 here) and nowhere else (37 at 45
        senders, 136 at 170); either way the bytes are the full width's."""
        pkts = receiver_packets((senders, 360, 0.29), 3)
        trim_k = resolve_trim_k(senders)
        carriers = np.bincount(np.concatenate([q.item_idx for q in pkts]))
        kept = carriers[carriers > trim_k]
        assert bool(np.any(_trimmed_widths(kept, senders, trim_k) < senders)) == narrow
        got = trimmed_mean_aggregate(*received(pkts), trim_k)
        assert_same_bytes(got, dense_block_trimmed(pkts, trim_k))

    @pytest.mark.parametrize(
        "aggregate",
        [median_aggregate, functools.partial(trimmed_mean_aggregate, trim_k=resolve_trim_k(50))],
        ids=["median", "trimmed"],
    )
    def test_peak_memory_at_the_s_shape(self, aggregate):
        # One dense block of the S receiver's items would be 4.6 MB; the
        # chunked sort holds the kept rows, one block and the output.
        rr, senders = received(receiver_packets(RECEIVER_SHAPES["S"], 2))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            aggregate(rr, senders)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20


def legal_widths(n, k, c):
    """Every width w of the narrow-line rule for c carriers: w = n mod 8,
    max(c + k, 2k + 8) <= w <= n."""
    return [w for w in range(n % 8, n + 1, 8) if w >= max(c + k, 2 * k + 8)]


class TestTrimmedWidths:
    """The rule behind _trimmed_widths: a line of c carried values sorted at
    width w, with w - c >= k zeros, has the trimmed sum of the same line at
    the full width n.  It rests on the order in which numpy's float64 sum
    adds 8 to 128 contiguous values, so a numpy release that changes that
    order fails here."""

    @pytest.mark.parametrize("middle", range(8, 129, 8))
    def test_narrow_sum_has_the_full_width_bytes(self, middle):
        rng = np.random.default_rng(middle)
        dim = 4
        for k in range(1, 13):
            n = middle + 2 * k
            legal = [set(legal_widths(n, k, c)) for c in range(n + 1)]
            for w in range(n % 8, n, 8):
                cs = np.array([c for c in range(w + 1) if w in legal[c]], dtype=np.int64)
                if not len(cs):
                    continue
                # One item per carrier count c: per coordinate, c values of
                # mixed magnitude, of mixed sign or all of one sign (so that
                # the trimmed tails reach into the zeros), none or about a
                # quarter of them zeros of either sign, then +0.0 to the
                # line's width.
                shape = (len(cs), dim, n)
                full = np.ldexp(rng.normal(size=shape), rng.integers(-27, 28, size=shape))
                sign = rng.integers(0, 3, size=(len(cs), dim, 1))
                full = np.where(sign == 0, full, np.where(sign == 1, 1.0, -1.0) * np.abs(full))
                zero = rng.random(shape) < rng.choice([0.0, 0.25], size=(len(cs), dim, 1))
                full[zero] = np.copysign(0.0, full[zero])
                full = np.where(np.arange(n) < cs[:, None, None], full, 0.0)
                narrow = full[..., :w].copy()
                full.sort(axis=-1)
                narrow.sort(axis=-1)
                expect = full[..., k : n - k].sum(axis=-1)
                got = narrow[..., k : w - k].sum(axis=-1)
                assert got.tobytes() == expect.tobytes(), (n, k, w)

    @pytest.mark.parametrize("n", [3, 10, 17, 20, 26, 30, 45, 50, 51, 138, 139, 150, 170])
    def test_smallest_legal_width_or_the_full_width(self, n):
        k = resolve_trim_k(n)
        carriers = np.arange(k + 1, n + 1)
        got = _trimmed_widths(carriers, n, k)
        middle = n - 2 * k
        for c, w in zip(carriers.tolist(), got.tolist()):
            if middle % 8 == 0 and 8 <= middle <= 128:
                assert w == min(legal_widths(n, k, c) + [n])
            else:
                assert w == n


class TestResolveTrimK:
    @pytest.mark.parametrize(
        "count, expect", [(0, 0), (2, 0), (3, 1), (9, 1), (10, 1), (50, 5)]
    )
    def test_default_policy(self, count, expect):
        assert resolve_trim_k(count) == expect


class TestItemKrum:
    def test_hand_distances(self):
        pkts = [
            packet(0, {0: np.array([0.0, 0.0])}, np.zeros(2)),
            packet(1, {0: np.array([1.0, 1.0])}, np.zeros(2)),
            packet(2, {0: np.array([10.0, 10.0])}, np.zeros(2)),
        ]
        _, rows = item_krum_aggregate(*received(pkts))
        assert np.allclose(rows[0], [1.0, 1.0])

    def test_single_row_identity(self):
        pkts = [packet(0, {3: np.array([2.0, -2.0])}, np.zeros(2))]
        items, rows = item_krum_aggregate(*received(pkts))
        assert items.tolist() == [3]
        assert np.allclose(rows[0], [2.0, -2.0])

    def test_identical_rows(self):
        pkts = [packet(s, {0: np.array([4.0, 4.0])}, np.zeros(2)) for s in range(3)]
        _, rows = item_krum_aggregate(*received(pkts))
        assert np.allclose(rows[0], [4.0, 4.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        for trial in range(300):
            n_pkts = int(rng.integers(1, 8))
            num_items = int(rng.integers(1, 6))
            dim = int(rng.integers(1, 4))
            pkts = random_packets(rng, n_pkts, num_items, dim)
            expect = brute_force_krum(pkts, num_items, dim)
            items, rows = item_krum_aggregate(*received(pkts))
            assert items.tolist() == sorted(expect)
            for k, item in enumerate(items.tolist()):
                assert np.allclose(rows[k], expect[item], atol=1e-12), f"trial {trial}"


class TestL2Clip:
    def test_hand_example(self):
        pkts = [
            packet(0, {0: np.array([3.0, 4.0])}, np.zeros(2)),
            packet(1, {0: np.array([0.0, 0.0])}, np.zeros(2)),
        ]
        _, rows = l2_clip_aggregate(*received(pkts, mu=1.0))
        assert np.allclose(rows[0], [0.3, 0.4])

    def test_inactive_clip_equals_plain_mean(self):
        pkts = [
            packet(0, {0: np.array([0.1, 0.2])}, np.zeros(2)),
            packet(1, {0: np.array([0.3, 0.0])}, np.zeros(2)),
        ]
        _, rows = l2_clip_aggregate(*received(pkts, mu=10.0))
        assert np.allclose(rows[0], [0.2, 0.1])

    def test_pre_mean_norms_bounded(self):
        rng = np.random.default_rng(6)
        pkts = random_packets(rng, 5, 4, 3)
        rr = round_rows(pkts, round_no=1, mu=1.0, p=2, bank=False)
        assert np.all(np.linalg.norm(rr.rows, axis=1) <= 1.0 + 1e-12)


class TestBuildRoundRows:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_norms_are_row_local(self, p):
        # _norms works in row blocks; each row's bits match one whole-array call
        rng = np.random.default_rng(p)
        n = 2 * _NORM_BLOCK + 3
        rows = rng.normal(size=(n, 32)) * 10.0 ** rng.integers(-6, 6, size=(n, 1))
        assert _norms(rows, p).tobytes() == np.linalg.norm(rows, ord=p, axis=1).tobytes()

    def test_rows_allocated_once(self):
        # 20k rows of dim 64 (512 B each) that mostly clip: holding the
        # packets in a round block and the build may add the stacked rows
        # plus 256 B per row for the ids, norms and pop order (about 125 B
        # are used), but no second rows-sized block.
        rng = np.random.default_rng(10)
        pkts = [
            GradientPacket(
                sender=s,
                item_idx=np.arange(100),
                item_rows=rng.normal(size=(100, 64)),
                net_grad=np.zeros(1),
            )
            for s in range(200)
        ]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rr = round_rows(pkts, num_items=100)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert np.all(pop_key(rr) <= 1.0)
        assert peak <= rr.rows.nbytes + 256 * len(rr.items)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (packet(1, {0: np.ones(3)}, np.zeros(2), dim=3), "item row shape"),
            (packet(1, {}, np.zeros(2), dim=3), "item row shape"),
            (packet(1, {0: np.ones(2)}, np.zeros(3)), "net gradient shape"),
        ],
        ids=["row-width", "empty-row-width", "net-size"],
    )
    def test_packet_that_does_not_fit_the_model_rejected(self, bad, message):
        good = packet(0, {1: np.ones(2), 3: np.ones(2)}, np.zeros(2))
        shape = dict(num_items=4, embed_dim=2, net_size=2)
        for mu in (np.inf, 1.0):
            with pytest.raises(ContractError, match=message):
                round_rows([good, bad], mu=mu, bank=False, **shape)
        rr = round_rows([good], **shape)
        assert rr.items.tolist() == [1, 3]

    @pytest.mark.parametrize("p", [1, 2])
    def test_row_norms_are_the_stored_rows_norms(self, p):
        # Clipped rows keep the capped pop key; row_norms are the stored
        # rows' own norms, and with mu = inf, which keeps every row, they
        # are the pop key.
        rng = np.random.default_rng(20 + p)
        pkts = random_packets(rng, 30, 6, 3)
        plain = round_rows(pkts, mu=np.inf, p=p)
        clipped = round_rows(pkts, mu=1.0, p=p)
        raw = np.concatenate([q.item_rows for q in pkts])
        assert plain.rows.tobytes() == raw.tobytes()
        assert (pop_key(plain) > 1.0).sum() > 10
        assert np.array_equal(pop_key(clipped), np.minimum(pop_key(plain), 1.0))
        assert clipped.row_norms.tobytes() == np.linalg.norm(clipped.rows, ord=p, axis=1).tobytes()
        assert plain.row_norms.tobytes() == pop_key(plain).tobytes()

    @pytest.mark.parametrize("clip", [False, True])
    def test_pop_fields_only_for_banks(self, clip):
        # Rows no bank reads carry no norms or pop order, and a bank refuses
        # them; rows for banks are clipped (mu = inf keeps unclipped rows'
        # bits), keep the key once, in pop order, and an int32 order.
        mu = 1.0 if clip else np.inf
        pkts = random_packets(np.random.default_rng(30), 20, 6, 3)
        plain = round_rows(pkts, mu=mu, bank=False)
        banked = round_rows(pkts, mu=mu, bank=True)
        assert plain.rows.tobytes() == banked.rows.tobytes()
        assert plain.order is plain.rank is plain.pop_neg_norm is plain.row_norms is None
        with pytest.raises(ContractError, match="pop order"):
            MemoryBank(2).ingest(plain, np.arange(len(plain.items)))
        assert banked.order.dtype == banked.rank.dtype == np.int32
        assert "norms" not in vars(banked)  # only pop_neg_norm holds the key
        raw = np.concatenate([q.item_rows for q in pkts])
        key = np.minimum(np.linalg.norm(raw, axis=1), mu)
        assert np.array_equal(-banked.pop_neg_norm, key[banked.order])

    @pytest.mark.parametrize(
        "clip, bank", [(False, False), (True, False), (True, True), (False, True)]
    )
    @pytest.mark.parametrize("senders", [[], [2, 0]], ids=["no-packets", "no-rows"])
    def test_no_rows_keep_their_dtypes(self, senders, clip, bank):
        # No packets, or packets that carry no rows, give empty int32 senders
        # and items and a (0, d) float64 row block, clipped (mu = 1) or not
        # (mu = inf).
        pkts = [packet(s, {}, np.zeros(2), dim=3) for s in senders]
        mu = 1.0 if clip else np.inf
        rr = round_rows(pkts, mu=mu, bank=bank, num_items=4, embed_dim=3, net_size=2)
        assert row_senders(rr).dtype == rr.items.dtype == np.int32
        assert row_senders(rr).shape == rr.items.shape == (0,)
        assert rr.rows.dtype == np.float64 and rr.rows.shape == (0, 3)

    @pytest.mark.parametrize(
        "mu, bank",
        [(np.inf, False), (1.0, False), (1.0, True), (np.inf, True)],
        ids=["plain", "clipped", "banked", "unclipped-banked"],
    )
    @pytest.mark.parametrize("kind", ["rows", "no-rows", "no-packets"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_in_place_build_matches_concatenation(self, kind, mu, bank, p):
        # Packets sent into a round block with room to spare build the bytes
        # of concatenated copies of their rows, in place; so does round_rows'
        # own block, exactly the rows' size.  The packets stay as sent.
        pkts = {
            "rows": random_packets(np.random.default_rng(40 + p), 12, 8, 3),
            "no-rows": [packet(s, {}, np.zeros(2), dim=3) for s in (2, 0)],
            "no-packets": [],
        }[kind]
        want = concat_round_rows(pkts, 3, mu=mu, p=p, bank=bank, embed_dim=3, clients=12)
        sent = concat_round_rows(pkts, mu=np.inf, embed_dim=3).rows
        block = RoundBlock(sum(len(q.item_idx) for q in pkts) + 5, 8, 3, 12, 2)
        for q in sorted(pkts, key=lambda q: q.sender):
            block.send(q)
        shape = dict(mu=mu, p=p, bank=bank)
        in_block = build_round_rows(block.round_rows(3), **shape)
        loose = round_rows(pkts, 3, num_items=8, embed_dim=3, net_size=2, clients=12, **shape)
        if kind == "rows":
            # some rows exceed mu = 1, so the clipping builds scale them
            assert (np.linalg.norm(sent, ord=p, axis=1) > 1.0).any()
            assert np.shares_memory(in_block.rows, block.rows)
        for got in (in_block, loose):
            for name, value in vars(want).items():
                if value is None:
                    assert getattr(got, name) is None, name
                elif isinstance(value, np.ndarray):
                    mine = getattr(got, name)
                    assert (mine.dtype, mine.shape, mine.tobytes()) == (
                        value.dtype, value.shape, value.tobytes()
                    ), name
        assert np.concatenate([np.zeros((0, 3)), *(q.item_rows for q in pkts)]).tobytes() == (
            sent.tobytes()
        )

    def test_rows_outside_the_block_rejected(self):
        block = RoundBlock(2, 4, 2, 3, 2)
        for s in (0, 1):
            block.send(packet(s, {s: np.full(2, s + 1.0)}, np.zeros(2)))
        with pytest.raises(ContractError, match="overflow"):
            block.send(packet(2, {0: np.ones(2)}, np.zeros(2)))


class TestRoundBlock:
    @pytest.mark.parametrize("sender", [0, 1, -1, 3], ids=["repeat", "descending", "negative", "no-client"])
    def test_senders_out_of_order_rejected(self, sender):
        block = RoundBlock(4, 4, 2, 3, 2)
        block.send(packet(0, {0: np.ones(2)}, np.zeros(2)))
        block.send(packet(1, {0: np.ones(2)}, np.zeros(2)))
        with pytest.raises(ContractError, match="ascending sender order"):
            block.send(packet(sender, {1: np.ones(2)}, np.zeros(2)))
        # the rejected packet left no row behind
        assert row_senders(block.round_rows(1)).tolist() == [0, 1]

    @pytest.mark.parametrize(
        "bad, message",
        [
            (packet(1, {0: np.ones(3)}, np.zeros(2), dim=3), "item row shape"),
            (packet(1, {}, np.zeros(2), dim=3), "item row shape"),
            (GradientPacket(1, np.arange(2), np.ones((1, 2)), np.zeros(2)), "item row shape"),
            (packet(1, {0: np.ones(2)}, np.zeros(3)), "net gradient shape"),
            (packet(1, {0: np.ones(2)}, np.zeros((1, 2))), "net gradient shape"),
        ],
        ids=["row-width", "empty-row-width", "rows-not-ids", "net-size", "net-rank"],
    )
    def test_mismatched_shapes_rejected(self, bad, message):
        block = RoundBlock(4, 4, 2, 2, 2)
        with pytest.raises(ContractError, match=message):
            block.send(bad)
        block.send(packet(1, {0: np.ones(2)}, np.ones(2)))
        assert row_senders(block.round_rows(1)).tolist() == [1]

    @pytest.mark.parametrize(
        "item", [4, -1, 2**32 + 1], ids=["item-too-large", "item-negative", "item-past-int32"]
    )
    def test_item_ids_outside_the_model_rejected(self, item):
        # Ids are checked against num_items before any byte is copied, and
        # are stored as int32.
        block = RoundBlock(4, 4, 2, 3, 2)
        block.send(packet(0, {1: np.ones(2), 3: np.ones(2)}, np.zeros(2)))
        before = (block.rows.copy(), block.items.copy(), block.nets.copy())
        with pytest.raises(ContractError, match="item index out of range"):
            block.send(packet(1, {0: np.full(2, 7.0), item: np.full(2, 9.0)}, np.full(2, 5.0)))
        for got, was in zip((block.rows, block.items, block.nets), before):
            assert got.tobytes() == was.tobytes()
        rr = block.round_rows(1)
        assert rr.items.dtype == np.int32 and rr.items.tolist() == [1, 3]
        assert row_senders(rr).tolist() == [0, 0]

    @pytest.mark.parametrize("kept", [0, 2, 3])
    def test_keep_first_then_send_builds_a_block_of_kept_and_new(self, kept):
        # Senders 0-2 stand for benign clients (2 without rows), 3-4 for
        # adversaries whose honest packets the crafted ones replace.
        rng = np.random.default_rng(kept)
        honest = random_packets(rng, 5, 6, 3)
        honest[2] = packet(2, {}, rng.normal(size=2), dim=3)
        crafted = [
            packet(s, {i: rng.normal(size=3) for i in (0, 5)}, rng.normal(size=2), dim=3)
            for s in (3, 4)
        ]
        replaced = RoundBlock(40, 8, 3, 5, 2)
        for q in honest:
            replaced.send(q)
        replaced.keep_first(kept)
        fresh = RoundBlock(40, 8, 3, 5, 2)
        for q in honest[:kept]:
            fresh.send(q)
        for block in (replaced, fresh):
            for q in crafted:
                block.send(q)
        got, want = replaced.round_rows(2), fresh.round_rows(2)
        for name in ("sender_start", "items", "rows"):
            mine, theirs = getattr(got, name), getattr(want, name)
            assert (mine.dtype, mine.shape, mine.tobytes()) == (
                theirs.dtype, theirs.shape, theirs.tobytes()
            ), name
        sent = [q.sender for q in honest[:kept] + crafted]
        assert replaced.nets[sent].tobytes() == fresh.nets[sent].tobytes()
        assert fresh.nets[[3, 4]].tobytes() == np.stack([q.net_grad for q in crafted]).tobytes()


SENDERS = 8  # clients of the sender-range rounds


@st.composite
def sent_rounds(draw):
    """A round of SENDERS clients: the packets sent (item ids and values
    alike, as int rows), the count keep_first keeps, the packets sent after
    it, each receiver's ascending neighbors and a pop fraction."""

    def packets(first):
        if first == SENDERS:
            return []
        senders = sorted(draw(st.lists(st.integers(first, SENDERS - 1), unique=True, max_size=6)))
        # a sender may send no rows
        return [(s, draw(st.lists(st.integers(0, 5), unique=True, max_size=4))) for s in senders]

    honest = packets(0)
    kept = draw(st.integers(0, len(honest)))
    resent = packets(honest[kept - 1][0] + 1 if kept else 0)
    # neighbor ids may exceed every sender (clients that sent no rows)
    receivers = draw(st.lists(st.lists(st.integers(0, SENDERS - 1), unique=True, min_size=1), min_size=1, max_size=4))
    nu = draw(st.sampled_from([0.1, 0.5, 1.0]))
    return honest, kept, resent, [sorted(r) for r in receivers], nu


def assert_refs_match_row_senders(rr, row_sender, neighbors):
    """refs_of agrees with a brute force over each row's sender: the rows
    of the neighbors, in row order, each neighbor's row count, and each
    row's sender position as the aggregators take it from the counts."""
    refs, counts = rr.refs_of(np.array(neighbors, dtype=np.int64))
    want = [j for j, s in enumerate(row_sender.tolist()) if s in neighbors]
    assert refs.tolist() == want
    assert counts.tolist() == [int(np.count_nonzero(row_sender == s)) for s in neighbors]
    positions = np.repeat(np.arange(len(neighbors)), counts)
    assert positions.tolist() == [neighbors.index(s) for s in row_sender[want].tolist()]


class TestSenderRanges:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(sent_rounds())
    def test_refs_of_matches_each_rows_sender(self, case):
        # After keep_first and re-sends, and after compaction, refs_of reads
        # from the sender ranges what a scan of every row's sender finds,
        # and each banked entry's sender is its row's.
        honest, kept, resent, receivers, nu = case
        sent = [
            packet(s, {i: np.array([float(s), float(i)]) for i in items}, np.zeros(2))
            for s, items in honest[:kept] + resent
        ]
        block = RoundBlock(40, 6, 2, SENDERS, 2)
        for q in sent[:kept]:
            block.send(q)
        for s, items in honest[kept:]:  # dropped: no row of theirs may show
            block.send(packet(s, {i: np.full(2, -1.0) for i in items}, np.zeros(2)))
        block.keep_first(kept)
        for q in sent[kept:]:
            block.send(q)
        row_sender = np.array([q.sender for q in sent for _ in q.item_idx], dtype=np.int64)
        rr = build_round_rows(block.round_rows(1), mu=np.inf, p=2, bank=True)
        assert len(rr.sender_start) == SENDERS + 1
        banks = [MemoryBank(2) for _ in receivers]
        for bank, neighbors in zip(banks, receivers):
            assert_refs_match_row_senders(rr, row_sender, neighbors)
            bank.ingest(rr, rr.refs_of(np.array(neighbors))[0])
            bank.pop_top_fraction(nu)
        held = np.unique(np.concatenate([np.zeros(0, dtype=np.int64)] + [
            rr.order[positions] for bank in banks for _, positions in bank.chunks()
        ]))
        compact_round_rows(rr, banks)
        small = next((chunk_rr for bank in banks for chunk_rr, _ in bank.chunks()), None)
        if small is not None:  # some bank holds a row: every row, or the held ones
            kept_rows = held if small is not rr else np.arange(len(row_sender))
            for neighbors in receivers:
                assert_refs_match_row_senders(small, row_sender[kept_rows], neighbors)
        for bank in banks:
            for _, sender, item, row in bank.entries():
                assert (sender, item) == tuple(row.astype(int))


def bank_with(entries, capacity=10):
    """entries: list of (round, sender, {item: row})"""
    bank = MemoryBank(capacity)
    by_round: dict[int, list] = {}
    for rnd, sender, rows in entries:
        by_round.setdefault(rnd, []).append(packet(sender, rows, np.zeros(2)))
    for rnd in sorted(by_round):
        rr = round_rows(by_round[rnd], rnd, mu=np.inf)
        bank.ingest(rr, np.arange(len(rr.items), dtype=np.int32))
    return bank


class TestMemoryBank:
    def test_ten_entries_ten_percent_pops_one(self):
        entries = [(1, s, {0: np.full(2, float(s + 1))}) for s in range(10)]
        bank = bank_with(entries)
        items, rows, _ = bank.pop_top_fraction(0.10)
        assert len(items) == 1
        assert np.allclose(rows[0], [10.0, 10.0])  # the largest norm
        assert bank.size() == 9

    def test_largest_norm_selected(self):
        entries = [(1, 0, {0: np.array([5.0, 0.0])})]
        entries += [(1, s, {0: np.array([1.0, 0.0])}) for s in range(1, 10)]
        bank = bank_with(entries)
        items, rows, _ = bank.pop_top_fraction(0.10)
        assert np.allclose(rows[0], [5.0, 0.0])

    def test_tie_break_insertion_order(self):
        entries = [(1, s, {s: np.array([1.0, 0.0])}) for s in range(4)]
        bank = bank_with(entries)
        items, _, _ = bank.pop_top_fraction(0.5)
        assert items.tolist() == [0, 1]  # earliest inserted win the tie

    def test_eviction_by_age(self):
        entries = [(1, 0, {0: np.ones(2)}), (5, 1, {1: np.ones(2)})]
        bank = bank_with(entries, capacity=3)
        bank.evict(current_round=5)
        kept = [(r, item) for r, _, item, _ in bank.entries()]
        assert kept == [(5, 1)]

    def test_retention_window_boundary(self):
        # At round t a bank keeps rounds t - capacity to t, capacity + 1
        # rounds: round t - capacity stays and round t - capacity - 1 goes.
        entries = [(r, r, {r: np.ones(2)}) for r in range(1, 7)]
        bank = bank_with(entries, capacity=3)
        bank.evict(current_round=6)
        assert sorted({r for r, _, _, _ in bank.entries()}) == [3, 4, 5, 6]

    def test_selection_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(1, 25))
            norms = rng.choice([0.5, 1.0, 2.0, 3.5], size=n)  # many ties
            entries = [
                (1, s, {int(rng.integers(0, 5)): np.array([norms[s], 0.0])})
                for s in range(n)
            ]
            nu = float(rng.uniform(0.05, 1.0))
            bank = bank_with(entries)
            stored = [(float(np.linalg.norm(row)), j) for j, (_, _, _, row) in enumerate(bank.entries())]
            expect_rows = brute_force_top_nu(stored, nu)
            items, rows, _ = bank.pop_top_fraction(nu)
            assert len(items) == len(expect_rows), f"trial {trial}"
            got = [float(np.linalg.norm(r)) for r in rows]
            want = sorted((stored[j][0] for j in expect_rows), reverse=True)
            assert got == want, f"trial {trial}"

    def test_conservation(self):
        # every ingested row is banked, evicted by age, or applied exactly once
        rng = np.random.default_rng(8)
        bank = MemoryBank(capacity_rounds=3)
        ingested = 0
        applied = 0
        evictable = 0
        for rnd in range(1, 12):
            pkts = random_packets(rng, 4, 5, 2, p_touch=0.6)
            rr = round_rows(pkts, rnd, mu=np.inf)
            before = bank.size()
            bank.ingest(rr, np.arange(len(rr.items), dtype=np.int32))
            ingested += len(rr.items)
            pre_evict = bank.size()
            bank.evict(rnd)
            evictable += pre_evict - bank.size()
            items, _, _ = bank.pop_top_fraction(0.3)
            applied += len(items)
        assert ingested == applied + evictable + bank.size()

    def test_rounds_ingested_in_increasing_order_once(self):
        bank = MemoryBank(capacity_rounds=3)
        rr1, rr2 = (round_rows(random_packets(np.random.default_rng(r), 3, 4, 2), r) for r in (1, 2))
        bank.ingest(rr2, np.arange(len(rr2.items)))
        for rr in (rr1, rr2):  # an earlier round, then the same round again
            with pytest.raises(ContractError):
                bank.ingest(rr, np.arange(len(rr.items)))
        # an empty ingest still takes its round
        bank.ingest(round_rows([], 3), np.zeros(0, dtype=np.int64))
        with pytest.raises(ContractError):
            bank.ingest(round_rows([], 3), np.zeros(0, dtype=np.int64))

    def test_memory_per_banked_entry(self):
        # About 1M entries from 10 shared rounds; the bank itself may add at
        # most 5 B per entry, also after pops leave remainders behind.
        rng = np.random.default_rng(9)
        n = 100_000
        rounds = [
            RoundRows(
                round=r,
                sender_start=np.arange(101) * (n // 100),
                items=rng.integers(0, 1000, size=n).astype(np.int32),
                rows=np.ones((n, 1)),
                row_norms=np.ones(n),
                **pop_fields(rng.choice([0.25, 0.5, 1.0], size=n) * rng.random(n)),
            )
            for r in range(1, 11)
        ]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bank = MemoryBank(capacity_rounds=10)
            for rr in rounds:
                bank.ingest(rr, np.arange(n))
            assert bank.size() == 10 * n
            assert tracemalloc.get_traced_memory()[0] - base <= 5 * bank.size()
            for _ in range(5):
                bank.pop_top_fraction(0.1)
            assert tracemalloc.get_traced_memory()[0] - base <= 5 * bank.size()
        finally:
            tracemalloc.stop()


def wide_round(rows: int = 70_000, senders: int = 700, seed: int = 14) -> RoundRows:
    """A banked RoundRows of more rows than one block of 0x10000 positions,
    with many tied pop keys."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, 2)) * rng.choice([0.5, 1.0], size=(rows, 1))
    return RoundRows(
        round=1,
        sender_start=np.arange(senders + 1) * (rows // senders),
        items=rng.integers(0, 50, size=rows).astype(np.int32),
        rows=values,
        row_norms=np.linalg.norm(values, axis=1),
        **pop_fields(np.minimum(np.linalg.norm(values, axis=1), 1.0)),
    )


def assert_pops_match(bank, ref, nu):
    want_items, want_rows = ref.pop(nu)
    got_items, got_rows, got_norms = bank.pop_top_fraction(nu)
    assert got_items.tolist() == want_items
    assert got_rows.tobytes() == np.array(want_rows).tobytes()
    assert got_norms.tobytes() == np.linalg.norm(np.array(want_rows), axis=1).tobytes()


class TestBankPositions:
    def test_two_bytes_iff_the_last_position_is_at_most_0xffff(self):
        # Ingest, a pop and compaction each store 2 bytes per position
        # exactly when the chunk's last position is at most 0xFFFF.
        rr = wide_round(rows=0x10010, senders=1)
        for first, last, width in ((0, 0xFFFF, 2), (0xFFFF, 0x10000, 4), (0x10000, 0x1000F, 4)):
            bank = MemoryBank(3)
            bank.ingest(rr, rr.order[[first, last]])
            assert bank.nbytes() == width * bank.size()
            assert bank.chunks()[0][1].tolist() == [first, last]
            bank.pop_top_fraction(0.5)  # drops first, keeps last and so the width
            assert bank.chunks()[0][1].tolist() == [last]
            assert bank.nbytes() == width * bank.size()
            compact_round_rows(rr, [bank])  # one row left, at position 0
            assert bank.chunks()[0][1].tolist() == [0]
            assert bank.nbytes() == 2 * bank.size()

    def test_chunk_above_0x10000_pops_and_compacts_as_the_reference(self):
        # Every position of the high chunk lies at or above 0x10000, so it
        # takes 4 bytes.  The full bank pops only 1%, so the compacted round
        # keeps more than 0x10000 rows and both chunks stay 4 bytes.
        rr = wide_round()
        high = rr.order[0x10000::3]
        full = np.arange(len(rr.items))
        banks, refs = [MemoryBank(3), MemoryBank(3)], [ReferenceBank(3), ReferenceBank(3)]
        for bank, ref, rows in zip(banks, refs, (high, full)):
            bank.ingest(rr, rows)
            ref.ingest(rr, np.sort(rows))
        assert banks[0].chunks()[0][1][0] >= 0x10000
        assert [b.nbytes() for b in banks] == [4 * len(high), 4 * len(full)]
        for bank, ref, nu in zip(banks, refs, (0.1, 0.01)):
            assert_pops_match(bank, ref, nu)
        compact_round_rows(rr, banks)
        assert_round_compacted(1, banks)
        assert len(banks[0].chunks()[0][0].items) > 0x10000
        for bank, ref in zip(banks, refs):
            assert bank.nbytes() == 4 * bank.size()
            kept = [(r, item, row.tobytes()) for r, _, item, row in bank.entries()]
            assert kept == [(r, item, row.tobytes()) for r, item, row, _ in ref.entries]
            for nu in (0.1, 0.5, 1.0):
                assert_pops_match(bank, ref, nu)
            assert bank.size() == bank.nbytes() == 0

    def test_wide_chunk_stores_four_bytes_and_pops_as_the_reference(self):
        rr = wide_round()
        refs, _ = rr.refs_of(np.arange(0, 700, 7))
        span = np.ptp(rr.rank[refs])
        assert len(rr.items) > 0x10000 and span > 0xFFFF
        bank, ref = MemoryBank(3), ReferenceBank(3)
        for b in (bank, ref):
            b.ingest(rr, refs)
        assert bank.nbytes() == 4 * bank.size() == 4 * len(refs)
        for nu in (0.1, 0.3, 0.1):
            assert_pops_match(bank, ref, nu)
            assert bank.nbytes() == 4 * bank.size()

    def test_compaction_re_encodes_a_wide_chunk_to_two_bytes(self):
        rr = wide_round()
        refs, _ = rr.refs_of(np.arange(0, 700, 7))
        bank, ref = MemoryBank(3), ReferenceBank(3)
        for b in (bank, ref):
            b.ingest(rr, refs)
        assert_pops_match(bank, ref, 0.1)
        assert bank.nbytes() == 4 * bank.size()
        compact_round_rows(rr, [bank])
        assert_round_compacted(1, [bank])
        assert bank.nbytes() == 2 * bank.size()
        kept = [(r, item, row.tobytes()) for r, _, item, row in bank.entries()]
        assert kept == [(r, item, row.tobytes()) for r, item, row, _ in ref.entries]
        for nu in (0.1, 0.5, 1.0):
            assert_pops_match(bank, ref, nu)
        assert bank.size() == bank.nbytes() == 0


class TestCompactRoundRows:
    def test_many_ties_match_reference(self):
        # Rows over mu clip to norm exactly mu, so most of each round's
        # ~600 rows tie: compaction must keep their order, and the banks
        # must keep popping and listing what the reference banks do.
        rng = np.random.default_rng(12)
        banks = [MemoryBank(2) for _ in range(3)]
        refs_banks = [ReferenceBank(2) for _ in range(3)]
        for t in range(1, 6):
            pkts = random_packets(rng, 60, 20, 2, p_touch=0.5)
            rr = round_rows(pkts, t, mu=1.0)
            assert len(rr.items) > 100 and np.count_nonzero(pop_key(rr) == 1.0) > 100
            for bank, ref in zip(banks, refs_banks):
                senders = np.sort(rng.choice(60, size=30, replace=False))
                refs, _ = rr.refs_of(senders)
                for b in (bank, ref):
                    b.ingest(rr, refs)
                    b.evict(t)
                want_items, want_rows = ref.pop(0.1)
                got_items, got_rows, got_norms = bank.pop_top_fraction(0.1)
                assert got_items.tolist() == want_items
                assert [r.tobytes() for r in got_rows] == [r.tobytes() for r in want_rows]
                # each popped row comes with its own norm, not the capped pop key
                assert got_norms.tobytes() == np.linalg.norm(got_rows, axis=1).tobytes()
            compact_round_rows(rr, banks)
            assert_round_compacted(t, banks)
            assert not any(chunk_rr is rr for b in banks for chunk_rr, _ in b.chunks())
            for bank, ref in zip(banks, refs_banks):
                kept = [(r, item, row.tobytes()) for r, _, item, row in bank.entries()]
                assert kept == [(r, item, row.tobytes()) for r, item, row, _ in ref.entries]

    @pytest.mark.parametrize("mu", [1.0, np.inf], ids=["tied", "distinct"])
    def test_pop_order_is_carried_over(self, mu):
        # The pop fields of a built round, and of its compaction, which
        # carries them over, are the stable argsort of the rows' keys
        # (pop_fields): with most keys tied at mu, and with every key
        # distinct.
        rng = np.random.default_rng(15)
        pkts = random_packets(rng, 60, 20, 2, p_touch=0.5)
        rr = round_rows(pkts, 1, mu=mu)
        raw = np.concatenate([q.item_rows for q in pkts])  # senders ascend already
        key = np.minimum(np.linalg.norm(raw, axis=1), mu)
        ties = len(key) - len(np.unique(key))
        assert ties > 100 if mu == 1.0 else ties == 0
        banks = [MemoryBank(2) for _ in range(3)]
        for bank in banks:
            bank.ingest(rr, rr.refs_of(np.sort(rng.choice(60, size=30, replace=False)))[0])
            bank.pop_top_fraction(0.1)
        held = np.unique(np.concatenate([rr.order[pos] for b in banks for _, pos in b.chunks()]))
        assert 0 < len(held) < len(key)
        compact_round_rows(rr, banks)
        small = banks[0].chunks()[0][0]
        assert small is not rr
        for got, keys in ((rr, key), (small, key[held])):
            for name, want in pop_fields(keys).items():
                value = getattr(got, name)
                assert (value.dtype, value.shape) == (want.dtype, want.shape), name
                assert value.tobytes() == want.tobytes(), name

    def test_only_each_banks_newest_chunk_changes(self):
        # Bank 2 banks round 2's top row, which outweighs every round-1 row
        # (clipped to 1), so its pop takes that row and leaves its round-1
        # chunk newest.  Compacting round 2 replaces banks 0 and 1's newest
        # chunks and nothing else.
        rng = np.random.default_rng(16)
        rr1 = round_rows(random_packets(rng, 20, 10, 2), 1)
        rr2 = round_rows(random_packets(rng, 20, 10, 2), 2, mu=np.inf)
        assert rr2.row_norms[rr2.order[0]] > 1.0
        banks = [MemoryBank(3) for _ in range(3)]
        for bank in banks:
            bank.ingest(rr1, rr1.refs_of(np.sort(rng.choice(20, size=10, replace=False)))[0])
            bank.pop_top_fraction(0.1)
        compact_round_rows(rr1, banks)
        for bank in banks[:2]:
            bank.ingest(rr2, rr2.refs_of(np.sort(rng.choice(20, size=10, replace=False)))[0])
            bank.pop_top_fraction(0.1)
        banks[2].ingest(rr2, rr2.order[:1])
        banks[2].pop_top_fraction(0.01)
        assert [len(b.chunks()) for b in banks] == [2, 2, 1]
        before = [[(chunk_rr, positions.tobytes()) for chunk_rr, positions in b._chunks] for b in banks]
        want = [[(r, s, i, row.tobytes()) for r, s, i, row in b.entries()] for b in banks]
        compact_round_rows(rr2, banks)
        for bank, chunks in zip(banks, before):
            now = [(chunk_rr, positions.tobytes()) for chunk_rr, positions in bank._chunks]
            assert [c[0] for c in now[:-1]] == [c[0] for c in chunks[:-1]]
            assert [c[1] for c in now[:-1]] == [c[1] for c in chunks[:-1]]
        assert all(b._chunks[-1][0] is not rr2 for b in banks[:2])
        assert banks[2]._chunks[-1][0] is before[2][-1][0]
        assert banks[2]._chunks[-1][1].tobytes() == before[2][-1][1]
        assert_round_compacted(2, banks)
        assert [[(r, s, i, row.tobytes()) for r, s, i, row in b.entries()] for b in banks] == want

    def test_fully_held_round_is_kept(self):
        bank = MemoryBank(3)
        rr = round_rows(random_packets(np.random.default_rng(13), 4, 5, 2), 1)
        bank.ingest(rr, np.arange(len(rr.items)))
        compact_round_rows(rr, [bank])
        assert bank.chunks()[0][0] is rr


class TestUcsuAggregate:
    def test_empty_everything_is_noop(self):
        bank = MemoryBank(10)
        # a receiver always has a neighbor; this one sent no rows
        items, rows = ucsu_aggregate(bank, *received([packet(0, {}, np.zeros(2))], mu=1.0, bank=True), nu=0.1)
        assert len(items) == 0

    def test_empty_bank_returns_rows_of_embed_dim(self):
        # No neighbor sent rows: the empty aggregate is shaped as every
        # other aggregator's.
        rr = round_rows([packet(0, {0: np.ones(3)}, np.zeros(2), dim=3)], clients=2)
        senders = np.array([1])
        items, rows = ucsu_aggregate(MemoryBank(10), rr, senders, nu=0.1)
        assert items.dtype == np.int64 and items.shape == (0,)
        assert rows.dtype == np.float64 and rows.shape == (0, 3)
        assert rows.shape == l2_clip_aggregate(rr, senders)[1].shape

    def test_single_round_lifecycle(self):
        bank = MemoryBank(10)
        pkts = [
            packet(0, {0: np.array([3.0, 4.0])}, np.zeros(2)),
            packet(1, {1: np.array([0.1, 0.0])}, np.zeros(2)),
        ]
        items, rows = ucsu_aggregate(bank, *received(pkts, mu=1.0, bank=True), nu=0.5)
        # the clipped (0.6, 0.8) row is the largest and is popped
        assert items.tolist() == [0]
        assert np.allclose(rows[0], [0.6, 0.8])
        assert bank.size() == 1

    def test_per_item_mean_of_selected(self):
        bank = MemoryBank(10)
        pkts = [
            packet(0, {0: np.array([0.8, 0.0])}, np.zeros(2)),
            packet(1, {0: np.array([0.6, 0.0])}, np.zeros(2)),
        ]
        items, rows = ucsu_aggregate(bank, *received(pkts, mu=10.0, bank=True), nu=1.0)
        # both rows selected; adaptive clip scales the larger to the mean norm
        assert items.tolist() == [0]
        assert rows[0][0] == pytest.approx((0.7 + 0.6) / 2.0)

    def test_retention_enables_later_application(self):
        bank = MemoryBank(capacity_rounds=10)
        big = packet(0, {0: np.array([0.9, 0.0])}, np.zeros(2))
        small = packet(1, {1: np.array([0.5, 0.0])}, np.zeros(2))
        items1, _ = ucsu_aggregate(bank, *received([big, small], mu=1.0, bank=True), nu=0.5)
        assert items1.tolist() == [0]
        quiet = packet(1, {}, np.zeros(2))  # round 2's neighbor sends no rows
        items2, _ = ucsu_aggregate(bank, *received([quiet], round_no=2, mu=1.0, bank=True), nu=1.0)
        assert items2.tolist() == [1]  # the held-back row surfaces later


# Rows over the mu = 1 bound clip to a pop key of exactly mu, so with
# clipping most keys tie; zero rows tie at 0.  mu = inf keeps every row.
BANK_VALUES = st.sampled_from([0.0, -0.0, 0.5, -1.0, 2.0, 3.0])


@st.composite
def bank_histories(draw):
    """Capacity, nu, mu, and rounds of (round no, packets, receiver's neighbors)."""
    capacity = draw(st.integers(1, 3))
    nu = draw(st.sampled_from([0.1, 0.3, 0.5, 1.0]))
    mu = draw(st.sampled_from([1.0, np.inf]))
    rounds = []
    t = 0
    for _ in range(draw(st.integers(1, 6))):
        t += draw(st.integers(1, 2))  # a skipped round lets eviction jump
        packets = []
        for sender in range(draw(st.integers(0, 6))):
            items = draw(st.lists(st.integers(0, 5), unique=True, max_size=4))
            rows = {i: np.array(draw(st.lists(BANK_VALUES, min_size=2, max_size=2))) for i in items}
            packets.append((sender, rows))
        # neighbor ids may exceed every sender (clients that sent no rows);
        # a receiver has at least one
        neighbors = sorted(draw(st.lists(st.integers(0, 7), unique=True, min_size=1)))
        rounds.append((t, packets, neighbors))
    return capacity, nu, mu, rounds


class TestBankAgainstReference:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(bank_histories())
    def test_rounds_of_ingest_evict_pop(self, history):
        capacity, nu, mu, rounds = history
        agg_bank = MemoryBank(capacity)  # driven through ucsu_aggregate
        bank = MemoryBank(capacity)  # driven step by step
        ref = ReferenceBank(capacity)
        for t, packets, neighbors in rounds:
            pkts = [packet(s, rows, np.zeros(2)) for s, rows in packets]
            rr = round_rows(pkts, t, mu=mu, clients=8)
            senders = np.array(neighbors, dtype=np.int64)
            refs, _ = rr.refs_of(senders)
            assert refs.tolist() == [j for j in range(len(rr.items)) if row_senders(rr)[j] in neighbors]

            items, rows = ucsu_aggregate(agg_bank, rr, senders, nu)
            bank.ingest(rr, refs)
            bank.evict(t)
            ref.ingest(rr, refs)
            ref.evict(t)
            assert bank.size() == len(ref.entries)
            want_items, want_rows = ref.pop(nu) if ref.entries else ([], [])

            got_items, got_rows, got_norms = bank.pop_top_fraction(nu)
            assert got_items.tolist() == want_items
            assert [r.tobytes() for r in got_rows] == [r.tobytes() for r in want_rows]
            assert got_norms.tobytes() == np.linalg.norm(got_rows, axis=1).tobytes()
            compact_round_rows(rr, [agg_bank, bank])
            assert_round_compacted(t, [agg_bank, bank])

            want_mean = {}
            if want_items:
                want_mean = per_item_mean_loop(want_items, adaptive_clip(np.array(want_rows)))
            assert items.tolist() == sorted(want_mean)
            assert [r.tobytes() for r in rows] == [want_mean[i].tobytes() for i in items.tolist()]

            for b in (agg_bank, bank):
                assert b.size() == len(ref.entries)
                kept = [(r, item, row.tobytes()) for r, _, item, row in b.entries()]
                assert kept == [(r, item, row.tobytes()) for r, item, row, _ in ref.entries]
