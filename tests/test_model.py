"""Scoring model: forward values, BPR loss, analytic gradients vs finite
differences and of an empty batch, scatter_add_rows vs np.add.at, Adam
local steps of a client as a block of one (compact item moments
included), and the neighbor update of defense none: the round rows'
plain mean applied by apply_neighbor_aggregate."""

import warnings

import numpy as np
import pytest

from decrecsim.errors import ContractError
from decrecsim.model import (
    GradientPacket,
    _backward,
    _forward,
    _sigmoid,
    bpr_loss,
    client_views,
    compute_gradients,
    local_train_step,
    scatter_add_rows,
    score_items,
)
from helpers import (
    absorb,
    assert_close_grad,
    block_of_one,
    full_bpr_fd_grads,
    init_client_state,
    make_state,
    min_preactivation,
    packet,
    predict_rating,
    random_pairs,
)


class TestPredict:
    def test_zero_net_gives_half(self):
        state = make_state(0, num_items=6, embed_dim=3, widths=(4, 4))
        state.net[:] = 0.0
        for item in range(6):
            assert predict_rating(state, item) == 0.5

    def test_identity_path_logit_one(self):
        # one relu path carries v through; u = (1), v = (1) -> logit u*v = 1
        state = make_state(0, num_items=3, embed_dim=1, widths=(2, 2, 2))
        state.user_vec[:] = 1.0
        state.item_table[:] = 0.0
        state.item_table[1, 0] = 1.0
        state.net[:] = 0.0
        ws, bs, w = state.layout.views(state.net)
        ws[0][0, 1] = 1.0  # pick the item half of [u, v]
        ws[1][0, 0] = 1.0
        ws[2][0, 0] = 1.0
        w[0] = 1.0
        assert predict_rating(state, 1) == pytest.approx(0.7310585786300049, abs=1e-12)

    def test_output_strictly_between_zero_and_one(self):
        for seed in range(5):
            state = make_state(seed, num_items=10)
            for item in (0, 3, 9):
                r = predict_rating(state, item)
                assert 0.0 < r < 1.0

    def test_out_of_range_item(self):
        state = make_state(1, num_items=4)
        with pytest.raises(IndexError):
            predict_rating(state, 4)

    def test_matches_scored_logits(self):
        # the oracle's per-item loop against the program's batched forward
        for seed in range(5):
            state = make_state(seed, num_items=10)
            logits = score_items(state)
            for item in range(10):
                assert predict_rating(state, item) == pytest.approx(
                    1.0 / (1.0 + np.exp(-logits[item])), abs=1e-14
                )

    def test_purity(self):
        state = make_state(2, num_items=8)
        before = (state.user_vec.copy(), state.item_table.copy(), state.net.copy())
        predict_rating(state, 3)
        bpr_loss(state, np.array([[0, 1], [2, 3]]))
        assert np.array_equal(before[0], state.user_vec)
        assert np.array_equal(before[1], state.item_table)
        assert np.array_equal(before[2], state.net)


class TestBprLoss:
    def test_identical_logits_ln2(self):
        state = make_state(3, num_items=6)
        state.item_table[4] = state.item_table[2]  # same embedding -> same logit
        loss = bpr_loss(state, np.array([[2, 4]]))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_limit_goes_to_zero(self):
        # identity path: logit equals the item embedding, so a huge positive
        # margin drives the pairwise loss toward 0
        state = make_state(4, num_items=3, embed_dim=1, widths=(2, 2, 2))
        state.user_vec[:] = 1.0
        state.item_table[:] = 0.0
        state.item_table[0, 0] = 10.0
        state.net[:] = 0.0
        ws, bs, w = state.layout.views(state.net)
        ws[0][0, 1] = 1.0
        ws[1][0, 0] = 1.0
        ws[2][0, 0] = 1.0
        w[0] = 1.0
        assert bpr_loss(state, np.array([[0, 1]])) < 0.01

    def test_duplication_invariance(self):
        state = make_state(5, num_items=10)
        pairs = random_pairs(np.random.default_rng(0), 10, 6)
        doubled = np.vstack([pairs, pairs])
        assert bpr_loss(state, pairs) == pytest.approx(bpr_loss(state, doubled), rel=1e-12)

    def test_empty_batch_rejected(self):
        state = make_state(6)
        with pytest.raises(ContractError, match="nonempty"):
            bpr_loss(state, np.empty((0, 2), dtype=np.int64))

    def test_equal_pos_neg_rejected(self):
        state = make_state(6)
        with pytest.raises(ContractError):
            bpr_loss(state, np.array([[1, 1]]))


class TestSigmoid:
    @staticmethod
    def two_branch(x):
        # The plain two-branch form: both branches evaluated everywhere.
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), np.exp(x) / (1.0 + np.exp(x)))

    def test_bits_match_two_branch_form(self):
        rng = np.random.default_rng(0)
        mags = 10.0 ** rng.uniform(-8, 3, size=1_000_000)  # 11 decades
        x = np.concatenate([
            mags * rng.choice([-1.0, 1.0], size=len(mags)),
            [0.0, -0.0, 700.0, -700.0, 1e308, -1e308, np.inf, -np.inf],
        ])
        assert _sigmoid(x).tobytes() == self.two_branch(x).tobytes()

    def test_scalar_input(self):
        for v in (-3.0, 0.0, 2.5):
            got = _sigmoid(v)
            assert got.shape == () and got.tobytes() == self.two_branch(np.float64(v)).tobytes()

    def test_no_warning_at_extremes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(np.array([800.0, -800.0, np.inf, -np.inf]))
        assert got.tolist() == [1.0, 0.0, 1.0, 0.0]


class TestGradients:
    def test_sparsity_by_construction(self):
        state = make_state(7, num_items=12)
        _, pkt = compute_gradients(state, np.array([[3, 7], [3, 7]]))
        assert pkt.item_idx.tolist() == [3, 7]

    def test_duplication_invariance(self):
        state = make_state(8, num_items=12)
        pairs = random_pairs(np.random.default_rng(1), 12, 5)
        g1, p1 = compute_gradients(state, pairs)
        g2, p2 = compute_gradients(state, np.vstack([pairs, pairs]))
        assert np.allclose(g1, g2, rtol=1e-12)
        assert np.allclose(p1.net_grad, p2.net_grad, rtol=1e-12)
        assert np.allclose(p1.item_rows, p2.item_rows, rtol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1234)
        checked = 0
        seed = 0
        while checked < 8:
            seed += 1
            state = make_state(seed, num_items=20, embed_dim=4, widths=(8, 6, 4))
            pairs = random_pairs(rng, 20, 4)
            items = np.concatenate([pairs[:, 0], pairs[:, 1]])
            if min_preactivation(state, items) < 1e-3:
                continue  # relu kink too close for finite differences
            user_grad, pkt = compute_gradients(state, pairs)
            fd_u, fd_v, fd_n = full_bpr_fd_grads(state, pairs)
            assert_close_grad(user_grad, fd_u)
            assert_close_grad(pkt.net_grad, fd_n)
            dense = np.zeros_like(state.item_table)
            dense[pkt.item_idx] = pkt.item_rows
            assert_close_grad(dense, fd_v)
            checked += 1

    @pytest.mark.parametrize(
        "pairs, message",
        [
            (np.array([0, 1]), r"an \(n, 2\) array of item pairs"),
            (np.array([[2, 2]]), "must differ"),
            (np.array([[0, 12]]), "out of range"),
            (np.array([[-1, 3]]), "out of range"),
        ],
        ids=["flat", "self-pair", "past-end", "negative"],
    )
    def test_bad_batch_rejected(self, pairs, message):
        state = make_state(8, num_items=12)
        with pytest.raises(ContractError, match=message):
            compute_gradients(state, pairs)

    def test_empty_batch_is_what_a_pairless_client_sends(self):
        # No item rows, int64 ids, a (0, d) float64 row block and +0.0 user
        # and net gradients, byte for byte, with no RuntimeWarning.
        state = make_state(8, num_items=12, embed_dim=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            user_grad, pkt = compute_gradients(state, np.empty((0, 2), dtype=np.int64), sender=3)
        assert user_grad.tobytes() == np.zeros(4).tobytes()
        assert pkt.sender == 3
        assert pkt.item_idx.dtype == np.int64 and pkt.item_idx.shape == (0,)
        assert pkt.item_rows.dtype == np.float64 and pkt.item_rows.shape == (0, 4)
        assert pkt.net_grad.shape == state.net.shape
        assert pkt.net_grad.tobytes() == np.zeros_like(state.net).tobytes()



class TestScatterAddRows:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bits_of_add_at(self, seed):
        # Random ids with repeats, and rows with +-0.0 entries: every sum
        # starts from +0.0 and adds its rows in input order, as np.add.at.
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, 15, size=60)
        rows = rng.normal(size=(60, 5)) * 10.0 ** rng.integers(-8, 8, size=(60, 5))
        rows[rng.random(size=rows.shape) < 0.2] = 0.0
        rows[rng.random(size=rows.shape) < 0.2] = -0.0
        uniq, sums, counts = scatter_add_rows(idx, rows)
        dense = np.zeros((15, 5))
        np.add.at(dense, idx, rows)
        want = np.unique(idx)
        assert uniq.tobytes() == want.tobytes()
        assert sums.tobytes() == dense[want].tobytes()
        assert counts.tobytes() == np.bincount(idx)[want].tobytes()

    def test_empty_input(self):
        uniq, sums, counts = scatter_add_rows(np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
        assert uniq.dtype == counts.dtype == np.int64
        assert sums.dtype == np.float64
        assert (uniq.shape, sums.shape, counts.shape) == ((0,), (0, 3), (0,))

def step_alone(state, pairs, lr, update_user=True):
    """One local step of state alone, as a block of one with moments over
    every item: the stepped client's view."""
    block, opt = block_of_one(state, np.arange(state.num_items))
    local_train_step(block, pairs[None], opt, lr, update_user=update_user)
    return client_views(block, 0)


class TestLocalTrainStep:
    def test_lr_zero_is_identity(self):
        state = make_state(9, num_items=10)
        after = step_alone(state, np.array([[0, 1], [2, 3]]), lr=0.0)
        assert np.array_equal(after.user_vec, state.user_vec)
        assert np.array_equal(after.item_table, state.item_table)
        assert np.array_equal(after.net, state.net)

    def test_zero_gradient_fixed_point(self):
        state = make_state(10, num_items=10)
        state.net[:] = 0.0  # all logits 0 and relu-dead: every gradient is 0
        after = step_alone(state, np.array([[0, 1]]), lr=1e-3)
        assert np.array_equal(after.user_vec, state.user_vec)
        assert np.array_equal(after.item_table, state.item_table)
        assert np.array_equal(after.net, state.net)

    def test_descent_on_toy_states(self):
        # production dimensions at a small item count; one Adam step on a
        # fresh state should not increase the batch loss
        wins = 0
        for seed in range(100):
            state = init_client_state(50, 32, [64, 32, 16], np.random.default_rng(seed))
            pairs = random_pairs(np.random.default_rng(1000 + seed), 50, 32)
            after = step_alone(state, pairs, lr=1e-3)
            wins += bpr_loss(after, pairs) <= bpr_loss(state, pairs)
        assert wins >= 95

    def test_update_user_flag(self):
        state = make_state(11, num_items=10)
        after = step_alone(state, np.array([[0, 1]]), lr=1e-3, update_user=False)
        assert np.array_equal(after.user_vec, state.user_vec)
        assert not np.array_equal(after.net, state.net)

    def test_one_client_state_rejected(self):
        # local_train_step takes blocks only; a client's own views are not one
        block, opt = block_of_one(make_state(12, num_items=10), np.arange(10))
        with pytest.raises(ContractError, match="block"):
            local_train_step(client_views(block, 0), np.array([[0, 1]]), opt, lr=1e-3)


class TestReluMasking:
    """_forward and _backward have the bits of the np.where masking forms."""

    @staticmethod
    def where_forward(state, items):
        k = state.layout.embed_dim
        x = np.empty((len(items), 2 * k))
        x[:, :k] = state.user_vec
        x[:, k:] = state.item_table[items]
        ws, bs, w = state.layout.views(state.net)
        inputs, masks, h = [x], [], x
        for mat, b in zip(ws, bs):
            a = h @ mat.T + b
            mask = a >= 0.0
            h = np.where(mask, a, 0.0)
            masks.append(mask)
            inputs.append(h)
        return inputs[-1] @ w, inputs, masks

    @staticmethod
    def where_backward(state, inputs, masks, g):
        ws, _, w = state.layout.views(state.net)
        k = state.layout.embed_dim
        net_grad = np.zeros(state.layout.size)
        gws, gbs, gw = state.layout.views(net_grad)
        gw[...] = inputs[-1].T @ g
        dh = g[:, None] * w[None, :]
        for li in range(len(ws) - 1, -1, -1):
            da = np.where(masks[li], dh, 0.0)
            gws[li][...] = da.T @ inputs[li]
            gbs[li][...] = da.sum(axis=0)
            dh = da @ ws[li]
        return net_grad, dh[:, :k].sum(axis=0), dh[:, k:]

    def states(self):
        for seed in range(4):
            yield make_state(seed, num_items=50, embed_dim=8, widths=(16, 8, 4))
        # freshly initialised: zero biases, small weights
        yield init_client_state(50, 8, [16, 8, 4], np.random.default_rng(9))
        # negative biases leave whole rows of units masked
        state = make_state(5, num_items=50, embed_dim=8, widths=(16, 8, 4))
        for b in state.layout.views(state.net)[1]:
            b -= 0.6
        yield state

    def test_bits_match_where_forms(self):
        rng = np.random.default_rng(3)
        for state in self.states():
            for size in (1, 7, 64):
                items = rng.integers(0, 50, size=size)
                z, inputs, masks = _forward(state, items)
                want_z, want_inputs, want_masks = self.where_forward(state, items)
                assert z.tobytes() == want_z.tobytes()
                for got, want in zip(inputs + masks, want_inputs + want_masks, strict=True):
                    assert got.tobytes() == want.tobytes()
                g = rng.normal(size=size) * rng.choice([0.0, 1.0], size=size)
                got_grads = _backward(state, inputs, masks, g)
                want_grads = self.where_backward(state, inputs, masks, g)
                for got, want in zip(got_grads, want_grads, strict=True):
                    assert got.tobytes() == want.tobytes()

    def test_non_finite_values_pass_the_mask(self):
        # The bits agree only for finite values: a NaN pre-activation and a
        # masked inf or NaN gradient now pass on where np.where gave 0.
        state = make_state(0, num_items=50, embed_dim=8, widths=(16, 8, 4))
        state.layout.views(state.net)[1][0][0] = np.nan
        items = np.arange(5)
        _, inputs, masks = _forward(state, items)
        _, want_inputs, _ = self.where_forward(state, items)
        assert np.isnan(inputs[1][:, 0]).all()
        assert (want_inputs[1][:, 0] == 0.0).all()

        state = make_state(0, num_items=50, embed_dim=8, widths=(16, 8, 4))
        _, inputs, masks = _forward(state, items)
        layer = len(masks) - 1
        assert not masks[layer].all()
        state.layout.views(state.net)[2][...] = np.inf
        g = np.ones(len(items))
        with np.errstate(invalid="ignore"):
            got = _backward(state, inputs, masks, g)
            want = self.where_backward(state, inputs, masks, g)
        # the last layer's bias gradient sums dh over rows, masked ones included
        bias_grad = state.layout.views(got[0])[1][layer]
        want_bias_grad = state.layout.views(want[0])[1][layer]
        masked_unit = np.flatnonzero(~masks[layer].any(axis=0))
        assert masked_unit.size
        assert not np.isnan(want_bias_grad[masked_unit]).any()
        assert np.isnan(bias_grad[masked_unit]).all()


def dense_moments(opt, num_items):
    """(m_items, v_items) scattered back to (num_items, dim), absent rows zero."""
    m = np.zeros((num_items, opt.m_items.shape[1]))
    v = np.zeros_like(m)
    m[opt.rows] = opt.m_items
    v[opt.rows] = opt.v_items
    return m, v


class TestCompactMoments:
    def test_bit_identical_to_full_cover(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            num_items = int(rng.integers(3, 40))
            pairs = random_pairs(rng, num_items, int(rng.integers(1, 60)))
            state = make_state(seed, num_items=num_items)
            full, opt_full = block_of_one(state, np.arange(num_items))
            compact, opt_compact = block_of_one(state, np.unique(pairs))
            assert opt_compact.m_items.shape == (len(np.unique(pairs)), state.layout.embed_dim)
            lr = float(rng.choice([1e-3, 1e-2, 0.1]))
            for _ in range(int(rng.integers(1, 4))):
                shuffled = pairs[rng.permutation(len(pairs))]
                batch = int(rng.integers(1, 9))
                update_user = bool(rng.integers(2))
                for start in range(0, len(shuffled), batch):
                    for block, opt in ((full, opt_full), (compact, opt_compact)):
                        local_train_step(
                            block, shuffled[None, start:start + batch], opt, lr, update_user=update_user
                        )
            for name in ("user_vec", "item_table", "net"):
                assert getattr(full, name).tobytes() == getattr(compact, name).tobytes()
            assert opt_full.t == opt_compact.t
            for name in ("m_user", "v_user", "m_net", "v_net"):
                assert getattr(opt_full, name).tobytes() == getattr(opt_compact, name).tobytes()
            for a, b in zip(dense_moments(opt_compact, num_items), (opt_full.m_items, opt_full.v_items)):
                assert a.tobytes() == b.tobytes()

    def test_uncovered_item_rejected_and_nothing_moves(self):
        state = make_state(18, num_items=10)
        block, opt = block_of_one(state, np.array([1, 4, 7]))
        for pairs in ([[4, 5]], [[8, 1]], [[0, 7]], [[1, 4], [7, 9]]):
            with pytest.raises(ContractError, match="do not cover"):
                local_train_step(block, np.array([pairs]), opt, lr=0.1)
        bare, bare_opt = block_of_one(state, np.zeros(0, dtype=np.int64))
        with pytest.raises(ContractError, match="do not cover"):
            local_train_step(bare, np.array([[[2, 3]]]), bare_opt, lr=0.1)
        assert opt.t == 0 and not opt.m_items.any() and not opt.m_user.any() and not opt.m_net.any()
        for name in ("user_vec", "item_table", "net"):
            assert getattr(block, name)[0].tobytes() == getattr(state, name).tobytes()
        local_train_step(block, np.array([[[1, 7]]]), opt, lr=0.1)
        assert opt.t == 1 and opt.m_items[[0, 2]].any(axis=1).all() and not opt.m_items[1].any()


class TestAggregate:
    def test_hand_mean(self):
        state = make_state(12, num_items=4, embed_dim=2, widths=(3,))
        table_before = state.item_table.copy()
        net = np.zeros_like(state.net)
        p1 = packet(0, {0: np.array([1.0, 1.0])}, net)
        p2 = packet(1, {0: np.array([3.0, 3.0])}, net)
        absorb(state, [p1, p2], lr=1.0)
        assert np.allclose(state.item_table[0], table_before[0] - np.array([2.0, 2.0]))
        assert np.array_equal(state.item_table[1:], table_before[1:])

    def test_absent_rows_count_in_denominator(self):
        state = make_state(13, num_items=4, embed_dim=2, widths=(3,))
        table_before = state.item_table.copy()
        net = np.zeros_like(state.net)
        p1 = packet(0, {2: np.array([4.0, 0.0])}, net)
        p2 = packet(1, {}, net)
        absorb(state, [p1, p2], lr=1.0)
        assert np.allclose(state.item_table[2], table_before[2] - np.array([2.0, 0.0]))

    def test_zero_packet_noop(self):
        state = make_state(14, num_items=4, embed_dim=2, widths=(3,))
        before = state.copy()
        p = packet(0, {1: np.zeros(2)}, np.zeros_like(state.net))
        absorb(state, [p], lr=0.5)
        assert np.array_equal(before.item_table, state.item_table)
        assert np.array_equal(before.net, state.net)

    def test_permutation_bit_identical(self):
        rng = np.random.default_rng(5)
        state_a = make_state(15, num_items=6, embed_dim=3, widths=(4,))
        state_b = state_a.copy()
        pkts = [
            packet(s, {int(i): rng.normal(size=3) for i in rng.integers(0, 6, 3)},
                   rng.normal(size=state_a.layout.size))
            for s in range(5)
        ]
        absorb(state_a, pkts, lr=0.1)
        absorb(state_b, list(reversed(pkts)), lr=0.1)
        assert np.array_equal(state_a.item_table, state_b.item_table)
        assert np.array_equal(state_a.net, state_b.net)

    def test_user_untouched(self):
        state = make_state(16, num_items=4, embed_dim=2, widths=(3,))
        u = state.user_vec.copy()
        p = packet(0, {0: np.ones(2)}, np.ones_like(state.net))
        absorb(state, [p], lr=0.1)
        assert np.array_equal(u, state.user_vec)

    def test_shape_mismatch_rejected(self):
        state = make_state(17, num_items=4, embed_dim=2, widths=(3,))
        bad = packet(0, {0: np.ones(2)}, np.ones(3))
        before = state.copy()
        with pytest.raises(ContractError, match="net gradient shape"):
            absorb(state, [bad], lr=0.1)
        with pytest.raises(ContractError, match="at least one packet"):
            absorb(state, [], lr=0.1)
        assert np.array_equal(before.item_table, state.item_table)
        assert np.array_equal(before.net, state.net)

    def test_packets_never_carry_user_embedding(self):
        fields = {f.name for f in GradientPacket.__dataclass_fields__.values()}
        assert fields == {"sender", "item_idx", "item_rows", "net_grad"}
