"""Adversary construction, diversity updates, substitutes, and poisoning."""

import dataclasses
import math

import numpy as np
import pytest

from decrecsim.attacks import (
    AdversaryState,
    AttackCoordinator,
    adversary_collab_update,
    baseline_poison,
    build_adversary_dataset,
    eq8_loss,
    pamn_poison,
    rate_loss,
    select_substitute_items,
    update_adversary_user_embedding,
)
from decrecsim.errors import ConfigError, ContractError
from decrecsim.metrics import top_k_list
from decrecsim.model import GradientPacket, compute_gradients, score_items
from helpers import (
    absorb,
    assert_close_grad,
    fd_scalar,
    init_client_state,
    make_state,
    min_preactivation,
    packet,
    predict_rating,
    reference_pamn_poison,
    round_rows,
)


def make_adv(seed, num_items=20, alpha=6, targets=(1, 4), strategy="pamn", scale=0.5):
    targets = np.asarray(targets, dtype=np.int64)
    positives, pairs = build_adversary_dataset(
        num_items, targets, alpha, seed=seed * 7 + 1, neg_ratio=2,
        include_targets=(strategy == "ra"),
    )
    return AdversaryState(
        client_id=100 + seed,
        base=make_state(seed, num_items=num_items, embed_dim=4, widths=(8, 6, 4), scale=scale),
        positives=positives,
        pairs=pairs,
    )


class TestBuildDataset:
    def test_alpha_count_and_target_exclusion(self):
        targets = np.array([2, 5])
        # (neg_ratio, negatives per positive): the 8-item pool caps the draw
        for neg_ratio, per_positive in ((4, 4), (0, 0), (10, 8)):
            positives, pairs = build_adversary_dataset(40, targets, 30, seed=1, neg_ratio=neg_ratio)
            assert len(positives) == 30
            assert not set(positives.tolist()) & {2, 5}
            assert not set(pairs[:, 1].tolist()) & {2, 5}
            assert pairs.shape == (per_positive * 30, 2) and pairs.dtype == np.int64

    def test_alpha_zero(self):
        positives, pairs = build_adversary_dataset(10, np.array([0]), 0, seed=2)
        assert len(positives) == 0
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64

    def test_determinism(self):
        a = build_adversary_dataset(30, np.array([1]), 10, seed=3)
        b = build_adversary_dataset(30, np.array([1]), 10, seed=3)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_ra_includes_targets(self):
        targets = np.array([2, 5])
        positives, _ = build_adversary_dataset(30, targets, 10, seed=4, include_targets=True)
        assert {2, 5} <= set(positives.tolist())

    def test_alpha_too_large(self):
        with pytest.raises(ContractError):
            build_adversary_dataset(10, np.array([0, 1]), 9, seed=5)


def collab_update(adv, pkts, lr):
    """adversary_collab_update over the unclipped round rows of pkts, every
    sender a neighbor, with the senders' mean net gradient."""
    layout = adv.base.layout
    rr = round_rows(
        pkts, mu=np.inf, bank=False, num_items=adv.base.num_items,
        embed_dim=layout.embed_dim, net_size=layout.size,
    )
    ordered = sorted(pkts, key=lambda q: q.sender)
    senders = np.array([q.sender for q in ordered], dtype=np.int64)
    net_mean = np.stack([q.net_grad for q in ordered]).mean(axis=0)
    adversary_collab_update(adv, rr, senders, net_mean, lr)


def neighbor_packets(adv, case):
    """Packets an adversary's neighbors send: rows that share items across
    senders, with magnitudes over 12 decades so the sum order shows in the
    bits; with-pairless adds a pairless neighbor's packet (from an empty
    batch), and no-rows is a neighbor set of pairless clients only."""
    rng = np.random.default_rng(len(case))
    size, dim, num_items = adv.base.layout.size, adv.base.layout.embed_dim, adv.base.num_items
    empty = np.zeros((0, 2), dtype=np.int64)
    pairless = [compute_gradients(adv.base, empty, sender=s)[1] for s in (4, 9)]
    if case == "no-rows":
        return pairless
    pkts = []
    for sender in (2, 5, 8, 11):
        items = np.sort(rng.choice(num_items, size=8, replace=False))
        rows = rng.normal(size=(8, dim)) * 10.0 ** rng.integers(-6, 6, size=(8, 1))
        rows[0, 0] = -0.0
        pkts.append(GradientPacket(sender, items, rows, rng.normal(size=size)))
    return pkts + pairless[:1] if case == "with-pairless" else pkts


class TestCollabUpdate:
    @pytest.mark.parametrize("case", ["rows", "with-pairless", "no-rows"])
    def test_bytes_of_absorb_over_unclipped_round_rows(self, case):
        adv = make_adv(3)
        pkts = neighbor_packets(adv, case)
        mirror = adv.base.copy()
        collab_update(adv, pkts, lr=0.05)
        absorb(mirror, pkts, lr=0.05)
        for got, want in zip(
            (adv.base.item_table, adv.base.net, adv.base.user_vec),
            (mirror.item_table, mirror.net, mirror.user_vec),
        ):
            assert got.tobytes() == want.tobytes()
        if case == "no-rows":  # only the net moves
            assert make_adv(3).base.item_table.tobytes() == adv.base.item_table.tobytes()

    def test_no_packets_rejected(self):
        adv = make_adv(4)
        with pytest.raises(ContractError, match="at least one packet"):
            adversary_collab_update(
                adv, round_rows([]), np.zeros(0, dtype=np.int64), np.zeros(adv.base.layout.size), 0.1
            )

    def test_bit_identical_to_model_aggregate(self):
        adv = make_adv(0)
        mirror = adv.base.copy()
        pkts = [
            packet(3, {0: np.array([2.0, 0.0, 0.0, 0.0])}, np.zeros(adv.base.layout.size), dim=4),
            packet(7, {0: np.array([0.0, 2.0, 0.0, 0.0]), 5: np.ones(4)},
                   np.ones(adv.base.layout.size), dim=4),
        ]
        collab_update(adv, pkts, lr=0.05)
        absorb(mirror, pkts, lr=0.05)
        assert np.array_equal(adv.base.item_table, mirror.item_table)
        assert np.array_equal(adv.base.net, mirror.net)
        assert np.array_equal(adv.base.user_vec, mirror.user_vec)

    def test_hand_mean(self):
        adv = make_adv(1)
        before = adv.base.item_table[0].copy()
        pkts = [
            packet(0, {0: np.array([2.0, 0.0, 0.0, 0.0])}, np.zeros(adv.base.layout.size), dim=4),
            packet(1, {0: np.array([0.0, 2.0, 0.0, 0.0])}, np.zeros(adv.base.layout.size), dim=4),
        ]
        collab_update(adv, pkts, lr=1.0)
        assert np.allclose(adv.base.item_table[0], before - np.array([1.0, 1.0, 0.0, 0.0]))


class TestUserEmbeddingUpdate:
    def test_lambda_zero_is_plain_bpr_step(self):
        adv = make_adv(2)
        grad, _ = compute_gradients(adv.base, adv.pairs)
        expect = adv.base.user_vec - 0.01 * grad
        coord = AttackCoordinator(embeddings={adv.client_id: adv.base.user_vec.copy()}, lam=0.0)
        update_adversary_user_embedding(adv, coord, lr=0.01)
        assert np.allclose(adv.base.user_vec, expect, atol=1e-15)

    def test_repulsion_increases_distance(self):
        # isolate the repulsion term by differencing against the lam=0 step
        for seed in range(10):
            a = make_adv(seed)
            b = make_adv(seed + 50)
            emb = {a.client_id: a.base.user_vec.copy(), b.client_id: b.base.user_vec.copy()}
            d0 = np.linalg.norm(emb[a.client_id] - emb[b.client_id])

            a_rep, a_plain = a.base.user_vec.copy(), a.base.user_vec.copy()
            b_rep, b_plain = b.base.user_vec.copy(), b.base.user_vec.copy()
            for adv, rep_vec, plain_vec in ((a, a_rep, a_plain), (b, b_rep, b_plain)):
                adv.base.user_vec = rep_vec.copy()
                update_adversary_user_embedding(
                    adv, AttackCoordinator(embeddings=emb, lam=0.5), lr=0.01
                )
                rep_vec[:] = adv.base.user_vec
                adv.base.user_vec = plain_vec.copy()
                update_adversary_user_embedding(
                    adv, AttackCoordinator(embeddings=emb, lam=0.0), lr=0.01
                )
                plain_vec[:] = adv.base.user_vec
            # the pure repulsion displacement strictly widens the gap
            gap_rep = np.linalg.norm(
                (a_rep - a_plain + emb[a.client_id]) - (b_rep - b_plain + emb[b.client_id])
            )
            assert gap_rep > d0

    def test_zero_distance_term_is_dropped(self):
        adv = make_adv(3)
        same = adv.base.user_vec.copy()
        coord0 = AttackCoordinator(embeddings={0: same.copy(), 1: same.copy()}, lam=5.0)
        coord_off = AttackCoordinator(embeddings={}, lam=0.0)
        u0 = adv.base.user_vec.copy()
        update_adversary_user_embedding(adv, coord0, lr=0.01)
        with_reg = adv.base.user_vec.copy()
        adv.base.user_vec = u0.copy()
        update_adversary_user_embedding(adv, coord_off, lr=0.01)
        assert np.allclose(with_reg, adv.base.user_vec, atol=1e-15)

    def test_eq8_gradient_matches_finite_differences(self):
        checked = 0
        seed = 0
        while checked < 6:
            seed += 1
            adv = make_adv(seed)
            items = np.concatenate([adv.pairs[:, 0], adv.pairs[:, 1]])
            if min_preactivation(adv.base, items) < 1e-3:
                continue
            other = np.random.default_rng(seed).normal(size=4)
            coord = AttackCoordinator(
                embeddings={adv.client_id: adv.base.user_vec.copy(), 999: other}, lam=0.3
            )
            grad, _ = compute_gradients(adv.base, adv.pairs)
            from decrecsim.attacks import _repulsion_direction

            analytic = grad - coord.lam * _repulsion_direction(
                adv.base.user_vec, coord.embeddings, 2
            )
            fd = fd_scalar(lambda: eq8_loss(adv, coord), adv.base.user_vec)
            assert_close_grad(analytic, fd)
            checked += 1


def identity_state(values):
    """State whose logit for item i is max(values[i], 0)."""
    state = make_state(0, num_items=len(values), embed_dim=1, widths=(2, 2, 2))
    state.user_vec[:] = 1.0
    state.item_table[:, 0] = values
    state.net[:] = 0.0
    ws, _, w = state.layout.views(state.net)
    ws[0][0, 1] = 1.0
    ws[1][0, 0] = 1.0
    ws[2][0, 0] = 1.0
    w[0] = 1.0
    return state


class TestSubstituteItems:
    def test_toy_ranking(self):
        # item 0 is the target; candidates 1..4 have descending cosine to it
        state = make_state(0, num_items=6, embed_dim=2, widths=(4, 3))
        angles = {1: 0.2, 2: 0.5, 3: 1.2, 4: 1.4}
        state.item_table[0] = [1.0, 0.0]
        for item, ang in angles.items():
            state.item_table[item] = [np.cos(ang), np.sin(ang)]
        state.item_table[5] = [-1.0, 0.0]
        adv = AdversaryState(
            client_id=0, base=state,
            positives=np.zeros(0, dtype=np.int64),
            pairs=np.empty((0, 2), dtype=np.int64),
        )
        subs = select_substitute_items(adv, np.array([0]), s=2)
        ratings = score_items(state)
        med = np.median(ratings[[1, 2, 3, 4, 5]])
        eligible = [i for i in (1, 2, 3, 4, 5) if ratings[i] > med]
        by_sim = sorted(eligible, key=lambda i: -float(
            state.item_table[i] @ state.item_table[0]
            / (np.linalg.norm(state.item_table[i]) * np.linalg.norm(state.item_table[0]))
        ))
        assert subs.tolist() == sorted(by_sim[:2])

    def test_never_contains_targets(self):
        for seed in range(10):
            adv = make_adv(seed)
            subs = select_substitute_items(adv, np.array([1, 4]), s=5)
            assert not set(subs.tolist()) & {1, 4}

    def test_s_zero_empty(self):
        adv = make_adv(4)
        assert len(select_substitute_items(adv, np.array([1]), s=0)) == 0

    def test_fewer_candidates_returns_all(self):
        adv = make_adv(5, num_items=5, alpha=0, targets=(0,))
        subs = select_substitute_items(adv, np.array([0]), s=50)
        assert len(subs) <= 4


class TestRateLoss:
    def test_matches_naive_double_loop(self):
        state = make_state(6, num_items=12)
        comps = np.array([0, 3, 5])
        promoted = np.array([7, 9])
        z = score_items(state)
        naive = 0.0
        for j in comps.tolist():
            for t in promoted.tolist():
                naive += 1.0 / (1.0 + math.exp(-(z[j] - z[t])))
        assert rate_loss(state, comps, promoted) == pytest.approx(naive, rel=1e-12)

    def test_empty_substitute_set_reduces_to_base_objective(self):
        state = make_state(7, num_items=12)
        comps = np.array([0, 1, 2])
        targets = np.array([5, 6])
        with_empty_si = rate_loss(state, comps, np.union1d(targets, np.zeros(0, dtype=np.int64)))
        base = rate_loss(state, comps, targets)
        assert with_empty_si == base

    def test_empty_sets_zero(self):
        state = make_state(8, num_items=6)
        assert rate_loss(state, np.zeros(0, dtype=np.int64), np.array([1])) == 0.0


class TestPamnPoison:
    def test_targets_filling_top_list_yields_zero_packet(self):
        values = [0.1, 0.2, 5.0, 6.0, 0.05, 0.0]
        state = identity_state(values)
        adv = AdversaryState(
            client_id=9, base=state,
            positives=np.zeros(0, dtype=np.int64),
            pairs=np.empty((0, 2), dtype=np.int64),
        )
        targets = np.array([2, 3])
        top = top_k_list(state, 2, exclude=np.zeros(0, dtype=np.int64))
        assert set(top.tolist()) == {2, 3}
        pkt = pamn_poison(adv, targets, top_k=2, e_ft=3, lr=0.01)
        assert len(pkt.item_idx) == 0
        assert not pkt.net_grad.any()

    def test_own_target_rating_non_decreasing(self):
        # PAMN promises promotion, i.e. rank: the targets rise against the
        # adversary's own top list.  Their absolute ratings may still fall,
        # because the fine-tune also steps the shared scoring net, which
        # moves every item's logit; so the targets' standing is measured
        # against the competitors of the top-5 list taken before the
        # fine-tune.  Seeds whose packet is empty changed nothing and are
        # not counted as wins.
        targets = np.array([3, 11])
        moved = loss_wins = gap_wins = 0
        trials = 40

        def rating_gap(state, competitors):
            return np.mean([predict_rating(state, t) for t in targets]) - np.mean(
                [predict_rating(state, c) for c in competitors]
            )

        for seed in range(trials):
            adv = make_adv(seed, num_items=30, alpha=8, targets=(3, 11))
            adv.substitute_items = select_substitute_items(adv, targets, s=3)
            top = top_k_list(adv.base, 5, exclude=np.zeros(0, dtype=np.int64))
            competitors = top[~np.isin(top, targets)]
            loss_before = rate_loss(adv.base, competitors, targets)
            gap_before = rating_gap(adv.base, competitors)
            pkt = pamn_poison(adv, targets, top_k=5, e_ft=5, lr=1e-3)
            if len(pkt.item_idx) == 0 and not pkt.net_grad.any():
                continue
            moved += 1
            loss_wins += rate_loss(adv.base, competitors, targets) <= loss_before + 1e-12
            gap_wins += rating_gap(adv.base, competitors) >= gap_before - 1e-12
        assert moved >= math.ceil(0.75 * trials)
        assert loss_wins >= math.ceil(0.95 * moved)
        assert gap_wins >= math.ceil(0.95 * moved)

    def test_packet_shapes_match_benign(self):
        adv = make_adv(9)
        adv.substitute_items = np.array([7])
        pkt = pamn_poison(adv, np.array([1, 4]), top_k=5, e_ft=2, lr=1e-3)
        _, honest = compute_gradients(adv.base, adv.pairs)
        assert pkt.net_grad.shape == honest.net_grad.shape
        assert pkt.item_rows.shape[1] == honest.item_rows.shape[1]
        assert pkt.item_idx.dtype == honest.item_idx.dtype

    def test_delta_encoding_reproduces_update(self):
        adv = make_adv(10)
        adv.substitute_items = np.zeros(0, dtype=np.int64)
        before = adv.base.copy()
        pkt = pamn_poison(adv, np.array([1, 4]), top_k=4, e_ft=3, lr=1e-3)
        # a receiver applying the lone packet at the same lr lands on the
        # adversary's fine-tuned parameters
        receiver = before
        absorb(receiver, [pkt], lr=1e-3)
        assert np.allclose(receiver.item_table, adv.base.item_table, atol=1e-12)
        assert np.allclose(receiver.net, adv.base.net, atol=1e-12)


def production_adv(seed, num_items=200, num_targets=3, substitutes=10, strategy="pamn"):
    """An adversary at production widths (embed_dim 32, net 64-32-16), drawn
    as a world draws a client, with cold random targets and its substitutes."""
    rng = np.random.default_rng(seed)
    state = init_client_state(num_items, 32, [64, 32, 16], rng)
    targets = np.sort(rng.choice(num_items, size=num_targets, replace=False))
    positives, pairs = build_adversary_dataset(num_items, targets, 12, seed=seed)
    adv = AdversaryState(
        client_id=500 + seed, base=state, positives=positives, pairs=pairs,
        fixed_user=(strategy == "psmu"),
    )
    adv.substitute_items = select_substitute_items(adv, targets, s=substitutes)
    return adv, targets


def assert_pamn_matches_reference(adv, targets, strategy, top_k, e_ft, lr):
    want = adv.base.copy()
    if strategy == "pamn":
        pkt = pamn_poison(adv, targets, top_k, e_ft, lr)
    else:
        pkt = baseline_poison(adv, targets, strategy, top_k, e_ft, lr)
    idx, rows, net_grad = reference_pamn_poison(
        want, targets, adv.substitute_items, adv.positives, top_k, e_ft, lr
    )
    assert pkt.sender == adv.client_id
    assert pkt.item_idx.dtype == idx.dtype and pkt.item_idx.tobytes() == idx.tobytes()
    assert pkt.item_rows.shape == rows.shape and pkt.item_rows.tobytes() == rows.tobytes()
    assert pkt.net_grad.tobytes() == net_grad.tobytes()
    for name in ("user_vec", "item_table", "net"):
        assert getattr(adv.base, name).tobytes() == getattr(want, name).tobytes(), name
    return pkt


class TestPamnReference:
    """pamn_poison against helpers.reference_pamn_poison, byte for byte."""

    @pytest.mark.parametrize("e_ft", [0, 1, 5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("strategy", ["pamn", "psmu"])
    def test_packet_and_tuned_model(self, strategy, seed, e_ft):
        adv, targets = production_adv(seed, strategy=strategy)
        lr = 1e-2 if seed % 2 else 1e-3
        pkt = assert_pamn_matches_reference(adv, targets, strategy, 20, e_ft, lr)
        # a real fine-tune moves rows; none moves nothing
        assert (len(pkt.item_idx) > 0) == (e_ft > 0)

    def test_top_list_of_targets_breaks_at_once(self):
        adv, _ = production_adv(4)
        targets = top_k_list(adv.base, 5, exclude=np.zeros(0, dtype=np.int64))
        adv.substitute_items = np.zeros(0, dtype=np.int64)
        pkt = assert_pamn_matches_reference(adv, targets, "pamn", 5, 5, 1e-3)
        assert len(pkt.item_idx) == 0 and not pkt.net_grad.any()

    def test_nothing_to_promote_breaks_at_once(self):
        adv, targets = production_adv(5)
        adv.positives = np.union1d(targets, adv.substitute_items)
        pkt = assert_pamn_matches_reference(adv, targets, "pamn", 20, 5, 1e-3)
        assert len(pkt.item_idx) == 0 and not pkt.net_grad.any()


class TestBaselines:
    def test_ra_packet_is_honest_gradient(self):
        adv = make_adv(11, strategy="ra")
        pkt = baseline_poison(adv, np.array([1, 4]), "ra", top_k=5, e_ft=2, lr=1e-3)
        _, honest = compute_gradients(adv.base, adv.pairs)
        assert np.array_equal(pkt.item_idx, honest.item_idx)
        assert np.allclose(pkt.item_rows, honest.item_rows)
        assert np.allclose(pkt.net_grad, honest.net_grad)

    def test_ra_positives_contain_targets(self):
        adv = make_adv(12, strategy="ra", targets=(1, 4))
        assert {1, 4} <= set(adv.positives.tolist())

    def test_eb_boost_gradient_at_half_rating(self):
        # identity path, target logit 0 -> rating 0.5 -> dLoss/dlogit = -0.5
        state = identity_state([0.4, 0.3, 0.0, 0.2])
        adv = AdversaryState(
            client_id=1, base=state,
            positives=np.zeros(0, dtype=np.int64),
            pairs=np.empty((0, 2), dtype=np.int64),
        )
        pkt = baseline_poison(adv, np.array([2]), "eb", top_k=2, e_ft=1, lr=1e-3)
        k = pkt.item_idx.tolist().index(2)
        assert pkt.item_rows[k][0] == pytest.approx(-0.5, abs=1e-12)

    def test_eb_adds_boost_to_honest_rows(self):
        # ra's dataset makes the targets positives, so they are honest ids too
        adv = make_adv(15, strategy="ra", targets=(1, 4))
        targets = np.array([1, 4])
        pkt = baseline_poison(adv, targets, "eb", top_k=5, e_ft=1, lr=1e-3)
        _, honest = compute_gradients(adv.base, adv.pairs, sender=adv.client_id)
        bare = dataclasses.replace(adv, pairs=np.empty((0, 2), dtype=np.int64))
        boost = baseline_poison(bare, targets, "eb", top_k=5, e_ft=1, lr=1e-3)
        assert set(targets.tolist()) <= set(honest.item_idx.tolist())
        assert np.array_equal(pkt.item_idx, np.union1d(honest.item_idx, boost.item_idx))
        for k, item in enumerate(pkt.item_idx.tolist()):
            expect = np.zeros(pkt.item_rows.shape[1])
            for q in (honest, boost):
                expect = expect + q.item_rows[q.item_idx == item].sum(axis=0)
            assert pkt.item_rows[k].tobytes() == expect.tobytes()

    def test_psmu_identical_inputs_identical_packets(self):
        a = make_adv(13, strategy="psmu")
        b = make_adv(13, strategy="psmu")
        b.client_id = a.client_id
        for adv in (a, b):
            adv.substitute_items = select_substitute_items(adv, np.array([1, 4]), s=3)
        pa = baseline_poison(a, np.array([1, 4]), "psmu", top_k=5, e_ft=3, lr=1e-3)
        pb = baseline_poison(b, np.array([1, 4]), "psmu", top_k=5, e_ft=3, lr=1e-3)
        assert np.array_equal(pa.item_idx, pb.item_idx)
        assert np.array_equal(pa.item_rows, pb.item_rows)
        assert np.array_equal(pa.net_grad, pb.net_grad)

    def test_unknown_strategy_rejected(self):
        adv = make_adv(14)
        with pytest.raises(ConfigError):
            baseline_poison(adv, np.array([1]), "nope", top_k=5, e_ft=1, lr=1e-3)
