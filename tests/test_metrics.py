"""Top-k lists, hit rate, and exposure rate against brute-force oracles."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from decrecsim import metrics
from decrecsim.errors import ContractError
from decrecsim.metrics import (
    UndefinedMetricError,
    benign_top_lists,
    evaluate_world,
    exposure_rate,
    hit_rate,
    top_k_list,
)
from decrecsim.model import score_items
from helpers import make_state, predict_rating


@dataclass
class FakeDataset:
    train: list
    test: list


@dataclass
class FakeWorld:
    clients: list
    dataset: FakeDataset
    adversary_ids: frozenset = frozenset()
    target_items: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    round: int = 0


def toy_world(seed, num_users, num_items, num_targets=2, num_adv=0):
    rng = np.random.default_rng(seed)
    clients = []
    train, test = [], []
    for u in range(num_users):
        clients.append(make_state(seed * 100 + u, num_items=num_items, embed_dim=3, widths=(5, 4)))
        n_tr = int(rng.integers(1, max(2, num_items // 3)))
        items = rng.choice(num_items, size=min(num_items, n_tr + 2), replace=False)
        train.append(np.sort(items[:n_tr]))
        test.append(np.sort(items[n_tr:]))
    for a in range(num_adv):
        clients.append(make_state(seed * 100 + 50 + a, num_items=num_items, embed_dim=3, widths=(5, 4)))
        train.append(np.zeros(0, dtype=np.int64))
        test.append(np.zeros(0, dtype=np.int64))
    targets = np.sort(rng.choice(num_items, size=num_targets, replace=False))
    adv_ids = frozenset(range(num_users, num_users + num_adv))
    return FakeWorld(clients, FakeDataset(train, test), adv_ids, targets)


class TestTopK:
    def test_enumerated_example(self):
        # scores A:0.9 B:0.5 C:0.1 via crafted sketchy states is awkward;
        # instead check against explicit predict_rating ordering
        state = make_state(0, num_items=3, embed_dim=2, widths=(4,))
        scores = [predict_rating(state, i) for i in range(3)]
        best = int(np.argmax(scores))
        lst = top_k_list(state, 2, exclude=np.array([best]))
        remaining = [i for i in range(3) if i != best]
        remaining.sort(key=lambda i: (-scores[i], i))
        assert lst.tolist() == remaining

    def test_k_larger_than_candidates(self):
        state = make_state(1, num_items=4, embed_dim=2, widths=(4,))
        lst = top_k_list(state, 99, exclude=np.array([0]))
        assert len(lst) == 3
        assert 0 not in lst

    def test_equal_scores_ascending_ids(self):
        state = make_state(2, num_items=5, embed_dim=2, widths=(4,))
        state.net[:] = 0.0  # every item scores 0.5
        assert top_k_list(state, 3, exclude=np.zeros(0, dtype=np.int64)).tolist() == [0, 1, 2]

    def test_k_must_be_positive(self):
        state = make_state(3, num_items=4, embed_dim=2, widths=(4,))
        with pytest.raises(ContractError):
            top_k_list(state, 0, exclude=np.zeros(0, dtype=np.int64))

    def test_non_finite_scores_have_no_ranking(self):
        # a diverged run's NaN item row would otherwise rank as a tie
        state = make_state(4, num_items=4, embed_dim=2, widths=(4,))
        state.item_table[2] = np.nan
        with pytest.raises(ContractError, match="scores are not finite"):
            top_k_list(state, 2, exclude=np.zeros(0, dtype=np.int64))


def brute_force_er(world, k):
    """Literal double-loop evaluation of the exposure-rate definition."""
    benign = [i for i in range(len(world.clients)) if i not in world.adversary_ids]
    acc = []
    for t in world.target_items.tolist():
        num = 0
        den = 0
        for u in benign:
            state = world.clients[u]
            scores = score_items(state)
            order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
            top = [i for i in order if i not in set(world.dataset.train[u].tolist())][:k]
            never = t not in world.dataset.train[u] and t not in world.dataset.test[u]
            if never:
                den += 1
                if t in top:
                    num += 1
        acc.append(num / den if den else 0.0)
    return float(np.mean(acc))


def brute_force_hr(world, k):
    benign = [i for i in range(len(world.clients)) if i not in world.adversary_ids]
    vals = []
    for u in benign:
        if len(world.dataset.test[u]) == 0:
            continue
        state = world.clients[u]
        scores = score_items(state)
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        top = [i for i in order if i not in set(world.dataset.train[u].tolist())][:k]
        vals.append(1.0 if set(top) & set(world.dataset.test[u].tolist()) else 0.0)
    return float(np.mean(vals))


class TestOracles:
    def test_er_and_hr_match_brute_force_on_random_worlds(self):
        for seed in range(100):
            num_users = 2 + seed % 9
            world = toy_world(seed, num_users, num_items=8 + seed % 5, num_adv=seed % 3)
            k = 1 + seed % 4
            assert exposure_rate(world, benign_top_lists(world, k)) == brute_force_er(world, k)
            assert hit_rate(world, benign_top_lists(world, k)) == brute_force_hr(world, k)


class TestExposureRate:
    def test_half_exposure_toy(self):
        # identity-path states: the logit of item i is max(v_i, 0), so the
        # rankings are fully controlled
        def identity_state(values):
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

        t = 4
        c0 = identity_state([0.1, 0.2, 0.3, 0.4, 9.0])  # target ranks first
        c1 = identity_state([0.5, 0.6, 0.7, 0.8, -5.0])  # target ranks last
        world = FakeWorld(
            clients=[c0, c1],
            dataset=FakeDataset(
                train=[np.array([0]), np.array([1])],
                test=[np.array([2]), np.array([3])],
            ),
            target_items=np.array([t]),
        )
        assert exposure_rate(world, benign_top_lists(world, 2)) == 0.5

    def test_target_in_nobody_list_zero(self):
        # every user is eligible for every item; 3 top-1 lists leave 7 items
        # that no list holds
        world = toy_world(8, 3, 10, num_targets=1)
        world.dataset.train = [np.zeros(0, dtype=np.int64)] * 3
        world.dataset.test = [np.zeros(0, dtype=np.int64)] * 3
        lists = benign_top_lists(world, 1)
        listed = set(np.concatenate(list(lists.values())).tolist())
        world.target_items = np.array([min(set(range(10)) - listed)])
        assert exposure_rate(world, lists) == 0.0
        world.target_items = np.array([min(listed)])
        assert exposure_rate(world, lists) > 0.0

    def test_universally_interacted_target_contributes_zero(self):
        world = toy_world(9, 2, 6, num_targets=1)
        world.target_items = np.array([2])
        world.dataset.train = [np.array([2]), np.array([2, 3])]
        world.dataset.test = [np.array([1]), np.array([4])]
        assert exposure_rate(world, benign_top_lists(world, 6)) == 0.0

    def test_monotone_in_k(self):
        world = toy_world(10, 5, 9)
        values = [exposure_rate(world, benign_top_lists(world, k)) for k in range(1, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_empty_targets_rejected(self):
        world = toy_world(11, 2, 5, num_targets=1)
        world.target_items = np.zeros(0, dtype=np.int64)
        with pytest.raises(ContractError):
            exposure_rate(world, benign_top_lists(world, 2))


class TestHitRate:
    def test_perfect_hit(self):
        world = toy_world(12, 1, 6)
        u = world.clients[0]
        world.dataset.train = [np.array([0])]
        top1 = top_k_list(u, 1, world.dataset.train[0])
        world.dataset.test = [top1]
        assert hit_rate(world, benign_top_lists(world, 1)) == 1.0

    def test_one_hit_one_miss(self):
        world = toy_world(13, 2, 8)
        world.dataset.train = [np.array([0]), np.array([0])]
        hit_item = top_k_list(world.clients[0], 1, world.dataset.train[0])
        miss_pool = top_k_list(world.clients[1], 8 - 1, world.dataset.train[1])
        world.dataset.test = [hit_item, miss_pool[-1:]]
        assert hit_rate(world, benign_top_lists(world, 1)) == 0.5

    def test_k_equal_items_hits_everyone(self):
        world = toy_world(14, 4, 6)
        assert hit_rate(world, benign_top_lists(world, 6)) == 1.0

    def test_monotone_in_k(self):
        world = toy_world(15, 5, 9)
        values = [hit_rate(world, benign_top_lists(world, k)) for k in range(1, 8)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_no_test_items_error(self):
        world = toy_world(16, 2, 5)
        world.dataset.test = [np.zeros(0, dtype=np.int64)] * 2
        with pytest.raises(UndefinedMetricError):
            hit_rate(world, benign_top_lists(world, 2))

    def test_adversaries_excluded(self):
        world = toy_world(18, 3, 8, num_adv=2)
        lists = benign_top_lists(world, 3)
        assert set(lists) == {0, 1, 2}


class TestEvaluateWorld:
    @pytest.mark.parametrize("seed, num_users, num_items, num_adv, k", [
        (19, 6, 9, 2, 3), (20, 4, 7, 0, 1), (21, 7, 12, 1, 5),
    ])
    def test_ranks_each_benign_user_once(self, monkeypatch, seed, num_users, num_items, num_adv, k):
        world = toy_world(seed, num_users, num_items, num_adv=num_adv)
        world.round = 4
        ranked = []

        def spy(state, k, exclude):
            ranked.append(state)
            return top_k_list(state, k, exclude)

        monkeypatch.setattr(metrics, "top_k_list", spy)
        record = evaluate_world(world, k, "eb", "ucsu", 7)
        assert [id(s) for s in ranked] == [id(world.clients[u]) for u in range(num_users)]
        monkeypatch.undo()
        lists = benign_top_lists(world, k)
        assert record.hr_at_k == hit_rate(world, lists)
        assert record.er_at_k == exposure_rate(world, lists)
        assert (record.round, record.attack, record.defense, record.seed) == (4, "eb", "ucsu", 7)
