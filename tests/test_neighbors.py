"""Sketching, cosine similarity, and neighbor assignment."""

import numpy as np
import pytest
from scipy.stats import spearmanr

from decrecsim.errors import ContractError
from decrecsim.neighbors import assign_neighbors, make_hyperplanes, sketch_item_table
from helpers import cosine_similarity


class TestSketch:
    def test_hand_computed_signs(self):
        table = np.array([[1.0, 0.0]])
        hyper = np.array([[1.0, 0.0], [-1.0, 1.0]])
        assert sketch_item_table(table, hyper).tolist() == [1.0, -1.0]

    def test_zero_row_all_plus_one(self):
        table = np.zeros((2, 3))
        hyper = np.random.default_rng(0).standard_normal((4, 3))
        bits = sketch_item_table(table, hyper)
        assert bits.tolist() == [1.0] * 8

    def test_identical_tables_identical_sketches(self):
        rng = np.random.default_rng(1)
        table = rng.normal(size=(5, 4))
        hyper = make_hyperplanes(4, 6, rng)
        a = sketch_item_table(table, hyper)
        b = sketch_item_table(table.copy(), hyper)
        assert np.array_equal(a, b)

    def test_length_and_values(self):
        rng = np.random.default_rng(2)
        table = rng.normal(size=(7, 3))
        hyper = make_hyperplanes(3, 5, rng)
        bits = sketch_item_table(table, hyper)
        assert bits.shape == (35,)
        assert set(np.unique(bits).tolist()) <= {-1.0, 1.0}

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            sketch_item_table(np.zeros((2, 3)), np.zeros((4, 2)))


class TestCosine:
    def test_self_is_one(self):
        a = np.array([1.0, 1.0, -1.0, 1.0])
        assert cosine_similarity(a, a) == 1.0

    def test_antipodal_minus_one(self):
        a = np.array([1.0, -1.0, 1.0, -1.0])
        assert cosine_similarity(a, -a) == -1.0

    def test_hand_value(self):
        a = np.array([1.0, 1.0, -1.0, 1.0])
        b = np.array([1.0, -1.0, -1.0, 1.0])
        assert cosine_similarity(a, b) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = np.where(rng.random(16) < 0.5, 1.0, -1.0)
            b = np.where(rng.random(16) < 0.5, 1.0, -1.0)
            assert cosine_similarity(a, b) == cosine_similarity(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            cosine_similarity(np.ones(3), np.ones(4))


class TestAssign:
    def brute_force(self, sketches, n):
        num = len(sketches)
        out = []
        for i in range(num):
            sims = []
            for j in range(num):
                if j == i:
                    continue
                sims.append((-cosine_similarity(sketches[i], sketches[j]), j))
            sims.sort()
            out.append([j for _, j in sims[: min(n, num - 1)]])
        return out

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for trial in range(30):
            num = int(rng.integers(3, 9))
            length = int(rng.integers(2, 6)) * 4
            sketches = np.where(rng.random((num, length)) < 0.5, 1.0, -1.0)
            n = int(rng.integers(1, num + 1))
            nmap = assign_neighbors(sketches, n, round_no=1)
            expect = self.brute_force(sketches, n)
            for i in range(num):
                assert nmap.neighbors_of(i).tolist() == expect[i], f"trial {trial} client {i}"

    def test_tie_break_ascending_ids(self):
        sketches = np.ones((3, 8))
        nmap = assign_neighbors(sketches, 2, round_no=1)
        assert nmap.neighbors_of(0).tolist() == [1, 2]
        assert nmap.neighbors_of(1).tolist() == [0, 2]
        assert nmap.neighbors_of(2).tolist() == [0, 1]

    def test_never_self_never_duplicates(self):
        rng = np.random.default_rng(5)
        sketches = np.where(rng.random((6, 12)) < 0.5, 1.0, -1.0)
        nmap = assign_neighbors(sketches, 5, round_no=2)
        for i in range(6):
            lst = nmap.neighbors_of(i).tolist()
            assert i not in lst
            assert len(lst) == len(set(lst))

    def test_clamps_to_population(self):
        sketches = np.ones((3, 4))
        nmap = assign_neighbors(sketches, 99, round_no=1)
        for i in range(3):
            assert len(nmap.neighbors_of(i)) == 2

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(6)
        sketches = np.where(rng.random((10, 20)) < 0.5, 1.0, -1.0)
        a = assign_neighbors(sketches, 3, round_no=1)
        b = assign_neighbors(sketches, 3, round_no=1)
        for i in range(10):
            assert np.array_equal(a.neighbors_of(i), b.neighbors_of(i))

    def test_too_few_clients(self):
        with pytest.raises(ContractError):
            assign_neighbors(np.ones((1, 4)), 1, round_no=1)


class TestLshFidelity:
    def test_spearman_rank_correlation(self):
        # vector pairs spanning the whole similarity range
        rng = np.random.default_rng(7)
        hyper = make_hyperplanes(32, 16, rng)
        true_cos = []
        sketch_cos = []
        for _ in range(1000):
            a = rng.standard_normal(32)
            rho = rng.uniform(-1.0, 1.0)
            w = rng.standard_normal(32)
            w -= (w @ a) / (a @ a) * a
            b = rho * a / np.linalg.norm(a) + np.sqrt(1 - rho**2) * w / np.linalg.norm(w)
            true_cos.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
            sa = sketch_item_table(a[None, :], hyper)
            sb = sketch_item_table(b[None, :], hyper)
            sketch_cos.append(cosine_similarity(sa, sb))
        rho_s = spearmanr(true_cos, sketch_cos).statistic
        assert rho_s > 0.8
