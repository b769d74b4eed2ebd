"""The arithmetic of benchmarks/pairs.py: quartiles, wins, IQR and the claim rule."""

from __future__ import annotations

import pytest

from pairs import compare, gain_met, parse_seeds, quartiles


def test_quartiles_interpolate_between_order_statistics():
    assert quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    # ten values: q1 and q3 sit a quarter of the way between neighbours
    assert quartiles([float(v) for v in range(1, 11)]) == {"q1": 3.25, "median": 5.5, "q3": 7.75}
    assert quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_compare_counts_wins_and_leaves_ties_out():
    parent = [10.0, 10.0, 12.0, 8.0]
    change = [9.0, 10.0, 13.0, 7.0]  # one tie, one loss, two wins
    row = compare(parent, change)
    assert row["change_wins"] == 2
    assert row["parent"] == {"q1": 9.5, "median": 10.0, "q3": 10.5}
    assert row["parent_iqr"] == 1.0
    assert row["median_change"] == pytest.approx(-0.05)


def test_compare_rejects_unpaired_runs():
    with pytest.raises(ValueError):
        compare([1.0, 2.0], [1.0])


def test_gain_needs_nine_in_ten_wins_and_a_gap_beyond_the_parent_iqr():
    parent = [100.0 + v for v in range(10)]  # IQR 4.5
    assert gain_met(compare(parent, [v - 10.0 for v in parent]), 10)
    # the same gap with one more loss: 8 wins of 10
    losing = [v - 10.0 for v in parent[:8]] + [v + 1.0 for v in parent[8:]]
    assert not gain_met(compare(parent, losing), 10)
    # every pair won, but by less than the parent's own spread
    assert not gain_met(compare(parent, [v - 1.0 for v in parent]), 10)


def test_parse_seeds():
    assert parse_seeds("81-84") == [81, 82, 83, 84]
