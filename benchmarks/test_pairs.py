"""The arithmetic of benchmarks/pairs.py: quartiles, wins, IQR, the claim,
bound and resolution rules, the floor of ten pairs per workload, and the pair
file's verdicts."""

from __future__ import annotations

import json

import pytest

import pairs
from pairs import compare, gain_met, parse_seeds, quartiles, resolved, within_bound


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


def test_fewer_than_ten_pairs_refused_before_any_run(monkeypatch, capsys):
    def no_run(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(pairs, "export_tree", no_run)
    monkeypatch.setattr(pairs, "run_once", no_run)
    argv = ["--parent", "HEAD", "--pr", "0", "--title", "t",
            "--run", "pamn_ucsu_m=1-10", "--run", "eb_trimmed_s=11-19"]
    with pytest.raises(SystemExit) as exc:
        pairs.main(argv)
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert "eb_trimmed_s (9)" in err and "pamn_ucsu_m" not in err.split("too few:")[1]


def test_within_bound_allows_the_bound_and_no_more():
    parent = [100.0] * 10
    assert within_bound(compare(parent, [125.0] * 10), 0.25)  # exactly at the bound
    assert within_bound(compare(parent, [90.0] * 10), 0.25)
    assert not within_bound(compare(parent, [125.1] * 10), 0.25)


def test_resolved_needs_a_parent_iqr_within_the_bound_of_its_median():
    change = [100.0] * 10
    # quartiles 95 and 105: IQR 10 on a median of 100
    parent = [90.0, 95.0, 95.0, 95.0, 100.0, 100.0, 105.0, 105.0, 105.0, 110.0]
    row = compare(parent, change)
    assert row["parent_iqr"] == 10.0 and row["parent"]["median"] == 100.0
    assert resolved(row, 0.1)  # exactly at the bound
    assert resolved(row, 0.25)
    assert not resolved(row, 0.09)
    # the change's spread does not count
    assert resolved(compare([100.0] * 10, parent), 0.0)


def test_metrics_and_bounds_come_from_the_benchmark_declaration():
    spec = json.loads((pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m: (v["unit"], v["bound"]) for m, v in pairs.END_TO_END.items()} == {
        m["name"]: (m["unit"], m["bound"]) for m in spec
    }


def test_pair_file_records_gain_met_and_within_bound(monkeypatch, tmp_path):
    # The change halves peak RSS and doubles round_s on every pair; the
    # parent's run_s spreads by more than its 0.25 bound.
    (tmp_path / "benchmarks").mkdir()
    monkeypatch.setattr(pairs, "ROOT", tmp_path)
    monkeypatch.setattr(pairs, "export_tree", lambda rev, dest: None)

    def fake_run(tree, workload, seed):
        change = tree == tmp_path
        e2e = {"setup_s": 0.5, "round_s": 1.0 + 0.01 * (seed % 3), "run_s": 10.0 + 10.0 * (seed % 2),
               "peak_rss_mb": 500.0 + seed % 5}
        if change:
            e2e["round_s"] *= 2
            e2e["peak_rss_mb"] /= 2
        env = {"nproc": 2, "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}, "numpy": "x",
               "blas": {"name": "b", "version": "v"}, "python": "p"}
        return {"end_to_end": e2e, "correct": True, "failed": 0, "records": [seed],
                "params_sha256": str(seed), "dataset_sha256": str(seed), "environment": env}

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main(["--parent", "HEAD", "--pr", "7", "--title", "t", "--run", "w=1-10"]) == 0
    report = json.loads((tmp_path / "benchmarks" / "BENCH_7.json").read_text())
    rows = report["workloads"]["w"]
    assert set(rows) == set(pairs.END_TO_END)
    assert rows["peak_rss_mb"]["gain_met"] and rows["peak_rss_mb"]["within_bound"]
    assert not rows["round_s"]["gain_met"] and not rows["round_s"]["within_bound"]
    # equal runs: no gain, but within the bound
    assert not rows["setup_s"]["gain_met"] and rows["setup_s"]["within_bound"]
    assert [m for m, row in rows.items() if not row["resolved"]] == ["run_s"]
    assert report["bit_identical"] and report["datasets_identical"] and report["all_correct"]
