"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from decrecsim import cli, simulation  # noqa: E402
from decrecsim.config import parse_config  # noqa: E402
from decrecsim.synthetic import generate_interactions, write_movielens_dat  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
from experiment import OWNERS, world_arrays, run_workload  # noqa: E402

PAIRS = [("none", "none"), ("pamn", "ucsu"), ("eb", "trimmed")]


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("data") / "tiny.dat"
    write_movielens_dat(str(path), generate_interactions(40, 60, 3))
    return str(path)


def tiny_config(path: str, attack: str, defense: str):
    return parse_config(None, {
        "dataset_path": path, "attack": attack, "defense": defense,
        "xi": 0.05, "rounds": 2, "eval_every": 1, "seed": 3,
    })


@pytest.mark.parametrize("attack,defense", PAIRS)
def test_benchmark_loop_matches_run_experiment(tiny_data, attack, defense):
    config = tiny_config(tiny_data, attack, defense)
    expected = simulation.run_experiment(config, cli.load_dataset(config))
    got = run_workload(config, 2)["records"]
    assert got == expected
    assert [r.round for r in got] == [0, 1, 2]


@pytest.mark.parametrize("attack,defense", PAIRS)
def test_traced_run_is_bit_identical_and_restores_functions(tiny_data, attack, defense):
    config = tiny_config(tiny_data, attack, defense)
    originals = {(o, a): vars(tracing.Tracer(OWNERS)._resolve(o))[a] for _, o, a in tracing.SPANS}
    plain = run_workload(config, 1)
    with tracing.Tracer(OWNERS) as tracer:
        traced = run_workload(config, 1, tracer)
    for (owner, attr), fn in originals.items():
        assert vars(tracer._resolve(owner))[attr] is fn, f"{owner}.{attr} not restored"

    assert traced["records"] == plain["records"]
    for a, b in zip(world_arrays(traced["world"]), world_arrays(plain["world"]), strict=True):
        assert a.tobytes() == b.tobytes()

    values, missing = tracer.summary()
    assert missing == []
    assert values.keys() == tracing.metric_units().keys()
    assert values["metrics.snapshots"] == 3
    # A round's busy time is its self time plus its direct children's busy time.
    children = [n for n, p in tracer.parents.items() if p == "simulation.run_round"]
    assert "model.local_train_step" in children
    for spans in tracer.round_spans():
        busy, self_s, _ = spans["simulation.run_round"]
        assert math.isclose(busy, self_s + sum(spans[c][0] for c in children if c in spans),
                            rel_tol=1e-9)


def test_missing_span_is_reported_not_fatal(tiny_data):
    config = tiny_config(tiny_data, "none", "none")
    spans = tracing.SPANS + (("defenses.gone", "simulation", "no_such_function"),)
    with tracing.Tracer(OWNERS, spans) as tracer:
        run_workload(config, 1, tracer)
    values, missing = tracer.summary()
    assert missing == ["defenses.gone.s"]
    assert values["model.local_train_step.calls"] > 0


def test_output_checks_count_failures():
    result = {"records": [[0, 0.1, float("nan")], [2, 0.2, 0.3]], "params_finite": False}
    failures = run.check(result, rounds=2, eval_every=1)
    assert len(failures) == 3  # round 0 not finite, round 1 missing, parameters


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()


def test_fails_without_simulator_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pamn_ucsu_m", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_trace_run_reports_layers_when_the_overhead_child_is_cut(tmp_path, monkeypatch, capsys):
    layers = {name: 1.0 for name in tracing.metric_units()}
    traced = {
        "records": [[0, 0.1, 0.2], [3, 0.1, 0.2]], "setup_s": [0.1], "round_s": [1.0, 1.0, 1.0],
        "run_s": 3.5, "peak_rss_mb": 100.0, "params_finite": True, "params_sha256": "x",
        "layers": layers, "missing": [], "environment": {},
    }
    children = iter([traced, subprocess.TimeoutExpired("experiment.py", 1.0)])

    def fake_child(spec, deadline):
        child = next(children)
        if isinstance(child, Exception):
            raise child
        return child

    monkeypatch.setattr(run, "RUNS", tmp_path)
    monkeypatch.setattr(run, "make_dataset", lambda workload, seed: (tmp_path / "d.dat", "sha"))
    monkeypatch.setattr(run, "run_child", fake_child)
    assert run.main(["--workload", "eb_trimmed_s", "--seed", "1", "--seconds", "30", "--trace", "1"]) == 0
    info, result = (json.loads(line) for line in capsys.readouterr().out.splitlines()[-2:])
    assert info["info"]["trace_overhead_s"] is None
    assert result["correct"] and result["failed"] == 0
    assert {k: v["value"] for k, v in result["metrics"].items()} == layers
