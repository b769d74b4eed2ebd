"""Command line on a tiny synthetic world: byte-identical manifest replay
of runs and sweeps, what the manifest records of the run, the lambda sweep
key, and the error paths that end in an ``error:`` line."""

from __future__ import annotations

import json

import numpy as np
import pytest

from decrecsim import cli
from decrecsim.config import parse_config
from decrecsim.synthetic import generate_interactions, write_movielens_dat

# 40 users x 60 items, 2 rounds: PAMN against UCSU, so lambda is in use.
TINY = """\
embed_dim = 4
layer_widths = 8,4
neighbors = 6
rounds = 2
eval_every = 1
top_k = 5
attack = pamn
defense = ucsu
xi = 0.1
alpha = 5
s = 3
e_ft = 1
num_targets = 2
min_count = 2
seed = 11
"""


@pytest.fixture
def world(tmp_path):
    """(config file, dataset file) for the tiny world."""
    data = tmp_path / "ratings.dat"
    write_movielens_dat(str(data), generate_interactions(40, 60, seed=3))
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY + f"dataset_path = {data}\n", encoding="utf-8")
    return str(config), data


# What a manifest records of the run itself; these differ between replays.
RUN_RECORD = ("numpy_version", "peak_rss_mb", "wall_s")


def run_args(config: str, out) -> list[str]:
    return ["run", "--config", config, "--out", str(out)]


def replay_args(first, out) -> list[str]:
    return ["run", "--from-manifest", str(first / "manifest.json"), "--out", str(out)]


def without_run_record(manifest_path) -> dict:
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    for key in RUN_RECORD:
        del manifest[key]
    return manifest


def test_replay_from_manifest_is_byte_identical(world, tmp_path):
    config, _ = world
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert cli.main(run_args(config, first)) == 0
    assert cli.main(replay_args(first, replay)) == 0
    assert (replay / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()
    assert without_run_record(replay / "manifest.json") == without_run_record(first / "manifest.json")
    # a replay override goes through the same key mapping as a config file
    changed = tmp_path / "changed"
    assert cli.main(replay_args(first, changed) + ["--set", "lambda=0.3"]) == 0
    assert json.loads((changed / "manifest.json").read_text(encoding="utf-8"))["config"]["lambda"] == 0.3


def test_set_mu_inf_replays_from_its_manifest(world, tmp_path):
    # --set mu=inf reaches the manifest as JSON Infinity, and the replay
    # rebuilds an equal config and writes the same bytes
    config, _ = world
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert cli.main(run_args(config, first) + ["--set", "mu=inf"]) == 0
    assert '"mu": Infinity' in (first / "manifest.json").read_text(encoding="utf-8")
    recorded, _ = cli.config_from_manifest(str(first / "manifest.json"))
    assert recorded == parse_config(config, {"mu": "inf", "output_path": str(first)})
    assert recorded.mu == float("inf")
    assert cli.main(replay_args(first, replay)) == 0
    assert (replay / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()


def test_manifest_records_the_run(world, tmp_path):
    config, _ = world
    assert cli.main(run_args(config, tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["numpy_version"] == np.__version__
    assert 0.0 < manifest["wall_s"] < 600.0
    # at least the interpreter with numpy loaded, at most the whole box
    assert 10.0 < manifest["peak_rss_mb"] < 1e6


def test_replay_of_sweep_manifest_replays_the_sweep(world, tmp_path):
    config, _ = world
    first, replay = tmp_path / "first", tmp_path / "replay"
    args = ["sweep", "--config", config, "--out", str(first), "--key", "lambda", "--values", "0.5,2"]
    assert cli.main(args) == 0
    assert cli.main(replay_args(first, replay)) == 0
    assert sorted(p.name for p in replay.iterdir()) == ["manifest.json", "sweep_lambda.csv"]
    assert (replay / "sweep_lambda.csv").read_bytes() == (first / "sweep_lambda.csv").read_bytes()
    assert without_run_record(replay / "manifest.json") == without_run_record(first / "manifest.json")


def test_replay_of_manifest_with_unknown_key_fails(world, tmp_path, capsys):
    config, _ = world
    first = tmp_path / "first"
    assert cli.main(run_args(config, first)) == 0
    manifest = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
    manifest["config"]["raw_similarity"] = False  # a field this version no longer has
    (first / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert cli.main(replay_args(first, tmp_path / "r")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "unknown config key: 'raw_similarity'" in err


def test_sweep_lambda_sets_lam_and_labels_rows(world, tmp_path, monkeypatch):
    config, _ = world
    seen = []
    real = cli.run_experiment

    def recording(cfg, dataset):
        seen.append(cfg.lam)
        return real(cfg, dataset)

    monkeypatch.setattr(cli, "run_experiment", recording)
    out = tmp_path / "sweep"
    args = ["sweep", "--config", config, "--out", str(out), "--key", "lambda", "--values", "0.5,2"]
    assert cli.main(args) == 0
    assert seen == [0.5, 2.0]
    header, *rows = (out / "sweep_lambda.csv").read_text(encoding="utf-8").splitlines()
    assert header.endswith(",sweep_key,sweep_value")
    assert [row.split(",")[-2:] for row in rows] == [["lambda", "0.5"]] * 3 + [["lambda", "2.0"]] * 3


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--set", "bogus=1"], "unknown config key"),
        (["--set", "lambda=abc"], "lambda: expected a number"),
        (["--set", "lambda"], "--set expects key=value"),
    ],
    ids=["unknown-key", "non-numeric-lambda", "set-without-equals"],
)
def test_bad_run_arguments_fail(world, tmp_path, capsys, extra, message):
    config, _ = world
    assert cli.main(run_args(config, tmp_path / "out") + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_sweep_checks_every_value_before_running_one(world, tmp_path, capsys, monkeypatch):
    # p = 3 is invalid; the sweep must reject it before running p = 1.
    config, _ = world
    calls = []
    real = cli.run_experiment

    def counting(cfg, dataset):
        calls.append(cfg.p)
        return real(cfg, dataset)

    monkeypatch.setattr(cli, "run_experiment", counting)
    out = tmp_path / "sweep"
    args = ["sweep", "--config", config, "--out", str(out), "--key", "p", "--values", "1,3,2"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "p must be 1 or 2" in err
    assert calls == []
    assert not out.exists() or not any(out.iterdir())


def test_non_sweepable_key_fails(world, tmp_path, capsys):
    config, _ = world
    args = ["sweep", "--config", config, "--out", str(tmp_path), "--key", "attack", "--values", "ra"]
    assert cli.main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not sweepable" in err


def test_replay_with_changed_dataset_fails(world, tmp_path, capsys):
    config, data = world
    first = tmp_path / "first"
    assert cli.main(run_args(config, first)) == 0
    with open(data, "a", encoding="utf-8") as fh:
        fh.write("999::999::5::0\n")
    assert cli.main(replay_args(first, tmp_path / "replay")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dataset content hash mismatch" in err
