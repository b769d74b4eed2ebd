"""Command line on a tiny synthetic world: byte-identical manifest replay,
what the manifest records of the run, the dataset hash a replay checks
against the file it reads, the error paths that end in one ``error:`` line,
a diverged run among them, and ``run`` as the only command."""

from __future__ import annotations

import hashlib
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


def test_replay_layers_manifest_then_config_file_then_flags(world, tmp_path):
    # the manifest records rounds = 2; a --config file over it, and --set over both
    config, _ = world
    first, direct, replay = tmp_path / "first", tmp_path / "direct", tmp_path / "replay"
    one_round = tmp_path / "one.cfg"
    one_round.write_text("rounds = 1\n", encoding="utf-8")
    assert cli.main(run_args(config, first)) == 0
    assert cli.main(run_args(config, direct) + ["--rounds", "1"]) == 0
    assert cli.main(replay_args(first, replay) + ["--config", str(one_round)]) == 0
    assert (replay / "metrics.csv").read_bytes() == (direct / "metrics.csv").read_bytes()
    assert without_run_record(replay / "manifest.json") == without_run_record(direct / "manifest.json")
    both = tmp_path / "both"
    assert cli.main(replay_args(first, both) + ["--config", str(one_round), "--set", "rounds=2"]) == 0
    assert (both / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()
    assert json.loads((both / "manifest.json").read_text(encoding="utf-8"))["config"]["rounds"] == 2


def test_manifest_with_an_output_path_replays_into_out(world, tmp_path):
    # manifests written while the config held the output directory record
    # it; the replay still writes to --out and records no directory
    config, _ = world
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert cli.main(run_args(config, first)) == 0
    original = without_run_record(first / "manifest.json")
    manifest = json.loads((first / "manifest.json").read_text(encoding="utf-8"))
    manifest["config"]["output_path"] = str(tmp_path / "elsewhere")
    (first / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    assert cli.main(replay_args(first, replay)) == 0
    assert not (tmp_path / "elsewhere").exists()
    assert (replay / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()
    assert without_run_record(replay / "manifest.json") == original


def test_set_mu_inf_replays_from_its_manifest(world, tmp_path):
    # --set mu=inf reaches the manifest as JSON Infinity, and the replay
    # rebuilds an equal config and writes the same bytes
    config, _ = world
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert cli.main(run_args(config, first) + ["--set", "mu=inf"]) == 0
    assert '"mu": Infinity' in (first / "manifest.json").read_text(encoding="utf-8")
    values, digest = cli.manifest_values(str(first / "manifest.json"))
    assert values["mu"] == float("inf")
    assert digest == json.loads((first / "manifest.json").read_text(encoding="utf-8"))["dataset_sha256"]
    assert parse_config(None, base=values) == parse_config(config, {"mu": "inf"})
    assert cli.main(replay_args(first, replay)) == 0
    assert (replay / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()


def test_manifest_records_the_run(world, tmp_path):
    config, data = world
    assert cli.main(run_args(config, tmp_path)) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["dataset_sha256"] == hashlib.sha256(data.read_bytes()).hexdigest()
    assert "output_path" not in manifest["config"]  # --out alone says where a run writes
    assert manifest["numpy_version"] == np.__version__
    assert 0.0 < manifest["wall_s"] < 600.0
    # at least the interpreter with numpy loaded, at most the whole box
    assert 10.0 < manifest["peak_rss_mb"] < 1e6


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


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--set", "bogus=1"], "unknown config key"),
        (["--set", "lambda=abc"], "lambda: expected a number"),
        (["--set", "lambda"], "--set expects key=value"),
        # a form feed is not padding, so the value is not an attack's name
        (["--set", "attack=pamn\x0c"], "attack must be one of"),
    ],
    ids=["unknown-key", "non-numeric-lambda", "set-without-equals", "form-feed-in-value"],
)
def test_bad_run_arguments_fail(world, tmp_path, capsys, extra, message):
    config, _ = world
    assert cli.main(run_args(config, tmp_path / "out") + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_run_fails_without_writing(world, tmp_path, capsys):
    # lr = 1e300 drives the parameters to non-finite values; the run ends
    # in one error line instead of ranking their scores
    config, _ = world
    out = tmp_path / "out"
    assert cli.main(run_args(config, out) + ["--set", "lr=1e300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: scores are not finite") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_is_not_a_command(world, tmp_path, capsys):
    # a sweep is a shell loop over run; argparse rejects the old subcommand
    config, _ = world
    out = tmp_path / "sweep"
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--config", config, "--out", str(out), "--key", "p", "--values", "1,2"])
    assert exc.value.code == 2
    assert "invalid choice: 'sweep'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", "not a run manifest: Expecting value"),
        ("[1]", "not a run manifest: no 'config' object"),
        ('{"seed": 1}', "not a run manifest: no 'config' object"),
        ('{"config": {}, "dataset_sha256": 1}', "dataset_sha256 is not a hex digest: 1"),
    ],
    ids=["not-json", "not-an-object", "no-config", "hash-not-text"],
)
def test_file_that_is_not_a_run_manifest_fails(tmp_path, capsys, text, message):
    path = tmp_path / "manifest.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--from-manifest", str(path), "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1


def test_old_sweep_manifest_fails(world, tmp_path, capsys):
    # an old sweep's manifest records the sweep's base config, so replaying
    # it as one run would silently run another experiment
    config, _ = world
    first = tmp_path / "first"
    assert cli.main(run_args(config, first)) == 0
    path = first / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.update(sweep={"key": "p", "values": ["1", "2"]}, outputs={"metrics_csv": "sweep_p.csv"})
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()
    assert cli.main(replay_args(first, tmp_path / "r")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: a sweep manifest") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_replay_with_changed_dataset_fails(world, tmp_path, capsys):
    config, data = world
    first = tmp_path / "first"
    assert cli.main(run_args(config, first)) == 0
    with open(data, "a", encoding="utf-8") as fh:
        fh.write("999::999::5::0\n")
    assert cli.main(replay_args(first, tmp_path / "replay")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dataset content hash mismatch" in err


def test_replay_reads_a_moved_identical_copy(world, tmp_path):
    # the hash is checked against the file the replay reads, not the path
    # the manifest records, which is gone
    config, data = world
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert cli.main(run_args(config, first)) == 0
    moved = data.rename(tmp_path / "moved.dat")
    assert cli.main(replay_args(first, replay) + ["--dataset", str(moved)]) == 0
    assert (replay / "metrics.csv").read_bytes() == (first / "metrics.csv").read_bytes()
    manifest = without_run_record(replay / "manifest.json")
    assert manifest["config"]["dataset_path"] == str(moved)
    assert manifest["dataset_sha256"] == without_run_record(first / "manifest.json")["dataset_sha256"]


def test_replay_pointed_at_another_dataset_fails(world, tmp_path, capsys):
    # the recorded file is intact, but the replay would read another one
    config, _ = world
    first, replay = tmp_path / "first", tmp_path / "replay"
    assert cli.main(run_args(config, first)) == 0
    other = tmp_path / "other.dat"
    write_movielens_dat(str(other), generate_interactions(40, 60, seed=4))
    capsys.readouterr()
    assert cli.main(replay_args(first, replay) + ["--dataset", str(other)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: dataset content hash mismatch: {other} ") and err.count("\n") == 1
    assert not replay.exists()


def test_replay_of_a_missing_dataset_fails(world, tmp_path, capsys):
    config, data = world
    first = tmp_path / "first"
    assert cli.main(run_args(config, first)) == 0
    data.unlink()
    capsys.readouterr()
    assert cli.main(replay_args(first, tmp_path / "replay")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {data}: ") and err.count("\n") == 1
    assert "Traceback" not in err and not (tmp_path / "replay").exists()
