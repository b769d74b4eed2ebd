"""Config keys: a manifest's typed values replay to an equal config, mu =
inf among them, every parser rejects malformed text by the key's name, keys
an old manifest may still name are rejected, the lambda key, and which keys
a sweep may vary."""

from __future__ import annotations

import json
import math
from dataclasses import fields

import pytest

from decrecsim.config import SWEEPABLE, ExperimentConfig, parse_config
from decrecsim.errors import ConfigError

# A value unlike the default in every field; lr's shortest repr has 17
# digits, so a float must round-trip exactly.
NON_DEFAULT = dict(
    dataset_path="data/ratings.csv",
    dataset_format="csv",
    embed_dim=8,
    layer_widths=(16, 8),
    lr=0.1 + 0.2,
    neighbors=7,
    refresh_every=3,
    rounds=9,
    eval_every=2,
    top_k=4,
    attack="pamn",
    defense="ucsu",
    xi=0.25,
    alpha=6,
    lam=0.7,
    s=2,
    e_ft=3,
    nu=0.3,
    mu=0.5,
    p=1,
    capacity_rounds=4,
    num_targets=3,
    min_count=2,
    train_ratio=0.75,
    neg_ratio=2,
    seed=123,
    sketch_dim=8,
    workers=2,
    output_path="out",
)


def test_non_default_config_covers_every_field():
    default = ExperimentConfig()
    assert set(NON_DEFAULT) == {f.name for f in fields(ExperimentConfig)}
    assert all(getattr(default, name) != value for name, value in NON_DEFAULT.items())


def test_manifest_values_replay_to_an_equal_config():
    cfg = ExperimentConfig(**NON_DEFAULT)
    back = parse_config(None, json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg
    assert all(type(getattr(back, n)) is type(getattr(cfg, n)) for n in NON_DEFAULT)


def test_mu_inf_parses_and_replays():
    # mu = inf keeps every row UCSU banks; a manifest records it as JSON
    # Infinity
    cfg = parse_config(None, {"dataset_path": "x", "defense": "ucsu", "mu": "inf"})
    assert cfg.mu == math.inf
    text = json.dumps(cfg.to_dict())
    assert '"mu": Infinity' in text
    assert parse_config(None, json.loads(text)) == cfg


@pytest.mark.parametrize(
    "key, raw",
    [
        ("rounds", "ten"),
        ("lambda", "abc"),
        ("layer_widths", "8,x"),
        ("rounds", 2.5),
        ("embed_dim", None),
    ],
    ids=[
        "int", "float", "int-tuple", "typed-float-for-int", "typed-none",
    ],
)
def test_malformed_value_names_its_key(key, raw):
    with pytest.raises(ConfigError, match=rf"^{key}: expected "):
        parse_config(None, {"dataset_path": "x", key: raw})


@pytest.mark.parametrize("key", ["trim_k", "target_items"])
def test_removed_key_of_an_old_manifest_is_rejected(key):
    # manifests written while the key existed record it, as null by default
    with pytest.raises(ConfigError, match=rf"^unknown config key: '{key}'$"):
        parse_config(None, {"dataset_path": "x", key: None})


def test_lambda_key_sets_lam():
    cfg = parse_config(None, {"dataset_path": "x", "lambda": "0.5"})
    assert cfg.lam == 0.5
    assert cfg.to_dict()["lambda"] == 0.5 and "lam" not in cfg.to_dict()


def test_sweepable_keys_are_the_numeric_keys():
    assert SWEEPABLE == {
        "embed_dim", "lr", "neighbors", "refresh_every", "rounds", "eval_every", "top_k",
        "xi", "alpha", "lambda", "s", "e_ft", "nu", "mu", "p", "capacity_rounds",
        "num_targets", "min_count", "train_ratio", "neg_ratio", "seed", "sketch_dim", "workers",
    }
    assert {"lambda", "p"} <= SWEEPABLE
    assert not {"attack", "dataset_format", "layer_widths"} & SWEEPABLE
