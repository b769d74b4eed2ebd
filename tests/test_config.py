"""Config keys: a manifest's typed values replay to an equal config, mu =
inf among them, every parser rejects malformed text by the key's name, keys
an old manifest may still name are rejected, the lambda key, the config
file's syntax and encoding, and every rule of validate_config at its
boundary, lr and lambda rejecting inf."""

from __future__ import annotations

import inspect
import json
import math
import re
from dataclasses import fields

import pytest

from decrecsim.config import (
    ATTACKS,
    DEFENSES,
    ExperimentConfig,
    parse_config,
    validate_config,
)
from decrecsim.dataset import FORMATS
from decrecsim.errors import ConfigError, ParseError

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
        ("layer_widths", "8,,4"),
        ("layer_widths", "8,4,"),
        ("layer_widths", ",8"),
        ("rounds", 2.5),
        ("embed_dim", None),
    ],
    ids=[
        "int", "float", "int-tuple", "empty-inner-entry", "empty-last-entry", "empty-first-entry",
        "typed-float-for-int", "typed-none",
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


def test_config_file_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# a run\n\n  rounds = 3  # three\n   \nlambda=0.5\n", encoding="utf-8")
    cfg = parse_config(str(path), {"dataset_path": "x"})
    assert (cfg.rounds, cfg.lam) == (3, 0.5)


def test_config_file_keeps_a_hash_inside_a_value(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("dataset_path = data/runs#2/r.dat  # the file\n#rounds = 4\n", encoding="utf-8")
    cfg = parse_config(str(path))
    assert (cfg.dataset_path, cfg.rounds) == ("data/runs#2/r.dat", ExperimentConfig().rounds)


def test_config_file_pads_with_spaces_and_tabs_only(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("\tdataset_path = a\u0085 \t\n", encoding="utf-8")
    assert parse_config(str(path)).dataset_path == "a\u0085"


def test_config_file_with_a_byte_order_mark_parses(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_bytes(b"\xef\xbb\xbfrounds = 3\r\nlambda = 0.5\r\n")
    cfg = parse_config(str(path), {"dataset_path": "x"})
    assert (cfg.rounds, cfg.lam) == (3, 0.5)


def test_config_file_byte_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_bytes(b"rounds = 3\nlambda = 0.\x855\n")
    with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 2: byte 0x85 is not UTF-8 text$"):
        parse_config(str(path), {"dataset_path": "x"})


def test_config_file_line_without_equals_names_its_line(tmp_path):
    path = tmp_path / "a.cfg"
    path.write_text("# a run\nrounds = 3\n\nrounds 4\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: line 4: expected 'key = value'$"):
        parse_config(str(path), {"dataset_path": "x"})


# Smallest steps off a float boundary: the least subnormal off 0, one ulp off
# 1, and the largest finite float, one step below inf.
TINY = "5e-324"
ABOVE_1 = "1.0000000000000002"
BELOW_1 = "0.9999999999999999"
HUGE = "1.7976931348623157e308"

# One case per _require call of validate_config, in its order: the (key,
# value) settings just outside the rule, which it must reject with its
# message, and the boundary settings inside it, which must parse.
RULES = [
    pytest.param([("dataset_path", "")], [("dataset_path", "x")],
                 "dataset_path is required", id="dataset_path"),
    pytest.param([("dataset_format", "tsv")], [("dataset_format", f) for f in FORMATS],
                 f"dataset_format must be one of {FORMATS}", id="dataset_format"),
    pytest.param([("attack", "sybil")], [("attack", a) for a in ATTACKS],
                 f"attack must be one of {ATTACKS}", id="attack"),
    pytest.param([("defense", "fltrust")], [("defense", d) for d in DEFENSES],
                 f"defense must be one of {DEFENSES}", id="defense"),
    pytest.param([("nu", "0"), ("nu", ABOVE_1)], [("nu", TINY), ("nu", "1")],
                 "nu must satisfy 0 < nu <= 1", id="nu"),
    pytest.param([("xi", "-" + TINY), ("xi", "1")], [("xi", "0"), ("xi", BELOW_1)],
                 "xi must satisfy 0 <= xi < 1", id="xi"),
    pytest.param([("mu", "0")], [("mu", TINY), ("mu", "inf")], "mu must be > 0", id="mu"),
    pytest.param([("train_ratio", "0"), ("train_ratio", "1")],
                 [("train_ratio", TINY), ("train_ratio", BELOW_1)],
                 "train_ratio must satisfy 0 < train_ratio < 1", id="train_ratio"),
    pytest.param([("neg_ratio", "-1")], [("neg_ratio", "0")], "neg_ratio must be >= 0",
                 id="neg_ratio"),
    pytest.param([("lr", "0"), ("lr", "inf")], [("lr", TINY), ("lr", HUGE)],
                 "lr must be finite and > 0", id="lr"),
    pytest.param([("rounds", "-1")], [("rounds", "0")], "rounds must be >= 0", id="rounds"),
    pytest.param([("eval_every", "0")], [("eval_every", "1")], "eval_every must be >= 1",
                 id="eval_every"),
    pytest.param([("p", "0"), ("p", "3")], [("p", "1"), ("p", "2")], "p must be 1 or 2", id="p"),
    pytest.param(
        [("embed_dim", "0"), ("layer_widths", ""), ("layer_widths", "0,4"),
         ("layer_widths", "4,0")],
        [("embed_dim", "1"), ("layer_widths", "1"), ("layer_widths", "1,1")],
        "embed_dim and layer_widths must be positive", id="embed_dim-layer_widths",
    ),
    pytest.param([("neighbors", "0")], [("neighbors", "1")], "neighbors must be >= 1",
                 id="neighbors"),
    pytest.param([("refresh_every", "0")], [("refresh_every", "1")],
                 "refresh_every must be >= 1", id="refresh_every"),
    pytest.param([("top_k", "0")], [("top_k", "1")], "top_k must be >= 1", id="top_k"),
    pytest.param([("capacity_rounds", "0")], [("capacity_rounds", "1")],
                 "capacity_rounds must be >= 1", id="capacity_rounds"),
    pytest.param([("num_targets", "0")], [("num_targets", "1")], "num_targets must be >= 1",
                 id="num_targets"),
    pytest.param([("min_count", "0")], [("min_count", "1")], "min_count must be >= 1",
                 id="min_count"),
    pytest.param([("sketch_dim", "0")], [("sketch_dim", "1")], "sketch_dim must be >= 1",
                 id="sketch_dim"),
    pytest.param([("workers", "0")], [("workers", "1")], "workers must be >= 1", id="workers"),
    pytest.param([("alpha", "-1")], [("alpha", "0")], "alpha must be >= 0", id="alpha"),
    pytest.param([("s", "-1")], [("s", "0")], "s must be >= 0", id="s"),
    pytest.param([("e_ft", "-1")], [("e_ft", "0")], "e_ft must be >= 0", id="e_ft"),
    pytest.param([("lambda", "-" + TINY), ("lambda", "inf")], [("lambda", "0"), ("lambda", HUGE)],
                 "lambda must be finite and >= 0", id="lambda"),
    pytest.param([("seed", "-1")], [("seed", "0")], "seed must be >= 0", id="seed"),
]


def test_rules_cover_every_require_of_validate_config():
    assert inspect.getsource(validate_config).count("_require(") == len(RULES)


@pytest.mark.parametrize("outside, inside, message", RULES)
def test_each_rule_rejects_the_first_value_outside_it(outside, inside, message):
    for key, raw in outside:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(None, {"dataset_path": "x", key: raw})
    for key, raw in inside:
        parse_config(None, {"dataset_path": "x", key: raw})
