"""Experiment configuration: defaults, file parsing, and validation.

Config files are flat ``key = value`` UTF-8 text, a leading byte-order mark
allowed.  A '#' that opens a line or follows a space or tab starts a
comment; any other '#' is part of the value, so the line
``dataset_path = runs#2/r.dat  # the file`` sets ``runs#2/r.dat``.  Only
dataset.PAD (spaces, tabs) pads a line, key or value, so a value keeps a
U+0085; numeric keys are unaffected, as int() and float() strip whitespace
themselves.  Unknown keys are rejected.  A key's value parses by its
field's annotation, whether it arrives as text or typed from a manifest;
the numeric keys are the sweepable ones.  parse_config layers the
defaults, a manifest's values, the file and the flags, each over the ones
before.  The output directory is not a key: the CLI's ``--out`` owns it.

validate_config is the only check on a value's range.  parse_config and
cli.run call it, so run_experiment and everything below it take a
validated config and do not check its values again.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from decrecsim.dataset import FORMATS, PAD, read_text
from decrecsim.errors import ConfigError

ATTACKS = ("none", "ra", "eb", "psmu", "pamn")
DEFENSES = ("none", "median", "trimmed", "krum", "l2clip", "ucsu")


@dataclass
class ExperimentConfig:
    """Every knob of a run; defaults follow the standard hyperparameters."""

    dataset_path: str = ""
    dataset_format: str = "movielens_dat"
    embed_dim: int = 32
    layer_widths: tuple[int, ...] = (64, 32, 16)
    lr: float = 0.001
    neighbors: int = 50
    refresh_every: int = 10
    rounds: int = 100
    eval_every: int = 5
    top_k: int = 20
    attack: str = "none"
    defense: str = "none"
    xi: float = 0.01
    alpha: int = 30
    lam: float = 0.1
    s: int = 10
    e_ft: int = 5
    nu: float = 0.10
    mu: float = 1.0
    p: int = 2
    capacity_rounds: int = 10
    num_targets: int = 5
    min_count: int = 5
    train_ratio: float = 0.8
    neg_ratio: int = 4
    seed: int = 42
    sketch_dim: int = 16
    workers: int = 1

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[_FIELD_TO_KEY.get(f.name, f.name)] = list(v) if isinstance(v, tuple) else v
        return out


# The file/CLI key for the diversity weight is "lambda" (a Python keyword,
# so the field is named lam).
_KEY_TO_FIELD = {"lambda": "lam"}
_FIELD_TO_KEY = {name: key for key, name in _KEY_TO_FIELD.items()}

# Annotations are strings here (postponed evaluation), e.g. "tuple[int, ...]".
_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


# Annotation -> (parser of the value's stripped text, what the text must be).
_PARSERS = {
    "int": (int, "an integer"),
    "float": (float, "a number"),
    "str": (str, "text"),
    "tuple[int, ...]": (
        lambda text: tuple(map(int, text.split(","))) if text else (),
        "comma-separated integers",
    ),
}

# A sweep varies one numeric key.
SWEEPABLE = frozenset(
    _FIELD_TO_KEY.get(name, name) for name, kind in _FIELD_TYPES.items() if kind in ("int", "float")
)


def set_key(cfg: ExperimentConfig, key: str, raw) -> object:
    """Parse a file/CLI key's raw value by its field's annotation and set the
    field ("lambda" sets lam); returns the value set.

    A typed value (a manifest's, or a caller's) parses as its text: a list
    or tuple joined with commas, anything else through str().
    """
    name = _KEY_TO_FIELD.get(key, key)
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key!r}")
    text = ",".join(map(str, raw)) if isinstance(raw, (list, tuple)) else str(raw)
    parse, expected = _PARSERS[_FIELD_TYPES[name]]
    try:
        value = parse(text.strip(PAD))
    except ValueError:
        raise ConfigError(f"{key}: expected {expected}, got {raw!r}") from None
    setattr(cfg, name, value)
    return value


def read_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and comments are ignored."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        # a comment opens the line or follows a space or tab
        stripped = re.split(r"(?:^|[ \t])#", line, maxsplit=1)[0].strip(PAD)
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, raw = stripped.split("=", 1)
        values[key.strip(PAD)] = raw.strip(PAD)
    return values


def parse_config(
    path: str | None, overrides: dict | None = None, base: dict | None = None
) -> ExperimentConfig:
    """Layer base (a manifest's values), the file at path, then overrides
    (the flags) over the defaults, and validate the result."""
    cfg = ExperimentConfig()
    file_values = read_config_file(path) if path is not None else {}
    for layer in (base or {}, file_values, overrides or {}):
        for key, raw in layer.items():
            set_key(cfg, key, raw)
    validate_config(cfg)
    return cfg


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def validate_config(cfg: ExperimentConfig) -> None:
    _require(cfg.dataset_path != "", "dataset_path is required")
    _require(cfg.dataset_format in FORMATS, f"dataset_format must be one of {FORMATS}")
    _require(cfg.attack in ATTACKS, f"attack must be one of {ATTACKS}")
    _require(cfg.defense in DEFENSES, f"defense must be one of {DEFENSES}")
    _require(0.0 < cfg.nu <= 1.0, "nu must satisfy 0 < nu <= 1")
    _require(0.0 <= cfg.xi < 1.0, "xi must satisfy 0 <= xi < 1")
    _require(cfg.mu > 0, "mu must be > 0")
    _require(0.0 < cfg.train_ratio < 1.0, "train_ratio must satisfy 0 < train_ratio < 1")
    _require(cfg.neg_ratio >= 0, "neg_ratio must be >= 0")
    _require(cfg.lr > 0, "lr must be > 0")
    _require(cfg.rounds >= 0, "rounds must be >= 0")
    _require(cfg.eval_every >= 1, "eval_every must be >= 1")
    _require(cfg.p in (1, 2), "p must be 1 or 2")
    _require(
        cfg.embed_dim >= 1 and cfg.layer_widths and all(w >= 1 for w in cfg.layer_widths),
        "embed_dim and layer_widths must be positive",
    )
    _require(cfg.neighbors >= 1, "neighbors must be >= 1")
    _require(cfg.refresh_every >= 1, "refresh_every must be >= 1")
    _require(cfg.top_k >= 1, "top_k must be >= 1")
    _require(cfg.capacity_rounds >= 1, "capacity_rounds must be >= 1")
    _require(cfg.num_targets >= 1, "num_targets must be >= 1")
    _require(cfg.min_count >= 1, "min_count must be >= 1")
    _require(cfg.sketch_dim >= 1, "sketch_dim must be >= 1")
    _require(cfg.workers >= 1, "workers must be >= 1")
    _require(cfg.alpha >= 0, "alpha must be >= 0")
    _require(cfg.s >= 0, "s must be >= 0")
    _require(cfg.e_ft >= 0, "e_ft must be >= 0")
    _require(cfg.lam >= 0, "lambda must be >= 0")
