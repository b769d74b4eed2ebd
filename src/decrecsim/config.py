"""Experiment configuration: defaults, file parsing, and validation.

Config files are flat ``key = value`` text; '#' starts a comment.  Command
line flags override file values.  Unknown keys are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from decrecsim.dataset import FORMATS
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
    trim_k: int | None = None
    capacity_rounds: int = 10
    num_targets: int = 5
    target_items: tuple[int, ...] | None = None
    min_count: int = 5
    train_ratio: float = 0.8
    neg_ratio: int = 4
    seed: int = 42
    subsample_users: int | None = None
    sketch_dim: int = 16
    ucsu_clip: bool = True
    ucsu_clean_bank: bool = False
    hr_fraction: bool = False
    workers: int = 1
    output_path: str = "results"

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[_FIELD_TO_KEY.get(f.name, f.name)] = list(v) if isinstance(v, tuple) else v
        return out


# The file/CLI key for the diversity weight is "lambda" (a Python keyword,
# so the field is named lam).
_KEY_TO_FIELD = {"lambda": "lam"}
_FIELD_TO_KEY = {"lam": "lambda"}

_SWEEPABLE = {
    "xi", "lambda", "nu", "mu", "alpha", "s", "e_ft", "neighbors", "rounds",
    "top_k", "refresh_every", "eval_every", "num_targets", "capacity_rounds",
    "seed", "lr", "min_count", "train_ratio", "neg_ratio", "embed_dim",
    "sketch_dim", "trim_k", "subsample_users", "workers",
}

_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def sweepable_keys() -> set[str]:
    return set(_SWEEPABLE)


def _parse_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def _parse_int_tuple(key: str, raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in raw.split(",") if x.strip() != "")
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated integers, got {raw!r}") from None


def coerce_value(key: str, raw) -> object:
    """Convert a raw string (or already typed value) to the field's type."""
    if key not in _KEY_TO_FIELD and key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key!r}")
    name = _KEY_TO_FIELD.get(key, key)
    if not isinstance(raw, str):
        return raw
    if name in ("layer_widths", "target_items"):
        if name == "target_items" and raw.strip().lower() in ("", "none"):
            return None
        return _parse_int_tuple(key, raw)
    if name in ("trim_k", "subsample_users"):
        if raw.strip().lower() in ("", "none", "auto"):
            return None
        return _parse_int(key, raw)
    if name in ("ucsu_clip", "ucsu_clean_bank", "hr_fraction"):
        return _parse_bool(key, raw)
    if name in ("lr", "xi", "lam", "nu", "mu", "train_ratio"):
        return _parse_float(key, raw)
    if name in ("dataset_path", "dataset_format", "attack", "defense", "output_path"):
        return raw.strip()
    return _parse_int(key, raw)


def set_key(cfg: ExperimentConfig, key: str, raw) -> object:
    """Coerce a file/CLI key's raw value and set its field ("lambda" sets
    lam); returns the value set."""
    value = coerce_value(key, raw)
    setattr(cfg, _KEY_TO_FIELD.get(key, key), value)
    return value


def read_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and '#' comments are ignored."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
            key, raw = stripped.split("=", 1)
            values[key.strip()] = raw.strip()
    return values


def parse_config(path: str | None, overrides: dict | None = None) -> ExperimentConfig:
    """Build an ExperimentConfig from an optional file plus overrides.

    Overrides (from CLI flags) win over file values; every default applies
    where neither provides a value.  The result is fully validated.
    """
    cfg = ExperimentConfig()
    if path is not None:
        for key, raw in read_config_file(path).items():
            set_key(cfg, key, raw)
    for key, raw in (overrides or {}).items():
        set_key(cfg, key, raw)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig, require_dataset: bool = True) -> None:
    if require_dataset and not cfg.dataset_path:
        raise ConfigError("dataset_path is required")
    if cfg.dataset_format not in FORMATS:
        raise ConfigError(f"dataset_format must be one of {FORMATS}")
    if cfg.attack not in ATTACKS:
        raise ConfigError(f"attack must be one of {ATTACKS}")
    if cfg.defense not in DEFENSES:
        raise ConfigError(f"defense must be one of {DEFENSES}")
    if not (0.0 < cfg.nu <= 1.0):
        raise ConfigError("nu must satisfy 0 < nu <= 1")
    if not (0.0 <= cfg.xi < 1.0):
        raise ConfigError("xi must satisfy 0 <= xi < 1")
    if cfg.mu <= 0:
        raise ConfigError("mu must be > 0")
    if not (0.0 < cfg.train_ratio < 1.0):
        raise ConfigError("train_ratio must satisfy 0 < train_ratio < 1")
    if cfg.neg_ratio < 0:
        raise ConfigError("neg_ratio must be >= 0")
    if cfg.lr <= 0:
        raise ConfigError("lr must be > 0")
    if cfg.rounds < 0:
        raise ConfigError("rounds must be >= 0")
    if cfg.eval_every < 1:
        raise ConfigError("eval_every must be >= 1")
    if cfg.p not in (1, 2):
        raise ConfigError("p must be 1 or 2")
    if cfg.embed_dim < 1 or not cfg.layer_widths or any(w < 1 for w in cfg.layer_widths):
        raise ConfigError("embed_dim and layer_widths must be positive")
    for name in ("neighbors", "refresh_every", "top_k", "capacity_rounds",
                 "num_targets", "min_count", "sketch_dim", "workers"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name} must be >= 1")
    for name in ("alpha", "s", "e_ft"):
        if getattr(cfg, name) < 0:
            raise ConfigError(f"{name} must be >= 0")
    if cfg.trim_k is not None and cfg.trim_k < 0:
        raise ConfigError("trim_k must be >= 0")
    if cfg.subsample_users is not None and cfg.subsample_users < 1:
        raise ConfigError("subsample_users must be >= 1")
    if cfg.lam < 0:
        raise ConfigError("lambda must be >= 0")
    if cfg.target_items is not None and len(cfg.target_items) == 0:
        raise ConfigError("target_items must be nonempty when given")


def resolve_trim_k(trim_k: int | None, count: int) -> int:
    """Fixed trim_k, or the default policy: 10% of count, floor, min 1 when count >= 3."""
    if trim_k is not None:
        return trim_k
    if count < 3:
        return 0
    return max(1, count // 10)
