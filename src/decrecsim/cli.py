"""Experiment driver: config resolution, run orchestration, CSV/manifest output.

A config is the defaults, then ``--from-manifest``'s recorded values, then
the ``--config`` file, then the flags, each over the ones before.  ``--out``
(default ``results``) alone says where a run writes.  One command runs one
experiment; a sweep is a shell loop over ``run``, e.g.
``for v in 0.5 2; do decrecsim run --config a.cfg --set lambda=$v --out runs/lambda=$v; done``.
A run hashes the dataset file it reads once, before simulating, and refuses
a replay whose manifest records another hash.  Its ``manifest.json`` records
that hash and fully determines its ``metrics.csv``, which a replay
reproduces byte for byte, and the run itself (wall time, peak RSS, numpy
version), which replay ignores.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import warnings

import numpy as np

from decrecsim import __version__
from decrecsim.config import ExperimentConfig, parse_config, validate_config
from decrecsim.dataset import (
    FORMATS,
    PAD,
    Dataset,
    load_interactions,
    preprocess,
    read_text,
    split_and_sample,
)
from decrecsim.errors import ConfigError
from decrecsim.simulation import run_experiment

CSV_HEADER = "round,hr_at_k,er_at_k,attack,defense,seed"


def load_dataset(config: ExperimentConfig) -> Dataset:
    """Full dataset pipeline: load, filter, split."""
    raw = load_interactions(config.dataset_path, config.dataset_format)
    pre = preprocess(raw, config.min_count)
    return split_and_sample(pre, config.train_ratio, config.neg_ratio, config.seed)


def _dataset_sha256(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def _write_manifest(path: str, config: ExperimentConfig, digest: str, started: float) -> None:
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    rss_unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
    manifest = {
        "config": config.to_dict(),
        "dataset_sha256": digest,
        "numpy_version": np.__version__,
        "outputs": {"metrics_csv": "metrics.csv"},
        "package_version": __version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / rss_unit,
        "seed": config.seed,
        "wall_s": time.perf_counter() - started,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(config: ExperimentConfig, out_dir: str, dataset_sha256: str | None = None) -> tuple[str, str]:
    """Execute one experiment into out_dir; returns (metrics.csv path, manifest.json path).
    The dataset file is hashed once, before it is loaded; a replay passes its
    recorded hash, and a file with another is refused before out_dir is made."""
    started = time.perf_counter()
    validate_config(config)
    digest = _dataset_sha256(config.dataset_path)
    if dataset_sha256 not in (None, digest):
        raise ConfigError(
            f"dataset content hash mismatch: {config.dataset_path} hashes to {digest[:12]}…, "
            f"the manifest records {dataset_sha256[:12]}…"
        )
    rows = [CSV_HEADER] + [
        f"{r.round},{r.hr_at_k:.6f},{r.er_at_k:.6f},{r.attack},{r.defense},{r.seed}"
        for r in run_experiment(config, load_dataset(config))
    ]
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.writelines(row + "\n" for row in rows)
    manifest_path = os.path.join(out_dir, "manifest.json")
    _write_manifest(manifest_path, config, digest, started)
    return csv_path, manifest_path


def manifest_values(path: str) -> tuple[dict, str | None]:
    """The config values a run manifest records (parse_config's base) and its
    dataset hash, or None; run checks that hash against the file it reads."""
    try:
        manifest = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not a run manifest: {exc}") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"{path}: not a run manifest: no 'config' object")
    if "sweep" in manifest:  # an old sweep's; its config is only the sweep's base
        raise ConfigError(f"{path}: a sweep manifest; replay each value's run manifest instead")
    values = manifest["config"]
    values.pop("output_path", None)  # recorded while the config held the output directory
    recorded = manifest.get("dataset_sha256")
    if recorded is not None and not isinstance(recorded, str):
        raise ConfigError(f"{path}: dataset_sha256 is not a hex digest: {recorded!r}")
    return values, recorded


# The flags that set a config key each have that key as their dest.
_FLAG_KEYS = ("dataset_path", "dataset_format", "attack", "defense", "seed", "rounds")


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides = {k: str(getattr(args, k)) for k in _FLAG_KEYS if getattr(args, k) is not None}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        overrides[key.strip(PAD)] = raw.strip(PAD)
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decrecsim",
        description="Simulate decentralized recommender training under "
        "poisoning attacks and defenses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="execute one experiment")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--dataset", dest="dataset_path", help="interactions file path")
    p.add_argument("--format", dest="dataset_format", choices=FORMATS, help="dataset format")
    p.add_argument("--attack", help="attack strategy")
    p.add_argument("--defense", help="defense strategy")
    p.add_argument("--seed", type=int, help="root seed")
    p.add_argument("--rounds", type=int, help="training rounds")
    p.add_argument("--out", default="results", help="output directory (default: results)")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any documented config key (repeatable)",
    )
    p.add_argument("--from-manifest", help="replay a manifest under --config and flags")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Warnings wait for the run's end: a refused run's (numpy's overflow in
    # a diverged run) are symptoms of its one error line and are dropped.
    with warnings.catch_warnings(record=True) as held:
        try:
            base, digest = manifest_values(args.from_manifest) if args.from_manifest else (None, None)
            config = parse_config(args.config, _collect_overrides(args), base)
            csv_path, manifest_path = run(config, args.out, digest)
        except (ConfigError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    print(f"metrics: {csv_path}")
    print(f"manifest: {manifest_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
