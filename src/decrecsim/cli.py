"""Experiment driver: config resolution, run orchestration, CSV/manifest output.

``decrecsim run`` executes one experiment; ``decrecsim sweep`` repeats it
over a list of values for one numeric key with a shared base seed.  Every
run writes a metrics CSV plus a JSON manifest that fully determines the
run; replaying from a manifest (``run --from-manifest``, a sweep's manifest
included) reproduces the CSV byte for byte.  The manifest also records the
run itself (wall time, peak RSS, numpy version); replay ignores those keys.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import replace

import numpy as np

from decrecsim import __version__
from decrecsim.config import SWEEPABLE, ExperimentConfig, parse_config, set_key, validate_config
from decrecsim.dataset import FORMATS, Dataset, load_interactions, preprocess, split_and_sample
from decrecsim.errors import ConfigError
from decrecsim.metrics import MetricsRecord
from decrecsim.simulation import run_experiment

CSV_HEADER = "round,hr_at_k,er_at_k,attack,defense,seed"


def load_dataset(config: ExperimentConfig) -> Dataset:
    """Full dataset pipeline: load, filter, split."""
    raw = load_interactions(config.dataset_path, config.dataset_format)
    pre = preprocess(raw, config.min_count)
    return split_and_sample(pre, config.train_ratio, config.neg_ratio, config.seed)


def _format_rows(records: list[MetricsRecord], sweep: tuple[str, object] | None) -> list[str]:
    rows = []
    for r in records:
        row = f"{r.round},{r.hr_at_k:.6f},{r.er_at_k:.6f},{r.attack},{r.defense},{r.seed}"
        if sweep is not None:
            row += f",{sweep[0]},{sweep[1]}"
        rows.append(row)
    return rows


def _dataset_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path: str, config: ExperimentConfig, extra: dict, started: float) -> None:
    # ru_maxrss is in kilobytes on Linux and in bytes on macOS.
    rss_unit = 1 << 20 if sys.platform == "darwin" else 1 << 10
    manifest = {
        "config": config.to_dict(),
        "dataset_sha256": _dataset_sha256(config.dataset_path),
        "numpy_version": np.__version__,
        "package_version": __version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / rss_unit,
        "seed": config.seed,
        "wall_s": time.perf_counter() - started,
    }
    manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run(config: ExperimentConfig, out_dir: str | None = None) -> tuple[str, str]:
    """Execute one experiment; returns (csv path, manifest path)."""
    started = time.perf_counter()
    validate_config(config)
    out = out_dir or config.output_path
    os.makedirs(out, exist_ok=True)
    dataset = load_dataset(config)
    records = run_experiment(config, dataset)
    csv_path = os.path.join(out, "metrics.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in _format_rows(records, None):
            fh.write(row + "\n")
    manifest_path = os.path.join(out, "manifest.json")
    _write_manifest(manifest_path, config, {"outputs": {"metrics_csv": "metrics.csv"}}, started)
    return csv_path, manifest_path


def sweep(
    config: ExperimentConfig, key: str, values: list, out_dir: str | None = None
) -> tuple[str, str]:
    """One experiment per value of a sweepable key, shared base seed."""
    started = time.perf_counter()
    if key not in SWEEPABLE:
        raise ConfigError(f"key {key!r} is not sweepable")
    if not values:
        raise ConfigError("sweep requires a nonempty list of values")
    validate_config(config)
    out = out_dir or config.output_path
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, f"sweep_{key}.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(CSV_HEADER + ",sweep_key,sweep_value\n")
        for value in values:
            cfg = replace(config)
            label = set_key(cfg, key, value)
            validate_config(cfg)
            dataset = load_dataset(cfg)
            records = run_experiment(cfg, dataset)
            for row in _format_rows(records, (key, label)):
                fh.write(row + "\n")
    manifest_path = os.path.join(out, "manifest.json")
    _write_manifest(
        manifest_path,
        config,
        {
            "sweep": {"key": key, "values": list(values)},
            "outputs": {"metrics_csv": os.path.basename(csv_path)},
        },
        started,
    )
    return csv_path, manifest_path


def config_from_manifest(path: str) -> tuple[ExperimentConfig, dict | None]:
    """Rebuild the exact configuration recorded in a run manifest, and the
    manifest's sweep block ({"key", "values"}, None for a single run)."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    config = parse_config(None, manifest["config"])
    recorded = manifest.get("dataset_sha256")
    if recorded is not None:
        actual = _dataset_sha256(config.dataset_path)
        if actual != recorded:
            raise ConfigError(
                f"dataset content hash mismatch: manifest {recorded[:12]}…, file {actual[:12]}…"
            )
    return config, manifest.get("sweep")


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    flag_map = {
        "dataset": "dataset_path",
        "format": "dataset_format",
        "attack": "attack",
        "defense": "defense",
        "seed": "seed",
        "rounds": "rounds",
        "out": "output_path",
    }
    for flag, key in flag_map.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[key] = str(value)
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        overrides[key.strip()] = raw.strip()
    return overrides


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decrecsim",
        description="Simulate decentralized recommender training under "
        "poisoning attacks and defenses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("run", "execute one experiment"), ("sweep", "sweep one key")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--dataset", help="interactions file path")
        p.add_argument("--format", choices=FORMATS, help="dataset format")
        p.add_argument("--attack", help="attack strategy")
        p.add_argument("--defense", help="defense strategy")
        p.add_argument("--seed", type=int, help="root seed")
        p.add_argument("--rounds", type=int, help="training rounds")
        p.add_argument("--out", help="output directory")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override any documented config key (repeatable)",
        )
        if name == "run":
            p.add_argument("--from-manifest", help="replay a recorded run exactly")
        else:
            p.add_argument("--key", required=True, help="sweepable config key")
            p.add_argument("--values", required=True, help="comma-separated values")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            if args.from_manifest:
                config, swept = config_from_manifest(args.from_manifest)
                overrides = _collect_overrides(args)
                overrides.pop("output_path", None)
                for key, raw in overrides.items():
                    set_key(config, key, raw)
                validate_config(config)
                if swept is not None:
                    csv_path, manifest_path = sweep(
                        config, swept["key"], swept["values"], out_dir=args.out
                    )
                else:
                    csv_path, manifest_path = run(config, out_dir=args.out)
            else:
                csv_path, manifest_path = run(parse_config(args.config, _collect_overrides(args)))
            print(f"metrics: {csv_path}")
            print(f"manifest: {manifest_path}")
            return 0
        if args.command == "sweep":
            config = parse_config(args.config, _collect_overrides(args))
            values = [v.strip() for v in args.values.split(",") if v.strip()]
            csv_path, manifest_path = sweep(config, args.key, values)
            print(f"metrics: {csv_path}")
            print(f"manifest: {manifest_path}")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
