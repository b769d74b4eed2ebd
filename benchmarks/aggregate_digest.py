"""One sha256 over every neighbor aggregate a run applies.

Usage, from the repository root:

    PYTHONPATH=src python3 benchmarks/aggregate_digest.py KEY=VALUE ...

The arguments are config keys over the defaults, as ``decrecsim run --set``
takes them (``dataset_path`` among them).  The script runs the config's
rounds in this process with ``simulation.apply_neighbor_aggregate`` wrapped,
and restores it after.  Each call's ``(items, rows, net_mean)`` bytes, with
their dtypes and shapes, are hashed; the hashes are combined in (round,
receiver id) order, so a run on two workers hashes like one on one worker,
and the combined sha256 is printed.  A defense that is off by ulps changes
it, where a run's ``metrics.csv`` and world state do not: at the default lr
the neighbor step absorbs an aggregate's last bits.
"""

from __future__ import annotations

import argparse
import hashlib

from decrecsim import simulation
from decrecsim.cli import load_dataset
from decrecsim.config import parse_config


def aggregate_digest(config) -> str:
    """The combined sha256 of every aggregate config's rounds apply."""
    world = simulation.init_world(config, load_dataset(config))
    receiver = {id(c): i for i, c in enumerate(world.clients)}
    calls = []  # (round, receiver, digest); list.append is thread-safe
    real_apply = simulation.apply_neighbor_aggregate

    def apply_hashed(state, items, rows, net_mean, lr):
        h = hashlib.sha256()
        for a in (items, rows, net_mean):
            h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())
        calls.append((world.round + 1, receiver[id(state)], h.digest()))
        real_apply(state, items, rows, net_mean, lr)

    simulation.apply_neighbor_aggregate = apply_hashed
    try:
        for _ in range(config.rounds):
            simulation.run_round(world, config)
    finally:
        simulation.apply_neighbor_aggregate = real_apply
    combined = hashlib.sha256()
    for t, i, digest in sorted(calls):
        combined.update(f"{t},{i}:".encode() + digest)
    return combined.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("overrides", nargs="*", metavar="KEY=VALUE", help="config key over the defaults")
    args = parser.parse_args(argv)
    bad = [kv for kv in args.overrides if "=" not in kv]
    if bad:
        parser.error(f"expected KEY=VALUE, got {bad[0]!r}")
    print(aggregate_digest(parse_config(None, dict(kv.split("=", 1) for kv in args.overrides))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
