"""One benchmark experiment, run in a fresh child process.

Usage: ``python3 perfbench/experiment.py '<spec json>'`` with ``src`` on
PYTHONPATH.  The spec names the config overrides, the number of set-ups and
whether to trace.  The child sets the world up ``setups`` times (timing each),
then runs the round loop on the last world, snapshotting on the same rounds
as ``simulation.run_experiment``, and prints one JSON result line.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import sys
from time import perf_counter

import numpy as np

from decrecsim import cli, metrics, simulation
from decrecsim.config import parse_config
from tracing import Tracer

# Where the tracer finds the attributes it wraps (see tracing.SPANS).
OWNERS = {"simulation": simulation, "cli": cli, "metrics": metrics}


def run_workload(config, setups: int, tracer: Tracer | None = None) -> dict:
    """Set up ``setups`` times, then run every round and snapshot of ``config``."""
    def phase(name: str, index: int) -> None:
        if tracer is not None:
            tracer.phase(name, index)

    setup_s = []
    for i in range(setups):
        world = None  # release the previous world before building the next
        phase("setup", i)
        start = perf_counter()
        dataset = cli.load_dataset(config)
        world = simulation.init_world(config, dataset)
        setup_s.append(perf_counter() - start)

    def snap(index: int):
        phase("snapshot", index)
        return metrics.evaluate_world(
            world, config.top_k, attack=config.attack, defense=config.defense, seed=config.seed
        )

    start = perf_counter()
    records = [snap(0)]
    round_s = []
    for t in range(1, config.rounds + 1):
        phase("round", t)
        began = perf_counter()
        simulation.run_round(world, config)
        round_s.append(perf_counter() - began)
        if t % config.eval_every == 0 or t == config.rounds:
            records.append(snap(len(records)))
    loop_s = perf_counter() - start
    return {
        "world": world,
        "records": records,
        "setup_s": setup_s,
        "round_s": round_s,
        "run_s": setup_s[-1] + loop_s,
    }


def world_arrays(world):
    """Every float array the world holds, directly or in a per-client list.

    Walking the world's fields rather than naming them keeps the check valid
    when client state moves from per-client objects to stacked arrays.
    """
    for value in vars(world).values():
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if isinstance(item, np.ndarray):
                fields = [item]
            else:
                fields = getattr(item, "__dict__", {}).values()
            for arr in fields:
                if isinstance(arr, np.ndarray) and arr.dtype.kind == "f":
                    yield arr


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(spec: dict) -> dict:
    config = parse_config(None, spec["overrides"])
    if spec["trace"]:
        with Tracer(OWNERS) as tracer:
            out = run_workload(config, spec["setups"], tracer)
        layers, missing = tracer.summary()
    else:
        out = run_workload(config, spec["setups"])
        layers, missing = None, []
    digest = hashlib.sha256()
    finite = True
    for arr in world_arrays(out["world"]):
        finite = finite and bool(np.isfinite(arr).all())
        digest.update(np.ascontiguousarray(arr).data)
    return {
        "records": [[r.round, r.hr_at_k, r.er_at_k] for r in out["records"]],
        "setup_s": out["setup_s"],
        "round_s": out["round_s"],
        "run_s": out["run_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "params_finite": finite,
        "params_sha256": digest.hexdigest(),
        "layers": layers,
        "missing": missing,
        "environment": environment(),
    }


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
