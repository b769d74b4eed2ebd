"""decrecsim benchmark: attack x defense workloads, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload pamn_ucsu_m --seed 1 --seconds 30 --trace 0

The input is generated with ``decrecsim.synthetic`` from ``--seed`` before
any timing starts; the same seed also seeds the simulation.  Each experiment
runs in a fresh child process with BLAS pinned to one thread.  With
``--trace 0`` the last stdout line carries the end-to-end metrics (set-up,
round and run wall time, peak RSS) of an untraced child.  With ``--trace 1``
a traced and then an untraced child run the same experiment; the last line
carries the per-layer metrics of the traced one, and the line before it
records the tracing overhead (null if the untraced child did not fit in the
deadline).  Every result is checked (snapshots present, HR@K and ER@K
finite and in [0, 1], client parameters finite, outputs identical across
runs of one workload on one source tree); each failed check fails one
operation.  The line before the result records the environment, the source
hash, the dataset's sha256 and the raw per-run values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / ".runs"  # generated datasets and the output ledger
DEADLINE_S = 175.0
SETUPS = 3

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    users: int
    items: int
    overrides: dict
    # A run lasts about --seconds on a 2-core reference box: its round count
    # is --seconds over this per-round time (round plus its snapshots), and
    # never below min_rounds.
    nominal_round_s: float
    min_rounds: int


M = (600, 1000)  # 600 users, about 850 items and 56k train pairs after filtering
S = (200, 400)  # 200 users, about 350 items

WORKLOADS = {
    # The paper's pair: UCSU's banks grow for capacity_rounds (10) rounds,
    # so the run covers 11 rounds to reach the steady bank size.
    "pamn_ucsu_m": Workload(
        *M, {"attack": "pamn", "defense": "ucsu", "xi": 0.05},
        nominal_round_s=4.6, min_rounds=11,
    ),
    # Per-receiver aggregation: the trimmed mean is ~90% of a round and
    # never uses UCSU's shared round rows.
    "eb_trimmed_s": Workload(
        *S, {"attack": "eb", "defense": "trimmed", "xi": 0.05},
        nominal_round_s=10.0, min_rounds=3,
    ),
}


def rounds_for(workload: Workload, seconds: int) -> int:
    return max(workload.min_rounds, math.ceil(seconds / workload.nominal_round_s))


def source_sha256() -> str:
    """Hash of the simulator's sources; identifies one commit without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "decrecsim").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def make_dataset(workload: Workload, seed: int) -> tuple[Path, str]:
    sys.path.insert(0, str(SRC))
    from decrecsim.synthetic import generate_interactions, write_movielens_dat

    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"data_{workload.users}x{workload.items}_{seed}.dat"
    write_movielens_dat(str(path), generate_interactions(workload.users, workload.items, seed))
    return path, hashlib.sha256(path.read_bytes()).hexdigest()


def run_child(spec: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, str(HERE / "experiment.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"experiment child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result: dict, rounds: int, eval_every: int) -> list[str]:
    """Failed output checks of one child, one message per failed operation."""
    failures = []
    got = {rec[0]: rec for rec in result["records"]}
    expected = [0] + [t for t in range(1, rounds + 1) if t % eval_every == 0 or t == rounds]
    for t in expected:
        rec = got.get(t)
        if rec is None:
            failures.append(f"snapshot of round {t} missing")
        elif not all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in rec[1:]):
            failures.append(f"snapshot of round {t}: HR/ER {rec[1:]} not finite in [0, 1]")
    if not result["params_finite"]:
        failures.append(f"round {rounds}: a client parameter is not finite")
    return failures


def outputs(result: dict) -> dict:
    return {"records": result["records"], "params_sha256": result["params_sha256"]}


def check_ledger(key: str, result: dict) -> list[str]:
    """Compare with earlier runs of the same key; record this one if new."""
    ledger_path = RUNS / "ledger.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    seen = ledger.setdefault(key, outputs(result))
    if seen != outputs(result):
        return [f"outputs differ from an earlier run of {key}"]
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger))
    os.replace(tmp, ledger_path)
    return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "decrecsim" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rounds = rounds_for(workload, args.seconds)
    data_path, data_sha = make_dataset(workload, args.seed)
    overrides = dict(
        workload.overrides, dataset_path=str(data_path), seed=args.seed, rounds=rounds
    )
    spec = {"overrides": overrides, "setups": SETUPS, "trace": False}
    eval_every = overrides.get("eval_every", 5)

    traced = plain = None
    try:
        if args.trace:
            traced = run_child(dict(spec, trace=True), deadline)
        plain = run_child(spec, deadline)
    except subprocess.TimeoutExpired as exc:
        if traced is None:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        # On a slow host the untraced child, which only serves to measure
        # the tracing overhead, may not fit in the deadline; the traced
        # child's per-layer metrics still stand.
        print(f"note: tracing overhead not measured: {exc}", file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    source_sha = source_sha256()
    key = f"{source_sha}:{args.workload}:{args.seed}:{rounds}"
    children = [c for c in (plain, traced) if c is not None]
    failures = [f for child in children for f in check(child, rounds, eval_every)]
    failures += check_ledger(key, children[0])
    if len(children) == 2 and outputs(traced) != outputs(plain):
        failures.append("traced outputs differ from untraced outputs")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    # Operations: every set-up, round and snapshot of every child.
    attempted = sum(len(c["setup_s"]) + len(c["round_s"]) + len(c["records"]) for c in children)

    base = children[0]  # untraced unless the deadline cut it
    e2e = {
        "setup_s": statistics.median(base["setup_s"]),
        "round_s": statistics.median(base["round_s"]),
        "run_s": base["run_s"],
        "peak_rss_mb": base["peak_rss_mb"],
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "setups": SETUPS,
        "git_commit": git_commit(),
        "source_sha256": source_sha,
        "dataset_sha256": data_sha,
        "environment": base["environment"],
        "end_to_end": e2e,
        "setup_s_each": base["setup_s"],
        "round_s_each": base["round_s"],
        "records": base["records"],
        "trace_overhead_s": traced["run_s"] - plain["run_s"] if len(children) == 2 else None,
        "missing_spans": traced["missing"] if traced else [],
    }
    print(json.dumps({"info": info}))

    if traced is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    else:
        metrics = {}
        for name, unit in metric_units().items():
            metrics[name] = {"value": traced["layers"][name], "unit": unit}
            if name in traced["missing"]:
                metrics[name]["missing"] = True
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
