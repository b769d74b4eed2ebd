"""Alternating parent/change pairs of the benchmark, summarised as BENCH_<n>.json.

Usage, from the repository root:

    python3 benchmarks/pairs.py --parent HEAD~1 --pr N --title "..." \
        --run pamn_ucsu_m=81-90 --run eb_trimmed_s=91-100

For every seed of every ``--run`` it runs ``perfbench/run.py --trace 0`` once
on the parent and once on this checkout, the parent first on even pairs (the
first pair is pair 0).  The parent is a clean export of ``--parent`` made
with ``git archive`` into a temporary directory, so the repository gains no
worktree or branch.  Each side keeps its own ``perfbench/.runs`` ledger; a
pair is bit-identical when both sides report the same ``records`` and the
same ledger ``params_sha256``; its records are identical when the
``records`` alone agree (the hash covers every float array the world
holds, so it changes with the world's fields); its datasets are identical
when both sides generated the same ratings file (``dataset_sha256``).  The
summary gives each side's quartiles, the pairs the change wins (lower is
better, ties count for neither), the median's relative change and the
parent's interquartile range, and is written to
``benchmarks/BENCH_<pr>.json``.  Each metric also records ``gain_met``
(the claim rule), ``within_bound``: the change's median is at most the
parent's times (1 + the metric's ``bound`` in ``BENCHMARK.json``, which
also gives the metrics and their units; every one is lower-is-better), and
``resolved``: the parent's IQR is at most the bound times its median, so
that a change of the bound's size stands out of the run-to-run spread; an
unresolved metric's verdicts are noise.
Every run gets ``--seconds 30``.  It refuses, before any run, a workload
given fewer than ``MIN_PAIRS`` (10) seeds.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The end-to-end metrics, each with its unit and bound, as the benchmark
# declares them.
END_TO_END = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
SECONDS = 30
# Fewest alternating pairs per workload: five can read a false +13% on a
# neutral change while the host's speed drifts.
MIN_PAIRS = 10


def quartiles(values: list[float]) -> dict[str, float]:
    """q1, median and q3, by linear interpolation between order statistics."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(med, 4), "q3": round(q3, 4)}


def compare(parent: list[float], change: list[float]) -> dict:
    """One metric over pairs (parent[i], change[i]); lower is better."""
    p, c = quartiles(parent), quartiles(change)
    p_med = statistics.median(parent)
    return {
        "parent": p,
        "change": c,
        "change_wins": sum(y < x for x, y in zip(parent, change, strict=True)),
        "median_change": round((statistics.median(change) - p_med) / p_med, 4),
        "parent_iqr": round(p["q3"] - p["q1"], 4),
    }


def gain_met(row: dict, pairs: int) -> bool:
    """The claim rule: the change wins at least 9 in 10 pairs and its median
    is lower than the parent's by more than the parent's IQR."""
    gap = row["parent"]["median"] - row["change"]["median"]
    return 10 * row["change_wins"] >= 9 * pairs and gap > row["parent_iqr"]


def within_bound(row: dict, bound: float) -> bool:
    """The regression rule: the change's median is at most the parent's
    times (1 + bound)."""
    return row["change"]["median"] <= row["parent"]["median"] * (1 + bound)


def resolved(row: dict, bound: float) -> bool:
    """The resolution rule: the parent's IQR is at most bound times the
    parent's median."""
    return row["parent_iqr"] <= bound * row["parent"]["median"]


def export_tree(rev: str, dest: Path) -> None:
    """Write the files of commit rev under dest."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run: end-to-end values, checks and outputs."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    info, verdict = json.loads(lines[-2])["info"], json.loads(lines[-1])
    ledger = json.loads((tree / "perfbench" / ".runs" / "ledger.json").read_text())
    key = f"{info['source_sha256']}:{workload}:{seed}:{info['rounds']}"
    return {
        "end_to_end": info["end_to_end"],
        "correct": verdict["correct"],
        "failed": verdict["failed"],
        "records": info["records"],
        "params_sha256": ledger[key]["params_sha256"],
        "dataset_sha256": info["dataset_sha256"],
        "environment": info["environment"],
    }


def parse_seeds(text: str) -> list[int]:
    """'81-90' to the seeds 81 to 90, both included."""
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def environment(env: dict) -> dict:
    blas = env["blas"]
    return {
        "nproc": env["nproc"],
        "blas_threads": int(env["blas_threads"]["OPENBLAS_NUM_THREADS"]),
        "numpy_version": env["numpy"],
        "blas": f"{blas['name']} {blas['version']}",
        "python": env["python"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--title", required=True)
    parser.add_argument("--run", action="append", required=True, metavar="WORKLOAD=SEEDS")
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)
    runs = [(w, parse_seeds(s)) for w, s in (r.split("=") for r in args.run)]
    short = [f"{w} ({len(seeds)})" for w, seeds in runs if len(seeds) < MIN_PAIRS]
    if short:
        parser.error(f"each workload needs at least {MIN_PAIRS} pairs; too few: {', '.join(short)}")

    with tempfile.TemporaryDirectory() as tmp:
        parent_tree = Path(tmp)
        export_tree(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        pairs = []
        for workload, seeds in runs:
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"workload": workload, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, seed)
                pairs.append(pair)
                print(workload, seed, {s: pair[s]["end_to_end"] for s in ("parent", "change")},
                      file=sys.stderr, flush=True)

    def outputs(run: dict) -> tuple:
        return run["records"], run["params_sha256"]

    workloads = {}
    for workload, seeds in runs:
        mine = [p for p in pairs if p["workload"] == workload]
        workloads[workload] = {}
        for m, spec in END_TO_END.items():
            row = compare([p["parent"]["end_to_end"][m] for p in mine],
                          [p["change"]["end_to_end"][m] for p in mine])
            row = {"unit": spec["unit"], **row, "gain_met": gain_met(row, len(mine)),
                   "within_bound": within_bound(row, spec["bound"]),
                   "resolved": resolved(row, spec["bound"])}
            workloads[workload][m] = row
            print(f"{workload} {m}: parent {row['parent']} change {row['change']} "
                  f"wins {row['change_wins']}/{len(mine)} gain met: {row['gain_met']} "
                  f"within bound: {row['within_bound']} resolved: {row['resolved']}")
    all_runs = [p[s] for p in pairs for s in ("parent", "change")]
    report = {
        "pr": args.pr,
        "title": args.title,
        "harness": f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} --trace 0",
        "order": "alternating parent/change pairs, one per seed (parent first on even pairs)",
        "backfilled": False,
        "environment": environment(pairs[0]["change"]["environment"]),
        "seeds": {w: s for w, s in runs},
        "workloads": workloads,
        "bit_identical": all(outputs(p["parent"]) == outputs(p["change"]) for p in pairs),
        "records_identical": all(p["parent"]["records"] == p["change"]["records"] for p in pairs),
        "datasets_identical": all(
            p["parent"]["dataset_sha256"] == p["change"]["dataset_sha256"] for p in pairs
        ),
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in all_runs),
        "note": args.note,
        "pairs": [
            {k: p[k] for k in ("workload", "seed", "first")}
            | {s: p[s]["end_to_end"] for s in ("parent", "change")}
            for p in pairs
        ],
    }
    out = ROOT / "benchmarks" / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
