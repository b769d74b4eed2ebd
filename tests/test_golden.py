"""Golden runs: metrics.csv bytes for every attack x defense pair on a tiny
synthetic world, compared against the files in tests/golden/.

The world is small enough that all pairs run in seconds, and long enough
that neighbors refresh twice and UCSU's banks evict.  A change that is
meant to leave the simulator's numbers alone must leave these bytes alone.
Regenerate the files, only for a change that is meant to move the numbers,
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import os
import sys

import pytest

from decrecsim.cli import run
from decrecsim.config import ATTACKS, DEFENSES, ExperimentConfig
from decrecsim.synthetic import generate_interactions, write_movielens_dat

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
PAIRS = [(a, d) for a in ATTACKS for d in DEFENSES]


def tiny_config(dataset_path: str, attack: str, defense: str) -> ExperimentConfig:
    """40 users x 60 items, 8 rounds, refresh every 2, a 2-round UCSU bank.

    The learning rate is high so that the defenses move the six-decimal
    metrics: at the default 1e-3 every pair writes the same bytes.
    """
    return ExperimentConfig(
        dataset_path=dataset_path,
        embed_dim=4,
        layer_widths=(8, 4),
        lr=0.1,
        neighbors=6,
        refresh_every=2,
        rounds=8,
        eval_every=1,
        top_k=5,
        attack=attack,
        defense=defense,
        xi=0.1,
        alpha=5,
        s=3,
        e_ft=2,
        nu=0.3,
        capacity_rounds=2,
        num_targets=2,
        min_count=2,
        seed=11,
    )


def golden_path(attack: str, defense: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{attack}_{defense}.csv")


def write_dataset(directory: str) -> str:
    path = os.path.join(directory, "ratings.dat")
    write_movielens_dat(path, generate_interactions(40, 60, seed=3))
    return path


def metrics_bytes(dataset_path: str, out_dir: str, attack: str, defense: str) -> bytes:
    csv_path, _ = run(tiny_config(dataset_path, attack, defense), out_dir=out_dir)
    with open(csv_path, "rb") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    return write_dataset(str(tmp_path_factory.mktemp("golden_data")))


@pytest.mark.parametrize("attack,defense", PAIRS)
def test_metrics_csv_matches_golden(dataset_path, tmp_path, attack, defense):
    with open(golden_path(attack, defense), "rb") as fh:
        expected = fh.read()
    assert metrics_bytes(dataset_path, str(tmp_path), attack, defense) == expected


if __name__ == "__main__":
    import tempfile

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        data = write_dataset(tmp)
        for attack, defense in PAIRS:
            body = metrics_bytes(data, os.path.join(tmp, f"{attack}_{defense}"), attack, defense)
            with open(golden_path(attack, defense), "wb") as fh:
                fh.write(body)
            print(golden_path(attack, defense), file=sys.stderr)
