"""Per-layer spans recorded from outside the program.

The tracer swaps the public functions that ``decrecsim.simulation``,
``decrecsim.cli`` and ``decrecsim.metrics`` call for timing wrappers, keeps
every span's busy and self time in memory, counts the work that passes
through those boundaries, and puts the originals back on exit.  A name the
program no longer has is reported as a missing span, never as a crash, so the
benchmark keeps working while later changes reshape the program.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter

# (span name, owner of the attribute, attribute).  Owners are resolved at
# install time: "simulation" and "cli" are the modules whose calls are
# timed, "metrics" is where the benchmark's own snapshot call goes, and
# "simulation.MemoryBank" is the bank class as simulation sees it.
SPANS = (
    ("dataset.load_interactions", "cli", "load_interactions"),
    ("dataset.preprocess", "cli", "preprocess"),
    ("dataset.split_and_sample", "cli", "split_and_sample"),
    ("simulation.init_world", "simulation", "init_world"),
    ("simulation.run_round", "simulation", "run_round"),
    ("model.local_train_step", "simulation", "local_train_step"),
    ("model.compute_gradients", "simulation", "compute_gradients"),
    ("model.apply_neighbor_aggregate", "simulation", "apply_neighbor_aggregate"),
    ("neighbors.sketch_item_table", "simulation", "sketch_item_table"),
    ("neighbors.assign_neighbors", "simulation", "assign_neighbors"),
    ("attacks.adversary_collab_update", "simulation", "adversary_collab_update"),
    ("attacks.update_adversary_user_embedding", "simulation", "update_adversary_user_embedding"),
    ("attacks.select_substitute_items", "simulation", "select_substitute_items"),
    ("attacks.pamn_poison", "simulation", "pamn_poison"),
    ("attacks.baseline_poison", "simulation", "baseline_poison"),
    ("defenses.build_round_rows", "simulation", "build_round_rows"),
    ("defenses.ucsu_aggregate", "simulation", "ucsu_aggregate"),
    ("defenses.MemoryBank.pop_top_fraction", "simulation.MemoryBank", "pop_top_fraction"),
    ("defenses.median_aggregate", "simulation", "median_aggregate"),
    ("defenses.trimmed_mean_aggregate", "simulation", "trimmed_mean_aggregate"),
    ("defenses.item_krum_aggregate", "simulation", "item_krum_aggregate"),
    ("defenses.l2_clip_aggregate", "simulation", "l2_clip_aggregate"),
    ("metrics.evaluate_world", "metrics", "evaluate_world"),
)

# Spans timed once per set-up or per snapshot; every other span is per round.
SETUP_SPANS = {
    "dataset.load_interactions",
    "dataset.preprocess",
    "dataset.split_and_sample",
    "simulation.init_world",
}
SNAPSHOT_SPANS = {"metrics.evaluate_world"}
# Neighbor work happens on refresh rounds only; its medians are over those.
REFRESH_SPANS = {"neighbors.sketch_item_table", "neighbors.assign_neighbors"}
CALL_COUNTED = {
    "model.local_train_step",
    "model.compute_gradients",
    "model.apply_neighbor_aggregate",
    "neighbors.sketch_item_table",
    "defenses.ucsu_aggregate",
    "defenses.median_aggregate",
    "defenses.trimmed_mean_aggregate",
    "defenses.item_krum_aggregate",
    "defenses.l2_clip_aggregate",
}

# Counts, with the span whose wrapper observes them and their unit.
COUNTS = {
    "dataset.records": ("dataset.load_interactions", "count"),
    "dataset.train_pairs": ("dataset.split_and_sample", "count"),
    "simulation.state_bytes": ("simulation.init_world", "B"),
    "simulation.exchange_rows": ("simulation.run_round", "count"),
    "neighbors.refreshes": ("neighbors.assign_neighbors", "count"),
    "attacks.poison_rows": ("attacks.pamn_poison", "count"),
    "defenses.bank_rows": ("simulation.run_round", "count"),
    "defenses.rows_popped": ("defenses.MemoryBank.pop_top_fraction", "count"),
    "defenses.pop_share": ("defenses.MemoryBank.pop_top_fraction", "ratio"),
    "metrics.snapshots": ("metrics.evaluate_world", "count"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name, _, _ in SPANS:
        units[f"{name}.s"] = "s"
        if name == "simulation.run_round":
            units[f"{name}.self_s"] = "s"
        if name in CALL_COUNTED:
            units[f"{name}.calls"] = "count"
    for name, (_, unit) in COUNTS.items():
        units[name] = unit
    return units


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    """Install with ``with Tracer(owners) as tr:``; call ``phase`` before each step.

    ``owners`` maps the owner names used in SPANS to the objects holding the
    attributes.  Busy, self time and calls are kept per (phase, index), where
    the phase is "setup", "round" or "snapshot".
    """

    def __init__(self, owners: dict, spans=SPANS):
        self._owners = owners
        self._spans = spans
        self._saved: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        # span name -> name of the span it last ran inside (None at top level)
        self.parents: dict[str, str | None] = {}
        self._stack: list[list] = []
        self._key = ("setup", 0)
        # (phase, index) -> span name -> [busy s, self s, calls]
        self._time: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        # (phase, index) -> count name -> value
        self._counts: dict = defaultdict(lambda: defaultdict(float))
        self._packet_rows: dict[int, int] = {}

    def __enter__(self) -> "Tracer":
        for name, owner_name, attr in self._spans:
            owner = self._resolve(owner_name)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.add(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _resolve(self, owner_name: str):
        head, *rest = owner_name.split(".")
        obj = self._owners.get(head)
        for part in rest:
            obj = getattr(obj, part, None)
        return obj

    def phase(self, phase: str, index: int) -> None:
        """Attribute the spans that follow to this step of the run."""
        self._key = (phase, index)

    def _wrap(self, name: str, fn):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            frame = [0.0, name]  # busy time of child spans, span name
            self.parents[name] = self._stack[-1][1] if self._stack else None
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += busy
                slot = self._time[self._key][name]
                slot[0] += busy
                slot[1] += busy - frame[0]
                slot[2] += 1
            if hook is not None:
                try:
                    hook(args, result)
                except (AttributeError, TypeError):
                    self.missing.update(
                        c for c, (src, _) in COUNTS.items() if src == name
                    )
            return result

        return traced

    def _count(self, name: str, value: float) -> None:
        self._counts[self._key][name] += value

    # Hooks run after a wrapped call returns; their cost is part of the
    # tracing overhead, not of any span.

    def _after_dataset_load_interactions(self, args, raw) -> None:
        self._count("dataset.records", len(raw))

    def _after_dataset_split_and_sample(self, args, dataset) -> None:
        self._count("dataset.train_pairs", sum(len(p) for p in dataset.pairs))

    def _after_simulation_init_world(self, args, world) -> None:
        config, dataset = args[0], args[1]
        # Item table plus the two dense Adam moments, float64, per client.
        self._count(
            "simulation.state_bytes",
            world.num_clients * dataset.num_items * config.embed_dim * 3 * 8,
        )

    def _after_model_compute_gradients(self, args, result) -> None:
        packet = result[1]
        self._packet_rows[int(packet.sender)] = len(packet.item_idx)

    def _after_attacks_pamn_poison(self, args, packet) -> None:
        self._packet_rows[int(packet.sender)] = len(packet.item_idx)
        self._count("attacks.poison_rows", len(packet.item_idx))

    _after_attacks_baseline_poison = _after_attacks_pamn_poison

    def _after_neighbors_assign_neighbors(self, args, result) -> None:
        self._count("neighbors.refreshes", 1)

    def _after_defenses_MemoryBank_pop_top_fraction(self, args, result) -> None:
        popped = len(result[0])
        self._count("defenses.rows_popped", popped)
        self._count("banked_before_pop", args[0].size() + popped)

    def _after_metrics_evaluate_world(self, args, record) -> None:
        self._count("metrics.snapshots", 1)

    def _after_simulation_run_round(self, args, result) -> None:
        world = args[0]
        rows, self._packet_rows = self._packet_rows, {}
        nbr = world.neighbor_map
        delivered = 0
        if nbr is not None:
            for i in range(world.num_clients):
                if i not in world.adversary_ids:
                    delivered += sum(rows.get(k, 0) for k in nbr.neighbors_of(i).tolist())
        self._count("simulation.exchange_rows", delivered)
        self._count("defenses.bank_rows", sum(b.size() for b in world.banks.values()))

    def summary(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metric values and the sorted names of missing metrics."""
        keys = {p: sorted(k for k in self._time.keys() | self._counts.keys() if k[0] == p)
                for p in ("setup", "round", "snapshot")}
        refresh = [k for k in keys["round"]
                   if self._counts[k].get("neighbors.refreshes", 0) > 0]
        out: dict[str, float] = {}
        for name, _, _ in self._spans:
            if name in SETUP_SPANS:
                over = keys["setup"]
            elif name in SNAPSHOT_SPANS:
                over = keys["snapshot"]
            elif name in REFRESH_SPANS:
                over = refresh
            else:
                over = keys["round"]
            out[f"{name}.s"] = _median(self._time[k][name][0] for k in over)
            if name == "simulation.run_round":
                out[f"{name}.self_s"] = _median(self._time[k][name][1] for k in over)
            if name in CALL_COUNTED:
                out[f"{name}.calls"] = _median(self._time[k][name][2] for k in over)

        def per(phase, count):
            return [self._counts[k].get(count, 0.0) for k in keys[phase]]

        setup_last = keys["setup"][-1:] or [("setup", 0)]
        for count in ("dataset.records", "dataset.train_pairs", "simulation.state_bytes"):
            out[count] = self._counts[setup_last[0]].get(count, 0.0)
        out["simulation.exchange_rows"] = _median(per("round", "simulation.exchange_rows"))
        out["neighbors.refreshes"] = sum(per("round", "neighbors.refreshes"))
        out["attacks.poison_rows"] = _median(per("round", "attacks.poison_rows"))
        out["defenses.bank_rows"] = max(per("round", "defenses.bank_rows"), default=0.0)
        out["defenses.rows_popped"] = _median(per("round", "defenses.rows_popped"))
        banked = sum(per("round", "banked_before_pop"))
        out["defenses.pop_share"] = sum(per("round", "defenses.rows_popped")) / banked if banked else 0.0
        out["metrics.snapshots"] = sum(per("snapshot", "metrics.snapshots"))

        missing = set()
        for metric in out:
            span = COUNTS[metric][0] if metric in COUNTS else metric.rsplit(".", 1)[0]
            if span in self.missing or metric in self.missing:
                missing.add(metric)
        return out, sorted(missing)

    def round_spans(self) -> list[dict[str, tuple[float, float, int]]]:
        """Per round, in order: span name -> (busy s, self s, calls)."""
        return [
            {name: tuple(v) for name, v in self._time[key].items()}
            for key in sorted(k for k in self._time if k[0] == "round")
        ]
