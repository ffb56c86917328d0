"""Outside-in tracing of leoisl's layer boundaries.

The recorder wraps public functions of the library from outside: every
``leoisl.*`` module attribute that *is* a listed function (found by
identity, so ``from x import f`` bindings are covered wherever they live) is
replaced by a wrapper recording one span per call. Spans stay in memory and
are written out when the run ends; the originals are then restored.
Untraced runs never construct a recorder.

``links.capacity_bps`` is deliberately not wrapped: it is a leaf called
about 146k times per sweep inside the delivery and topology loops, so a
wrapper would distort the run. Its cost shows in its callers' self time.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from pathlib import Path

# (module, function, metric prefix). Spans are named by metric prefix.
BOUNDARIES = (
    ("orbits", "propagate", "orbits.propagate"),
    ("topology", "build_dynamic_topology", "topology.dynamic"),
    ("topology", "build_grid_topology", "topology.grid"),
    ("topology", "attach_ground_links", "topology.attach"),
    ("delivery", "build_slot_context", "delivery.slot_context"),
    ("delivery", "sweep_max_isls", "delivery.sweep"),
    ("delivery", "run_slot", "delivery.run_slot"),
    ("delivery", "generate_requests", "delivery.generate_requests"),
    ("delivery", "plan_cached", "delivery.plan_cached"),
    ("delivery", "plan_non_cached", "delivery.plan_non_cached"),
    ("delivery", "optimize_gs_shares", "delivery.gs_shares"),
    ("routing", "sdp_mhp_fraction", "routing.sdp_mhp"),
    ("routing", "ground_pair_hop_stats", "routing.hop_stats"),
    ("scenario", "load_scenario", "scenario.load"),
    ("cli", "main", "cli.main"),
)
# cli.main's self time is argument parsing, pair-file reading and CSV writing.
SELF_METRIC = {"cli.main": "cli.self_s"}

COUNTERS = (
    "topology.dynamic_isl_edges",
    "topology.ground_edges",
    "routing.sdp_mhp_pairs_checked",
    "routing.sdp_mhp_pairs_unreachable",
    "routing.hop_rows",
    "routing.hop_rows_skipped",
    "routing.hop_associations",
    "delivery.requests_delivered",
    "delivery.requests_planned",
)
# Percentiles tried for the run_slot tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


def _observe_dynamic(counters, args, kwargs, result):
    counters["topology.dynamic_isl_edges"] += len(result.edges)


def _observe_attach(counters, args, kwargs, result):
    before = kwargs["snapshot"] if "snapshot" in kwargs else args[0]
    counters["topology.ground_edges"] += len(result.edges) - len(before.edges)


def _observe_sdp_mhp(counters, args, kwargs, result):
    counters["routing.sdp_mhp_pairs_checked"] += result.pairs_checked
    counters["routing.sdp_mhp_pairs_unreachable"] += result.pairs_unreachable


def _observe_hops(counters, args, kwargs, result):
    counters["routing.hop_rows"] += len(result)
    counters["routing.hop_rows_skipped"] += sum(1 for row in result if row.skipped)
    counters["routing.hop_associations"] += sum(row.associations for row in result)


def _observe_run_slot(counters, args, kwargs, result):
    counters["delivery.requests_delivered"] += result.delivered
    counters["delivery.requests_planned"] += result.delivered + result.undelivered


OBSERVERS = {
    "topology.dynamic": _observe_dynamic,
    "topology.attach": _observe_attach,
    "routing.sdp_mhp": _observe_sdp_mhp,
    "routing.hop_stats": _observe_hops,
    "delivery.run_slot": _observe_run_slot,
}


class Recorder:
    """Spans ``(id, name, start, end, parent, run_id)`` plus boundary counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, func):
        observe = OBSERVERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.run_id))
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every binding of each boundary in the loaded leoisl modules."""
        modules = [
            module
            for mod_name, module in list(sys.modules.items())
            if module is not None and (mod_name == "leoisl" or mod_name.startswith("leoisl."))
        ]
        for mod_name, func_name, name in BOUNDARIES:
            owner = sys.modules.get(f"leoisl.{mod_name}")
            original = getattr(owner, func_name, None)
            if not callable(original):
                self.missing.append(f"{mod_name}.{func_name}")
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        payload = {
            "run_id": self.run_id,
            "missing": self.missing,
            "counters": self.counters,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def layer_metrics(span_files: list[Path]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the traced repeats of one run.

    Calls, counters and self times (span minus its child spans) are per
    repeat, as the median over repeats. ``run_slot`` latency percentiles
    pool the inclusive spans of every repeat.
    """
    per_repeat: list[dict[str, float]] = []
    run_slot_ms: list[float] = []
    missing: set[str] = set()
    for path in span_files:
        payload = json.loads(path.read_text(encoding="utf-8"))
        missing.update(payload["missing"])
        spans = payload["spans"]
        child_time: dict[int, float] = {}
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        values: dict[str, float] = {}
        for _, _, prefix in BOUNDARIES:
            values[f"{prefix}_calls"] = 0
            values[SELF_METRIC.get(prefix, f"{prefix}_s")] = 0.0
        for span_id, name, start, end, _, _ in spans:
            values[f"{name}_calls"] += 1
            values[SELF_METRIC.get(name, f"{name}_s")] += (end - start) - child_time.get(span_id, 0.0)
            if name == "delivery.run_slot":
                run_slot_ms.append((end - start) * 1e3)
        values.update(payload["counters"])
        per_repeat.append(values)

    metrics = {key: statistics.median(r[key] for r in per_repeat) for key in per_repeat[0]}
    planned = metrics.pop("delivery.requests_planned")
    delivered = metrics.pop("delivery.requests_delivered")
    metrics["delivery.delivered_ratio"] = delivered / planned if planned else 0.0
    metrics.update(_run_slot_percentiles(run_slot_ms))
    metrics["trace.missing_boundaries"] = len(missing)
    return metrics, sorted(missing)


def _run_slot_percentiles(samples_ms: list[float]) -> dict[str, float]:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    out = {
        "delivery.run_slot_samples": n,
        "delivery.run_slot_p50_ms": statistics.median(ordered) if n else 0.0,
        "delivery.run_slot_tail_pct": 0.0,
        "delivery.run_slot_tail_ms": 0.0,
    }
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= TAIL_MIN_BEYOND:
            rank = max(1, math.ceil(pct * n / 100.0))  # nearest rank
            out["delivery.run_slot_tail_pct"] = pct
            out["delivery.run_slot_tail_ms"] = ordered[rank - 1]
            break
    return out
