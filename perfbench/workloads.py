"""Benchmark workloads: seeded inputs, CLI commands and output checks.

Each workload is sized so that one layer of leoisl does most of its work:

- ``sweep-120``: the criterion-1 sweep on the 120-satellite baseline. All
  320 cells share one slot context, so the delivery planners dominate.
- ``track-528``: one optimized cell per epoch on a cold 24x22 slot context.
  Nothing is shared across cells; the work splits between the lazy
  shortest-path trees of ``plan_non_cached`` and the full-mesh
  ``build_dynamic_topology``.
- ``paths-1584``: ``sdp-mhp`` and ``hops`` on the Starlink shell-1 +grid
  (72x22, 550 km, 53 deg). Routing dominates; grid construction is cheap.
- ``dynamic-1584``: one degree-capped dynamic snapshot with ground links at
  Starlink shell-1, where the O(n^2) pair loop of the topology layer does
  nearly all the work.

``BENCHMARK.json`` keeps only ``sweep-120`` and ``paths-1584``. On a shared
2-vCPU VM whose speed drifts by up to 1.7x over seconds to minutes, a run
needs about a minute of repeats to stay inside the bounds, and the
benchmark's total time budget allows 60-second runs for two workloads only.
``dynamic-1584`` (three to five 8-second repeats in a run) spread past the
largest bound allowed even then. ``track-528`` and ``dynamic-1584`` stay
runnable by hand; ``build_dynamic_topology``, ``attach_ground_links`` and
``plan_non_cached`` are still called, and traced, on ``sweep-120``.

The program only ever sees the files written here and its CLI arguments.
Every input is drawn from the workload seed. Checkers return the number of
violations found in one output; each violation counts as one failed op.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep-120", "track-528", "paths-1584", "dynamic-1584")

SWEEP_MODES = ("optimized", "greedy", "equal", "full")
SWEEP_HEADER = ["max_isls", "mode", "seed", "epoch_s", "avg_delay_s", "delivered", "undelivered"]
HOPS_HEADER = ["pair_id", "epoch_s", "min_hops", "max_hops", "mean_hops", "spread"]
EDGE_HEADER = ["epoch_s", "node_a", "node_b", "link_class", "distance_km", "capacity_bps", "delay_s"]
PAIRS_HEADER = ("pair_id", "lat_a", "lon_a", "lat_b", "lon_b")
# Slack for the planner's dominance guarantees between sweep modes.
DOMINANCE_TOL_S = 1e-12

BASELINE_120 = {}
TRACK_528 = {"num_planes": 24, "sats_per_plane": 22, "altitude_km": 1000.0}
# Starlink shell 1 (Bhattacherjee & Singla, CoNEXT 2019; Kassing et al., IMC 2020).
SHELL1_1584 = {
    "num_planes": 72,
    "sats_per_plane": 22,
    "altitude_km": 550.0,
    "inclination_deg": 53.0,
}
# The self-check runs every workload on the baseline shell, in about a second.
QUICK_SHELL = BASELINE_120
# The baseline's four aircraft: (node_id, latitude, longitude, heading).
BASELINE_AIRCRAFT = (
    ("ac-atlantic", 50.0, -30.0, 250.0),
    ("ac-pacific", 20.0, 130.0, 45.0),
    ("ac-europe-asia", 45.0, 70.0, 110.0),
    ("ac-americas", -5.0, -60.0, 200.0),
)
# Seeded displacement of each aircraft: degrees of latitude/longitude, heading.
AIRCRAFT_JITTER_DEG = (1.0, 1.0, 5.0)
# Seeded displacement of each ground-pair end, degrees of latitude and longitude.
HOP_PAIR_JITTER_DEG = 1.0


@dataclass(frozen=True)
class Command:
    """One ``leoisl.cli.main`` call of a workload."""

    label: str
    argv: tuple[str, ...]
    items: int
    output: Path  # the file the command writes, or where its stdout is saved
    check: Callable[[str], int]
    stdout: bool = False  # the command prints its result instead


def prepare(name: str, seed: int, workdir: Path, quick: bool = False) -> list[Command]:
    """Write the workload's seeded inputs, validate them, return its commands."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    if name == "sweep-120":
        return _sweep_commands(rng, workdir, quick)
    if name == "track-528":
        return _track_commands(rng, workdir, quick)
    if name == "paths-1584":
        return _paths_commands(rng, workdir, quick)
    return _dynamic_commands(rng, workdir, quick)


def _write_scenario(workdir: Path, constellation: dict, rng: random.Random, **extra):
    """Scenario JSON with a seeded request seed, checked by ``load_scenario``."""
    import leoisl.scenario  # resolved at call time, so a tracer sees this load

    raw = {"constellation": constellation, "seed": rng.randrange(1, 1_000_000)}
    raw.update(extra)
    path = workdir / "scenario.json"
    path.write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path, leoisl.scenario.load_scenario(path)


def _jittered_aircraft(rng: random.Random) -> list[dict]:
    """The baseline aircraft, each displaced by a seeded few degrees.

    Node ids are kept, so request draws (one per aircraft, in id order) are
    those of the baseline.
    """
    d_lat, d_lon, d_heading = AIRCRAFT_JITTER_DEG
    return [
        {
            "node_id": node_id,
            "latitude_deg": round(lat + rng.uniform(-d_lat, d_lat), 3),
            "longitude_deg": round(lon + rng.uniform(-d_lon, d_lon), 3),
            "heading_deg": round(heading + rng.uniform(-d_heading, d_heading), 3),
        }
        for node_id, lat, lon, heading in BASELINE_AIRCRAFT
    ]


def _sweep_commands(rng, workdir, quick):
    # The request seeds stay the paper's criterion-1 seeds (scenario seed 1,
    # then 1..10): which aircraft draw a non-cached file sets the planner's
    # cost, per seed from 0.03 s to over 1 s for the 32 cells of one seed,
    # so a drawn seed would make the run-to-run spread that of the draws.
    # The workload seed moves the aircraft instead.
    path, scenario = _write_scenario(
        workdir, BASELINE_120, rng, seed=1, aircraft=_jittered_aircraft(rng)
    )
    isls, seeds = ((1, 2), 2) if quick else (tuple(range(1, 9)), 10)
    out = workdir / "sweep.csv"
    argv = (
        "ifc-sweep", "--scenario", str(path),
        "--isls", ",".join(map(str, isls)), "--modes", ",".join(SWEEP_MODES),
        "--seeds", str(seeds), "--epochs", "1", "--output", str(out),
    )  # fmt: skip
    cells = len(isls) * len(SWEEP_MODES) * seeds
    check = partial(check_sweep, cells=cells, aircraft=len(scenario.aircraft))
    return [Command("ifc-sweep", argv, cells, out, check)]


def _track_commands(rng, workdir, quick):
    # Every request is non-cached, so every cell builds shortest-path trees
    # on its cold context. With the baseline's 50% hit probability the
    # number of non-cached requests (0 to 4) would set the cost of a cell.
    path, scenario = _write_scenario(
        workdir, QUICK_SHELL if quick else TRACK_528, rng, ifc={"cache_hit_probability": 0.0}
    )
    out = workdir / "track.csv"
    argv = (
        "ifc-sweep", "--scenario", str(path), "--isls", "4", "--modes", "optimized",
        "--seeds", "1", "--epochs", "1", "--output", str(out),
    )  # fmt: skip
    # One mode, so no dominance check: above 12 holder candidates the subset
    # search is a local search, which would not guarantee it anyway.
    check = partial(check_sweep, cells=1, aircraft=len(scenario.aircraft))
    return [Command("ifc-sweep", argv, 1, out, check)]


def _paths_commands(rng, workdir, quick):
    path, _ = _write_scenario(
        workdir, QUICK_SHELL if quick else SHELL1_1584, rng, topology={"mode": "grid"}
    )
    sdp_pairs, hop_pairs = (20, 4) if quick else (200, 40)
    pairs_path = workdir / "pairs.csv"
    _write_ground_pairs(pairs_path, hop_pairs, rng)
    sdp_argv = (
        "sdp-mhp", "--scenario", str(path), "--mode", "grid",
        "--pairs", str(sdp_pairs), "--epochs", "1", "--seed", str(rng.randrange(1, 1_000_000)),
    )  # fmt: skip
    out = workdir / "hops.csv"
    hops_argv = (
        "hops", "--scenario", str(path), "--pairs", str(pairs_path),
        "--epochs", "1", "--output", str(out),
    )  # fmt: skip
    return [
        Command(
            "sdp-mhp", sdp_argv, sdp_pairs, workdir / "sdp-mhp.txt",
            partial(check_sdp_mhp, pairs=sdp_pairs), stdout=True,
        ),  # fmt: skip
        Command("hops", hops_argv, hop_pairs, out, partial(check_hops, rows=hop_pairs)),
    ]


def _write_ground_pairs(path: Path, count: int, rng: random.Random) -> None:
    """Ground pairs within +-50 deg latitude, where a 53 deg shell has coverage.

    ``hops`` builds one BFS tree per satellite visible from a first end, so
    how the ends' footprints overlap sets its cost and memory: freshly drawn
    pairs spread that tree count 0.076 (IQR over median) across seeds. The
    pairs are therefore drawn once, from a fixed seed, with latitudes
    stratified (one per equal band, in shuffled order) because visibility
    grows with latitude. The workload seed turns the whole set about the
    Earth's axis and moves each end by up to ``HOP_PAIR_JITTER_DEG``.
    """
    base = random.Random(f"ground-pairs:{count}")
    bands = 2 * count
    lats = [-50.0 + 100.0 * (k + base.random()) / bands for k in range(bands)]
    base.shuffle(lats)
    lons = [base.uniform(-180, 180) for _ in range(bands)]
    turn = rng.uniform(0.0, 360.0)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(PAIRS_HEADER)
        for idx in range(count):
            ends = []
            for k in (2 * idx, 2 * idx + 1):
                lat = lats[k] + rng.uniform(-HOP_PAIR_JITTER_DEG, HOP_PAIR_JITTER_DEG)
                lon = lons[k] + turn + rng.uniform(-HOP_PAIR_JITTER_DEG, HOP_PAIR_JITTER_DEG)
                ends += [lat, (lon + 180.0) % 360.0 - 180.0]
            writer.writerow((f"p{idx:03d}",) + tuple(round(x, 3) for x in ends))


def _dynamic_commands(rng, workdir, quick):
    path, scenario = _write_scenario(workdir, QUICK_SHELL if quick else SHELL1_1584, rng)
    epoch = round(rng.uniform(0.0, scenario.constellation.orbital_period_s), 3)
    out = workdir / "topology.csv"
    argv = (
        "topology", "--scenario", str(path), "--mode", "dynamic", "--max-isls", "4",
        "--ground", "--epoch", repr(epoch), "--output", str(out),
    )  # fmt: skip
    check = partial(check_dynamic, scenario_path=path, epoch=epoch, max_isls=4)
    return [Command("topology", argv, 1, out, check)]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _finite(text: str) -> float | None:
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def check_sweep(text: str, *, cells: int, aircraft: int) -> int:
    """Row count, finite positive delays, request accounting, mode dominance.

    Dominance holds where the subset search is exhaustive (at most 12 holder
    candidates, as on the baseline): optimized <= greedy, optimized <= equal
    and fully connected <= optimized, per (budget, seed, epoch).
    """
    rows = _csv_rows(text)
    if not rows or rows[0] != SWEEP_HEADER:
        return cells
    body = rows[1:]
    violations = abs(len(body) - cells)
    by_cell: dict[tuple[str, str, str], dict[str, float]] = {}
    for row in body:
        if len(row) != len(SWEEP_HEADER):
            violations += 1
            continue
        isls, mode, seed, epoch, delay_text, delivered, undelivered = row
        delay = _finite(delay_text)
        if delay is None or delay <= 0.0:
            violations += 1
        if not (delivered.isdigit() and undelivered.isdigit()) or int(delivered) + int(undelivered) != aircraft:
            violations += 1
        if delay is not None:
            by_cell.setdefault((isls, seed, epoch), {})[mode] = delay
    for modes in by_cell.values():
        for better, worse in (("optimized", "greedy"), ("optimized", "equal"), ("full", "optimized")):
            if better in modes and worse in modes and modes[better] > modes[worse] + DOMINANCE_TOL_S:
                violations += 1
    return violations


def check_sdp_mhp(text: str, *, pairs: int) -> int:
    """Every sampled pair is either checked or unreachable; fraction in [0, 1]."""
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    try:
        fraction = float(fields["fraction"])
        checked = int(fields["pairs_checked"])
        matched = int(fields["pairs_matched"])
        unreachable = int(fields["pairs_unreachable"])
    except (KeyError, ValueError):
        return pairs
    violations = 0
    if checked + unreachable != pairs:
        violations += 1
    if not 0.0 <= fraction <= 1.0:
        violations += 1
    if not 0 <= matched <= checked:
        violations += 1
    return violations


def check_hops(text: str, *, rows: int) -> int:
    """One row per pair (one epoch); min <= mean <= max and spread = max - min."""
    table = _csv_rows(text)
    if not table or table[0] != HOPS_HEADER:
        return rows
    body = table[1:]
    violations = abs(len(body) - rows)
    for row in body:
        if len(row) != len(HOPS_HEADER):
            violations += 1
            continue
        stats = row[2:]
        if all(cell == "" for cell in stats):  # skipped: no association
            continue
        try:
            lo, hi, mean, spread = int(stats[0]), int(stats[1]), float(stats[2]), int(stats[3])
        except ValueError:
            violations += 1
            continue
        if not lo <= mean <= hi or spread != hi - lo:
            violations += 1
    return violations


def check_dynamic(text: str, *, scenario_path: Path, epoch: float, max_isls: int) -> int:
    """ISL degree cap, range and line of sight; ground elevation masks; row order.

    Geometry is re-derived from the scenario and checked with the scalar
    ``orbits.visible`` and ``orbits.elevation_deg`` oracles, one edge at a time.
    """
    import leoisl.orbits as orbits
    import leoisl.scenario

    table = _csv_rows(text)
    if not table or table[0] != EDGE_HEADER:
        return 1
    scenario = leoisl.scenario.load_scenario(scenario_path)
    topo = scenario.topology
    positions = {s.node_key: s.position_km for s in orbits.propagate(scenario.constellation, epoch)}
    ground = {g.node_id: g for g in scenario.ground_stations + scenario.aircraft}
    for node_id, node in ground.items():
        positions[node_id] = orbits.ground_position(node, epoch)
    violations = 0
    degree: dict[str, int] = {}
    previous = None
    for row in table[1:]:
        if len(row) != len(EDGE_HEADER) or _finite(row[0]) != epoch:
            violations += 1
            continue
        a, b, link_class = row[1], row[2], row[3]
        key = (a, b, link_class)
        if a >= b or (previous is not None and key <= previous):
            violations += 1
        previous = key
        if a not in positions or b not in positions:
            violations += 1
            continue
        if link_class == "isl_laser":
            distance = _finite(row[4])
            if a in ground or b in ground or distance is None or distance > topo.max_range_km:
                violations += 1
            elif not orbits.visible(positions[a], positions[b], topo.grazing_altitude_km):
                violations += 1
            for node in (a, b):
                degree[node] = degree.get(node, 0) + 1
                if degree[node] == max_isls + 1:
                    violations += 1
            continue
        # The ground end observes: the station on feeder and ground-to-air
        # links, the aircraft on space-to-air links.
        observer, target = _observer(a, b, link_class, ground)
        if observer is None:
            violations += 1
        elif orbits.elevation_deg(positions[observer], positions[target]) < topo.elevation_mask_deg:
            violations += 1
    return violations


def _observer(a: str, b: str, link_class: str, ground: dict) -> tuple[str | None, str]:
    kinds = {n: ground[n].kind for n in (a, b) if n in ground}
    wanted = {
        "ground_to_sat": ("ground_station", 1),
        "sat_to_air": ("aircraft", 1),
        "ground_to_air": ("ground_station", 2),
    }.get(link_class)
    if wanted is None or len(kinds) != wanted[1]:
        return None, ""
    for node, kind in kinds.items():
        if kind == wanted[0]:
            return node, b if node == a else a
    return None, ""
