"""Command-line harness.

Subcommands: ``propagate`` (satellite state CSV), ``topology`` (edge-list
CSV), ``route`` (single path report), ``hops`` (ground-pair hop statistics),
``sdp-mhp`` (shortest-distance vs minimum-hop discriminant fraction) and
``ifc-sweep`` (average delivery delay versus the degree budget).

Exit codes: 0 success, 1 bad input, 2 runtime failure. All randomness flows
from explicit seeds; identical inputs give byte-identical CSV.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

from . import delivery, routing
from .links import ISL_LASER
from .orbits import propagate
from .scenario import Scenario, ScenarioError, load_scenario
from .topology import GRID_MODE, TOPOLOGY_MODES, attach_ground_links, build_isl_snapshot

PROPAGATE_CSV_HEADER = (
    "sat_id",
    "plane",
    "slot",
    "x_km",
    "y_km",
    "z_km",
    "vx_km_s",
    "vy_km_s",
    "vz_km_s",
)


class _CliError(Exception):
    """Bad command input; maps to exit code 1."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise _CliError(message)


def _write_rows(rows, output: str | None) -> None:
    if output is None:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows(rows)
        return
    with open(output, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)


def _epoch_s(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text!r}")
    return value


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_at_least(text, 0)


def _parse_int_range(text: str) -> list[int]:
    """Degree budgets >= 0: a range '1..8' or a comma list '1,2,5'."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            values = list(range(int(lo_text), int(hi_text) + 1))
        else:
            values = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a range '1..8' or a list '1,2,4', got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError(f"names no budget: {text!r}")
    if min(values) < 0:
        raise argparse.ArgumentTypeError(f"budgets must be >= 0, got {text!r}")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"budgets must not repeat, got {text!r}")
    return values


def _parse_modes(text: str) -> list[str]:
    """Distinct sweep modes as a comma list, e.g. 'optimized,full'."""
    modes = [mode for mode in text.split(",") if mode]
    if not modes:
        raise argparse.ArgumentTypeError(f"names no mode: {text!r}")
    for mode in modes:
        if mode not in delivery.SWEEP_MODES:
            raise argparse.ArgumentTypeError(
                f"unknown mode {mode!r}; choose from {','.join(delivery.SWEEP_MODES)}"
            )
    if len(set(modes)) < len(modes):
        raise argparse.ArgumentTypeError(f"modes must not repeat, got {text!r}")
    return modes


def _epochs(scenario: Scenario, count: int) -> list[float]:
    """Sample epochs evenly across one orbital period."""
    period = scenario.constellation.orbital_period_s
    return [i * period / count for i in range(count)]


def _cmd_propagate(args) -> int:
    scenario = load_scenario(args.scenario)
    states = propagate(scenario.constellation, args.epoch)
    rows = [PROPAGATE_CSV_HEADER]
    for state in states:
        x, y, z = state.position_km
        vx, vy, vz = state.velocity_km_s
        rows.append(
            (state.node_key, state.sat_id[0], state.sat_id[1], x, y, z, vx, vy, vz)
        )
    _write_rows(rows, args.output)
    return 0


def _snapshot(scenario: Scenario, epoch_s: float, mode: str, max_isls: int, ground: bool):
    """The scenario's ISL snapshot at ``epoch_s``, with its ground links if ``ground``."""
    topology = scenario.topology
    snapshot = build_isl_snapshot(
        scenario.constellation,
        epoch_s,
        mode,
        max_isls=max_isls,
        max_range_km=topology.max_range_km,
        grazing_altitude_km=topology.grazing_altitude_km,
        isl_params=scenario.link_params[ISL_LASER],
    )
    if not ground:
        return snapshot
    return attach_ground_links(
        snapshot,
        [*scenario.ground_stations, *scenario.aircraft],
        link_params=scenario.link_params,
        elevation_mask_deg=topology.elevation_mask_deg,
    )


def _cmd_topology(args) -> int:
    scenario = load_scenario(args.scenario)
    max_isls = scenario.topology.max_isls if args.max_isls is None else args.max_isls
    snapshot = _snapshot(scenario, args.epoch, args.mode, max_isls, args.ground)
    _write_rows(snapshot.csv_rows(), args.output)
    return 0


def _cmd_route(args) -> int:
    scenario = load_scenario(args.scenario)
    topology = scenario.topology
    snapshot = _snapshot(scenario, args.epoch, topology.mode, topology.max_isls, ground=True)
    for flag, node in (("--src", args.src), ("--dst", args.dst)):
        if node not in snapshot.positions:
            raise _CliError(f"unknown node id in {flag}: {node!r}")
    if args.metric == "distance":
        path = routing.shortest_distance_path(snapshot, args.src, args.dst)
    else:
        path = routing.min_hop_path(snapshot, args.src, args.dst)
    if path is None:
        print(f"no path from {args.src} to {args.dst} at epoch {args.epoch}")
        return 0
    print(f"nodes: {' -> '.join(path.nodes)}")
    print(f"hops: {path.hop_count}")
    print(f"distance_km: {path.total_distance_km}")
    print(f"propagation_delay_s: {path.total_propagation_delay_s}")
    print(f"bottleneck_capacity_bps: {path.bottleneck_capacity_bps}")
    return 0


_PAIR_COORDINATES = ("lat_a", "lon_a", "lat_b", "lon_b")


def _load_pairs(path: str):
    """Pair file: CSV with header pair_id,lat_a,lon_a,lat_b,lon_b; ids unique."""
    from .orbits import GROUND_STATION, GroundNode

    pairs = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        required = {"pair_id", *_PAIR_COORDINATES}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise _CliError(
                f"pairs file must have columns {sorted(required)}, "
                f"got {reader.fieldnames}"
            )
        for row in reader:
            where = f"pairs file {path!r} line {reader.line_num}"
            pair_id = row["pair_id"]
            if pair_id in seen:
                raise _CliError(f"{where}: duplicate pair_id {pair_id!r}")
            seen.add(pair_id)
            lat_a, lon_a, lat_b, lon_b = (
                _pair_coordinate(row[column], column, where) for column in _PAIR_COORDINATES
            )
            try:
                node_a = GroundNode(f"{pair_id}-a", GROUND_STATION, lat_a, lon_a)
                node_b = GroundNode(f"{pair_id}-b", GROUND_STATION, lat_b, lon_b)
            except ValueError as exc:
                raise _CliError(f"{where}: {exc}") from None
            pairs.append((node_a, node_b))
    if not pairs:
        raise _CliError(f"pairs file {path!r} contains no pairs")
    return pairs


def _pair_coordinate(text: str | None, column: str, where: str) -> float:
    if text is None:
        raise _CliError(f"{where}: column {column} is missing")
    try:
        value = float(text)
    except ValueError:
        raise _CliError(f"{where}: column {column} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise _CliError(f"{where}: column {column} must be finite, got {text!r}")
    return value


def _cmd_hops(args) -> int:
    scenario = load_scenario(args.scenario)
    pairs = _load_pairs(args.pairs)
    rows = routing.ground_pair_hop_stats(
        scenario.constellation,
        pairs,
        _epochs(scenario, args.epochs),
        scenario.topology.mode,
        max_isls=scenario.topology.max_isls,
        max_range_km=scenario.topology.max_range_km,
        grazing_altitude_km=scenario.topology.grazing_altitude_km,
        elevation_mask_deg=scenario.topology.elevation_mask_deg,
    )
    out = [routing.HOP_STATS_CSV_HEADER]
    out.extend(row.csv_values() for row in rows)
    _write_rows(out, args.output)
    return 0


def _cmd_sdp_mhp(args) -> int:
    scenario = load_scenario(args.scenario)
    mode = args.mode or scenario.topology.mode
    result = routing.sdp_mhp_fraction(
        scenario.constellation,
        mode,
        args.pairs,
        _epochs(scenario, args.epochs),
        args.seed,
        max_isls=scenario.topology.max_isls,
        max_range_km=scenario.topology.max_range_km,
        grazing_altitude_km=scenario.topology.grazing_altitude_km,
    )
    print(f"fraction: {result.fraction}")
    print(f"pairs_checked: {result.pairs_checked}")
    print(f"pairs_matched: {result.pairs_matched}")
    print(f"pairs_unreachable: {result.pairs_unreachable}")
    return 0


def _cmd_ifc_sweep(args) -> int:
    scenario = load_scenario(args.scenario)
    seeds = [scenario.seed + i for i in range(args.seeds)]
    epochs = _epochs(scenario, args.epochs)
    result = delivery.sweep_max_isls(scenario, args.isls, args.modes, epochs, seeds)
    rows = result.summary_csv_rows() if args.summary else result.csv_rows()
    _write_rows(rows, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="leoisl",
        description="Constellation topology, snapshot routing and content-delivery sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", default=None, help="scenario JSON (default: built-in)")
        p.add_argument("--output", default=None, help="write CSV here instead of stdout")

    p = sub.add_parser("propagate", help="satellite state CSV at one epoch")
    common(p)
    p.add_argument("--epoch", type=_epoch_s, default=0.0)
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("topology", help="edge-list CSV at one epoch")
    common(p)
    p.add_argument("--epoch", type=_epoch_s, default=0.0)
    p.add_argument("--mode", choices=TOPOLOGY_MODES, default=GRID_MODE)
    p.add_argument("--max-isls", type=_non_negative_int, default=None, dest="max_isls")
    p.add_argument("--ground", action="store_true", help="attach ground links")
    p.set_defaults(func=_cmd_topology)

    p = sub.add_parser("route", help="one path between two nodes")
    common(p)
    p.add_argument("--epoch", type=_epoch_s, default=0.0)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--metric", choices=("distance", "hops"), default="distance")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("hops", help="ground-pair hop statistics CSV")
    common(p)
    p.add_argument("--pairs", required=True, help="CSV: pair_id,lat_a,lon_a,lat_b,lon_b")
    p.add_argument("--epochs", type=_positive_int, default=10)
    p.set_defaults(func=_cmd_hops)

    p = sub.add_parser("sdp-mhp", help="fraction of SDPs that are also MHPs")
    common(p)
    p.add_argument("--pairs", type=_positive_int, default=200, help="sampled pairs per epoch")
    p.add_argument("--seed", type=_non_negative_int, default=1)
    p.add_argument("--epochs", type=_positive_int, default=10)
    p.add_argument("--mode", choices=TOPOLOGY_MODES, default=None)
    p.set_defaults(func=_cmd_sdp_mhp)

    p = sub.add_parser("ifc-sweep", help="average delay vs the max-ISL budget")
    common(p)
    p.add_argument(
        "--isls", type=_parse_int_range, default="1..8", help="range '1..8' or list '1,2,4'"
    )
    p.add_argument(
        "--modes",
        type=_parse_modes,
        default=",".join(delivery.SWEEP_MODES),
        help="comma list of optimized,greedy,equal,full",
    )
    p.add_argument("--seeds", type=_positive_int, default=10, help="number of seeds")
    p.add_argument("--epochs", type=_positive_int, default=1)
    p.add_argument("--summary", action="store_true", help="emit per-(isls,mode) means")
    p.set_defaults(func=_cmd_ifc_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ScenarioError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
