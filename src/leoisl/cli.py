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
from dataclasses import replace

from . import delivery, routing
from .orbits import GROUND_STATION, MAX_EPOCH_S, MAX_SATELLITES, GroundNode, propagate
from .scenario import Scenario, ScenarioError, load_scenario
from .topology import GRID_MODE, TOPOLOGY_MODES, build_snapshot

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
    if value > MAX_EPOCH_S:
        raise argparse.ArgumentTypeError(f"must be <= 1e9 s (about 31.7 years), got {text!r}")
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


# The most epochs or seeds one command takes, far above any study run: each
# is listed, and each seed's requests drawn, before the first snapshot.
MAX_COUNT = 10**6


def _count(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_COUNT:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_COUNT}, got {text!r}")
    return value


def _parse_int_range(text: str) -> list[int]:
    """Degree budgets from 0 to ``MAX_SATELLITES - 1``: a range '1..8' or a
    comma list '1,2,5'. A satellite has at most that many peers, so no larger
    budget plans differently; a range's ends are checked before it is expanded."""
    try:
        if ".." in text:
            lo, hi = (int(part) for part in text.split("..", 1))
            values = range(lo, hi + 1)
            ends = [lo, hi] if values else []
        else:
            values = ends = [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a range '1..8' or a list '1,2,4', got {text!r}"
        ) from None
    if not ends:
        raise argparse.ArgumentTypeError(f"names no budget: {text!r}")
    if min(ends) < 0:
        raise argparse.ArgumentTypeError(f"budgets must be >= 0, got {text!r}")
    if max(ends) > MAX_SATELLITES - 1:
        raise argparse.ArgumentTypeError(f"budgets must be <= {MAX_SATELLITES - 1}, got {text!r}")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"budgets must not repeat, got {text!r}")
    return list(values)


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
    config = scenario.constellation
    rows = [PROPAGATE_CSV_HEADER]
    for i, state in enumerate(propagate(config, args.epoch)):
        plane, slot = divmod(i, config.sats_per_plane)
        rows.append((state.node_key, plane, slot, *state.position_km, *state.velocity_km_s))
    _write_rows(rows, args.output)
    return 0


def _cmd_topology(args) -> int:
    scenario = load_scenario(args.scenario)
    mode = args.mode or scenario.topology.mode
    if mode == GRID_MODE and args.max_isls is not None:
        raise _CliError("--max-isls applies to the dynamic mode only; the +grid has degree 4")
    max_isls = scenario.topology.max_isls if args.max_isls is None else args.max_isls
    topology = replace(scenario.topology, mode=mode, max_isls=max_isls)
    snapshot = build_snapshot(replace(scenario, topology=topology), args.epoch, ground=args.ground)
    _write_rows(snapshot.csv_rows(), args.output)
    return 0


def _cmd_route(args) -> int:
    scenario = load_scenario(args.scenario)
    snapshot = build_snapshot(scenario, args.epoch, ground=True)
    for flag, node in (("--src", args.src), ("--dst", args.dst)):
        if node not in snapshot.nodes:
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
    rows = routing.ground_pair_hop_stats(scenario, pairs, _epochs(scenario, args.epochs))
    out = [routing.HOP_STATS_CSV_HEADER]
    out.extend(row.csv_values() for row in rows)
    _write_rows(out, args.output)
    return 0


def _cmd_sdp_mhp(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.mode is not None:
        scenario = replace(scenario, topology=replace(scenario.topology, mode=args.mode))
    result = routing.sdp_mhp_fraction(
        scenario, args.pairs, _epochs(scenario, args.epochs), args.seed
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
    p.add_argument("--mode", choices=TOPOLOGY_MODES, default=None)
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
    p.add_argument("--epochs", type=_count, default=10)
    p.set_defaults(func=_cmd_hops)

    p = sub.add_parser("sdp-mhp", help="fraction of SDPs that are also MHPs")
    common(p)
    p.add_argument("--pairs", type=_positive_int, default=200, help="sampled pairs per epoch")
    p.add_argument("--seed", type=_non_negative_int, default=1)
    p.add_argument("--epochs", type=_count, default=10)
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
    p.add_argument("--seeds", type=_count, default=10, help="number of seeds")
    p.add_argument("--epochs", type=_count, default=1)
    p.add_argument("--summary", action="store_true", help="emit per-(isls,mode) means")
    p.set_defaults(func=_cmd_ifc_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, ScenarioError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - runtime failure boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
