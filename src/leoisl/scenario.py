"""Scenario files: JSON schema, validation, and the baseline parameter set.

An empty or missing file yields the baseline scenario: 120 satellites in 6
planes of 20 at 1000 km and 53 degrees, five ground stations, four aircraft,
and the default link budget per class. Every field can be overridden from
JSON; unknown keys are rejected with the offending field named.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .delivery import (
    AIR_SHARING_MODES,
    CUT_THROUGH,
    DELAY_MODELS,
    PER_STREAM,
)
from .links import LINK_CLASSES, LinkBudgetParams, default_link_params
from .orbits import (
    AIRCRAFT,
    DEFAULT_ELEVATION_MASK_DEG,
    DEFAULT_GRAZING_ALTITUDE_KM,
    GROUND_STATION,
    ConstellationConfig,
    GroundNode,
)
from .topology import DEFAULT_MAX_RANGE_KM, GRID_MODE, TOPOLOGY_MODES


class ScenarioError(ValueError):
    """Scenario file failed to parse or violated an invariant."""


DEFAULT_GROUND_STATIONS = (
    GroundNode("gs-london", GROUND_STATION, 51.507, -0.128),
    GroundNode("gs-newyork", GROUND_STATION, 40.713, -74.006),
    GroundNode("gs-saopaulo", GROUND_STATION, -23.551, -46.633),
    GroundNode("gs-singapore", GROUND_STATION, 1.352, 103.820),
    GroundNode("gs-sydney", GROUND_STATION, -33.869, 151.209),
)

# A320-class cruise: 10.7 km altitude, 0.23 km/s ground speed.
DEFAULT_AIRCRAFT = (
    GroundNode("ac-atlantic", AIRCRAFT, 50.0, -30.0, 10.7, 250.0, 0.23),
    GroundNode("ac-pacific", AIRCRAFT, 20.0, 130.0, 10.7, 45.0, 0.23),
    GroundNode("ac-europe-asia", AIRCRAFT, 45.0, 70.0, 10.7, 110.0, 0.23),
    GroundNode("ac-americas", AIRCRAFT, -5.0, -60.0, 10.7, 200.0, 0.23),
)

DEFAULT_FILE_CLASS_RANGES = ((50, 100), (500, 1000), (1000, 3000), (10, 1000))


@dataclass(frozen=True)
class TopologySettings:
    mode: str = GRID_MODE
    max_isls: int = 4
    max_range_km: float = DEFAULT_MAX_RANGE_KM
    grazing_altitude_km: float = DEFAULT_GRAZING_ALTITUDE_KM
    elevation_mask_deg: float = DEFAULT_ELEVATION_MASK_DEG

    def __post_init__(self) -> None:
        for name in ("max_range_km", "grazing_altitude_km", "elevation_mask_deg"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ScenarioError(f"topology.{name} must be finite, got {value}")
        if self.mode not in TOPOLOGY_MODES:
            raise ScenarioError(
                f"topology.mode must be one of {TOPOLOGY_MODES}, got {self.mode!r}"
            )
        if self.max_isls < 0:
            raise ScenarioError(f"topology.max_isls must be >= 0, got {self.max_isls}")
        if self.max_range_km <= 0:
            raise ScenarioError(
                f"topology.max_range_km must be > 0, got {self.max_range_km}"
            )


@dataclass(frozen=True)
class IfcSettings:
    cache_fraction: float = 0.1
    cache_hit_probability: float = 0.5
    packet_bits: int = 1080
    file_class_packet_ranges: tuple[tuple[int, int], ...] = DEFAULT_FILE_CLASS_RANGES
    air_link_sharing: str = PER_STREAM
    delay_model: str = CUT_THROUGH

    def __post_init__(self) -> None:
        if not 0.0 < self.cache_fraction <= 1.0:
            raise ScenarioError(
                f"ifc.cache_fraction must be within (0, 1], got {self.cache_fraction}"
            )
        if not 0.0 <= self.cache_hit_probability <= 1.0:
            raise ScenarioError(
                "ifc.cache_hit_probability must be within [0, 1], "
                f"got {self.cache_hit_probability}"
            )
        if self.packet_bits <= 0:
            raise ScenarioError(f"ifc.packet_bits must be > 0, got {self.packet_bits}")
        if not self.file_class_packet_ranges:
            raise ScenarioError("ifc.file_class_packet_ranges must be non-empty")
        for idx, (lo, hi) in enumerate(self.file_class_packet_ranges):
            if not 0 < lo <= hi:
                raise ScenarioError(
                    f"ifc.file_class_packet_ranges[{idx}] must satisfy 0 < lo <= hi, "
                    f"got ({lo}, {hi})"
                )
        if self.air_link_sharing not in AIR_SHARING_MODES:
            raise ScenarioError(
                f"ifc.air_link_sharing must be one of {AIR_SHARING_MODES}, "
                f"got {self.air_link_sharing!r}"
            )
        if self.delay_model not in DELAY_MODELS:
            raise ScenarioError(
                f"ifc.delay_model must be one of {DELAY_MODELS}, got {self.delay_model!r}"
            )


@dataclass(frozen=True)
class Scenario:
    constellation: ConstellationConfig = field(default_factory=ConstellationConfig)
    ground_stations: tuple[GroundNode, ...] = DEFAULT_GROUND_STATIONS
    aircraft: tuple[GroundNode, ...] = DEFAULT_AIRCRAFT
    link_params: dict[str, LinkBudgetParams] = field(default_factory=default_link_params)
    topology: TopologySettings = field(default_factory=TopologySettings)
    ifc: IfcSettings = field(default_factory=IfcSettings)
    seed: int = 1

    def __post_init__(self) -> None:
        ids = [g.node_id for g in self.ground_stations + self.aircraft]
        if len(ids) != len(set(ids)):
            raise ScenarioError("ground_stations/aircraft node ids must be unique")
        for node in self.ground_stations:
            if node.kind != GROUND_STATION:
                raise ScenarioError(f"ground_stations entry {node.node_id!r} is not a station")
        for node in self.aircraft:
            if node.kind != AIRCRAFT:
                raise ScenarioError(f"aircraft entry {node.node_id!r} is not an aircraft")
        missing = [c for c in LINK_CLASSES if c not in self.link_params]
        if missing:
            raise ScenarioError(f"link_params missing classes: {missing}")


def default_scenario() -> Scenario:
    return Scenario()


_CONSTELLATION_FIELDS = (
    "num_planes",
    "sats_per_plane",
    "altitude_km",
    "inclination_deg",
    "phasing_factor",
    "raan_spread_deg",
)
_TOPOLOGY_FIELDS = (
    "mode",
    "max_isls",
    "max_range_km",
    "grazing_altitude_km",
    "elevation_mask_deg",
)
_IFC_FIELDS = (
    "cache_fraction",
    "cache_hit_probability",
    "packet_bits",
    "file_class_packet_ranges",
    "air_link_sharing",
    "delay_model",
)
_LINK_FIELDS = (
    "tx_power_w",
    "tx_gain_db",
    "rx_gain_db",
    "carrier_hz",
    "bandwidth_hz",
    "noise_temperature_k",
    "lisl_fixed_rate_bps",
)
_GROUND_FIELDS = (
    "node_id",
    "latitude_deg",
    "longitude_deg",
    "altitude_km",
    "heading_deg",
    "speed_km_s",
)
_TOP_FIELDS = (
    "constellation",
    "ground_stations",
    "aircraft",
    "link_params",
    "topology",
    "ifc",
    "seed",
)


def _check_keys(raw: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown field {where}.{unknown[0]!r}")


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{name} must be an object")
    return value


def _number(raw: dict, name: str, default, kind: type, where: str):
    """``raw[name]`` (``default`` when absent) as ``kind``; errors name the field."""
    return _as_number(raw.get(name, default), kind, f"{where}.{name}")


def _as_number(value, kind: type, field_name: str):
    """A JSON number as ``kind``: never a bool, and integral for ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{field_name} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{field_name} must be an integer, got {value!r}")
    return kind(value)


def _ground_node(raw: dict, kind: str, where: str) -> GroundNode:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} entries must be objects")
    _check_keys(raw, _GROUND_FIELDS, where)
    for name in ("node_id", "latitude_deg", "longitude_deg"):
        if name not in raw:
            raise ScenarioError(f"{where}.{name} is required")
    defaults = {"altitude_km": 10.7, "heading_deg": 90.0, "speed_km_s": 0.23}

    def motion(name: str) -> float:
        return _number(raw, name, defaults[name] if kind == AIRCRAFT else 0.0, float, where)

    try:
        return GroundNode(
            node_id=str(raw["node_id"]),
            kind=kind,
            latitude_deg=_number(raw, "latitude_deg", None, float, where),
            longitude_deg=_number(raw, "longitude_deg", None, float, where),
            altitude_km=motion("altitude_km"),
            heading_deg=motion("heading_deg"),
            speed_km_s=motion("speed_km_s"),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _ground_nodes(
    raw: dict, where: str, kind: str, default: tuple[GroundNode, ...]
) -> tuple[GroundNode, ...]:
    if where not in raw:
        return default
    if not isinstance(raw[where], list):
        raise ScenarioError(f"{where} must be a list")
    return tuple(_ground_node(item, kind, where) for item in raw[where])


def scenario_from_dict(raw: dict, *, source: str = "<memory>") -> Scenario:
    """Build a validated scenario; omitted fields fall back to the baseline."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: scenario root must be a JSON object")
    _check_keys(raw, _TOP_FIELDS, "scenario")

    cons_raw = _section(raw, "constellation")
    _check_keys(cons_raw, _CONSTELLATION_FIELDS, "constellation")
    try:
        constellation = ConstellationConfig(
            num_planes=_number(cons_raw, "num_planes", 6, int, "constellation"),
            sats_per_plane=_number(cons_raw, "sats_per_plane", 20, int, "constellation"),
            altitude_km=_number(cons_raw, "altitude_km", 1000.0, float, "constellation"),
            inclination_deg=_number(cons_raw, "inclination_deg", 53.0, float, "constellation"),
            phasing_factor=_number(cons_raw, "phasing_factor", 1, int, "constellation"),
            raan_spread_deg=_number(cons_raw, "raan_spread_deg", 360.0, float, "constellation"),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"constellation: {exc}") from exc

    stations = _ground_nodes(raw, "ground_stations", GROUND_STATION, DEFAULT_GROUND_STATIONS)
    aircraft = _ground_nodes(raw, "aircraft", AIRCRAFT, DEFAULT_AIRCRAFT)

    params = default_link_params()
    links_raw = _section(raw, "link_params")
    for link_class, overrides in links_raw.items():
        if link_class not in params:
            raise ScenarioError(f"unknown field link_params.{link_class!r}")
        if not isinstance(overrides, dict):
            raise ScenarioError(f"link_params.{link_class} must be an object")
        where = f"link_params.{link_class}"
        _check_keys(overrides, _LINK_FIELDS, where)
        base = params[link_class]
        values = {
            name: _number(overrides, name, getattr(base, name), float, where)
            for name in _LINK_FIELDS
        }
        try:
            params[link_class] = LinkBudgetParams(link_class=link_class, **values)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc

    topo_raw = _section(raw, "topology")
    _check_keys(topo_raw, _TOPOLOGY_FIELDS, "topology")
    try:
        topology = TopologySettings(
            mode=str(topo_raw.get("mode", GRID_MODE)),
            max_isls=_number(topo_raw, "max_isls", 4, int, "topology"),
            max_range_km=_number(
                topo_raw, "max_range_km", DEFAULT_MAX_RANGE_KM, float, "topology"
            ),
            grazing_altitude_km=_number(
                topo_raw, "grazing_altitude_km", DEFAULT_GRAZING_ALTITUDE_KM, float, "topology"
            ),
            elevation_mask_deg=_number(
                topo_raw, "elevation_mask_deg", DEFAULT_ELEVATION_MASK_DEG, float, "topology"
            ),
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"topology: {exc}") from exc

    ifc_raw = _section(raw, "ifc")
    _check_keys(ifc_raw, _IFC_FIELDS, "ifc")
    ranges_raw = ifc_raw.get("file_class_packet_ranges", DEFAULT_FILE_CLASS_RANGES)
    try:
        pairs = [(lo, hi) for lo, hi in ranges_raw]
    except (TypeError, ValueError) as exc:
        raise ScenarioError(
            "ifc.file_class_packet_ranges must be a list of [lo, hi] pairs"
        ) from exc
    ranges = tuple(
        tuple(_as_number(bound, int, f"ifc.file_class_packet_ranges[{idx}]") for bound in pair)
        for idx, pair in enumerate(pairs)
    )
    try:
        ifc = IfcSettings(
            cache_fraction=_number(ifc_raw, "cache_fraction", 0.1, float, "ifc"),
            cache_hit_probability=_number(
                ifc_raw, "cache_hit_probability", 0.5, float, "ifc"
            ),
            packet_bits=_number(ifc_raw, "packet_bits", 1080, int, "ifc"),
            file_class_packet_ranges=ranges,
            air_link_sharing=str(ifc_raw.get("air_link_sharing", PER_STREAM)),
            delay_model=str(ifc_raw.get("delay_model", CUT_THROUGH)),
        )
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"ifc: {exc}") from exc

    return Scenario(
        constellation=constellation,
        ground_stations=stations,
        aircraft=aircraft,
        link_params=params,
        topology=topology,
        ifc=ifc,
        seed=_number(raw, "seed", 1, int, "scenario"),
    )


def load_scenario(path: str | Path | None) -> Scenario:
    """Load a scenario file; None or an empty file means all defaults."""
    if path is None:
        return default_scenario()
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        return default_scenario()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(raw, source=str(path))


def _ground_node_to_dict(node: GroundNode) -> dict:
    out = {
        "node_id": node.node_id,
        "latitude_deg": node.latitude_deg,
        "longitude_deg": node.longitude_deg,
        "altitude_km": node.altitude_km,
    }
    if node.kind == AIRCRAFT:
        out["heading_deg"] = node.heading_deg
        out["speed_km_s"] = node.speed_km_s
    return out


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-JSON form; feeding it back through ``scenario_from_dict`` is
    the identity."""
    cons = scenario.constellation
    return {
        "constellation": {
            "num_planes": cons.num_planes,
            "sats_per_plane": cons.sats_per_plane,
            "altitude_km": cons.altitude_km,
            "inclination_deg": cons.inclination_deg,
            "phasing_factor": cons.phasing_factor,
            "raan_spread_deg": cons.raan_spread_deg,
        },
        "ground_stations": [
            _ground_node_to_dict(g) for g in scenario.ground_stations
        ],
        "aircraft": [_ground_node_to_dict(g) for g in scenario.aircraft],
        "link_params": {
            link_class: {
                "tx_power_w": p.tx_power_w,
                "tx_gain_db": p.tx_gain_db,
                "rx_gain_db": p.rx_gain_db,
                "carrier_hz": p.carrier_hz,
                "bandwidth_hz": p.bandwidth_hz,
                "noise_temperature_k": p.noise_temperature_k,
                "lisl_fixed_rate_bps": p.lisl_fixed_rate_bps,
            }
            for link_class, p in sorted(scenario.link_params.items())
        },
        "topology": {
            "mode": scenario.topology.mode,
            "max_isls": scenario.topology.max_isls,
            "max_range_km": scenario.topology.max_range_km,
            "grazing_altitude_km": scenario.topology.grazing_altitude_km,
            "elevation_mask_deg": scenario.topology.elevation_mask_deg,
        },
        "ifc": {
            "cache_fraction": scenario.ifc.cache_fraction,
            "cache_hit_probability": scenario.ifc.cache_hit_probability,
            "packet_bits": scenario.ifc.packet_bits,
            "file_class_packet_ranges": [
                list(r) for r in scenario.ifc.file_class_packet_ranges
            ],
            "air_link_sharing": scenario.ifc.air_link_sharing,
            "delay_model": scenario.ifc.delay_model,
        },
        "seed": scenario.seed,
    }


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
