"""Scenario files: JSON schema, validation, and the baseline parameter set.

An empty or missing file yields the baseline scenario: 120 satellites in 6
planes of 20 at 1000 km and 53 degrees, five ground stations, four aircraft,
the default budget of each RF link class, and 10 Gbps laser ISLs.

The settings dataclasses are the schema. Each JSON object takes exactly the
field names of its class, an omitted field keeps the class default, and each
value is converted by the field's annotation; unknown keys and bad values are
rejected with the offending field named. Only the JSON-specific values live
here: a node's kind follows from the list it sits in, and an aircraft entry
that omits its motion cruises like an A320.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .delivery import (
    AIR_SHARING_MODES,
    CUT_THROUGH,
    DELAY_MODELS,
    PER_STREAM,
)
from .links import RF_CLASSES, LinkBudgetParams, default_link_params
from .orbits import (
    AIRCRAFT,
    GROUND_STATION,
    ConstellationConfig,
    GroundNode,
    check_fields,
    sat_keys,
)
from .topology import GRID_MODE, TOPOLOGY_MODES


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

# Motion of an aircraft entry that omits it: A320-class cruise, heading east.
_AIRCRAFT_MOTION = {"altitude_km": 10.7, "heading_deg": 90.0, "speed_km_s": 0.23}
_STATION_OMITS = ("kind", "heading_deg", "speed_km_s")

DEFAULT_FILE_CLASS_RANGES = ((50, 100), (500, 1000), (1000, 3000), (10, 1000))

# File sizes are drawn as numpy int64s, so no packet count or size may exceed this.
INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class TopologySettings:
    mode: str = GRID_MODE
    max_isls: int = 4
    max_range_km: float = 5000.0
    grazing_altitude_km: float = 80.0
    elevation_mask_deg: float = 10.0
    laser_rate_bps: float = 1.0e10

    def __post_init__(self) -> None:
        check_fields(self, (
            ("max_range_km", "finite", math.isfinite),
            ("max_range_km", "> 0", lambda v: v > 0),
            ("grazing_altitude_km", "finite", math.isfinite),
            ("grazing_altitude_km", ">= 0", lambda v: v >= 0),
            ("elevation_mask_deg", "finite", math.isfinite),
            ("elevation_mask_deg", "within [-90, 90]", lambda v: -90.0 <= v <= 90.0),
            ("laser_rate_bps", "finite", math.isfinite),
            ("laser_rate_bps", "> 0", lambda v: v > 0),
            ("mode", f"one of {TOPOLOGY_MODES}", lambda v: v in TOPOLOGY_MODES),
            ("max_isls", ">= 0", lambda v: v >= 0),
        ), "topology.", ScenarioError)


@dataclass(frozen=True)
class IfcSettings:
    cache_fraction: float = 0.1
    cache_hit_probability: float = 0.5
    packet_bits: int = 1080
    file_class_packet_ranges: tuple[tuple[int, int], ...] = DEFAULT_FILE_CLASS_RANGES
    air_link_sharing: str = PER_STREAM
    delay_model: str = CUT_THROUGH

    def __post_init__(self) -> None:
        check_fields(self, (
            ("cache_fraction", "within (0, 1]", lambda v: 0.0 < v <= 1.0),
            ("cache_hit_probability", "within [0, 1]", lambda v: 0.0 <= v <= 1.0),
            ("packet_bits", "> 0", lambda v: v > 0),
            ("packet_bits", f"<= {INT64_MAX}", lambda v: v <= INT64_MAX),
        ), "ifc.", ScenarioError)
        if not self.file_class_packet_ranges:
            raise ScenarioError("ifc.file_class_packet_ranges must be non-empty")
        for idx, (lo, hi) in enumerate(self.file_class_packet_ranges):
            where = f"ifc.file_class_packet_ranges[{idx}]"
            if not 0 < lo <= hi:
                raise ScenarioError(f"{where} must satisfy 0 < lo <= hi, got ({lo}, {hi})")
            if hi > INT64_MAX:
                raise ScenarioError(f"{where} must satisfy hi <= {INT64_MAX}, got ({lo}, {hi})")
        check_fields(self, (
            ("air_link_sharing", f"one of {AIR_SHARING_MODES}", lambda v: v in AIR_SHARING_MODES),
            ("delay_model", f"one of {DELAY_MODELS}", lambda v: v in DELAY_MODELS),
        ), "ifc.", ScenarioError)


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
        check_fields(self, (("seed", ">= 0", lambda v: v >= 0),), "scenario.", ScenarioError)
        ids = [g.node_id for g in self.ground_stations + self.aircraft]
        if len(ids) != len(set(ids)):
            raise ScenarioError("ground_stations/aircraft node ids must be unique")
        for node in self.ground_stations:
            if node.kind != GROUND_STATION:
                raise ScenarioError(f"ground_stations entry {node.node_id!r} is not a station")
        for node in self.aircraft:
            if node.kind != AIRCRAFT:
                raise ScenarioError(f"aircraft entry {node.node_id!r} is not an aircraft")
        for node in self.ground_stations + self.aircraft:
            if node.node_id in sat_keys(self.constellation):
                where = "aircraft" if node.kind == AIRCRAFT else "ground_stations"
                raise ScenarioError(f"{where} entry {node.node_id!r} has a satellite's id")
        missing = [c for c in RF_CLASSES if c not in self.link_params]
        if missing:
            raise ScenarioError(f"link_params missing classes: {missing}")
        unknown = sorted(set(self.link_params) - set(RF_CLASSES))
        if unknown:
            raise ScenarioError(f"link_params has unknown classes: {unknown}")


def _check_keys(raw: dict, allowed, where: str) -> None:
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ScenarioError(f"unknown field {where}.{unknown[0]!r}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{where} must be an object")
    return value


def _as_number(value, kind: type, field_name: str):
    """A JSON number as ``kind``: never a bool, and integral for ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{field_name} must be a number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{field_name} must be an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ScenarioError(f"{field_name} must be within float range, got {value!r}") from None


def _ranges(value, where: str) -> tuple[tuple[int, int], ...]:
    """A JSON list of ``[lo, hi]`` integer pairs."""
    try:
        pairs = [(lo, hi) for lo, hi in value]
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where} must be a list of [lo, hi] pairs") from exc
    return tuple(
        tuple(_as_number(bound, int, f"{where}[{idx}]") for bound in pair)
        for idx, pair in enumerate(pairs)
    )


_annotations = functools.cache(typing.get_type_hints)


def _value(value, kind, where: str):
    """A JSON value as a field annotated ``kind``; errors name ``where``."""
    if kind is str:
        if not isinstance(value, str):
            raise ScenarioError(f"{where} must be a string, got {value!r}")
        return value
    if kind in (int, float):
        return _as_number(value, kind, where)
    if kind == tuple[tuple[int, int], ...]:
        return _ranges(value, where)
    raise TypeError(f"{where}: no JSON form for {kind}")


def _build(cls: type, raw, where: str, fixed: dict | None = None, defaults: dict | None = None):
    """``cls`` from the JSON object ``raw``; errors name the field at ``where``.

    Every field of ``cls`` except those set by ``fixed`` is a JSON key. An
    omitted one takes ``defaults``'s value, else the class default; a field
    with neither is required. Each value is converted by its annotation.
    """
    fixed = fixed or {}
    keys = [f for f in fields(cls) if f.name not in fixed]
    _check_keys(_object(raw, where), [f.name for f in keys], where)
    given = {**(defaults or {}), **raw}
    for f in keys:
        if f.name not in given and f.default is MISSING:
            raise ScenarioError(f"{where}.{f.name} is required")
    kinds = _annotations(cls)
    values = {
        f.name: _value(given[f.name], kinds[f.name], f"{where}.{f.name}")
        for f in keys
        if f.name in given
    }
    try:
        return cls(**fixed, **values)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _ground_nodes(value, where: str, kind: str) -> tuple[GroundNode, ...]:
    if not isinstance(value, list):
        raise ScenarioError(f"{where} must be a list")
    motion = _AIRCRAFT_MOTION if kind == AIRCRAFT else None
    nodes = []
    for item in value:
        if not isinstance(item, dict):
            raise ScenarioError(f"{where} entries must be objects")
        nodes.append(_build(GroundNode, item, where, {"kind": kind}, motion))
    return tuple(nodes)


def _link_params(value) -> dict[str, LinkBudgetParams]:
    """The default budgets with each class's JSON overrides applied."""
    params = default_link_params()
    for link_class, overrides in _object(value, "link_params").items():
        if link_class not in params:
            raise ScenarioError(f"unknown field link_params.{link_class!r}")
        where = f"link_params.{link_class}"
        defaults = asdict(params[link_class])
        params[link_class] = _build(LinkBudgetParams, overrides, where, defaults=defaults)
    return params


def _scenario_field(name: str, value):
    """The top-level JSON field ``name`` as the ``Scenario`` field it sets."""
    kind = _annotations(Scenario)[name]
    if kind is int:
        return _as_number(value, int, f"scenario.{name}")
    if kind == tuple[GroundNode, ...]:
        return _ground_nodes(value, name, AIRCRAFT if name == "aircraft" else GROUND_STATION)
    if kind == dict[str, LinkBudgetParams]:
        return _link_params(value)
    return _build(kind, value, name)


def scenario_from_dict(raw: dict, *, source: str = "<memory>") -> Scenario:
    """Build a validated scenario; omitted fields keep the class defaults."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{source}: scenario root must be a JSON object")
    names = [f.name for f in fields(Scenario)]
    _check_keys(raw, names, "scenario")
    return Scenario(**{name: _scenario_field(name, raw[name]) for name in names if name in raw})


def _json_int(literal: str) -> int | float:
    """A JSON integer literal as an int. One past Python's digit limit for
    integer strings reads as a float, infinite, so the check of the field it
    sets names it, where ``int`` would raise a ``ValueError`` naming none."""
    try:
        return int(literal)
    except ValueError:
        return float(literal)


def load_scenario(path: str | Path | None) -> Scenario:
    """Load a scenario file; None or an empty file means all defaults."""
    if path is None:
        return Scenario()
    text = Path(path).read_text(encoding="utf-8")
    if not text.strip():
        return Scenario()
    try:
        raw = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return scenario_from_dict(raw, source=str(path))


def _to_dict(obj, omit: tuple[str, ...] = ()) -> dict:
    """The fields of ``obj`` not in ``omit``, as plain JSON values."""
    out = {}
    for f in fields(obj):
        if f.name not in omit:
            value = getattr(obj, f.name)
            out[f.name] = [list(pair) for pair in value] if isinstance(value, tuple) else value
    return out


def scenario_to_dict(scenario: Scenario) -> dict:
    """Plain-JSON form; feeding it back through ``scenario_from_dict`` is
    the identity. A station never moves, so its heading and speed are left out."""
    out = {}
    for f in fields(scenario):
        value = getattr(scenario, f.name)
        if isinstance(value, dict):
            out[f.name] = {c: _to_dict(p) for c, p in sorted(value.items())}
        elif isinstance(value, tuple):
            out[f.name] = [
                _to_dict(node, ("kind",) if node.kind == AIRCRAFT else _STATION_OMITS)
                for node in value
            ]
        else:
            out[f.name] = _to_dict(value) if is_dataclass(value) else value
    return out


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    """Write every field of ``scenario`` as sorted, indented JSON."""
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
