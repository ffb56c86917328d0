"""Scenario defaults, validation diagnostics, and round-tripping."""

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leoisl.delivery import AIR_SHARING_MODES, DELAY_MODELS
from leoisl.links import LINK_CLASSES, LinkBudgetParams
from leoisl.orbits import AIRCRAFT, GROUND_STATION, ConstellationConfig, GroundNode
from leoisl.scenario import (
    IfcSettings,
    Scenario,
    ScenarioError,
    TopologySettings,
    default_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from leoisl.topology import TOPOLOGY_MODES

DATA = Path(__file__).parent / "data"


class TestDefaults:
    def test_baseline_parameters(self):
        scenario = default_scenario()
        cons = scenario.constellation
        assert (cons.num_planes, cons.sats_per_plane) == (6, 20)
        assert cons.altitude_km == 1000.0
        assert cons.inclination_deg == 53.0
        assert cons.total_satellites == 120
        assert len(scenario.ground_stations) == 5
        assert scenario.ifc.packet_bits == 1080
        assert scenario.ifc.file_class_packet_ranges == (
            (50, 100),
            (500, 1000),
            (1000, 3000),
            (10, 1000),
        )
        assert scenario.ifc.cache_hit_probability == 0.5
        assert scenario.link_params["sat_to_air"].carrier_hz == 15.0e9
        assert scenario.topology.max_range_km == 5000.0

    def test_none_and_empty_file_mean_defaults(self, tmp_path):
        assert load_scenario(None) == default_scenario()
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert load_scenario(empty) == default_scenario()
        blank_object = tmp_path / "blank.json"
        blank_object.write_text("{}")
        assert load_scenario(blank_object) == default_scenario()


class TestValidation:
    def test_bad_inclination_names_field(self):
        with pytest.raises(ScenarioError, match="inclination_deg"):
            scenario_from_dict({"constellation": {"inclination_deg": 200}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match="satellites"):
            scenario_from_dict({"satellites": 5})

    def test_unknown_nested_key(self):
        with pytest.raises(ScenarioError, match="ifc.*cache_size"):
            scenario_from_dict({"ifc": {"cache_size": 10}})

    def test_duplicate_node_ids(self):
        raw = {
            "ground_stations": [
                {"node_id": "x", "latitude_deg": 0, "longitude_deg": 0},
                {"node_id": "x", "latitude_deg": 1, "longitude_deg": 1},
            ]
        }
        with pytest.raises(ScenarioError, match="unique"):
            scenario_from_dict(raw)

    def test_invalid_json_reports_line(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "constellation": [,]\n}\n')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(bad)

    def test_bad_sharing_mode(self):
        with pytest.raises(ScenarioError, match="air_link_sharing"):
            scenario_from_dict({"ifc": {"air_link_sharing": "maximal"}})


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    ("raw", "field"),
    [
        ({"constellation": {"altitude_km": NAN}}, "altitude_km"),
        ({"constellation": {"raan_spread_deg": INF}}, "raan_spread_deg"),
        ({"constellation": {"inclination_deg": NAN}}, "inclination_deg"),
        ({"topology": {"max_range_km": NAN}}, "max_range_km"),
        ({"topology": {"grazing_altitude_km": INF}}, "grazing_altitude_km"),
        ({"topology": {"elevation_mask_deg": NAN}}, "elevation_mask_deg"),
        ({"ifc": {"cache_fraction": NAN}}, "cache_fraction"),
        ({"ifc": {"cache_hit_probability": INF}}, "cache_hit_probability"),
        ({"ifc": {"file_class_packet_ranges": []}}, "file_class_packet_ranges"),
        ({"link_params": {"sat_to_air": {"tx_gain_db": NAN}}}, "tx_gain_db"),
        ({"link_params": {"ground_to_sat": {"tx_power_w": INF}}}, "tx_power_w"),
        ({"constellation": {"num_planes": 6.9}}, "constellation.num_planes"),
        ({"constellation": {"num_planes": NAN}}, "num_planes"),
        ({"ifc": {"packet_bits": INF}}, "packet_bits"),
        ({"topology": {"max_isls": "four"}}, "max_isls"),
        ({"link_params": {"sat_to_air": {"carrier_hz": "x"}}}, "carrier_hz"),
        ({"seed": "x"}, "seed"),
        ({"ifc": {"file_class_packet_ranges": [[1, INF]]}}, "file_class_packet_ranges"),
        (
            {"ground_stations": [{"node_id": "g", "latitude_deg": 0, "longitude_deg": INF}]},
            "longitude_deg",
        ),
        (
            {"aircraft": [{"node_id": "a", "latitude_deg": NAN, "longitude_deg": 0}]},
            "latitude_deg",
        ),
        (
            {"aircraft": [{"node_id": "a", "latitude_deg": "north", "longitude_deg": 0}]},
            "latitude_deg",
        ),
        (
            {"aircraft": [{"node_id": "a", "latitude_deg": 0, "longitude_deg": 0,
                           "altitude_km": NAN}]},
            "altitude_km",
        ),
        (
            {"aircraft": [{"node_id": "a", "latitude_deg": 0, "longitude_deg": 0,
                           "heading_deg": INF}]},
            "heading_deg",
        ),
        (
            {"aircraft": [{"node_id": "a", "latitude_deg": 0, "longitude_deg": 0,
                           "speed_km_s": NAN}]},
            "speed_km_s",
        ),
        (
            {"aircraft": [{"node_id": "a", "latitude_deg": 0, "longitude_deg": 0,
                           "speed_km_s": -0.2}]},
            "speed_km_s",
        ),
        # Integer fields take only integral numbers; no number field takes a bool.
        ({"seed": 1.5}, "scenario.seed"),
        ({"seed": True}, "scenario.seed"),
        ({"topology": {"max_isls": 4.5}}, "topology.max_isls"),
        ({"ifc": {"packet_bits": False}}, "ifc.packet_bits"),
        ({"ifc": {"file_class_packet_ranges": [[1, 2.5]]}}, r"file_class_packet_ranges\[0\]"),
        ({"constellation": {"altitude_km": True}}, "constellation.altitude_km"),
        ({"link_params": {"sat_to_air": {"tx_power_w": True}}}, "sat_to_air.tx_power_w"),
        (
            {"aircraft": [{"node_id": "a", "latitude_deg": True, "longitude_deg": 0}]},
            "aircraft.latitude_deg",
        ),
    ],
)
def test_bad_value_names_field(raw, field):
    with pytest.raises(ScenarioError, match=field):
        scenario_from_dict(raw)


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        scenario = scenario_from_dict(
            {
                "constellation": {"num_planes": 4, "sats_per_plane": 8},
                "seed": 77,
                "ifc": {"cache_hit_probability": 0.25},
                "link_params": {"sat_to_air": {"tx_power_w": 7.5}},
            }
        )
        target = tmp_path / "scenario.json"
        save_scenario(scenario, target)
        reloaded = load_scenario(target)
        assert reloaded == scenario
        # And a second hop is stable too.
        second = tmp_path / "scenario2.json"
        save_scenario(reloaded, second)
        assert json.loads(target.read_text()) == json.loads(second.read_text())

    def test_partial_override_keeps_other_defaults(self):
        scenario = scenario_from_dict({"constellation": {"altitude_km": 550}})
        assert scenario.constellation.altitude_km == 550.0
        assert scenario.constellation.num_planes == 6
        assert scenario.link_params["ground_to_sat"].tx_power_w == 10.0

    def test_integral_float_is_an_integer(self):
        scenario = scenario_from_dict({"constellation": {"num_planes": 4.0}, "seed": 7.0})
        assert scenario.constellation.num_planes == 4
        assert scenario.seed == 7
        assert isinstance(scenario.seed, int)

    def test_aircraft_defaults(self):
        scenario = scenario_from_dict(
            {"aircraft": [{"node_id": "a1", "latitude_deg": 10, "longitude_deg": 20}]}
        )
        (craft,) = scenario.aircraft
        assert craft.altitude_km == 10.7
        assert craft.speed_km_s == 0.23


@pytest.mark.parametrize(
    ("raw", "message"),
    [
        ({"aircraft": 5}, "aircraft must be a list"),
        ({"aircraft": {"node_id": "a"}}, "aircraft must be a list"),
        ({"ground_stations": {"a": 1}}, "ground_stations must be a list"),
        ({"ground_stations": "gs-london"}, "ground_stations must be a list"),
    ],
)
def test_node_sections_must_be_lists(raw, message, tmp_path, capsys):
    from leoisl.cli import main

    with pytest.raises(ScenarioError, match=message):
        scenario_from_dict(raw)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    assert main(["propagate", "--scenario", str(path)]) == 1
    assert message in capsys.readouterr().err


STATION = {"node_id": "g", "latitude_deg": 0, "longitude_deg": 0}
CRAFT = {"node_id": "a", "latitude_deg": 0, "longitude_deg": 0}


# The exact text of each rejection, pinned before the parser was driven by
# the settings dataclasses: one fault per input, in every section.
@pytest.mark.parametrize(
    ("raw", "message"),
    [
        ([], "<memory>: scenario root must be a JSON object"),
        ({"satellites": 5}, "unknown field scenario.'satellites'"),
        ({"constellation": 5}, "constellation must be an object"),
        ({"constellation": {"planes": 6}}, "unknown field constellation.'planes'"),
        (
            {"constellation": {"num_planes": "six"}},
            "constellation.num_planes must be a number, got 'six'",
        ),
        (
            {"constellation": {"num_planes": 6.5}},
            "constellation.num_planes must be an integer, got 6.5",
        ),
        (
            {"constellation": {"sats_per_plane": True}},
            "constellation.sats_per_plane must be a number, got True",
        ),
        (
            {"constellation": {"altitude_km": None}},
            "constellation.altitude_km must be a number, got None",
        ),
        (
            {"constellation": {"altitude_km": -5}},
            "constellation: altitude_km must be > 0, got -5.0",
        ),
        (
            {"constellation": {"phasing_factor": 6}},
            "constellation: phasing_factor must be within [0, num_planes-1], got 6",
        ),
        (
            {"constellation": {"inclination_deg": [53]}},
            "constellation.inclination_deg must be a number, got [53]",
        ),
        ({"ground_stations": 5}, "ground_stations must be a list"),
        ({"ground_stations": ["gs"]}, "ground_stations entries must be objects"),
        (
            {"ground_stations": [{"latitude_deg": 0, "longitude_deg": 0}]},
            "ground_stations.node_id is required",
        ),
        (
            {"ground_stations": [{"node_id": "g", "longitude_deg": 0}]},
            "ground_stations.latitude_deg is required",
        ),
        (
            {"ground_stations": [{"node_id": "g", "latitude_deg": 0}]},
            "ground_stations.longitude_deg is required",
        ),
        (
            {"ground_stations": [{**STATION, "kind": "aircraft"}]},
            "unknown field ground_stations.'kind'",
        ),
        (
            {"ground_stations": [{**STATION, "speed_km_s": 0.1}]},
            "ground_stations: ground stations must have speed_km_s == 0",
        ),
        (
            {"ground_stations": [{**STATION, "latitude_deg": 91}]},
            "ground_stations: latitude_deg must be within [-90, 90], got 91.0",
        ),
        (
            {"ground_stations": [{**STATION, "altitude_km": True}]},
            "ground_stations.altitude_km must be a number, got True",
        ),
        ({"aircraft": "ac"}, "aircraft must be a list"),
        (
            {"aircraft": [{**CRAFT, "longitude_deg": False}]},
            "aircraft.longitude_deg must be a number, got False",
        ),
        (
            {"aircraft": [{**CRAFT, "speed_km_s": -1}]},
            "aircraft: speed_km_s must be >= 0, got -1.0",
        ),
        ({"aircraft": [{**CRAFT, "heading": 5}]}, "unknown field aircraft.'heading'"),
        ({"aircraft": [CRAFT, CRAFT]}, "ground_stations/aircraft node ids must be unique"),
        (
            {"aircraft": [{**CRAFT, "altitude_km": "high"}]},
            "aircraft.altitude_km must be a number, got 'high'",
        ),
        (
            {"aircraft": [{**CRAFT, "heading_deg": NAN}]},
            "aircraft: heading_deg must be finite, got nan",
        ),
        (
            {"ground_stations": [STATION], "aircraft": [{**CRAFT, "node_id": "g"}]},
            "ground_stations/aircraft node ids must be unique",
        ),
        ({"link_params": []}, "link_params must be an object"),
        ({"link_params": {"laser": {}}}, "unknown field link_params.'laser'"),
        ({"link_params": {"sat_to_air": 5}}, "link_params.sat_to_air must be an object"),
        (
            {"link_params": {"sat_to_air": {"link_class": "isl_laser"}}},
            "unknown field link_params.sat_to_air.'link_class'",
        ),
        (
            {"link_params": {"isl_laser": {"lisl_fixed_rate_bps": "fast"}}},
            "link_params.isl_laser.lisl_fixed_rate_bps must be a number, got 'fast'",
        ),
        (
            {"link_params": {"ground_to_air": {"bandwidth_hz": 0}}},
            "link_params.ground_to_air: bandwidth_hz must be > 0, got 0.0",
        ),
        (
            {"link_params": {"ground_to_sat": {"noise_temperature_k": False}}},
            "link_params.ground_to_sat.noise_temperature_k must be a number, got False",
        ),
        (
            {"link_params": {"sat_to_air": {"carrier_hz": 1.5e10, "tx_gain_db": NAN}}},
            "link_params.sat_to_air: tx_gain_db must be finite, got nan",
        ),
        ({"topology": "grid"}, "topology must be an object"),
        ({"topology": {"modes": "grid"}}, "unknown field topology.'modes'"),
        (
            {"topology": {"mode": "mesh"}},
            "topology.mode must be one of ('grid', 'dynamic'), got 'mesh'",
        ),
        ({"topology": {"max_isls": -1}}, "topology.max_isls must be >= 0, got -1"),
        ({"topology": {"max_isls": 2.5}}, "topology.max_isls must be an integer, got 2.5"),
        ({"topology": {"max_range_km": 0}}, "topology.max_range_km must be > 0, got 0.0"),
        (
            {"topology": {"grazing_altitude_km": "80"}},
            "topology.grazing_altitude_km must be a number, got '80'",
        ),
        (
            {"topology": {"elevation_mask_deg": True}},
            "topology.elevation_mask_deg must be a number, got True",
        ),
        ({"ifc": None}, "ifc must be an object"),
        ({"ifc": {"cache_size": 1}}, "unknown field ifc.'cache_size'"),
        ({"ifc": {"cache_fraction": 0}}, "ifc.cache_fraction must be within (0, 1], got 0.0"),
        ({"ifc": {"cache_fraction": "0.1"}}, "ifc.cache_fraction must be a number, got '0.1'"),
        (
            {"ifc": {"cache_hit_probability": 1.5}},
            "ifc.cache_hit_probability must be within [0, 1], got 1.5",
        ),
        ({"ifc": {"packet_bits": 0}}, "ifc.packet_bits must be > 0, got 0"),
        ({"ifc": {"packet_bits": 1080.5}}, "ifc.packet_bits must be an integer, got 1080.5"),
        ({"ifc": {"packet_bits": True}}, "ifc.packet_bits must be a number, got True"),
        (
            {"ifc": {"file_class_packet_ranges": 5}},
            "ifc.file_class_packet_ranges must be a list of [lo, hi] pairs",
        ),
        (
            {"ifc": {"file_class_packet_ranges": [[1, 2, 3]]}},
            "ifc.file_class_packet_ranges must be a list of [lo, hi] pairs",
        ),
        (
            {"ifc": {"file_class_packet_ranges": [5]}},
            "ifc.file_class_packet_ranges must be a list of [lo, hi] pairs",
        ),
        (
            {"ifc": {"file_class_packet_ranges": [[2, 1]]}},
            "ifc.file_class_packet_ranges[0] must satisfy 0 < lo <= hi, got (2, 1)",
        ),
        (
            {"ifc": {"file_class_packet_ranges": [[0, 1]]}},
            "ifc.file_class_packet_ranges[0] must satisfy 0 < lo <= hi, got (0, 1)",
        ),
        (
            {"ifc": {"file_class_packet_ranges": [["a", 1]]}},
            "ifc.file_class_packet_ranges[0] must be a number, got 'a'",
        ),
        (
            {"ifc": {"file_class_packet_ranges": [[1, True]]}},
            "ifc.file_class_packet_ranges[0] must be a number, got True",
        ),
        (
            {"ifc": {"file_class_packet_ranges": [[1, 2], [3, 4.5]]}},
            "ifc.file_class_packet_ranges[1] must be an integer, got 4.5",
        ),
        (
            {"ifc": {"file_class_packet_ranges": "ab"}},
            "ifc.file_class_packet_ranges must be a list of [lo, hi] pairs",
        ),
        (
            {"ifc": {"file_class_packet_ranges": []}},
            "ifc.file_class_packet_ranges must be non-empty",
        ),
        (
            {"ifc": {"air_link_sharing": "all"}},
            "ifc.air_link_sharing must be one of ('per_stream', 'equal_split'), got 'all'",
        ),
        (
            {"ifc": {"delay_model": "store"}},
            "ifc.delay_model must be one of ('cut_through', 'store_and_forward'), got 'store'",
        ),
        ({"seed": 2.5}, "scenario.seed must be an integer, got 2.5"),
        ({"seed": None}, "scenario.seed must be a number, got None"),
        ({"seed": False}, "scenario.seed must be a number, got False"),
    ],
)
def test_error_text_is_pinned(raw, message):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(raw)
    assert str(info.value) == message


# sha256 of the saved text, pinned before the serializer walked the
# dataclass fields; None is the built-in baseline.
@pytest.mark.parametrize(
    ("name", "digest"),
    [
        (None, "5ad31579b9d2f1010233104cf673ec14393ca16c01b310106450189cdca6daa9"),
        (
            "cached_equal_split_saf.json",
            "2a614cfb4fbefd734f1fd9e7f7c6d3f185f13999895a6a903eccf1224df890b0",
        ),
        ("feeder_limited.json", "56f5150b63e198c93b8d7044535e1078eebb9d17985f2156c801f4a8533eacc8"),
        ("shell1_grid.json", "8c872080ee53955a8a3fa536a814e484887d6d4044395e4853a6ff5c8cc8bcff"),
        ("shell_24x22.json", "5c4b799a0ca3dc816ad2c0c8de2eee940fa6ac69bedfb7c726606d224c616d42"),
    ],
)
def test_saved_text_is_pinned(name, digest, tmp_path):
    scenario = default_scenario() if name is None else load_scenario(DATA / name)
    target = tmp_path / "saved.json"
    save_scenario(scenario, target)
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_every_dataclass_field_is_a_json_key():
    def names(cls, *fixed):
        return {f.name for f in fields(cls)} - set(fixed)

    data = scenario_to_dict(default_scenario())
    assert set(data) == names(Scenario)
    assert set(data["constellation"]) == names(ConstellationConfig)
    assert set(data["topology"]) == names(TopologySettings)
    assert set(data["ifc"]) == names(IfcSettings)
    assert set(data["link_params"]) == set(LINK_CLASSES)
    for entry in data["link_params"].values():
        assert set(entry) == names(LinkBudgetParams, "link_class")
    for entry in data["aircraft"]:
        assert set(entry) == names(GroundNode, "kind")
    # A station never moves, so its heading and speed are not written.
    for entry in data["ground_stations"]:
        assert set(entry) == names(GroundNode, "kind", "heading_deg", "speed_km_s")
    assert scenario_from_dict(data) == default_scenario()


finite = st.floats(-1e6, 1e6)
positive = st.floats(1e-3, 1e12)


@st.composite
def constellations(draw):
    planes = draw(st.integers(1, 40))
    return ConstellationConfig(
        num_planes=planes,
        sats_per_plane=draw(st.integers(1, 40)),
        altitude_km=draw(st.floats(1.0, 5e4)),
        inclination_deg=draw(st.floats(0.0, 180.0)),
        phasing_factor=draw(st.integers(0, planes - 1)),
        raan_spread_deg=draw(st.floats(1e-3, 360.0)),
    )


def ground_nodes(kind, prefix):
    # A station's heading is not saved, so only heading 0 round-trips.
    moving = kind == AIRCRAFT
    node = st.builds(
        GroundNode,
        node_id=st.integers(0, 99).map(lambda i: f"{prefix}{i}"),
        kind=st.just(kind),
        latitude_deg=st.floats(-90.0, 90.0),
        longitude_deg=finite,
        altitude_km=st.floats(0.0, 1e3),
        heading_deg=finite if moving else st.just(0.0),
        speed_km_s=st.floats(0.0, 10.0) if moving else st.just(0.0),
    )
    return st.lists(node, max_size=3, unique_by=lambda n: n.node_id).map(tuple)


link_budgets = st.fixed_dictionaries(
    {
        link_class: st.builds(
            LinkBudgetParams,
            link_class=st.just(link_class),
            tx_power_w=positive,
            tx_gain_db=finite,
            rx_gain_db=finite,
            carrier_hz=positive,
            bandwidth_hz=positive,
            noise_temperature_k=positive,
            lisl_fixed_rate_bps=positive,
        )
        for link_class in LINK_CLASSES
    }
)

packet_ranges = st.lists(
    st.tuples(st.integers(1, 5000), st.integers(0, 5000)).map(lambda p: (p[0], p[0] + p[1])),
    min_size=1,
    max_size=4,
).map(tuple)

scenarios = st.builds(
    Scenario,
    constellation=constellations(),
    ground_stations=ground_nodes(GROUND_STATION, "gs-"),
    aircraft=ground_nodes(AIRCRAFT, "ac-"),
    link_params=link_budgets,
    topology=st.builds(
        TopologySettings,
        mode=st.sampled_from(TOPOLOGY_MODES),
        max_isls=st.integers(0, 50),
        max_range_km=positive,
        grazing_altitude_km=finite,
        elevation_mask_deg=finite,
    ),
    ifc=st.builds(
        IfcSettings,
        cache_fraction=st.floats(1e-6, 1.0),
        cache_hit_probability=st.floats(0.0, 1.0),
        packet_bits=st.integers(1, 10**6),
        file_class_packet_ranges=packet_ranges,
        air_link_sharing=st.sampled_from(AIR_SHARING_MODES),
        delay_model=st.sampled_from(DELAY_MODELS),
    ),
    seed=st.integers(0, 2**31),
)


@given(scenarios)
def test_round_trip_of_every_field(scenario):
    data = scenario_to_dict(scenario)
    assert scenario_from_dict(data) == scenario
    assert scenario_from_dict(json.loads(json.dumps(data))) == scenario
