"""Scenario defaults, validation diagnostics, and round-tripping."""

import hashlib
import json
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from leoisl.delivery import AIR_SHARING_MODES, DELAY_MODELS
from leoisl.links import (
    ISL_LASER,
    RF_CLASSES,
    SAT_TO_AIR,
    LinkBudgetParams,
    default_link_params,
)
from leoisl.orbits import AIRCRAFT, GROUND_STATION, ConstellationConfig, GroundNode
from leoisl.scenario import (
    IfcSettings,
    Scenario,
    ScenarioError,
    TopologySettings,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from leoisl.topology import TOPOLOGY_MODES

DATA = Path(__file__).parent / "data"


class TestDefaults:
    def test_baseline_parameters(self):
        scenario = Scenario()
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
        assert load_scenario(None) == Scenario()
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert load_scenario(empty) == Scenario()
        blank_object = tmp_path / "blank.json"
        blank_object.write_text("{}")
        assert load_scenario(blank_object) == Scenario()


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

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            pytest.param(
                '{"ifc": {"packet_bits": 1' + "0" * 4999 + "}}",
                "ifc.packet_bits must be an integer, got inf",
                id="packet-bits-5000-digits",
            ),
            pytest.param(
                '{"constellation": {"altitude_km": -1' + "0" * 4999 + "}}",
                "constellation: altitude_km must be finite, got -inf",
                id="altitude-minus-5000-digits",
            ),
            pytest.param(
                '{"seed": 1' + "0" * 4300 + "}",
                "scenario.seed must be an integer, got inf",
                id="seed-4301-digits",
            ),
        ],
    )
    def test_over_long_integer_literal_names_its_field(self, text, message, tmp_path):
        # Past Python's 4300-digit limit for integer strings, the JSON reader
        # itself raised, naming neither the file nor the field.
        path = tmp_path / "long.json"
        path.write_text(text)
        with pytest.raises(ScenarioError) as info:
            load_scenario(path)
        assert str(info.value) == message

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
        ({"topology": {"laser_rate_bps": 0}}, "topology.laser_rate_bps"),
        ({"topology": {"laser_rate_bps": -5}}, "topology.laser_rate_bps"),
        ({"topology": {"laser_rate_bps": NAN}}, "topology.laser_rate_bps"),
        ({"topology": {"laser_rate_bps": True}}, "topology.laser_rate_bps"),
        ({"topology": {"laser_rate_bps": "fast"}}, "topology.laser_rate_bps"),
    ],
)
def test_bad_value_names_field(raw, field):
    with pytest.raises(ScenarioError, match=field):
        scenario_from_dict(raw)


class TestLinkParamsHoldExactlyTheRfClasses:
    """A scenario built in Python is checked like a file: a budget for a
    class that has none (the laser) or a missing RF budget is refused."""

    def test_laser_budget_is_refused(self):
        params = {**default_link_params(), ISL_LASER: default_link_params()[SAT_TO_AIR]}
        with pytest.raises(ScenarioError) as info:
            Scenario(link_params=params)
        assert str(info.value) == "link_params has unknown classes: ['isl_laser']"

    def test_missing_rf_budget_is_named(self):
        params = default_link_params()
        del params[SAT_TO_AIR]
        with pytest.raises(ScenarioError) as info:
            Scenario(link_params=params)
        assert str(info.value) == "link_params missing classes: ['sat_to_air']"


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
        pytest.param([], "<memory>: scenario root must be a JSON object", id="root-list"),
        pytest.param(
            {"satellites": 5}, "unknown field scenario.'satellites'", id="root-unknown-field"
        ),
        pytest.param(
            {"constellation": 5}, "constellation must be an object", id="constellation-number"
        ),
        pytest.param(
            {"constellation": {"planes": 6}},
            "unknown field constellation.'planes'",
            id="constellation-unknown-field",
        ),
        pytest.param(
            {"constellation": {"num_planes": "six"}},
            "constellation.num_planes must be a number, got 'six'",
            id="num-planes-string",
        ),
        pytest.param(
            {"constellation": {"num_planes": 6.5}},
            "constellation.num_planes must be an integer, got 6.5",
            id="num-planes-fraction",
        ),
        pytest.param(
            {"constellation": {"sats_per_plane": True}},
            "constellation.sats_per_plane must be a number, got True",
            id="sats-per-plane-bool",
        ),
        pytest.param(
            {"constellation": {"altitude_km": None}},
            "constellation.altitude_km must be a number, got None",
            id="altitude-null",
        ),
        pytest.param(
            {"constellation": {"altitude_km": -5}},
            "constellation: altitude_km must be > 0, got -5.0",
            id="altitude-negative",
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
            {"topology": {"laser_rate_bps": "fast"}},
            "topology.laser_rate_bps must be a number, got 'fast'",
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
        (
            {"ground_stations": [{**STATION, "heading_deg": 45}]},
            "ground_stations: ground stations must have heading_deg == 0",
        ),
        (
            {"topology": {"elevation_mask_deg": 95}},
            "topology.elevation_mask_deg must be within [-90, 90], got 95.0",
        ),
        (
            {"topology": {"elevation_mask_deg": -90.5}},
            "topology.elevation_mask_deg must be within [-90, 90], got -90.5",
        ),
        (
            {"topology": {"grazing_altitude_km": -7000}},
            "topology.grazing_altitude_km must be >= 0, got -7000.0",
        ),
        (
            {"ground_stations": [{**STATION, "node_id": "S000-001"}]},
            "ground_stations entry 'S000-001' has a satellite's id",
        ),
        (
            {"aircraft": [{**CRAFT, "node_id": "S005-019"}]},
            "aircraft entry 'S005-019' has a satellite's id",
        ),
        (
            {"topology": {"laser_rate_bps": 0.0}},
            "topology.laser_rate_bps must be > 0, got 0.0",
        ),
        # numpy refused these with messages that named no field, or they
        # overflowed a float conversion after loading.
        pytest.param({"seed": -1}, "scenario.seed must be >= 0, got -1", id="seed-negative"),
        pytest.param(
            {"ifc": {"file_class_packet_ranges": [[1, 10**22]]}},
            "ifc.file_class_packet_ranges[0] must satisfy hi <= 9223372036854775807, "
            f"got (1, {10**22})",
            id="range-hi-above-int64",
        ),
        pytest.param(
            {"ifc": {"packet_bits": 2**63}},
            f"ifc.packet_bits must be <= 9223372036854775807, got {2**63}",
            id="packet-bits-above-int64",
        ),
        pytest.param(
            {"ifc": {"packet_bits": 10**399}},
            f"ifc.packet_bits must be <= 9223372036854775807, got {10**399}",
            id="packet-bits-400-digits",
        ),
        pytest.param(
            {"constellation": {"altitude_km": 10**399}},
            f"constellation.altitude_km must be within float range, got {10**399}",
            id="altitude-400-digits",
        ),
        pytest.param(
            {"topology": {"laser_rate_bps": 10**399}},
            f"topology.laser_rate_bps must be within float range, got {10**399}",
            id="laser-rate-400-digits",
        ),
        pytest.param(
            {"aircraft": [{**CRAFT, "speed_km_s": 10**399}]},
            f"aircraft.speed_km_s must be within float range, got {10**399}",
            id="aircraft-speed-400-digits",
        ),
        # Loading named every satellite of the shell first, until memory ran out.
        pytest.param(
            {"constellation": {"num_planes": 1_000_000}},
            "constellation: total_satellites must be <= 100000 "
            "(num_planes * sats_per_plane), got 20000000",
            id="shell-above-max-satellites",
        ),
        # A string field took any JSON value through ``str``: a null id named
        # a station "None".
        pytest.param(
            {"ground_stations": [{**STATION, "node_id": None}]},
            "ground_stations.node_id must be a string, got None",
            id="station-id-null",
        ),
        pytest.param(
            {"topology": {"mode": ["grid"]}},
            "topology.mode must be a string, got ['grid']",
            id="mode-list",
        ),
        pytest.param(
            {"ifc": {"delay_model": 5}},
            "ifc.delay_model must be a string, got 5",
            id="delay-model-number",
        ),
        # An empty id ran: its links were written with a blank node column.
        pytest.param(
            {"ground_stations": [{**STATION, "node_id": ""}]},
            "ground_stations: node_id must be non-empty, got ''",
            id="station-id-empty",
        ),
        pytest.param(
            {"aircraft": [{**CRAFT, "node_id": ""}]},
            "aircraft: node_id must be non-empty, got ''",
            id="aircraft-id-empty",
        ),
    ],
)
def test_error_text_is_pinned(raw, message):
    with pytest.raises(ScenarioError) as info:
        scenario_from_dict(raw)
    assert str(info.value) == message


# sha256 of the saved text; None is the built-in baseline.
@pytest.mark.parametrize(
    ("name", "digest"),
    [
        pytest.param(
            None,
            "8634ca60afcec478c264f6ca9d4e96ec323337c78428ff15c5a6b02ea3a4c4b2",
            id="baseline",
        ),
        pytest.param(
            "cached_equal_split_saf.json",
            "1ea0cc2c684cfcdadec6dab8ca19f5e6173d68799dd92cd69d2488ada1c5c8b9",
            id="cached_equal_split_saf",
        ),
        pytest.param(
            "feeder_limited.json",
            "b283b00f73be8076856f154b5888ad197ebbf50b4ae35cbca61284729daa9afb",
            id="feeder_limited",
        ),
        pytest.param(
            "shell1_grid.json",
            "fe567c9355e70aecb03f8b3cd8c58101f67792fd832048a00a1a2ef64005d351",
            id="shell1_grid",
        ),
        pytest.param(
            "shell_24x22.json",
            "7982c7103fe63594bdad98a8dc814d3605390fecfb0cead0ad29070b8372d132",
            id="shell_24x22",
        ),
    ],
)
def test_saved_text_is_pinned(name, digest, tmp_path):
    scenario = Scenario() if name is None else load_scenario(DATA / name)
    target = tmp_path / "saved.json"
    save_scenario(scenario, target)
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_every_dataclass_field_is_a_json_key():
    def names(cls, *fixed):
        return {f.name for f in fields(cls)} - set(fixed)

    data = scenario_to_dict(Scenario())
    assert set(data) == names(Scenario)
    assert set(data["constellation"]) == names(ConstellationConfig)
    assert set(data["topology"]) == names(TopologySettings)
    assert set(data["ifc"]) == names(IfcSettings)
    assert set(data["link_params"]) == set(RF_CLASSES)
    for entry in data["link_params"].values():
        assert set(entry) == names(LinkBudgetParams)
    for entry in data["aircraft"]:
        assert set(entry) == names(GroundNode, "kind")
    # A station never moves, so its heading and speed are not written.
    for entry in data["ground_stations"]:
        assert set(entry) == names(GroundNode, "kind", "heading_deg", "speed_km_s")
    assert scenario_from_dict(data) == Scenario()


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
    # GroundNode rejects a station with a nonzero heading or speed.
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
            tx_power_w=positive,
            tx_gain_db=finite,
            rx_gain_db=finite,
            carrier_hz=positive,
            bandwidth_hz=positive,
            noise_temperature_k=positive,
        )
        for link_class in RF_CLASSES
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
        grazing_altitude_km=st.floats(0.0, 1e6),
        elevation_mask_deg=st.floats(-90.0, 90.0),
        laser_rate_bps=positive,
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
