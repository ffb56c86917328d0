"""Scenario defaults, validation diagnostics, and round-tripping."""

import json

import pytest

from leoisl.scenario import (
    ScenarioError,
    default_scenario,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)


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
