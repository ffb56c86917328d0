"""End-to-end checks of the command-line harness."""

import csv
import io
import json
import math
from pathlib import Path

import pytest

from leoisl.cli import main
from leoisl.orbits import ConstellationConfig
from leoisl.topology import build_grid_topology
from leoisl.orbits import propagate


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


DATA = Path(__file__).parent / "data"


class TestPropagateCommand:
    def test_csv_shape_and_radius(self, capsys):
        code, out, _ = run_cli(["propagate", "--epoch", "100"], capsys)
        assert code == 0
        rows = parse_csv(out)
        assert rows[0][:3] == ["sat_id", "plane", "slot"]
        assert len(rows) == 1 + 120
        x, y, z = (float(v) for v in rows[1][3:6])
        assert math.sqrt(x * x + y * y + z * z) == pytest.approx(7371.0, rel=1e-9)


class TestTopologyCommand:
    def test_grid_edge_count_matches_builder(self, capsys):
        code, out, _ = run_cli(["topology", "--mode", "grid", "--epoch", "0"], capsys)
        assert code == 0
        rows = parse_csv(out)
        config = ConstellationConfig()
        snapshot = build_grid_topology(propagate(config, 0.0), config, 0.0)
        assert len(rows) - 1 == len(snapshot.edges)
        assert {row[3] for row in rows[1:]} == {"isl_laser"}
        # Handshake: twice the edge count equals the degree sum, <= 4 each.
        degree = {}
        for row in rows[1:]:
            degree[row[1]] = degree.get(row[1], 0) + 1
            degree[row[2]] = degree.get(row[2], 0) + 1
        assert max(degree.values()) <= 4

    def test_dynamic_budget_flag(self, capsys):
        code, out, _ = run_cli(
            ["topology", "--mode", "dynamic", "--max-isls", "1"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        degree = {}
        for row in rows[1:]:
            degree[row[1]] = degree.get(row[1], 0) + 1
            degree[row[2]] = degree.get(row[2], 0) + 1
        assert max(degree.values()) <= 1


class TestRouteCommand:
    def test_self_route(self, capsys):
        code, out, _ = run_cli(
            ["route", "--src", "gs-london", "--dst", "gs-london"], capsys
        )
        assert code == 0
        assert "hops: 0" in out

    def test_unknown_node(self, capsys):
        code, _, err = run_cli(["route", "--src", "gs-london", "--dst", "nope"], capsys)
        assert code == 1
        assert "unknown node" in err


class TestHopsCommand:
    def test_pairs_file(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text(
            "pair_id,lat_a,lon_a,lat_b,lon_b\n"
            "london-singapore,51.5,-0.13,1.35,103.82\n"
        )
        code, out, _ = run_cli(
            ["hops", "--pairs", str(pairs), "--epochs", "2"], capsys
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == ["pair_id", "epoch_s", "min_hops", "max_hops", "mean_hops", "spread"]
        assert len(rows) == 3

    def test_missing_pairs_file(self, capsys):
        code, _, err = run_cli(["hops", "--pairs", "/nonexistent.csv"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        ("rows", "expected"),
        [
            (["p1,10,20,30,40", "p1,-10,-20,-30,-40"], ["line 3", "duplicate pair_id 'p1'"]),
            (["p1,10,20,30"], ["line 2", "lon_b is missing"]),
            (["p1,10,20", "p2,1,2,3,4"], ["line 2", "lat_b is missing"]),
            (["p1,10,20,30,40", "p2,abc,2,3,4"], ["line 3", "lat_a must be a number", "'abc'"]),
            (["p1,10,20,30,40", "p2,1,,3,4"], ["line 3", "lon_a must be a number"]),
            (["p1,nan,20,30,40"], ["line 2", "lat_a must be finite"]),
            (["p1,10,20,30,-inf"], ["line 2", "lon_b must be finite"]),
            (["p1,10,20,95,40"], ["line 2", "latitude_deg"]),
        ],
    )
    def test_bad_pairs_file_names_line_and_column(self, rows, expected, tmp_path, capsys):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("pair_id,lat_a,lon_a,lat_b,lon_b\n" + "\n".join(rows) + "\n")
        code, out, err = run_cli(["hops", "--pairs", str(pairs), "--epochs", "1"], capsys)
        assert (code, out) == (1, "")
        for text in expected:
            assert text in err


class TestSdpMhpCommand:
    def test_fraction_report(self, capsys):
        code, out, _ = run_cli(
            ["sdp-mhp", "--pairs", "20", "--epochs", "2", "--seed", "3"], capsys
        )
        assert code == 0
        assert "fraction:" in out
        fraction = float(out.splitlines()[0].split(":")[1])
        assert 0.0 <= fraction <= 1.0


class TestIfcSweepCommand:
    def test_csv_schema_and_trend(self, capsys):
        code, out, _ = run_cli(
            [
                "ifc-sweep",
                "--isls",
                "1..3",
                "--modes",
                "optimized,full",
                "--seeds",
                "3",
            ],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0] == list(
            ("max_isls", "mode", "seed", "epoch_s", "avg_delay_s", "delivered", "undelivered")
        )
        assert len(rows) == 1 + 3 * 2 * 3
        means = {}
        for row in rows[1:]:
            means.setdefault((row[0], row[1]), []).append(float(row[4]))
        opt = [sum(means[(str(k), "optimized")]) / 3 for k in (1, 2, 3)]
        assert opt[0] >= opt[1] - 1e-12 >= opt[2] - 2e-12

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = [
            "ifc-sweep",
            "--isls",
            "1..2",
            "--modes",
            "optimized",
            "--seeds",
            "2",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        ("scenario", "pinned"),
        [
            (None, "sweep_baseline.csv"),
            ("cached_equal_split_saf.json", "sweep_cached_equal_split_saf.csv"),
        ],
    )
    def test_matches_pinned_output(self, scenario, pinned, capsys):
        # Pinned before the holder search became the parametric solver: a
        # refactor that changes any plan shows up here.
        args = ["ifc-sweep", "--isls", "0..8", "--seeds", "3"]
        if scenario is not None:
            args += ["--scenario", str(DATA / scenario)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        rows = parse_csv(out)
        expected = parse_csv((DATA / pinned).read_text(encoding="utf-8"))
        assert len(rows) == len(expected)
        delay = expected[0].index("avg_delay_s")
        for row, want in zip(rows, expected):
            assert row[:delay] + row[delay + 1 :] == want[:delay] + want[delay + 1 :]
            if want[delay] in ("", "avg_delay_s"):
                assert row[delay] == want[delay]
            else:
                assert float(row[delay]) == pytest.approx(float(want[delay]), rel=1e-9)

    def test_unknown_mode_is_bad_input(self, capsys):
        code, _, err = run_cli(["ifc-sweep", "--modes", "psychic"], capsys)
        assert code == 1
        assert "psychic" in err


    @pytest.mark.parametrize(
        ("args", "flag"),
        [
            (["--isls", "1..x"], "--isls"),
            (["--isls", "a,b"], "--isls"),
            (["--isls", "4..1"], "--isls"),
            (["--isls", ","], "--isls"),
            (["--isls", "-1,2"], "--isls"),
            (["--seeds", "-3"], "--seeds"),
            (["--seeds", "0"], "--seeds"),
            (["--seeds", "two"], "--seeds"),
        ],
    )
    def test_bad_flag_is_named(self, args, flag, capsys):
        code, out, err = run_cli(["ifc-sweep", *args], capsys)
        assert (code, out) == (1, "")
        assert f"argument {flag}:" in err


class TestBadInput:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(["transmogrify"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        ("args", "flag"),
        [
            (["sdp-mhp", "--pairs", "0"], "--pairs"),
            (["sdp-mhp", "--seed", "-1"], "--seed"),
            (["sdp-mhp", "--epochs", "0"], "--epochs"),
            (["topology", "--max-isls", "-1"], "--max-isls"),
            (["topology", "--max-isls", "two"], "--max-isls"),
            (["hops", "--pairs", "pairs.csv", "--epochs", "-2"], "--epochs"),
            (["ifc-sweep", "--epochs", "0"], "--epochs"),
        ],
    )
    def test_bad_count_flag_is_named(self, args, flag, capsys):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert f"argument {flag}:" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["propagate", "--epoch", "nan"],
            ["topology", "--epoch", "inf"],
            ["route", "--src", "gs-london", "--dst", "gs-sydney", "--epoch", "-inf"],
        ],
    )
    def test_non_finite_epoch(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert "--epoch" in err

    @pytest.mark.parametrize(
        ("section", "field"),
        [
            ("constellation", "altitude_km"),
            ("topology", "elevation_mask_deg"),
            ("ifc", "cache_fraction"),
        ],
    )
    def test_non_finite_scenario_value(self, section, field, tmp_path, capsys):
        scenario = tmp_path / "nan.json"
        scenario.write_text(json.dumps({section: {field: float("nan")}}))
        code, out, err = run_cli(
            ["ifc-sweep", "--isls", "1", "--seeds", "1", "--scenario", str(scenario)],
            capsys,
        )
        assert (code, out) == (1, "")
        assert field in err

    @pytest.mark.parametrize(
        ("raw", "message"),
        [
            ({"seed": 1.5}, "scenario.seed must be an integer"),
            ({"seed": True}, "scenario.seed must be a number"),
            ({"snapshot_duration_s": 10.0}, "unknown field scenario.'snapshot_duration_s'"),
        ],
    )
    def test_rejected_scenario_value(self, raw, message, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        code, out, err = run_cli(["propagate", "--scenario", str(scenario)], capsys)
        assert (code, out) == (1, "")
        assert message in err

    def test_bad_scenario_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["propagate", "--scenario", str(bad)], capsys)
        assert code == 1
        assert "invalid JSON" in err
