"""End-to-end checks of the command-line harness."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leoisl.cli import main
from leoisl.orbits import ConstellationConfig, propagate_arrays
from leoisl.topology import build_grid_topology


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
        snapshot = build_grid_topology(propagate_arrays(config, 0.0)[0], config, 0.0)
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

    @pytest.mark.parametrize("max_isls", ["2", "4"])
    @pytest.mark.parametrize("epoch", ["0", "777.5", "2400"])
    def test_matches_pinned_dynamic_output(self, max_isls, epoch, capsys):
        # Pinned before the dynamic builder moved to index-pair arrays: ids
        # and link classes must match exactly, the floats to 1e-12.
        code, out, _ = run_cli(
            ["topology", "--mode", "dynamic", "--max-isls", max_isls, "--ground", "--epoch", epoch],
            capsys,
        )
        assert code == 0
        rows = parse_csv(out)
        pinned = DATA / f"topology_dynamic_k{max_isls}_epoch{epoch}.csv"
        expected = parse_csv(pinned.read_text(encoding="utf-8"))
        assert rows[0] == expected[0]
        assert [row[1:4] for row in rows] == [row[1:4] for row in expected]
        for row, want in zip(rows[1:], expected[1:]):
            got = [float(row[0])] + [float(x) for x in row[4:]]
            assert got == pytest.approx([float(want[0])] + [float(x) for x in want[4:]], rel=1e-12)


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

    @pytest.mark.parametrize(
        ("src", "dst", "message"),
        [
            ("S000-000", "nope", "unknown node id in --dst: 'nope'"),
            ("nope", "gs-london", "unknown node id in --src: 'nope'"),
        ],
    )
    def test_unknown_node_names_only_the_bad_flag(self, src, dst, message, capsys):
        code, out, err = run_cli(["route", "--src", src, "--dst", dst], capsys)
        assert (code, out) == (1, "")
        assert err.strip() == f"error: {message}"

    def test_matches_pinned_output(self, capsys):
        # Pinned before the path search became the batched array engine:
        # both metrics, through ground nodes, with the hop metric's many ties.
        pinned = (DATA / "route_baseline.txt").read_text(encoding="utf-8")
        got = []
        for line in pinned.splitlines():
            if line.startswith("# route "):
                code, out, _ = run_cli(line[2:].split(), capsys)
                assert code == 0
                got.append(line + "\n" + out)
        assert len(got) == 16
        assert "".join(got) == pinned


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

    @pytest.mark.parametrize(
        ("scenario", "args", "pinned"),
        [
            ("shell1_grid.json", ["--mode", "grid", "--epochs", "1"], "sdp_mhp_shell1_grid.txt"),
            (
                "shell_24x22.json",
                ["--mode", "dynamic", "--epochs", "2"],
                "sdp_mhp_24x22_dynamic_k4.txt",
            ),
        ],
    )
    def test_matches_pinned_output(self, scenario, args, pinned, capsys):
        # Pinned before the path search became the batched array engine: the
        # Starlink shell-1 +grid (72x22) and a 24x22 dynamic k=4 shell.
        code, out, _ = run_cli(
            ["sdp-mhp", "--scenario", str(DATA / scenario), "--pairs", "200", "--seed", "5", *args],
            capsys,
        )
        assert code == 0
        assert out == (DATA / pinned).read_text(encoding="utf-8")



def test_sdp_mhp_and_hops_leave_numpy_ma_unimported(tmp_path):
    # numpy imports numpy.ma lazily (tens of ms) on a process's first
    # np.unique; the grid builder and the hop statistics avoid it.
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("pair_id,lat_a,lon_a,lat_b,lon_b\np1,51.5,-0.13,1.35,103.82\n")
    script = (
        "import sys\n"
        "from leoisl.cli import main\n"
        "assert main(['sdp-mhp', '--pairs', '20', '--epochs', '1']) == 0\n"
        f"assert main(['hops', '--pairs', {str(pairs)!r}, '--epochs', '1']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    path = [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == "False"

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
            ("feeder_limited.json", "sweep_feeder_limited.csv"),
        ],
    )
    def test_matches_pinned_output(self, scenario, pinned, capsys):
        # Pinned before the holder search became the parametric solver (the
        # feeder-limited sweep before the planners' memos): a refactor that
        # changes any plan shows up here. Only the feeder-limited input makes
        # the equal bandwidth split differ from the optimized one.
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

    def test_matches_pinned_dense_mesh_output(self, capsys):
        # Pinned before the path search became the batched array engine: on
        # the 24x22 shell at 550 km every relay route crosses a 528-satellite
        # in-range mesh, so this sweep leans on the route search.
        code, out, _ = run_cli(
            ["ifc-sweep", "--scenario", str(DATA / "shell_24x22.json"), "--isls", "1..8",
             "--seeds", "3"],
            capsys,
        )  # fmt: skip
        assert code == 0
        assert out == (DATA / "sweep_24x22.csv").read_text(encoding="utf-8")

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
            (["--isls", "1,1"], "--isls"),
            (["--isls", "1,2", "--modes", "optimized,optimized"], "--modes"),
            (["--modes", ""], "--modes"),
            (["--modes", ",,"], "--modes"),
            (["--modes", "bogus"], "--modes"),
            (["--modes", "full,optimized,full"], "--modes"),
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
            ["propagate", "--epoch", "-5"],
            ["topology", "--epoch", "-0.5"],
            ["route", "--src", "gs-london", "--dst", "gs-sydney", "--epoch", "-5"],
        ],
    )
    def test_non_finite_epoch(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        assert "argument --epoch:" in err

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
