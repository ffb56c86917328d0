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

from leoisl import delivery, links, routing
from leoisl.cli import main
from leoisl.delivery import build_slot_context
from leoisl.orbits import ConstellationConfig, propagate
from leoisl.scenario import Scenario
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

    def test_matches_pinned_output(self, capsys):
        # Pinned while propagation still built one state object per satellite.
        code, out, _ = run_cli(["propagate", "--epoch", "777.5"], capsys)
        assert code == 0
        assert out == (DATA / "propagate_epoch777.5.csv").read_text(encoding="utf-8")


class TestTopologyCommand:
    def test_grid_edge_count_matches_builder(self, capsys):
        code, out, _ = run_cli(["topology", "--mode", "grid", "--epoch", "0"], capsys)
        assert code == 0
        rows = parse_csv(out)
        config = ConstellationConfig()
        snapshot = build_grid_topology(propagate(config, 0.0).position_km, Scenario(config), 0.0)
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

    def test_dynamic_budget_flag_caps_at_two(self, capsys):
        code, out, _ = run_cli(["topology", "--mode", "dynamic", "--max-isls", "2"], capsys)
        assert code == 0
        degree = {}
        for row in parse_csv(out)[1:]:
            degree[row[1]] = degree.get(row[1], 0) + 1
            degree[row[2]] = degree.get(row[2], 0) + 1
        assert max(degree.values()) == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["--mode", "grid", "--max-isls", "1"],
            ["--mode", "grid", "--max-isls", "0"],
            ["--max-isls", "1"],  # the built-in scenario's mode is grid
        ],
    )
    def test_budget_flag_rejected_under_grid(self, args, capsys):
        code, out, err = run_cli(["topology", *args], capsys)
        assert code == 1
        assert out == ""
        assert "--max-isls" in err

    def test_budget_flag_rejected_under_scenario_grid(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"topology": {"mode": "grid", "max_isls": 2}}))
        code, out, err = run_cli(["topology", "--scenario", str(path), "--max-isls", "2"], capsys)
        assert code == 1
        assert out == ""
        assert "--max-isls" in err
        # The scenario's own grid without the flag still prints the +grid.
        assert len(parse_csv(run_cli(["topology", "--scenario", str(path)], capsys)[1])) - 1 == 210

    def test_scenario_mode_is_the_default(self, tmp_path, capsys):
        # Without --mode the scenario's topology applies: here its k=2 mesh,
        # not the 210-link +grid of the built-in baseline.
        path = tmp_path / "dynamic.json"
        path.write_text(json.dumps({"topology": {"mode": "dynamic", "max_isls": 2}}))
        code, out, _ = run_cli(["topology", "--scenario", str(path)], capsys)
        assert code == 0
        assert len(parse_csv(out)) - 1 == 118
        flagged = run_cli(["topology", "--scenario", str(path), "--mode", "dynamic"], capsys)
        assert flagged[1] == out
        _, baseline, _ = run_cli(["topology"], capsys)
        assert len(parse_csv(baseline)) - 1 == 210
        assert run_cli(["topology", "--mode", "grid"], capsys)[1] == baseline

    @pytest.mark.parametrize("max_isls", ["2", "4"])
    @pytest.mark.parametrize("epoch", ["0", "777.5", "2400"])
    def test_matches_pinned_dynamic_output(self, max_isls, epoch, capsys):
        # Pinned before the dynamic builder moved to index-pair arrays.
        code, out, _ = run_cli(
            ["topology", "--mode", "dynamic", "--max-isls", max_isls, "--ground", "--epoch", epoch],
            capsys,
        )
        assert code == 0
        pinned = DATA / f"topology_dynamic_k{max_isls}_epoch{epoch}.csv"
        assert out == pinned.read_text(encoding="utf-8")

    def test_matches_pinned_24x22_dynamic_output(self, capsys):
        # Pinned before the candidate scan went in row blocks. Its 528 rows
        # take three blocks (248, 248 and 32 rows), where the 120-satellite
        # pins above take one.
        argv = [
            "topology", "--scenario", str(DATA / "shell_24x22.json"), "--mode", "dynamic",
            "--max-isls", "4", "--ground", "--epoch", "777.5",
        ]  # fmt: skip
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        pinned = DATA / "topology_24x22_dynamic_k4_ground_epoch777.5.csv"
        assert out == pinned.read_text(encoding="utf-8")

    def test_matches_pinned_grid_output(self, capsys):
        # Pinned before snapshots held their links as arrays: the +grid with
        # every ground link, each distance, capacity and delay to the bit.
        code, out, _ = run_cli(["topology", "--ground", "--epoch", "777.5"], capsys)
        assert code == 0
        assert out == (DATA / "topology_grid_ground_epoch777.5.csv").read_text(encoding="utf-8")


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
        # Pinned before the path search became the batched array engine (the
        # 72x22 one before every read-back became one array search): both
        # metrics, through ground nodes, with the hop metric's many ties; on
        # the 72x22 shell, hop paths of 10 links and more.
        for name, count in (("route_baseline.txt", 16), ("route_shell1_grid.txt", 12)):
            pinned = (DATA / name).read_text(encoding="utf-8")
            got = []
            for line in pinned.splitlines():
                if line.startswith("# route "):
                    args = [str(DATA / a[11:]) if a.startswith("tests/data/") else a
                            for a in line[2:].split()]  # fmt: skip
                    code, out, _ = run_cli(args, capsys)
                    assert code == 0
                    got.append(line + "\n" + out)
            assert len(got) == count
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

    def test_matches_pinned_output(self, capsys):
        # The Starlink shell-1 +grid over three epochs: pairs on one
        # continent and across oceans, both ends at one place, and polar
        # ends that see no satellite (blank rows).
        code, out, _ = run_cli(
            [
                "hops", "--scenario", str(DATA / "shell1_grid.json"),
                "--pairs", str(DATA / "hops_pairs.csv"), "--epochs", "3",
            ],
            capsys,
        )  # fmt: skip
        assert code == 0
        assert out == (DATA / "hops_shell1_grid.csv").read_text(encoding="utf-8")

    def test_matches_pinned_padded_mesh_output(self, capsys):
        # A 24x22 dynamic mesh at four lasers a satellite: satellites of
        # degree 3 and 4, so the hop search reads padded table rows.
        code, out, _ = run_cli(
            [
                "hops", "--scenario", str(DATA / "shell_24x22_dynamic_k4.json"),
                "--pairs", str(DATA / "hops_pairs.csv"), "--epochs", "3",
            ],
            capsys,
        )  # fmt: skip
        assert code == 0
        assert out == (DATA / "hops_24x22_dynamic_k4.csv").read_text(encoding="utf-8")

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
            (
                "shell1_grid.json",
                ["--mode", "grid", "--epochs", "1", "--pairs", "200", "--seed", "5"],
                "sdp_mhp_shell1_grid.txt",
            ),
            (
                "shell_24x22.json",
                ["--mode", "dynamic", "--epochs", "2", "--pairs", "200", "--seed", "5"],
                "sdp_mhp_24x22_dynamic_k4.txt",
            ),
            (
                "shell1_grid.json",
                ["--mode", "grid", "--epochs", "2", "--pairs", "2000", "--seed", "7"],
                "sdp_mhp_shell1_grid_2000.txt",
            ),
            (
                "shell_24x22.json",
                ["--mode", "dynamic", "--epochs", "2", "--pairs", "2000", "--seed", "7"],
                "sdp_mhp_24x22_dynamic_2000.txt",
            ),
        ],
    )
    def test_matches_pinned_output(self, scenario, args, pinned, capsys):
        # The 200-pair pins predate the batched array engine: the Starlink
        # shell-1 +grid (72x22) and a 24x22 dynamic k=4 shell. The 2000-pair
        # pins predate the SDP hop counts from array searches: they label
        # several targets per root, and on the 24x22 mesh the SDP is an MHP
        # for only 37% of the pairs.
        code, out, _ = run_cli(["sdp-mhp", "--scenario", str(DATA / scenario), *args], capsys)
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
            ("non_cached_saf.json", "sweep_non_cached_saf.csv"),
            ("shell1_grid.json", "sweep_shell1_grid.csv"),
        ],
    )
    def test_matches_pinned_output(self, scenario, pinned, capsys):
        # Pinned before the holder search became the parametric solver (the
        # feeder-limited sweep before the planners' memos, the non-cached
        # store-and-forward one before the route options held their own
        # labels, the 72x22 one before the planner bounded its route
        # options): a refactor that changes any plan, or any bit of a delay,
        # shows up here. Only the feeder-limited and non-cached
        # store-and-forward inputs make the equal bandwidth split differ
        # from the optimized one.
        args = ["ifc-sweep", "--isls", "0..8", "--seeds", "3"]
        if scenario is not None:
            args += ["--scenario", str(DATA / scenario)]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert out == (DATA / pinned).read_text(encoding="utf-8")

    def test_delay_totals_do_not_depend_on_the_builtin_sum(self, monkeypatch, capsys):
        # Python 3.12 made the builtin sum() compensated. With every name
        # ``sum`` in the planners and routing bound to a compensated sum, the
        # sweep must still match its pin bit for bit: every float total adds
        # left to right.
        monkeypatch.setattr(delivery, "sum", math.fsum, raising=False)
        monkeypatch.setattr(routing, "sum", math.fsum, raising=False)
        code, out, _ = run_cli(["ifc-sweep", "--isls", "0..8", "--seeds", "3"], capsys)
        assert code == 0
        assert out == (DATA / "sweep_baseline.csv").read_text(encoding="utf-8")

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

    def test_sweep_prices_each_feeder_link_once(self, monkeypatch, capsys):
        # Building the ground links prices each of them once; the planners
        # may price each feeder link at most once more, however many cells,
        # keys and bisection steps read its rate.
        ground = [
            e
            for e in build_slot_context(Scenario(), 0.0).snapshot.edges
            if e.link_class != links.ISL_LASER
        ]
        feeders = [e for e in ground if e.link_class in (links.GROUND_TO_SAT, links.GROUND_TO_AIR)]
        assert (len(ground), len(feeders)) == (47, 26)
        calls = []
        original = links.fspl_db

        def counted(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "leoisl" and getattr(module, "fspl_db", None) is original:
                monkeypatch.setattr(module, "fspl_db", counted)
        code, _, _ = run_cli(["ifc-sweep", "--isls", "1..8", "--seeds", "10"], capsys)
        assert code == 0
        assert 0 < len(calls) <= len(ground) + len(feeders)

    def test_sweep_builds_only_routes_that_can_win(self, monkeypatch, capsys):
        # On the 72x22 shell a file has thousands of route options; the
        # planner builds only those whose delay or rate bounds can still win,
        # so the sweep labels few serving satellites and reads back few
        # routes (128 and 21,233 when every option was built), counted as
        # the roots labelled and the pairs walked.
        roots = []
        pairs = []

        def labelling(graph, batch, *wanted):
            roots.extend(batch)
            return shortest_paths(graph, batch, *wanted)

        def reading(graph, dist, batch, rows, ends):
            pairs.extend(zip(batch[rows], ends))
            return chains(graph, dist, batch, rows, ends)

        shortest_paths, chains = routing._shortest_paths, delivery._chains
        monkeypatch.setattr(routing, "_shortest_paths", labelling)
        monkeypatch.setattr(delivery, "_chains", reading)
        code, out, _ = run_cli(
            ["ifc-sweep", "--scenario", str(DATA / "shell1_grid.json"), "--isls", "0..8",
             "--seeds", "3"],
            capsys,
        )  # fmt: skip
        assert code == 0
        assert out == (DATA / "sweep_shell1_grid.csv").read_text(encoding="utf-8")
        assert 0 < len(roots) <= 30
        assert 0 < len(pairs) <= 500

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
            (["--isls", "0..100000"], "--isls"),
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
        "args",
        [
            ["propagate", "--epoch", "1000000000.5"],
            ["topology", "--epoch", "1e18"],
            ["route", "--src", "gs-london", "--dst", "gs-sydney", "--epoch", "1e300"],
        ],
    )
    def test_epoch_beyond_the_bound(self, args, capsys):
        # Satellites drift off their shell's geometry as the epoch grows
        # (at 1e300 they coincide), so an epoch beyond 1e9 s is refused.
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (1, "")
        message = f"argument --epoch: must be <= 1e9 s (about 31.7 years), got {args[-1]!r}"
        assert message in err
        code, out, _ = run_cli([*args[:-1], "1e9"], capsys)
        assert code == 0
        assert out

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

    @pytest.mark.parametrize("rate", [0.0, -5.0])
    def test_non_positive_laser_rate(self, rate, tmp_path, capsys):
        # A zero rate divided by zero, and a negative one gave infinite
        # delays that were counted as delivered.
        scenario = tmp_path / "rate.json"
        raw = {"topology": {"laser_rate_bps": rate}}
        scenario.write_text(json.dumps(raw))
        code, out, err = run_cli(
            ["ifc-sweep", "--isls", "1", "--seeds", "1", "--scenario", str(scenario)],
            capsys,
        )
        assert (code, out) == (1, "")
        assert "topology.laser_rate_bps must be > 0" in err

    @pytest.mark.parametrize(
        ("raw", "message"),
        [
            ({"seed": 1.5}, "scenario.seed must be an integer"),
            ({"seed": True}, "scenario.seed must be a number"),
            ({"snapshot_duration_s": 10.0}, "unknown field scenario.'snapshot_duration_s'"),
            # Past the float range or int64: bad input (exit 1), not a runtime failure.
            pytest.param(
                {"constellation": {"altitude_km": 10**399}},
                "constellation.altitude_km must be within float range",
                id="altitude-400-digits",
            ),
            pytest.param(
                {"ifc": {"packet_bits": 10**399}},
                "ifc.packet_bits must be <= 9223372036854775807",
                id="packet-bits-400-digits",
            ),
            pytest.param(
                {"ifc": {"file_class_packet_ranges": [[1, 10**22]]}},
                "ifc.file_class_packet_ranges[0] must satisfy hi <= 9223372036854775807",
                id="range-hi-10e22",
            ),
            pytest.param({"seed": -1}, "scenario.seed must be >= 0, got -1", id="seed-negative"),
            # A string field took any JSON value: a null id ran as a station "None".
            pytest.param(
                {"ground_stations": [{"node_id": None, "latitude_deg": 0, "longitude_deg": 0}]},
                "ground_stations.node_id must be a string, got None",
                id="station-id-null",
            ),
            # An empty id ran, its links written with a blank node column.
            pytest.param(
                {"ground_stations": [{"node_id": "", "latitude_deg": 0, "longitude_deg": 0}]},
                "ground_stations: node_id must be non-empty, got ''",
                id="station-id-empty",
            ),
            pytest.param(
                {"aircraft": [{"node_id": "", "latitude_deg": 0, "longitude_deg": 0}]},
                "aircraft: node_id must be non-empty, got ''",
                id="aircraft-id-empty",
            ),
        ],
    )
    def test_rejected_scenario_value(self, raw, message, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(raw))
        code, out, err = run_cli(["propagate", "--scenario", str(scenario)], capsys)
        assert (code, out) == (1, "")
        assert message in err

    def test_over_long_integer_literal_is_named(self, tmp_path, capsys):
        # 5000 digits: past Python's limit for integer strings, which the JSON
        # reader raised with advice the user cannot apply.
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"ifc": {"packet_bits": 1' + "0" * 4999 + "}}")
        code, out, err = run_cli(["propagate", "--scenario", str(scenario)], capsys)
        assert (code, out) == (1, "")
        assert err == "error: ifc.packet_bits must be an integer, got inf\n"

    @pytest.mark.parametrize(
        ("raw", "field"),
        [
            (
                {"link_params": {"isl_laser": {"lisl_fixed_rate_bps": 1e9}}},
                "link_params.'isl_laser'",
            ),
            (
                {"link_params": {"sat_to_air": {"lisl_fixed_rate_bps": 1e10}}},
                "link_params.sat_to_air.'lisl_fixed_rate_bps'",
            ),
        ],
    )
    def test_old_laser_rate_fields_are_refused(self, raw, field, tmp_path, capsys):
        # Files saved before the laser rate moved to topology.laser_rate_bps
        # carry these fields; they must not load with the rate ignored.
        scenario = tmp_path / "old.json"
        scenario.write_text(json.dumps(raw))
        code, out, err = run_cli(["topology", "--scenario", str(scenario)], capsys)
        assert (code, out) == (1, "")
        assert f"unknown field {field}" in err

    def test_bad_scenario_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["propagate", "--scenario", str(bad)], capsys)
        assert code == 1
        assert "invalid JSON" in err
