"""Path search against exhaustive enumeration, plus path-structure stats."""

import itertools
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoisl import cli, routing
from leoisl.links import ISL_LASER
from leoisl.orbits import (
    GROUND_STATION,
    ConstellationConfig,
    GroundNode,
    elevations_deg,
    ground_position,
    propagate,
)
from leoisl.routing import (
    HopStatsRow,
    _chains,
    _graph,
    _hop_counts,
    _least_distance,
    _path,
    _sdp_mhp,
    _shortest_paths,
    _tight_levels,
    ground_pair_hop_stats,
    min_hop_path,
    sdp_mhp_fraction,
    shortest_distance_path,
)
from leoisl.scenario import Scenario, TopologySettings, load_scenario
from leoisl.topology import build_dynamic_topology, build_grid_topology, build_snapshot

from oracles import edge, full_dist, neighbor_lists, scenario_on, snapshot_of

DATA = Path(__file__).parent / "data"


def lasers(weighted_edges):
    """Laser links from (a, b, distance) triples."""
    return [edge(a, b, ISL_LASER, distance, 1.0e10) for a, b, distance in weighted_edges]


def enumerate_simple_paths(snapshot, src, dst):
    adjacency = neighbor_lists(snapshot)
    paths = []

    def walk(node, seen, dist, hops):
        if node == dst:
            paths.append((tuple(seen), dist, hops))
            return
        for neighbor, edge in adjacency[node]:
            if neighbor in seen:
                continue
            seen.append(neighbor)
            walk(neighbor, seen, dist + edge.distance_km, hops + 1)
            seen.pop()

    walk(src, [src], 0.0, 0)
    return paths


def oracle_best(snapshot, src, dst, metric):
    paths = enumerate_simple_paths(snapshot, src, dst)
    if not paths:
        return None
    if metric == "distance":
        return min(paths, key=lambda p: (p[1], p[2], p[0]))
    return min(paths, key=lambda p: (p[2], p[0]))


def random_snapshot(rng):
    n = int(rng.integers(2, 9))
    nodes = [f"n{i}" for i in range(n)]
    edges = []
    for a, b in itertools.combinations(nodes, 2):
        if rng.random() < 0.4:
            edges.append((a, b, float(rng.uniform(0.1, 10.0))))
    return snapshot_of(lasers(edges), nodes), nodes


class TestPathBasics:
    def test_same_node(self):
        snapshot = snapshot_of(lasers([("a", "b", 5.0)]))
        path = shortest_distance_path(snapshot, "a", "a")
        assert path.nodes == ("a",)
        assert path.hop_count == 0
        assert path.total_distance_km == 0.0
        assert math.isinf(path.bottleneck_capacity_bps)

    def test_triangle_distance_prefers_direct(self):
        snapshot = snapshot_of(lasers([("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.5)]))
        path = shortest_distance_path(snapshot, "a", "c")
        assert path.nodes == ("a", "c")
        assert path.total_distance_km == pytest.approx(1.5)

    def test_triangle_hops_prefers_direct(self):
        snapshot = snapshot_of(lasers([("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 1.5)]))
        path = min_hop_path(snapshot, "a", "c")
        assert path.nodes == ("a", "c")
        assert path.hop_count == 1

    def test_adjacent_nodes_one_hop_regardless_of_length(self):
        snapshot = snapshot_of(lasers([("a", "b", 0.1), ("b", "c", 0.1), ("a", "c", 99.0)]))
        assert min_hop_path(snapshot, "a", "c").hop_count == 1

    def test_disconnected_pair(self):
        snapshot = snapshot_of(lasers([("a", "b", 1.0)]), ["a", "b", "c"])
        assert shortest_distance_path(snapshot, "a", "c") is None
        assert min_hop_path(snapshot, "a", "c") is None

    def test_unknown_node_rejected(self):
        snapshot = snapshot_of(lasers([("a", "b", 1.0)]))
        with pytest.raises(ValueError):
            shortest_distance_path(snapshot, "a", "zz")

    def test_path_metrics_consistent(self):
        snapshot = snapshot_of(lasers([("a", "b", 2.0), ("b", "c", 3.0)]))
        path = shortest_distance_path(snapshot, "a", "c")
        assert path.hop_count == len(path.nodes) - 1
        assert path.total_distance_km == pytest.approx(5.0)
        assert path.total_propagation_delay_s == pytest.approx(5.0 / 299792.458)
        assert path.edge_capacities_bps == (1.0e10, 1.0e10)

    def test_grid_in_plane_neighbors_one_hop(self):
        from leoisl.orbits import sat_key
        from leoisl.topology import build_grid_topology

        config = ConstellationConfig()
        snapshot = build_grid_topology(propagate(config, 0.0).position_km, Scenario(config), 0.0)
        path = min_hop_path(snapshot, sat_key(0, 0), sat_key(0, 1))
        assert path.hop_count == 1


class TestOracleEquivalence:
    def test_matches_enumeration_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            snapshot, nodes = random_snapshot(rng)
            src, dst = nodes[0], nodes[-1]
            expected_sdp = oracle_best(snapshot, src, dst, "distance")
            expected_mhp = oracle_best(snapshot, src, dst, "hops")
            got_sdp = shortest_distance_path(snapshot, src, dst)
            got_mhp = min_hop_path(snapshot, src, dst)
            if expected_sdp is None:
                assert got_sdp is None and got_mhp is None
                continue
            assert got_sdp.nodes == expected_sdp[0]
            assert got_sdp.total_distance_km == pytest.approx(
                expected_sdp[1], abs=1e-9
            )
            assert got_sdp.hop_count == expected_sdp[2]
            assert got_mhp.nodes == expected_mhp[0]
            assert got_mhp.hop_count == expected_mhp[2]

    def test_structural_invariants_on_random_graphs(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            snapshot, nodes = random_snapshot(rng)
            src, mid, dst = nodes[0], nodes[len(nodes) // 2], nodes[-1]
            sdp = shortest_distance_path(snapshot, src, dst)
            mhp = min_hop_path(snapshot, src, dst)
            if sdp is None:
                continue
            assert sdp.total_distance_km <= mhp.total_distance_km + 1e-12
            assert mhp.hop_count <= sdp.hop_count
            back = min_hop_path(snapshot, dst, src)
            assert back.hop_count == mhp.hop_count
            leg_a = shortest_distance_path(snapshot, src, mid)
            leg_b = shortest_distance_path(snapshot, mid, dst)
            if leg_a is not None and leg_b is not None:
                assert (
                    sdp.total_distance_km
                    <= leg_a.total_distance_km + leg_b.total_distance_km + 1e-9
                )


class TestHopStats:
    def test_colocated_pair_zero_hops(self):
        config = ConstellationConfig()
        here = GroundNode("a", GROUND_STATION, 20.0, 30.0)
        also_here = GroundNode("b", GROUND_STATION, 20.0, 30.0)
        rows = ground_pair_hop_stats(Scenario(config), [(here, also_here)], [0.0])
        assert len(rows) == 1
        assert rows[0].min_hops == 0
        assert rows[0].spread >= 0

    def test_long_pair_reports_spread(self):
        config = ConstellationConfig()
        london = GroundNode("london", GROUND_STATION, 51.507, -0.128)
        singapore = GroundNode("singapore", GROUND_STATION, 1.352, 103.820)
        rows = ground_pair_hop_stats(Scenario(config), [(london, singapore)], [0.0, 900.0])
        for row in rows:
            assert not row.skipped
            assert row.max_hops >= row.min_hops > 0
            print(
                f"{row.pair_id} epoch={row.epoch_s}: hops "
                f"[{row.min_hops},{row.max_hops}] spread={row.spread}"
            )

    def test_single_satellite_constellation(self):
        config = ConstellationConfig(
            num_planes=1, sats_per_plane=1, phasing_factor=0
        )
        a = GroundNode("a", GROUND_STATION, 0.0, 0.0)
        b = GroundNode("b", GROUND_STATION, 1.0, 1.0)
        rows = ground_pair_hop_stats(Scenario(config), [(a, b)], [0.0])
        row = rows[0]
        assert row.skipped or (row.min_hops == 0 and row.max_hops == 0)

    def test_no_start_satellite_anywhere_skips_every_row(self):
        # No pair's start sees a satellite, so no search block runs at all.
        pole = GroundNode("pole", GROUND_STATION, 89.0, 0.0)
        lima = GroundNode("lima", GROUND_STATION, -12.05, -77.04)
        rows = ground_pair_hop_stats(Scenario(ConstellationConfig()), [(pole, lima)], [0.0])
        assert rows == [HopStatsRow("pole|lima", 0.0, None, None, None, None, 0, True)]

    def test_empty_inputs_rejected(self):
        config = ConstellationConfig()
        with pytest.raises(ValueError):
            ground_pair_hop_stats(Scenario(config), [], [0.0])

    def test_nodes_sharing_an_id_keep_their_own_visibility(self):
        scenario = Scenario(ConstellationConfig())
        london = GroundNode("x", GROUND_STATION, 51.507, -0.128)
        singapore = GroundNode("y", GROUND_STATION, 1.352, 103.820)
        sydney = GroundNode("x", GROUND_STATION, -33.87, 151.21)
        lima = GroundNode("y", GROUND_STATION, -12.05, -77.04)
        epochs = [0.0, 900.0]
        together = ground_pair_hop_stats(scenario, [(london, singapore), (sydney, lima)], epochs)
        first = ground_pair_hop_stats(scenario, [(london, singapore)], epochs)
        second = ground_pair_hop_stats(scenario, [(sydney, lima)], epochs)
        assert together == [first[0], second[0], first[1], second[1]]
        assert first != second


class TestSdpMhpFraction:
    def test_complete_uniform_graph(self):
        nodes = [f"n{i}" for i in range(5)]
        edges = [(a, b, 1.0) for a, b in itertools.combinations(nodes, 2)]
        snapshot = snapshot_of(lasers(edges), nodes)
        srcs, dsts = np.array(list(itertools.combinations(range(len(nodes)), 2))).T
        result = _sdp_mhp(_graph(snapshot), srcs, dsts)
        assert result.fraction == 1.0
        assert result.pairs_checked == len(srcs)

    def test_detour_beats_direct_edge(self):
        # Two short legs beat the long direct edge on distance but not hops.
        snapshot = snapshot_of(lasers([("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 3.0)]))
        result = _sdp_mhp(_graph(snapshot), np.array([0]), np.array([2]))  # a to c
        assert result.fraction == 0.0

    def test_low_inclination_grid_fraction(self):
        scenario = Scenario(ConstellationConfig(), topology=TopologySettings("grid"))
        result = sdp_mhp_fraction(scenario, 50, [0.0, 1200.0], 11)
        assert result.pairs_checked == 100
        assert result.fraction >= 0.95

    @pytest.mark.parametrize("n", [2, 3, 5, 120, 528, 1584, 65537, 2**31 + 5])
    @pytest.mark.parametrize("seed", [0, 5, 12345])
    def test_one_array_draw_matches_one_draw_per_endpoint(self, n, seed):
        # The sampler draws every endpoint in one call; the numbers and the
        # generator's state after them must be those of one scalar draw per
        # endpoint, so that every sampled pair, in every epoch, is unchanged.
        scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [int(scalar.integers(0, high)) for _ in range(300) for high in (n, n - 1)]
        assert batched.integers(0, np.tile([n, n - 1], 300)).tolist() == expected
        assert batched.bit_generator.state == scalar.bit_generator.state

    def test_sampled_pairs_match_one_draw_per_endpoint(self):
        scenario = Scenario(ConstellationConfig(), topology=TopologySettings("grid"))
        epochs, seed = [0.0, 1200.0], 7
        with mock.patch.object(routing, "_sdp_mhp", wraps=_sdp_mhp) as evaluated:
            sdp_mhp_fraction(scenario, 300, epochs, seed)
        rng = np.random.default_rng(seed)
        for epoch_s, call in zip(epochs, evaluated.call_args_list, strict=True):
            graph, srcs, dsts = call.args
            assert graph.nodes == build_snapshot(scenario, epoch_s).nodes
            expected = []
            for _ in range(300):
                i = int(rng.integers(0, len(graph.nodes)))
                j = int(rng.integers(0, len(graph.nodes) - 1))
                expected.append((i, j + (j >= i)))
            assert list(zip(srcs.tolist(), dsts.tolist())) == expected

    def test_each_sampled_source_is_labelled_once(self):
        # The sampled sources are labelled 64 at a time, each once: on the
        # 72x22 +grid an engine batch holds 82 roots, more than 64, and no
        # root of the next 64 may be labelled as well.
        shell = ConstellationConfig(num_planes=72, sats_per_plane=22, altitude_km=550.0)
        scenario = Scenario(shell, topology=TopologySettings("grid"))
        with (
            mock.patch.object(routing, "_hop_counts", wraps=_hop_counts) as hop_search,
            mock.patch.object(routing, "_shortest_paths", wraps=_shortest_paths) as labels,
        ):
            result = sdp_mhp_fraction(scenario, 200, [0.0], 12345)
        ((_, starts, _),) = [call.args for call in hop_search.call_args_list]
        sources = sorted(set(starts.tolist()))
        assert len(sources) > 64
        blocks = [call.args[1].tolist() for call in labels.call_args_list]
        assert [root for block in blocks for root in block] == sources
        assert [len(block) for block in blocks[:-1]] == [64] * (len(blocks) - 1)
        assert result.pairs_checked + result.pairs_unreachable == 200

    def test_sdp_hop_counts_read_back_no_path(self):
        shell = ConstellationConfig(num_planes=72, sats_per_plane=22, altitude_km=550.0)
        scenario = Scenario(shell, topology=TopologySettings("grid"))
        with mock.patch.object(routing, "_chains", wraps=_chains) as read_back:
            result = sdp_mhp_fraction(scenario, 200, [0.0], 12345)
        assert result.pairs_checked + result.pairs_unreachable == 200
        assert read_back.call_count == 0


def dist_hops_to(graph, src, targets):
    """Per reachable target: the distance label and the chosen path's hops."""
    targets = np.array(sorted(targets), dtype=np.intp)
    dist = full_dist(graph, [src])
    chains = _chains(graph, dist, np.array([src]), np.zeros(len(targets), np.intp), targets)
    return {
        t: (dist[0, t].item(), len(found[0]) - 1)
        for t, found in zip(targets.tolist(), chains)
        if found is not None
    }


def every_pair(sources, targets):
    """Each (source, target) pair, source-major, as start and end lists."""
    pairs = list(itertools.product(sources, targets))
    return [s for s, _ in pairs], [t for _, t in pairs]


def batched_hops(graph, sources, targets):
    """The hop search over every (source, target) pair at once, as one
    ``{target: hops}`` dict per source."""
    targets = list(targets)
    hops = _hop_counts(graph, *every_pair(sources, targets))
    rows = hops.reshape(len(sources), len(targets)).tolist()
    return [{t: h for t, h in zip(targets, row) if h >= 0} for row in rows]


def full_labels(graph, src):
    everything = range(len(graph.nodes))
    return batched_hops(graph, [src], everything)[0], dist_hops_to(graph, src, everything)


def baseline_snapshots():
    config = ConstellationConfig()
    positions = propagate(config, 0.0).position_km
    return {
        "grid": build_grid_topology(positions, scenario_on(config), 0.0),
        "dynamic-3": build_dynamic_topology(positions, scenario_on(config, max_isls=3), 0.0),
    }


class TestSearchesAgainstNetworkx:
    """The statistics searches against networkx on the 120-satellite shell."""

    @pytest.mark.parametrize("name", ["grid", "dynamic-3"])
    def test_every_source(self, name):
        nx = pytest.importorskip("networkx")
        snapshot = baseline_snapshots()[name]
        oracle = nx.Graph()
        oracle.add_nodes_from(snapshot.nodes)
        for link in snapshot.edges:  # lasers only: no ground nodes
            oracle.add_edge(link.node_a, link.node_b, weight=link.distance_km)
        graph = _graph(snapshot)
        everything = range(len(graph.nodes))
        # All 120 sources in one batched search: a full block and a partial one.
        all_hops = batched_hops(graph, everything, everything)
        for src, key in enumerate(graph.nodes):
            hops = all_hops[src]
            dist_hops = dist_hops_to(graph, src, everything)
            expected_hops = nx.single_source_shortest_path_length(oracle, key)
            expected_dist = nx.single_source_dijkstra_path_length(oracle, key)
            assert {graph.nodes[i]: h for i, h in hops.items()} == expected_hops
            assert set(dist_hops) == set(hops)
            for i, (dist, _) in dist_hops.items():
                assert dist == pytest.approx(expected_dist[graph.nodes[i]], rel=1e-9)


@st.composite
def small_graphs(draw, min_length=1):
    """Random graphs with integer distances: every path sum is exact, so
    distance ties are real ties and the hop tie-break is exercised. With
    ``min_length=0`` some links have zero length, as between coincident
    satellites."""
    n = draw(st.integers(2, 7))
    nodes = [f"n{i}" for i in range(n)]
    edges = [
        (a, b, float(draw(st.integers(min_length, 3))))
        for a, b in itertools.combinations(nodes, 2)
        if draw(st.booleans())
    ]
    snapshot = snapshot_of(lasers(edges), nodes)
    src = draw(st.integers(0, n - 1))
    targets = draw(st.sets(st.integers(0, n - 1)))
    return snapshot, src, targets


class TestEarlyExitSearches:
    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_early_exit_matches_full_search_and_enumeration(self, case):
        snapshot, src, targets = case
        graph = _graph(snapshot)
        all_hops, all_dist_hops = full_labels(graph, src)
        hops = batched_hops(graph, [src], targets)[0]
        dist_hops = dist_hops_to(graph, src, targets)
        assert hops == {t: all_hops[t] for t in targets if t in all_hops}
        assert dist_hops == {t: all_dist_hops[t] for t in targets if t in all_dist_hops}
        for dst in range(len(graph.nodes)):
            paths = enumerate_simple_paths(snapshot, graph.nodes[src], graph.nodes[dst])
            if not paths:
                assert dst not in all_hops and dst not in all_dist_hops
                continue
            assert all_hops[dst] == min(p[2] for p in paths)
            assert all_dist_hops[dst] == min((p[1], p[2]) for p in paths)

    def test_equal_distance_path_found_later_with_fewer_hops(self):
        # s-x-y-t (1+1+4) relaxes t before s-z-t (3+3) does; both are 6 km.
        snapshot = snapshot_of(lasers(
            [("s", "x", 1.0), ("x", "y", 1.0), ("y", "t", 4.0),
             ("s", "z", 3.0), ("z", "t", 3.0)]
        ))  # fmt: skip
        graph = _graph(snapshot)
        src, dst = graph.index["s"], graph.index["t"]
        assert dist_hops_to(graph, src, [dst]) == {dst: (6.0, 2)}
        assert batched_hops(graph, [src], [dst]) == [{dst: 2}]


def best_by_enumeration(snapshot, src, dst):
    """Least ``(distance, hops, node sequence)`` over the simple paths."""
    paths = enumerate_simple_paths(snapshot, src, dst)
    return min(paths, key=lambda p: (p[1], p[2], p[0])) if paths else None


class TestBatchedDistanceSearch:
    @settings(max_examples=300, deadline=None)
    @given(small_graphs(min_length=0), st.data())
    def test_batch_matches_single_roots_and_enumeration(self, case, data):
        snapshot, _, _ = case
        graph = _graph(snapshot)
        n = len(graph.nodes)
        links = graph.links
        for u in range(n):  # each table slot's row joins its two ends
            for v, k in zip(graph.neighbors[u].tolist(), graph.rows[u].tolist()):
                if v < n:
                    assert {links.a[k], links.b[k]} == {u, v}
        roots = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        roots += roots[:1]  # a repeated root in every batch
        batch = full_dist(graph, roots)
        assert batch.shape == (len(roots), n)
        with mock.patch.object(routing, "_BATCH_LINKS", 1):  # one root per batch
            assert full_dist(graph, roots).tolist() == batch.tolist()
        for root, row in zip(roots, batch.tolist()):
            single = full_dist(graph, [root])
            assert single[0].tolist() == row
            chains = _chains(graph, single, np.array([root]), np.zeros(n, np.intp), np.arange(n))
            for dst, found in enumerate(chains):
                best = best_by_enumeration(snapshot, graph.nodes[root], graph.nodes[dst])
                if best is None:
                    assert found is None and row[dst] == math.inf
                    continue
                chain, rows = found
                assert len(rows) == len(chain) - 1
                for u, v, k in zip(chain, chain[1:], rows):
                    assert {links.a[k], links.b[k]} == {u, v}
                assert (row[dst], len(chain) - 1) == best[1:]
                assert tuple(graph.nodes[i] for i in chain) == best[0]

    def test_edgeless_graph_and_isolated_nodes(self):
        edgeless = _graph(snapshot_of(lasers([]), ["a", "b", "c"]))
        roots = np.array([2, 0, 2])
        dist = full_dist(edgeless, roots)
        assert dist.tolist() == [
            [math.inf, math.inf, 0.0],
            [0.0, math.inf, math.inf],
            [math.inf, math.inf, 0.0],
        ]
        found = _chains(edgeless, dist, roots, np.array([0, 0]), np.array([2, 1]))
        assert found[0][0] == [2]
        assert found[1] is None
        assert full_dist(edgeless, []).shape == (0, 3)
        # "c" has no link; "a"-"b" is a zero-length link.
        graph = _graph(snapshot_of(lasers([("a", "b", 0.0), ("b", "d", 2.0)]), ["c"]))
        roots = np.array([0, 2, 3])
        dist = full_dist(graph, roots)
        assert dist.tolist() == [
            [0.0, 0.0, math.inf, 2.0],
            [math.inf, math.inf, 0.0, math.inf],
            [2.0, 2.0, math.inf, 0.0],
        ]
        found = _chains(graph, dist, roots, np.array([0, 2, 1]), np.array([1, 0, 0]))
        assert found[0][0] == [0, 1]
        assert found[1][0] == [3, 1, 0]
        assert found[2] is None

    def test_pair_layer_matches_single_roots(self):
        # 160 distinct starts in a shuffled order, 64 labelled at a time:
        # each pair's path and hop count equal those read from its start's
        # full labels alone. Nodes 150-159 have no link; a start may be its end.
        n = 150
        graph = edge_list_graph(n + 10, [(i, (i + 1) % n) for i in range(n)] + [(0, 75), (30, 110)])
        rng = np.random.default_rng(7)
        starts = np.repeat(np.arange(n + 10), 3)
        ends = rng.integers(0, n + 10, len(starts))
        ends[::7] = starts[::7]
        order = rng.permutation(len(starts))
        starts, ends = starts[order], ends[order]
        paths = _least_distance(graph, starts, ends, _chains)
        counts = _least_distance(graph, starts, ends, lambda *block: _tight_levels(*block)[0])
        for start, end, path, count in zip(starts.tolist(), ends.tolist(), paths, counts):
            root, last = np.array([start]), np.array([end])
            (single,) = _chains(graph, full_dist(graph, root), root, np.zeros(1, np.intp), last)
            if single is None:
                assert path is None and count == -1
                continue
            assert path[0] == single[0] and path[1].tolist() == single[1].tolist()
            assert count == len(single[0]) - 1


@st.composite
def rooted_targets(draw, n):
    """Roots, each with its own non-empty list of targets: roots and
    targets repeat, and a root may be its own target."""
    roots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 1))
    node_lists = st.lists(st.integers(0, n - 1), min_size=1, max_size=n + 1)
    return roots, [draw(node_lists) for _ in roots]


class TestTargetBoundedSearch:
    """Labels bounded by each root's targets, and the paths and SDP hop
    counts read back from them, against full labels and enumeration."""

    @pytest.mark.parametrize(
        "batch_links", [1, routing._BATCH_LINKS], ids=["one-root", "default"]
    )
    @settings(max_examples=200, deadline=None)
    @given(case=small_graphs(min_length=0), data=st.data())
    def test_bounded_labels_read_the_same_paths(self, batch_links, case, data):
        snapshot, _, _ = case
        graph = _graph(snapshot)
        roots, targets = data.draw(rooted_targets(len(graph.nodes)))
        rows = np.repeat(np.arange(len(roots)), [len(ends) for ends in targets])
        ends = np.concatenate(targets)
        roots = np.asarray(roots)
        full = full_dist(graph, roots)
        with mock.patch.object(routing, "_BATCH_LINKS", batch_links):
            bounded = _shortest_paths(graph, roots, rows, ends)
        assert bounded[rows, ends].tolist() == full[rows, ends].tolist()
        expected = _chains(graph, full, roots, rows, ends)
        for want, found in zip(expected, _chains(graph, bounded, roots, rows, ends)):
            if want is None:
                assert found is None
                continue
            assert found[0] == want[0]
            assert found[1].tolist() == want[1].tolist()

    @settings(max_examples=300, deadline=None)
    @given(case=small_graphs(min_length=0), data=st.data())
    def test_chains_and_hop_counts_match_enumeration(self, case, data):
        # Pairs in one batch, with repeated roots and roots that are their
        # own ends, over full labels and over labels bounded by the ends.
        snapshot, _, _ = case
        graph = _graph(snapshot)
        links = graph.links
        roots, targets = data.draw(rooted_targets(len(graph.nodes)))
        rows = np.repeat(np.arange(len(roots)), [len(ends) for ends in targets])
        ends = np.concatenate(targets)
        roots = np.asarray(roots)
        for dist in (full_dist(graph, roots), _shortest_paths(graph, roots, rows, ends)):
            hops, _ = _tight_levels(graph, dist, roots, rows, ends)
            chains = _chains(graph, dist, roots, rows, ends)
            assert len(hops) == len(chains) == len(rows)
            for root, end, count, found in zip(roots[rows], ends, hops.tolist(), chains):
                best = best_by_enumeration(snapshot, graph.nodes[root], graph.nodes[end])
                if best is None:
                    assert found is None and count == -1
                    continue
                chain, link_rows = found
                assert tuple(graph.nodes[i] for i in chain) == best[0]
                assert count == len(link_rows) == len(chain) - 1
                for u, v, k in zip(chain, chain[1:], link_rows):
                    assert {links.a[k], links.b[k]} == {u, v}


def relay(graph, src, dst):
    """The laser route from ``src`` to ``dst`` as delivery reads a relay back:
    from a single root's labels at ``dst``, reversed and summed from ``src``."""
    root, end = np.array([graph.index[dst]]), np.array([graph.index[src]])
    (found,) = _chains(graph, full_dist(graph, root), root, np.zeros(1, np.intp), end)
    if found is None:
        return None
    chain, rows = found
    return _path(graph, chain[::-1], rows[::-1])


class TestTieBreak:
    """Equal ``(distance, hops)`` paths go to the smallest node sequence."""

    @settings(max_examples=300, deadline=None)
    @given(small_graphs())
    def test_paths_are_the_lexicographic_minimum(self, case):
        # Integer distances make equal-distance paths real ties.
        snapshot, src, _ = case
        graph = _graph(snapshot)
        a = snapshot.nodes[src]
        for b in snapshot.nodes:
            expected_sdp = oracle_best(snapshot, a, b, "distance")
            sdp = shortest_distance_path(snapshot, a, b)
            mhp = min_hop_path(snapshot, a, b)
            route = relay(graph, b, a)
            if expected_sdp is None:
                assert sdp is None and mhp is None and route is None
                continue
            assert sdp.nodes == expected_sdp[0]
            assert mhp.nodes == oracle_best(snapshot, a, b, "hops")[0]
            assert route.nodes == expected_sdp[0][::-1]
            assert route.total_distance_km == sdp.total_distance_km

    def test_tie_decided_above_the_last_hop(self):
        # r-a-d-t and r-b-c-t tie; c reaches t first, but a < b decides.
        snapshot = snapshot_of(lasers(
            [("r", "a", 1.0), ("a", "d", 1.0), ("d", "t", 1.0),
             ("r", "b", 1.0), ("b", "c", 1.0), ("c", "t", 1.0)]
        ))  # fmt: skip
        assert shortest_distance_path(snapshot, "r", "t").nodes == ("r", "a", "d", "t")
        assert min_hop_path(snapshot, "r", "t").nodes == ("r", "a", "d", "t")
        assert relay(_graph(snapshot), "t", "r").nodes == ("t", "d", "a", "r")


def edge_list_graph(n, edges):
    """Integer-indexed ISL graph; node ``i`` is ``n{i:03d}``, links are index pairs."""
    names = [f"n{i:03d}" for i in range(n)]
    snapshot = snapshot_of(lasers([(names[a], names[b], 1.0) for a, b in edges]), names)
    return _graph(snapshot)


@st.composite
def hop_search_cases(draw):
    """A graph with isolated nodes and mixed degrees, sometimes with a path
    of more than 128 links hanging off node 0, and (start, end) pairs in any
    order, starts and ends repeating; with a path, the last pair runs from
    its far end to node 0."""
    n = draw(st.integers(1, 24))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n))
    edges = {(min(a, b), max(a, b)) for a, b in pairs if a != b}
    tail = draw(st.one_of(st.just(0), st.integers(129, 200)))
    edges |= {(i, i + 1) for i in range(n, n + tail - 1)} | ({(0, n)} if tail else set())
    size = n + tail
    node = st.integers(0, size - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=150)) + ([(size - 1, 0)] if tail else [])
    return edge_list_graph(size, sorted(edges)), [s for s, _ in pairs], [e for _, e in pairs]


def reference_hops(graph, src):
    """Plain BFS hop counts from ``src``."""
    hops = {src: 0}
    frontier = [src]
    while frontier:
        reached = []
        for here in frontier:
            for neighbor in graph.neighbors[here].tolist():
                if neighbor < len(graph.nodes) and neighbor not in hops:
                    hops[neighbor] = hops[here] + 1
                    reached.append(neighbor)
        frontier = reached
    return hops


def assert_hop_counts(graph, starts, ends):
    """``_hop_counts`` gives each pair its plain BFS hop count, -1 where unreachable."""
    reference = {src: reference_hops(graph, src) for src in set(starts)}
    hops = _hop_counts(graph, starts, ends)
    assert hops.tolist() == [reference[s].get(e, -1) for s, e in zip(starts, ends)]
    return hops


class TestBatchedHopSearch:
    @settings(max_examples=100, deadline=None)
    @given(hop_search_cases())
    def test_blocks_match_reference_bfs(self, case):
        hops = assert_hop_counts(*case)
        if len(case[0].nodes) > 129:  # a long path: hop counts need 8 level bits
            assert hops[-1] > 128

    def test_more_than_64_sources_with_partial_last_block(self):
        # A 150-node ring with two chords; 150 distinct starts fill words of
        # 64, 64 and 22 bits. The pairs run in a shuffled order.
        n = 150
        graph = edge_list_graph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 75), (30, 110)])
        sources = list(range(n))
        targets = [0, 7, 75, 110, 149]
        labels = batched_hops(graph, sources, targets)
        for src in sources:
            expected = reference_hops(graph, src)
            assert labels[src] == {t: expected[t] for t in targets}
        starts, ends = every_pair(sources, targets)
        order = np.random.default_rng(3).permutation(len(starts)).tolist()
        assert_hop_counts(graph, [starts[k] for k in order], [ends[k] for k in order])

    def test_repeated_sources(self):
        graph = edge_list_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        labels = batched_hops(graph, [3, 0, 3, 3, 5, 0], range(6))
        assert labels[0] == labels[2] == labels[3] == reference_hops(graph, 3)
        assert labels[1] == labels[5] == reference_hops(graph, 0)
        assert labels[4] == reference_hops(graph, 5)

    def test_source_that_is_its_own_target(self):
        graph = edge_list_graph(3, [(0, 1), (1, 2)])
        assert batched_hops(graph, [1], [1]) == [{1: 0}]
        assert batched_hops(graph, [0, 2], [2, 0]) == [{2: 2, 0: 0}, {2: 0, 0: 2}]

    def test_isolated_nodes(self):
        # Nodes 2 and 5 have no link.
        graph = edge_list_graph(6, [(0, 1), (1, 3), (3, 4)])
        labels = batched_hops(graph, [0, 2, 5, 4], range(6))
        assert labels[0] == {0: 0, 1: 1, 3: 2, 4: 3}
        assert labels[1] == {2: 0}
        assert labels[2] == {5: 0}
        assert labels[3] == {4: 0, 3: 1, 1: 2, 0: 3}

    def test_edgeless_graph(self):
        graph = edge_list_graph(4, [])
        labels = batched_hops(graph, [3, 0, 1], range(4))
        assert labels == [{3: 0}, {0: 0}, {1: 0}]
        assert batched_hops(graph, [], range(4)) == []
        assert batched_hops(graph, [2], []) == [{}]


def words_budget(graph, words):
    """A ``_BATCH_WORDS`` that gives each hop-search pass ``words`` 64-bit
    words per node row."""
    return words * (len(graph.nodes) + 1)


class TestManyWordHopSearch:
    """Hop searches over several 64-bit words per node, at forced budgets."""

    @pytest.mark.parametrize("words", [1, 2, 3])
    @settings(max_examples=40, deadline=None)
    @given(case=hop_search_cases())
    def test_budgets_match_reference_bfs(self, words, case):
        graph, starts, ends = case
        with mock.patch.object(routing, "_BATCH_WORDS", words_budget(graph, words)):
            hops = assert_hop_counts(graph, starts, ends)
        if len(graph.nodes) > 129:  # a long path: hop counts need 8 level bits
            assert hops[-1] > 128

    @pytest.mark.parametrize(
        "count, words",
        [
            pytest.param(150, 1, id="one-word-three-searches"),
            pytest.param(100, 2, id="two-words-partial-last"),
            pytest.param(300, 2, id="two-words-three-searches"),
            pytest.param(300, 8, id="five-words-one-search"),
        ],
    )
    def test_ring_with_isolated_nodes(self, count, words):
        # A 150-node ring with two chords, then 10 nodes of degree 0; the
        # sources cycle through every node.
        n = 150
        graph = edge_list_graph(n + 10, [(i, (i + 1) % n) for i in range(n)] + [(0, 75), (30, 110)])
        assert graph.neighbors.shape == (n + 10, 3)
        sources = [k * 7 % (n + 10) for k in range(count)]
        targets = [0, 7, 75, 110, 149, 150, 159]
        with mock.patch.object(routing, "_BATCH_WORDS", words_budget(graph, words)):
            assert_hop_counts(graph, *every_pair(sources, targets))

    @pytest.mark.parametrize("words", [1, None])
    def test_dense_mesh(self, words):
        # max_isls 119 on 120 satellites: every link in range and sight,
        # rows of very different degree padded to the widest.
        config = ConstellationConfig()
        positions = propagate(config, 0.0).position_km
        graph = _graph(build_dynamic_topology(positions, scenario_on(config, max_isls=119), 0.0))
        degree = (graph.neighbors < len(graph.nodes)).sum(axis=1)
        assert degree.max() > degree.min() + 5
        everything = list(range(len(graph.nodes)))
        budget = routing._BATCH_WORDS if words is None else words_budget(graph, words)
        with mock.patch.object(routing, "_BATCH_WORDS", budget):
            assert_hop_counts(graph, *every_pair(everything, everything))


def traced_peak(call):
    """Bytes ``call()`` holds at its traced peak, after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHopSearchMemory:
    """The hop search's working set: bounded per level, and flat in the
    number of associations ``hops`` folds."""

    def test_hops_peak_does_not_grow_with_associations(self):
        # The pinned pairs on the 72x22 +grid: 10,757 associations at epoch
        # 0, and 16 times as many with every pair listed 16 times.
        scenario = load_scenario(str(DATA / "shell1_grid.json"))
        pairs = cli._load_pairs(str(DATA / "hops_pairs.csv"))
        rows = ground_pair_hop_stats(scenario, pairs * 16, [0.0])
        assert sum(row.associations for row in rows) == 16 * 10_757
        once = traced_peak(lambda: ground_pair_hop_stats(scenario, pairs, [0.0]))
        sixteen = traced_peak(lambda: ground_pair_hop_stats(scenario, pairs * 16, [0.0]))
        assert abs(sixteen - once) <= 100_000

    @pytest.mark.parametrize("count", [64, 200])
    def test_a_level_gathers_within_the_budget(self, count):
        # The 1584-satellite in-range mesh, 226 slots wide: a level's column
        # blocks and their indexes stay within ``_BATCH_WORDS`` words. Held
        # across levels are four node-row arrays and at most eight
        # target-row arrays (the level planes, the arrivals, a comparison).
        scenario = load_scenario(str(DATA / "shell1_grid.json"))
        mesh = scenario_on(scenario.constellation, max_isls=1583)
        positions = propagate(scenario.constellation, 0.0).position_km
        graph = _graph(build_dynamic_topology(positions, mesh, 0.0))
        size = len(graph.nodes)
        assert graph.neighbors.shape == (1584, 226)
        starts = np.arange(count) * 7 % size  # distinct: 7 is prime to 1584
        ends = starts[::-1].copy()
        words = -(-count // 64)
        held = words * (4 * (size + 1) + 8 * count)
        peak = traced_peak(lambda: _hop_counts(graph, starts, ends))
        assert peak <= 8 * (routing._BATCH_WORDS + held)


class TestPaddedTable:
    """Each node's row of the table against the snapshot's link arrays."""

    @staticmethod
    def check(snapshot, graph, unit_weights=False):
        n, links = len(graph.nodes), graph.links
        degree = np.bincount(np.concatenate([links.a, links.b]), minlength=n)
        assert graph.neighbors.shape == graph.lengths.shape == graph.rows.shape
        assert graph.neighbors.shape == (n, degree.max(initial=0))
        for u in range(n):
            ends = {}
            for k in np.flatnonzero((links.a == u) | (links.b == u)).tolist():
                ends[int(links.b[k] if links.a[k] == u else links.a[k])] = k
            count = degree[u]
            assert graph.neighbors[u, :count].tolist() == sorted(ends)
            assert graph.rows[u, :count].tolist() == [ends[v] for v in sorted(ends)]
            lengths = np.ones(count) if unit_weights else links.distance_km[graph.rows[u, :count]]
            assert graph.lengths[u, :count].tolist() == lengths.tolist()
            assert (graph.neighbors[u, count:] == n).all()
            assert (graph.lengths[u, count:] == np.inf).all()
            assert (graph.rows[u, count:] == -1).all()

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(min_length=0))
    def test_small_graphs(self, case):
        snapshot, _, _ = case
        self.check(snapshot, _graph(snapshot))
        self.check(snapshot, _graph(snapshot, ground=True, unit_weights=True), unit_weights=True)

    def test_meshes_with_isolated_nodes(self):
        config = ConstellationConfig()
        positions = propagate(config, 0.0).position_km
        for snapshot in (
            build_grid_topology(positions, scenario_on(config), 0.0),
            build_dynamic_topology(positions, scenario_on(config, max_isls=119), 0.0),
            build_dynamic_topology(
                positions, scenario_on(config, max_isls=4, max_range_km=2500.0), 0.0
            ),
            snapshot_of(lasers([]), ["a", "b"]),
        ):
            self.check(snapshot, _graph(snapshot))


def seen_from(snapshot, node, epoch_s, mask_deg):
    """The satellites ``node`` sees above ``mask_deg``, by id."""
    elevations = elevations_deg(ground_position(node, epoch_s), snapshot.positions)
    return [snapshot.nodes[i] for i in np.flatnonzero(elevations >= mask_deg)]


def reference_hop_stats(snapshot, pairs, epoch_s, mask_deg):
    """``ground_pair_hop_stats`` rows from one networkx BFS per start satellite."""
    nx = pytest.importorskip("networkx")
    oracle = nx.Graph()
    oracle.add_nodes_from(snapshot.nodes)
    oracle.add_edges_from(link.key for link in snapshot.edges)  # lasers only
    rows, searched = [], {}
    for node_a, node_b in pairs:
        ends = seen_from(snapshot, node_b, epoch_s, mask_deg)
        counts = []
        for start in seen_from(snapshot, node_a, epoch_s, mask_deg):
            if start not in searched:
                searched[start] = nx.single_source_shortest_path_length(oracle, start)
            hops = searched[start]
            counts.extend(hops[end] for end in ends if end in hops)
        rows.append(
            (min(counts), max(counts), sum(counts) / len(counts), len(counts))
            if counts
            else None
        )
    return rows


class TestHopStatsAgainstNetworkx:
    PAIRS = [
        (GroundNode("london", GROUND_STATION, 51.507, -0.128),
         GroundNode("singapore", GROUND_STATION, 1.352, 103.820)),
        (GroundNode("quito", GROUND_STATION, -0.18, -78.47),
         GroundNode("nairobi", GROUND_STATION, -1.29, 36.82)),
        (GroundNode("sydney", GROUND_STATION, -33.87, 151.21),
         GroundNode("sydney-too", GROUND_STATION, -33.87, 151.21)),
        (GroundNode("pole", GROUND_STATION, 89.0, 0.0),
         GroundNode("lima", GROUND_STATION, -12.05, -77.04)),
    ]  # fmt: skip

    @pytest.mark.parametrize(
        "mode, max_isls, reach",
        [
            pytest.param("grid", 4, {}, id="grid-4"),
            pytest.param("dynamic", 3, {}, id="dynamic-3"),
            # Two lasers a satellite split the mesh: some associations have
            # no path and stay out of the counts.
            pytest.param("dynamic", 2, {}, id="dynamic-2-split"),
            pytest.param("dynamic", 119, {}, id="dynamic-119"),
            pytest.param(
                "dynamic",
                6,
                {"max_range_km": 3000.0, "elevation_mask_deg": 15.0},
                id="dynamic-6-short-reach",
            ),
        ],
    )
    def test_rows_match(self, mode, max_isls, reach):
        # max_isls 119 on 120 satellites admits every link in range and sight.
        # The driver reads range and mask from the scenario, as the reference does.
        config = ConstellationConfig()
        topology = TopologySettings(mode, max_isls, **reach)
        epochs = [0.0, 1500.0]
        scenario = Scenario(config, topology=topology)
        rows = ground_pair_hop_stats(scenario, self.PAIRS, epochs)
        got = [
            None if row.skipped else (row.min_hops, row.max_hops, row.mean_hops, row.associations)
            for row in rows
        ]
        expected = []
        for epoch in epochs:
            positions = propagate(config, epoch).position_km
            if mode == "grid":
                snapshot = build_grid_topology(positions, scenario, epoch)
            else:
                snapshot = build_dynamic_topology(positions, scenario, epoch)
            expected += reference_hop_stats(
                snapshot, self.PAIRS, epoch, topology.elevation_mask_deg
            )
        assert got == expected
        assert any(row is None for row in expected)  # the polar station sees nothing
        if max_isls == 119:
            assert _graph(snapshot).neighbors.shape[1] > 10

    @pytest.mark.parametrize("words", [1, 2])
    @pytest.mark.parametrize(
        "mode, max_isls",
        [
            pytest.param("grid", 4, id="grid-4"),
            pytest.param("dynamic", 2, id="dynamic-2-split"),
        ],
    )
    def test_fold_across_passes(self, mode, max_isls, words):
        # 145-149 start satellites on a 528-satellite shell at a 0 degree
        # mask: 3 passes of one word, or 2 of two. The first pair is listed
        # twice, the Sydney pair's ends see the same satellites, London
        # starts one pair and ends another, and the polar station sees none.
        london, singapore = self.PAIRS[0]
        place = {
            name: GroundNode(name, GROUND_STATION, lat, lon)
            for name, lat, lon in [
                ("tokyo", 35.68, 139.69), ("cairo", 30.04, 31.24),
                ("denver", 39.74, -104.99), ("honolulu", 21.31, -157.86),
            ]
        }  # fmt: skip
        pairs = self.PAIRS + [
            self.PAIRS[0],
            (place["tokyo"], london),
            (place["cairo"], place["denver"]),
            (place["denver"], singapore),
            (place["honolulu"], self.PAIRS[1][1]),
        ]
        config = ConstellationConfig(num_planes=24, sats_per_plane=22, altitude_km=550.0)
        topology = TopologySettings(mode, max_isls, elevation_mask_deg=0.0)
        scenario = Scenario(config, topology=topology)
        epochs = [0.0, 1500.0]
        search, firsts = routing._hop_search, []

        def counted(*args):
            for found in search(*args):
                firsts.append(found[0])
                yield found

        budget = words * (config.total_satellites + 1)
        with (
            mock.patch.object(routing, "_BATCH_WORDS", budget),
            mock.patch.object(routing, "_hop_search", counted),
        ):
            rows = ground_pair_hop_stats(scenario, pairs, epochs)
        assert firsts == ([0, 64, 128] if words == 1 else [0, 128]) * len(epochs)
        expected, every, mask = [], [], topology.elevation_mask_deg
        for epoch in epochs:
            snapshot = build_snapshot(scenario, epoch)
            expected += reference_hop_stats(snapshot, pairs, epoch, mask)
            every += [
                len(seen_from(snapshot, a, epoch, mask)) * len(seen_from(snapshot, b, epoch, mask))
                for a, b in pairs
            ]
        got = [
            None if row.skipped else (row.min_hops, row.max_hops, row.mean_hops, row.associations)
            for row in rows
        ]
        assert got == expected
        assert rows[4] == rows[0]
        assert rows[3].skipped and rows[3].associations == 0
        assert rows[2].min_hops == 0  # both Sydney ends see each satellite they share
        # Two lasers a satellite split the mesh: some associations are unreachable.
        assert any(row.associations < full for row, full in zip(rows, every)) == (max_isls == 2)
