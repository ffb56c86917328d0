"""Grid and dynamic topology construction checks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoisl.links import (
    GROUND_TO_AIR,
    GROUND_TO_SAT,
    ISL_LASER,
    SAT_TO_AIR,
    capacity_bps,
    default_link_params,
    propagation_delay_s,
)
from leoisl.orbits import (
    AIRCRAFT,
    GROUND_STATION,
    ConstellationConfig,
    GroundNode,
    elevation_deg,
    ground_position,
    propagate,
    sat_key,
    sat_keys,
    visible,
)
from leoisl import topology
from leoisl.delivery import SWEEP_MODES, sweep_max_isls
from leoisl.routing import sdp_mhp_fraction
from leoisl.scenario import Scenario, ScenarioError, TopologySettings
from leoisl.topology import (
    ISL_CODE,
    TOPOLOGY_MODES,
    LinkEdge,
    TopologySnapshot,
    attach_ground_links,
    build_dynamic_topology,
    build_grid_topology,
    build_snapshot,
)

from oracles import isl_degrees, scenario_on

CASE_CONFIG = ConstellationConfig()
CASE_SCENARIO = scenario_on(CASE_CONFIG)
GRAZING_KM = CASE_SCENARIO.topology.grazing_altitude_km


def shell_positions(config, epoch):
    return propagate(config, epoch).position_km


def positions_by_id(snapshot):
    return dict(zip(snapshot.nodes, snapshot.positions))


def cluster_config(planes, slots):
    """A shell shape for synthetic positions, given in shell index order."""
    return ConstellationConfig(num_planes=planes, sats_per_plane=slots, phasing_factor=0)


def grid_structural_neighbors(config, plane, slot):
    neighbors = []
    if config.sats_per_plane >= 2:
        neighbors.append((plane, (slot + 1) % config.sats_per_plane))
        neighbors.append((plane, (slot - 1) % config.sats_per_plane))
    if config.num_planes >= 2:
        neighbors.append(((plane + 1) % config.num_planes, slot))
        neighbors.append(((plane - 1) % config.num_planes, slot))
    return {sat_key(p, s) for p, s in neighbors}


class TestGrid:
    def test_case_grid_degrees(self):
        snapshot = build_grid_topology(shell_positions(CASE_CONFIG, 0.0), CASE_SCENARIO, 0.0)
        degrees = isl_degrees(snapshot)
        positions = positions_by_id(snapshot)
        assert all(d <= 4 for d in degrees.values())
        full_everywhere = 0
        for plane in range(CASE_CONFIG.num_planes):
            for slot in range(CASE_CONFIG.sats_per_plane):
                here = sat_key(plane, slot)
                neighbors = grid_structural_neighbors(CASE_CONFIG, plane, slot)
                all_visible = all(
                    visible(positions[here], positions[n], GRAZING_KM) for n in neighbors
                )
                if all_visible:
                    assert degrees[here] == 4
                    full_everywhere += 1
        assert full_everywhere > 0  # the check must actually bite

    def test_case_grid_edge_count_handshake(self):
        snapshot = build_grid_topology(shell_positions(CASE_CONFIG, 0.0), CASE_SCENARIO, 0.0)
        degrees = isl_degrees(snapshot)
        assert sum(degrees.values()) == 2 * len(snapshot.edges)
        # 240 structural edges minus those failing line of sight.
        positions = positions_by_id(snapshot)
        dropped = 0
        seen = set()
        for plane in range(6):
            for slot in range(20):
                here = sat_key(plane, slot)
                for other in grid_structural_neighbors(CASE_CONFIG, plane, slot):
                    key = tuple(sorted((here, other)))
                    if key in seen:
                        continue
                    seen.add(key)
                    if not visible(positions[here], positions[other], GRAZING_KM):
                        dropped += 1
        assert len(seen) == 240
        assert len(snapshot.edges) == 240 - dropped

    def test_single_plane_ring(self):
        config = ConstellationConfig(num_planes=1, sats_per_plane=20, phasing_factor=0)
        snapshot = build_grid_topology(shell_positions(config, 0.0), scenario_on(config), 0.0)
        degrees = isl_degrees(snapshot)
        assert len(snapshot.edges) == 20
        assert set(degrees.values()) == {2}

    def test_two_by_two_ring_without_duplicates(self):
        # Two slots per plane are antipodal on a real circular shell, so use
        # synthetic visible positions: the neighbor rule alone must yield a
        # 4-cycle and the two-way slot/plane wrap must not duplicate edges.
        config = ConstellationConfig(
            num_planes=2, sats_per_plane=2, altitude_km=1000.0, phasing_factor=0
        )
        r = 7371.0
        positions = np.array(
            [[r, 0.0, 0.0], [r, 500.0, 0.0], [r, 0.0, 500.0], [r, 500.0, 500.0]]
        )
        snapshot = build_grid_topology(positions, scenario_on(config), 0.0)
        assert len(snapshot.edges) == 4
        assert len({e.key for e in snapshot.edges}) == 4
        assert set(isl_degrees(snapshot).values()) == {2}

    def test_two_by_two_real_shell_is_fully_blocked(self):
        # The honest geometric outcome for the degenerate 2x2 shell: both
        # intra-plane pairs are antipodal and all rungs cross the Earth.
        config = ConstellationConfig(
            num_planes=2, sats_per_plane=2, altitude_km=1000.0, phasing_factor=0
        )
        snapshot = build_grid_topology(shell_positions(config, 0.0), scenario_on(config), 0.0)
        assert snapshot.edges == ()

    def test_edges_connect_visible_endpoints(self):
        snapshot = build_grid_topology(shell_positions(CASE_CONFIG, 321.0), CASE_SCENARIO, 321.0)
        positions = positions_by_id(snapshot)
        for edge in snapshot.edges:
            assert visible(positions[edge.node_a], positions[edge.node_b], GRAZING_KM)

    def test_structure_epoch_stable_up_to_visibility(self):
        # The candidate edge-id set never changes with the epoch; only the
        # visibility filter moves edges in and out.
        structural = set()
        for plane in range(CASE_CONFIG.num_planes):
            for slot in range(CASE_CONFIG.sats_per_plane):
                here = sat_key(plane, slot)
                for other in grid_structural_neighbors(CASE_CONFIG, plane, slot):
                    structural.add(tuple(sorted((here, other))))
        for epoch in (0.0, 911.0, 4242.0):
            snapshot = build_grid_topology(
                shell_positions(CASE_CONFIG, epoch), CASE_SCENARIO, epoch
            )
            present = {e.key for e in snapshot.edges}
            assert present <= structural
            positions = positions_by_id(snapshot)
            for key in structural - present:
                assert not visible(positions[key[0]], positions[key[1]], GRAZING_KM)


def scalar_grid_reference(shell, config, grazing_altitude_km):
    """Edges of ``build_grid_topology`` with one scalar line-of-sight test and
    one ``np.linalg.norm`` per candidate link, walking the shell plane by plane."""
    rate = TopologySettings().laser_rate_bps
    positions = dict(zip(sat_keys(config), np.asarray(shell, float)))
    seen = set()
    edges = []
    for plane in range(config.num_planes):
        for slot in range(config.sats_per_plane):
            here = sat_key(plane, slot)
            for other in grid_structural_neighbors(config, plane, slot):
                key = tuple(sorted((here, other)))
                if key in seen:
                    continue
                seen.add(key)
                if not visible(positions[here], positions[other], grazing_altitude_km):
                    continue
                distance = float(np.linalg.norm(positions[here] - positions[other]))
                edges.append(
                    LinkEdge(*key, ISL_LASER, distance, rate, propagation_delay_s(distance))
                )
    return tuple(sorted(edges, key=lambda e: e.key))


GRAZING_ALTITUDES_KM = (80.0, 500.0, 2000.0)
# A segment grazing the 80 km sphere: the scalar test says visible from A
# and blocked from B.
GRAZING_A = np.array([1807.9173977577507, 4682.431569111662, -4588.206951069193])
GRAZING_B = np.array([1381.798756148761, 2750.236868856403, -5670.356098445968])


class TestGridMatchesScalarReference:
    """The array-built +grid against the per-link loop, compared with ``==``."""

    @pytest.mark.parametrize(
        "planes, slots, altitude_km",
        [(6, 20, 1000.0), (24, 22, 1000.0), (72, 22, 550.0)],
    )
    def test_shells(self, planes, slots, altitude_km):
        config = ConstellationConfig(
            num_planes=planes, sats_per_plane=slots, altitude_km=altitude_km
        )
        counts = set()
        for epoch in (0.0, 0.3 * config.orbital_period_s, 2.0 * config.orbital_period_s / 3):
            positions = shell_positions(config, epoch)
            for grazing in GRAZING_ALTITUDES_KM:
                snapshot = build_grid_topology(
                    positions, scenario_on(config, grazing_altitude_km=grazing), epoch
                )
                assert snapshot.edges == scalar_grid_reference(positions, config, grazing)
                counts.add(len(snapshot.edges))
        assert len(counts) > 1  # line of sight dropped links in some cases

    @pytest.mark.parametrize("planes, slots", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_degenerate_shells(self, planes, slots):
        config = ConstellationConfig(
            num_planes=planes, sats_per_plane=slots, phasing_factor=0
        )
        # Real shells put two satellites of a ring on opposite sides of the
        # Earth; a synthetic cluster keeps every candidate link in sight.
        r = 7371.0
        cluster = np.array(
            [[r, 500.0 * s, 500.0 * p] for p in range(planes) for s in range(slots)]
        )
        for positions in (shell_positions(config, 0.0), shell_positions(config, 1234.5), cluster):
            for grazing in GRAZING_ALTITUDES_KM:
                snapshot = build_grid_topology(
                    positions, scenario_on(config, grazing_altitude_km=grazing), 0.0
                )
                assert snapshot.edges == scalar_grid_reference(positions, config, grazing)
        expected = {(1, 1): 0, (1, 2): 1, (2, 1): 1, (2, 2): 4}[(planes, slots)]
        assert len(build_grid_topology(cluster, scenario_on(config), 0.0).edges) == expected

    def test_line_of_sight_runs_from_the_lower_index(self):
        # A segment grazing the 80 km sphere: the scalar test says visible
        # from one end and blocked from the other, so the grid must test
        # from (0, 0) as the plane-by-plane walk does.
        forward = visible(GRAZING_A, GRAZING_B, GRAZING_KM)
        assert forward != visible(GRAZING_B, GRAZING_A, GRAZING_KM)
        config = cluster_config(1, 2)
        for first, second in ((GRAZING_A, GRAZING_B), (GRAZING_B, GRAZING_A)):
            positions = np.array([first, second])
            snapshot = build_grid_topology(positions, scenario_on(config), 0.0)
            assert snapshot.edges == scalar_grid_reference(positions, config, 80.0)
            assert len(snapshot.edges) == visible(first, second, GRAZING_KM)


class TestDynamic:
    def test_zero_budget_empty(self):
        positions = shell_positions(CASE_CONFIG, 0.0)
        snapshot = build_dynamic_topology(positions, scenario_on(CASE_CONFIG, max_isls=0), 0.0)
        assert snapshot.edges == ()

    def test_unbounded_budget_links_every_candidate(self):
        positions = shell_positions(CASE_CONFIG, 0.0)
        scenario = scenario_on(CASE_CONFIG, max_isls=len(positions) - 1, max_range_km=4000.0)
        snapshot = build_dynamic_topology(positions, scenario, 0.0)
        expected = 0
        ordered = sorted(zip(sat_keys(CASE_CONFIG), positions))
        for i, (_, pa) in enumerate(ordered):
            for _, pb in ordered[i + 1 :]:
                d = float(np.linalg.norm(pa - pb))
                if d <= 4000.0 and visible(pa, pb, GRAZING_KM):
                    expected += 1
        assert len(snapshot.edges) == expected

    def test_three_collinear_budget_one(self):
        positions = np.array([[7000.0, 0.0, 0.0], [7000.0, 800.0, 0.0], [7000.0, 2000.0, 0.0]])
        scenario = scenario_on(cluster_config(1, 3), max_isls=1, max_range_km=10000.0)
        snapshot = build_dynamic_topology(positions, scenario, 0.0)
        assert len(snapshot.edges) == 1
        assert snapshot.edges[0].key == (sat_key(0, 0), sat_key(0, 1))

    def test_degree_cap_respected(self):
        positions = shell_positions(CASE_CONFIG, 777.0)
        for k in (1, 2, 3, 5, 8):
            scenario = scenario_on(CASE_CONFIG, max_isls=k)
            snapshot = build_dynamic_topology(positions, scenario, 777.0)
            assert max(isl_degrees(snapshot).values()) <= k

    def test_edge_sets_nested_in_budget(self):
        positions = shell_positions(CASE_CONFIG, 123.0)
        previous = set()
        for k in range(1, 8):
            scenario = scenario_on(CASE_CONFIG, max_isls=k)
            snapshot = build_dynamic_topology(positions, scenario, 123.0)
            current = {e.key for e in snapshot.edges}
            assert previous <= current
            previous = current

    def test_nearest_pairs_first_at_budget_one(self):
        # Inter-plane pairs sit far closer than the in-plane ones here, so
        # budget 1 links every satellite to its other-plane neighbor.
        r = 7371.0
        positions = np.array(
            [[r, 0.0, 0.0], [r, 1000.0, 0.0], [r, 0.0, 10.0], [r, 1000.0, 10.0]]
        )
        config = cluster_config(2, 2)
        planes = {key: index // 2 for index, key in enumerate(sat_keys(config))}
        nearest = build_dynamic_topology(positions, scenario_on(config, max_isls=1), 0.0)
        assert len(nearest.edges) == 2
        assert all(planes[e.node_a] != planes[e.node_b] for e in nearest.edges)

    def test_positions_must_fit_the_shell(self):
        with pytest.raises(ValueError, match=r"shape \(120, 3\)"):
            build_dynamic_topology(np.zeros((119, 3)), scenario_on(CASE_CONFIG, max_isls=2), 0.0)
        with pytest.raises(ValueError, match=r"shape \(120, 3\)"):
            build_grid_topology(np.zeros((120, 2)), CASE_SCENARIO, 0.0)


def scalar_dynamic_candidates(shell, config, max_range_km, grazing_altitude_km):
    """Ranked candidates of ``build_dynamic_topology`` from one
    ``np.linalg.norm`` and one scalar line-of-sight test per pair, walking
    the node ids in sorted order: ``(key_a, key_b, distance)`` tuples."""
    keyed = sorted(zip(sat_keys(config), np.asarray(shell, float)), key=lambda kp: kp[0])
    candidates = []
    for i, (key_a, pa) in enumerate(keyed):
        for key_b, pb in keyed[i + 1 :]:
            distance = float(np.linalg.norm(pa - pb))
            if distance > max_range_km:
                continue
            if not visible(pa, pb, grazing_altitude_km):
                continue
            candidates.append((key_a, key_b, distance))
    candidates.sort(key=lambda c: (c[2], c[0], c[1]))
    return candidates


def scalar_dynamic_reference(candidates, num_nodes, max_isls):
    """Edges of ``build_dynamic_topology`` from its ranked candidates: every
    layer walks the whole list and skips the links already taken."""
    rate = TopologySettings().laser_rate_bps
    accepted = []
    if max_isls >= num_nodes - 1:
        accepted = candidates
    elif max_isls > 0:
        degree = {}
        taken = [False] * len(candidates)
        for level in range(1, max_isls + 1):
            for idx, (a, b, _) in enumerate(candidates):
                if taken[idx]:
                    continue
                if degree.get(a, 0) < level and degree.get(b, 0) < level:
                    taken[idx] = True
                    degree[a] = degree.get(a, 0) + 1
                    degree[b] = degree.get(b, 0) + 1
        accepted = [c for c, ok in zip(candidates, taken) if ok]
    edges = [
        LinkEdge(a, b, ISL_LASER, distance, rate, propagation_delay_s(distance))
        for a, b, distance in accepted
    ]
    return tuple(sorted(edges, key=lambda e: e.key))


def assert_dynamic_matches_reference(positions, config, budgets, **geometry):
    """``build_dynamic_topology`` equals the scalar reference at every budget."""
    max_range_km = geometry.get("max_range_km", 5000.0)
    grazing = geometry.get("grazing_altitude_km", 80.0)
    candidates = scalar_dynamic_candidates(positions, config, max_range_km, grazing)
    for k in budgets:
        scenario = scenario_on(
            config, max_isls=k, max_range_km=max_range_km, grazing_altitude_km=grazing
        )
        snapshot = build_dynamic_topology(positions, scenario, 0.0)
        assert snapshot.edges == scalar_dynamic_reference(candidates, len(positions), k)
    return candidates


class TestDynamicMatchesScalarReference:
    """The index-pair dynamic builder against the per-pair loop, with ``==``."""

    @pytest.mark.parametrize(
        "planes, slots, altitude_km", [(6, 20, 1000.0), (24, 22, 550.0)]
    )
    def test_shells(self, planes, slots, altitude_km):
        config = ConstellationConfig(
            num_planes=planes, sats_per_plane=slots, altitude_km=altitude_km
        )
        n = config.total_satellites
        counts = set()
        for epoch in (0.0, 777.5, 2400.0):
            positions = shell_positions(config, epoch)
            for grazing in GRAZING_ALTITUDES_KM:
                candidates = assert_dynamic_matches_reference(
                    positions, config, (0, 1, 2, 4, n - 1), grazing_altitude_km=grazing
                )
                counts.add(len(candidates))
        assert len(counts) > 1  # line of sight dropped candidates in some cases

    @pytest.mark.parametrize("rows", [1, 5])
    def test_scan_blocks_of_any_height(self, rows, monkeypatch):
        # One row per block, then five, which do not divide the 528 rows: the
        # last block is short, and in-range pairs cross every block boundary.
        config = ConstellationConfig(num_planes=24, sats_per_plane=22, altitude_km=550.0)
        n = config.total_satellites
        monkeypatch.setattr(topology, "_SCAN_PAIRS", rows * n)
        assert_dynamic_matches_reference(shell_positions(config, 777.5), config, (4, n - 1))

    def test_starlink_shell_budget_four(self):
        config = ConstellationConfig(num_planes=72, sats_per_plane=22, altitude_km=550.0)
        assert_dynamic_matches_reference(shell_positions(config, 777.5), config, (4,))

    @pytest.mark.parametrize("planes, slots", [(1, 7), (3, 3), (2, 5)])
    def test_exact_distance_ties(self, planes, slots):
        # Points of an integer lattice: many pairs sit at exactly the same
        # distance, so the id tie-break decides which links come first.
        r = 7000.0
        lattice = [[r, 100.0 * (i % 3), 100.0 * (i // 3)] for i in range(planes * slots)]
        positions = np.array(lattice)
        n = len(positions)
        candidates = assert_dynamic_matches_reference(
            positions, cluster_config(planes, slots), range(n)
        )
        distances = [c[2] for c in candidates]
        assert len(set(distances)) < len(distances)
        # A pair exactly at the range limit is in range.
        candidates = assert_dynamic_matches_reference(
            positions, cluster_config(planes, slots), range(n), max_range_km=200.0
        )
        assert max(c[2] for c in candidates) == 200.0

    def test_line_of_sight_runs_from_the_lower_id(self):
        config = cluster_config(1, 2)
        for first, second in ((GRAZING_A, GRAZING_B), (GRAZING_B, GRAZING_A)):
            positions = np.array([first, second])
            assert_dynamic_matches_reference(positions, config, (0, 1))
            snapshot = build_dynamic_topology(positions, scenario_on(config, max_isls=1), 0.0)
            assert len(snapshot.edges) == visible(first, second, GRAZING_KM)

    def test_node_id_order_past_three_digits(self):
        # With 1001 slots, slot 1000 has id S000-1000, which sorts before
        # S000-101 though its index is higher. Ties and line of sight follow
        # the ids. The other satellites sit 6000 km apart, out of range.
        config = cluster_config(1, 1001)
        assert sat_keys(config)[1000] < sat_keys(config)[101]
        far = np.array([[0.0, 0.0, 1.0e5 + 6000.0 * i] for i in range(1001)])
        for first, second in ((GRAZING_A, GRAZING_B), (GRAZING_B, GRAZING_A)):
            positions = far.copy()
            positions[1000], positions[101] = first, second
            snapshot = build_dynamic_topology(positions, scenario_on(config, max_isls=1), 0.0)
            assert len(snapshot.edges) == visible(first, second, GRAZING_KM)
        # Slots 101 and 1000 tie at 500 km from slot 0; the lower id wins.
        positions = far.copy()
        positions[0] = [7000.0, 0.0, 0.0]
        positions[101] = [7000.0, 500.0, 0.0]
        positions[1000] = [7000.0, -500.0, 0.0]
        (edge,) = build_dynamic_topology(positions, scenario_on(config, max_isls=1), 0.0).edges
        assert edge.key == (sat_key(0, 0), sat_key(0, 1000))


def integer_clusters():
    """Small clusters on an integer lattice near 7000 km, so distances tie."""
    return st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(-8, 8), st.integers(-8, 8), st.integers(-8, 8)),
            min_size=n,
            max_size=n,
        )
    )


class TestDynamicProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        cluster=integer_clusters(),
        scale=st.sampled_from([100.0, 400.0, 1500.0]),
        max_range_km=st.sampled_from([800.0, 2500.0, 5000.0]),
        grazing=st.sampled_from(GRAZING_ALTITUDES_KM),
    )
    def test_capped_nested_and_in_sight(self, cluster, scale, max_range_km, grazing):
        positions = np.array([[6900.0 + scale * x, scale * y, scale * z] for x, y, z in cluster])
        config = cluster_config(1, len(positions))
        previous = set()
        for k in range(len(positions)):
            scenario = scenario_on(
                config, max_isls=k, max_range_km=max_range_km, grazing_altitude_km=grazing
            )
            snapshot = build_dynamic_topology(positions, scenario, 0.0)
            degrees = isl_degrees(snapshot)
            assert max(degrees.values()) <= k
            current = {e.key for e in snapshot.edges}
            assert previous <= current
            previous = current
            by_id = positions_by_id(snapshot)
            for edge in snapshot.edges:
                assert edge.node_a < edge.node_b
                assert edge.distance_km <= max_range_km
                pa, pb = by_id[edge.node_a], by_id[edge.node_b]
                assert visible(pa, pb, grazing)


class TestSnapshotEntryPoint:
    def test_modes_match_the_builders(self):
        def scenario(mode):
            return Scenario(CASE_CONFIG, topology=TopologySettings(mode, max_isls=2))

        def links(snapshot):
            # Same epoch, nodes and links; positions are not compared.
            return snapshot.epoch_s, snapshot.nodes, snapshot.edges

        positions = shell_positions(CASE_CONFIG, 300.0)
        grid = build_snapshot(scenario("grid"), 300.0)
        dynamic = build_snapshot(scenario("dynamic"), 300.0)
        assert links(grid) == links(build_grid_topology(positions, scenario("grid"), 300.0))
        assert links(dynamic) == links(
            build_dynamic_topology(positions, scenario("dynamic"), 300.0)
        )


def links_of(scenario, laser, **topology):
    """``(node_a, node_b, class)`` of the laser (``laser``) or ground links
    that ``build_snapshot`` gives ``scenario`` at epoch 600 s, with its
    topology settings replaced by ``topology``."""
    scenario = replace(scenario, topology=replace(scenario.topology, **topology))
    snapshot = build_snapshot(scenario, 600.0, ground=True)
    isl = snapshot.links.link_class == ISL_CODE
    return {(e.node_a, e.node_b, e.link_class) for e in snapshot.link_edges(isl == laser)}


class TestEachSettingReachesTheSnapshot:
    """Each setting, away from its default, changes what ``build_snapshot``
    builds on a small shell: a builder that read a default instead of the
    scenario would fail here."""

    BASE = Scenario(CASE_CONFIG)  # the baseline stations and aircraft
    FULL_MESH = CASE_CONFIG.total_satellites - 1

    def test_laser_rate_sets_every_laser_capacity(self):
        rate = 2.5e9
        assert rate != self.BASE.topology.laser_rate_bps
        for mode in TOPOLOGY_MODES:
            topology = TopologySettings(mode, laser_rate_bps=rate)
            scenario = replace(self.BASE, topology=topology)
            snapshot = build_snapshot(scenario, 600.0, ground=True)
            laser = snapshot.links.link_class == ISL_CODE
            assert laser.any() and not laser.all()
            assert (snapshot.links.capacity_bps[laser] == rate).all()

    def test_rf_budget_sets_ground_link_capacities(self):
        params = dict(self.BASE.link_params)
        params[GROUND_TO_SAT] = replace(params[GROUND_TO_SAT], tx_power_w=40.0)
        snapshot = build_snapshot(replace(self.BASE, link_params=params), 600.0, ground=True)
        feeders = [e for e in snapshot.edges if e.link_class == GROUND_TO_SAT]
        assert feeders
        for e in feeders:
            assert e.capacity_bps == capacity_bps(params[GROUND_TO_SAT], e.distance_km, 1.0)
            default = capacity_bps(self.BASE.link_params[GROUND_TO_SAT], e.distance_km, 1.0)
            assert e.capacity_bps != default

    def test_higher_elevation_mask_keeps_fewer_ground_links(self):
        default = links_of(self.BASE, False)
        higher = links_of(self.BASE, False, elevation_mask_deg=30.0)
        assert higher and higher < default

    def test_shorter_range_keeps_fewer_dynamic_links(self):
        mesh = {"mode": "dynamic", "max_isls": self.FULL_MESH}
        default = links_of(self.BASE, True, **mesh)
        shorter = links_of(self.BASE, True, max_range_km=2500.0, **mesh)
        assert shorter and shorter < default

    @pytest.mark.parametrize("mode", TOPOLOGY_MODES)
    def test_higher_grazing_altitude_keeps_fewer_links(self, mode):
        topology = {"mode": mode, "max_isls": self.FULL_MESH}
        default = links_of(self.BASE, True, **topology)
        higher = links_of(self.BASE, True, grazing_altitude_km=700.0, **topology)
        assert higher and higher < default

    def test_max_isls_caps_every_degree(self):
        for k in (1, 2, 3):
            scenario = replace(self.BASE, topology=TopologySettings("dynamic", k))
            degrees = isl_degrees(build_snapshot(scenario, 600.0)).values()
            assert max(degrees) == k


class TestGroundAttachment:
    def test_polar_station_sees_equatorial_shell(self):
        config = ConstellationConfig(
            num_planes=1, sats_per_plane=12, inclination_deg=0.0, phasing_factor=0
        )
        snapshot = build_grid_topology(shell_positions(config, 0.0), scenario_on(config), 0.0)
        pole = GroundNode("gs-pole", GROUND_STATION, 90.0, 0.0)
        attached = attach_ground_links(snapshot, scenario_on(config, [pole]))
        assert not [e for e in attached.edges if e.link_class == GROUND_TO_SAT]

    def test_nadir_aircraft_distance(self):
        positions = shell_positions(CASE_CONFIG, 0.0)  # (0,0) sits at (a, 0, 0)
        snapshot = build_grid_topology(positions, CASE_SCENARIO, 0.0)
        craft = GroundNode("ac-nadir", AIRCRAFT, 0.0, 0.0, 10.7)
        attached = attach_ground_links(snapshot, scenario_on(CASE_CONFIG, [craft]))
        edges = [
            e
            for e in attached.edges
            if e.link_class == SAT_TO_AIR and sat_key(0, 0) in e.key
        ]
        assert edges
        expected = CASE_CONFIG.altitude_km - 10.7
        assert edges[0].distance_km == pytest.approx(expected, abs=1e-9)

    def test_ground_to_air_edge_for_nearby_aircraft(self):
        snapshot = build_grid_topology(shell_positions(CASE_CONFIG, 0.0), CASE_SCENARIO, 0.0)
        station = GroundNode("gs-0", GROUND_STATION, 0.0, 0.0)
        craft = GroundNode("ac-0", AIRCRAFT, 0.3, 0.0, 10.7)
        attached = attach_ground_links(snapshot, scenario_on(CASE_CONFIG, [station, craft]))
        direct = [e for e in attached.edges if e.link_class == GROUND_TO_AIR]
        assert len(direct) == 1
        assert set(direct[0].key) == {"gs-0", "ac-0"}

    def test_station_coverage_report(self):
        from leoisl.scenario import DEFAULT_GROUND_STATIONS

        snapshot = build_grid_topology(shell_positions(CASE_CONFIG, 2500.0), CASE_SCENARIO, 2500.0)
        attached = attach_ground_links(snapshot, scenario_on(CASE_CONFIG, DEFAULT_GROUND_STATIONS))
        per_station = {g.node_id: 0 for g in DEFAULT_GROUND_STATIONS}
        for edge in attached.edges:
            if edge.link_class == GROUND_TO_SAT:
                gs = edge.node_a if edge.node_a in per_station else edge.node_b
                per_station[gs] += 1
        # Informational: coverage depends on the epoch's geometry.
        print(f"feeder visibility at epoch 2500s: {per_station}")

    def test_duplicate_ids_rejected(self):
        # The scenario refuses a ground node named like a satellite, so the
        # clash comes from attaching the same ground nodes twice.
        clash = GroundNode(sat_key(0, 0), GROUND_STATION, 0.0, 0.0)
        with pytest.raises(ScenarioError):
            scenario_on(CASE_CONFIG, [clash])
        scenario = scenario_on(CASE_CONFIG, [GroundNode("gs-0", GROUND_STATION, 0.0, 0.0)])
        snapshot = build_grid_topology(shell_positions(CASE_CONFIG, 0.0), scenario, 0.0)
        attached = attach_ground_links(snapshot, scenario)
        with pytest.raises(ValueError):
            attach_ground_links(attached, scenario)

    def test_coincident_nodes_produce_no_edge(self):
        snapshot = build_grid_topology(shell_positions(CASE_CONFIG, 0.0), CASE_SCENARIO, 0.0)
        station = GroundNode("gs-here", GROUND_STATION, 10.0, 20.0, 5.0)
        parked = GroundNode("ac-here", AIRCRAFT, 10.0, 20.0, 5.0)
        attached = attach_ground_links(snapshot, scenario_on(CASE_CONFIG, [station, parked]))
        assert not [e for e in attached.edges if e.link_class == GROUND_TO_AIR]

    @pytest.mark.parametrize("epoch", [0.0, 1800.0, 5400.0])
    def test_matches_scalar_reference(self, epoch):
        from leoisl.scenario import DEFAULT_AIRCRAFT, DEFAULT_GROUND_STATIONS

        ground = list(DEFAULT_GROUND_STATIONS) + list(DEFAULT_AIRCRAFT)
        snapshot = build_grid_topology(shell_positions(CASE_CONFIG, epoch), CASE_SCENARIO, epoch)
        attached = attach_ground_links(snapshot, scenario_on(CASE_CONFIG, ground))
        assert attached.edges == scalar_attach_reference(snapshot, ground)


def scalar_attach_reference(snapshot, ground):
    """Edges of ``attach_ground_links`` with one scalar elevation test per pair."""
    params = default_link_params()
    positions = positions_by_id(snapshot)
    for node in ground:
        positions[node.node_id] = ground_position(node, snapshot.epoch_s)
    edges = list(snapshot.edges)
    for node in ground:
        if node.kind == GROUND_STATION:
            others = [(sat, GROUND_TO_SAT) for sat in snapshot.nodes]
            others += [(g.node_id, GROUND_TO_AIR) for g in ground if g.kind == AIRCRAFT]
        else:
            others = [(sat, SAT_TO_AIR) for sat in snapshot.nodes]
        for other, link_class in others:
            elevation = elevation_deg(positions[node.node_id], positions[other])
            if elevation < TopologySettings().elevation_mask_deg:
                continue
            distance = float(np.linalg.norm(positions[node.node_id] - positions[other]))
            if distance == 0.0:
                continue
            a, b = sorted((node.node_id, other))
            edges.append(
                LinkEdge(
                    a,
                    b,
                    link_class,
                    distance,
                    capacity_bps(params[link_class], distance, 1.0),
                    propagation_delay_s(distance),
                )
            )
    return tuple(sorted(edges, key=lambda e: (e.key, e.link_class)))


class TestArraySnapshot:
    def test_sweep_and_sdp_mhp_never_build_link_objects(self, monkeypatch):
        # The planners and the path engine read the link arrays; only the
        # ground links and the holder links a plan names become LinkEdges.
        def refuse(snapshot):
            raise AssertionError("snapshot.edges materialised")

        monkeypatch.setattr(TopologySnapshot, "edges", property(refuse))
        scenario = Scenario()
        result = sweep_max_isls(scenario, range(0, 9), SWEEP_MODES, [0.0], [1, 2])
        assert any(row.delivered for row in result.rows)
        assert sdp_mhp_fraction(scenario, 50, [0.0, 1800.0], 1).pairs_checked > 0

    def test_links_in_id_order_whatever_the_input_order(self):
        snapshot = build_snapshot(Scenario(CASE_CONFIG), 600.0, ground=True)
        links = snapshot.links
        shuffled = links.take(np.random.default_rng(3).permutation(len(links.a)))
        again = TopologySnapshot(snapshot.epoch_s, snapshot.nodes, snapshot.positions, shuffled)
        assert all(np.array_equal(x, y) for x, y in zip(again.links, links))
        keys = [(e.node_a, e.node_b, e.link_class) for e in snapshot.edges]
        assert keys == sorted(keys)
