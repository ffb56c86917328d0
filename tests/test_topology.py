"""Grid and dynamic topology construction checks."""

import numpy as np
import pytest

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
    SatelliteState,
    ground_position,
    propagate,
    sat_key,
    visible,
    visible_from_ground,
)
from leoisl.topology import (
    INTRA_ORBIT_PREFERRED,
    LinkEdge,
    attach_ground_links,
    build_dynamic_topology,
    build_grid_topology,
    build_isl_snapshot,
)

CASE_CONFIG = ConstellationConfig()


def make_state(plane, slot, position):
    return SatelliteState((plane, slot), np.asarray(position, float), np.zeros(3))


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
        states = propagate(CASE_CONFIG, 0.0)
        snapshot = build_grid_topology(states, CASE_CONFIG, 0.0)
        degrees = snapshot.isl_degrees()
        positions = snapshot.positions
        assert all(d <= 4 for d in degrees.values())
        full_everywhere = 0
        for plane in range(CASE_CONFIG.num_planes):
            for slot in range(CASE_CONFIG.sats_per_plane):
                here = sat_key(plane, slot)
                neighbors = grid_structural_neighbors(CASE_CONFIG, plane, slot)
                all_visible = all(
                    visible(positions[here], positions[n]) for n in neighbors
                )
                if all_visible:
                    assert degrees[here] == 4
                    full_everywhere += 1
        assert full_everywhere > 0  # the check must actually bite

    def test_case_grid_edge_count_handshake(self):
        states = propagate(CASE_CONFIG, 0.0)
        snapshot = build_grid_topology(states, CASE_CONFIG, 0.0)
        degrees = snapshot.isl_degrees()
        assert sum(degrees.values()) == 2 * len(snapshot.edges)
        # 240 structural edges minus those failing line of sight.
        positions = snapshot.positions
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
                    if not visible(positions[here], positions[other]):
                        dropped += 1
        assert len(seen) == 240
        assert len(snapshot.edges) == 240 - dropped

    def test_single_plane_ring(self):
        config = ConstellationConfig(num_planes=1, sats_per_plane=20, phasing_factor=0)
        states = propagate(config, 0.0)
        snapshot = build_grid_topology(states, config, 0.0)
        degrees = snapshot.isl_degrees()
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
        states = [
            make_state(0, 0, [r, 0.0, 0.0]),
            make_state(0, 1, [r, 500.0, 0.0]),
            make_state(1, 0, [r, 0.0, 500.0]),
            make_state(1, 1, [r, 500.0, 500.0]),
        ]
        snapshot = build_grid_topology(states, config, 0.0)
        assert len(snapshot.edges) == 4
        assert len({e.key for e in snapshot.edges}) == 4
        assert set(snapshot.isl_degrees().values()) == {2}

    def test_two_by_two_real_shell_is_fully_blocked(self):
        # The honest geometric outcome for the degenerate 2x2 shell: both
        # intra-plane pairs are antipodal and all rungs cross the Earth.
        config = ConstellationConfig(
            num_planes=2, sats_per_plane=2, altitude_km=1000.0, phasing_factor=0
        )
        snapshot = build_grid_topology(propagate(config, 0.0), config, 0.0)
        assert snapshot.edges == ()

    def test_edges_connect_visible_endpoints(self):
        states = propagate(CASE_CONFIG, 321.0)
        snapshot = build_grid_topology(states, CASE_CONFIG, 321.0)
        for edge in snapshot.edges:
            assert visible(
                snapshot.positions[edge.node_a], snapshot.positions[edge.node_b]
            )

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
                propagate(CASE_CONFIG, epoch), CASE_CONFIG, epoch
            )
            present = {e.key for e in snapshot.edges}
            assert present <= structural
            for key in structural - present:
                assert not visible(
                    snapshot.positions[key[0]], snapshot.positions[key[1]]
                )


def scalar_grid_reference(states, config, grazing_altitude_km):
    """Edges of ``build_grid_topology`` with one scalar line-of-sight test and
    one ``np.linalg.norm`` per candidate link, walking the shell plane by plane."""
    rate = default_link_params()[ISL_LASER].lisl_fixed_rate_bps
    positions = {s.node_key: s.position_km for s in states}
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
            states = propagate(config, epoch)
            for grazing in GRAZING_ALTITUDES_KM:
                snapshot = build_grid_topology(
                    states, config, epoch, grazing_altitude_km=grazing
                )
                assert snapshot.edges == scalar_grid_reference(states, config, grazing)
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
        cluster = [
            make_state(p, s, [r, 500.0 * s, 500.0 * p])
            for p in range(planes)
            for s in range(slots)
        ]
        for states in (propagate(config, 0.0), propagate(config, 1234.5), cluster):
            for grazing in GRAZING_ALTITUDES_KM:
                snapshot = build_grid_topology(states, config, 0.0, grazing_altitude_km=grazing)
                assert snapshot.edges == scalar_grid_reference(states, config, grazing)
        expected = {(1, 1): 0, (1, 2): 1, (2, 1): 1, (2, 2): 4}[(planes, slots)]
        assert len(build_grid_topology(cluster, config, 0.0).edges) == expected


    def test_line_of_sight_runs_from_the_lower_index(self):
        # A segment grazing the 80 km sphere: the scalar test says visible
        # from one end and blocked from the other, so the grid must test
        # from (0, 0) as the plane-by-plane walk does.
        a = np.array([1807.9173977577507, 4682.431569111662, -4588.206951069193])
        b = np.array([1381.798756148761, 2750.236868856403, -5670.356098445968])
        assert visible(a, b) != visible(b, a)
        config = ConstellationConfig(num_planes=1, sats_per_plane=2, phasing_factor=0)
        for first, second in ((a, b), (b, a)):
            states = [make_state(0, 0, first), make_state(0, 1, second)]
            snapshot = build_grid_topology(states, config, 0.0)
            assert snapshot.edges == scalar_grid_reference(states, config, 80.0)
            assert len(snapshot.edges) == visible(first, second)


class TestDynamic:
    def test_zero_budget_empty(self):
        states = propagate(CASE_CONFIG, 0.0)
        snapshot = build_dynamic_topology(states, 0)
        assert snapshot.edges == ()

    def test_unbounded_budget_links_every_candidate(self):
        states = propagate(CASE_CONFIG, 0.0)
        snapshot = build_dynamic_topology(states, len(states) - 1, max_range_km=4000.0)
        expected = 0
        ordered = sorted(states, key=lambda s: s.node_key)
        for i, sa in enumerate(ordered):
            for sb in ordered[i + 1 :]:
                d = float(np.linalg.norm(sa.position_km - sb.position_km))
                if d <= 4000.0 and visible(sa.position_km, sb.position_km):
                    expected += 1
        assert len(snapshot.edges) == expected

    def test_three_collinear_budget_one(self):
        states = [
            make_state(0, 0, [7000.0, 0.0, 0.0]),
            make_state(0, 1, [7000.0, 800.0, 0.0]),
            make_state(0, 2, [7000.0, 2000.0, 0.0]),
        ]
        snapshot = build_dynamic_topology(states, 1, max_range_km=10000.0)
        assert len(snapshot.edges) == 1
        assert snapshot.edges[0].key == (sat_key(0, 0), sat_key(0, 1))

    def test_degree_cap_respected(self):
        states = propagate(CASE_CONFIG, 777.0)
        for k in (1, 2, 3, 5, 8):
            snapshot = build_dynamic_topology(states, k, epoch_s=777.0)
            assert max(snapshot.isl_degrees().values()) <= k

    def test_edge_sets_nested_in_budget(self):
        states = propagate(CASE_CONFIG, 123.0)
        previous = set()
        for k in range(1, 8):
            snapshot = build_dynamic_topology(states, k, epoch_s=123.0)
            current = {e.key for e in snapshot.edges}
            assert previous <= current
            previous = current

    def test_intra_orbit_preference(self):
        # Inter-plane pairs sit far closer than the in-plane ones here, so
        # the two policies must disagree at budget 1.
        r = 7371.0
        states = [
            make_state(0, 0, [r, 0.0, 0.0]),
            make_state(0, 1, [r, 1000.0, 0.0]),
            make_state(1, 0, [r, 0.0, 10.0]),
            make_state(1, 1, [r, 1000.0, 10.0]),
        ]
        planes = {s.node_key: s.sat_id[0] for s in states}
        boosted = build_dynamic_topology(states, 1, policy=INTRA_ORBIT_PREFERRED)
        assert len(boosted.edges) == 2
        assert all(planes[e.node_a] == planes[e.node_b] for e in boosted.edges)
        nearest = build_dynamic_topology(states, 1)
        assert len(nearest.edges) == 2
        assert all(planes[e.node_a] != planes[e.node_b] for e in nearest.edges)

    def test_intra_orbit_preference_on_shell(self):
        # On the real shell the boost should leave the budget-2 assignment
        # almost entirely in-plane (float ties can strand a few satellites).
        states = propagate(CASE_CONFIG, 0.0)
        snapshot = build_dynamic_topology(states, 2, policy=INTRA_ORBIT_PREFERRED)
        planes = {s.node_key: s.sat_id[0] for s in states}
        intra = sum(1 for e in snapshot.edges if planes[e.node_a] == planes[e.node_b])
        assert intra >= 0.9 * len(snapshot.edges)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            build_dynamic_topology(propagate(CASE_CONFIG, 0.0), 2, policy="fastest")


class TestSnapshotEntryPoint:
    def test_modes_match_the_builders(self):
        states = propagate(CASE_CONFIG, 300.0)
        grid = build_isl_snapshot(CASE_CONFIG, 300.0, "grid", max_isls=2)
        dynamic = build_isl_snapshot(CASE_CONFIG, 300.0, "dynamic", max_isls=2)
        assert grid == build_grid_topology(states, CASE_CONFIG, 300.0)
        assert dynamic == build_dynamic_topology(states, 2, 300.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="topology mode"):
            build_isl_snapshot(CASE_CONFIG, 0.0, "mesh", max_isls=4)


class TestGroundAttachment:
    def test_polar_station_sees_equatorial_shell(self):
        config = ConstellationConfig(
            num_planes=1, sats_per_plane=12, inclination_deg=0.0, phasing_factor=0
        )
        states = propagate(config, 0.0)
        snapshot = build_grid_topology(states, config, 0.0)
        pole = GroundNode("gs-pole", GROUND_STATION, 90.0, 0.0)
        attached = attach_ground_links(snapshot, [pole])
        assert not [e for e in attached.edges if e.link_class == GROUND_TO_SAT]

    def test_nadir_aircraft_distance(self):
        states = propagate(CASE_CONFIG, 0.0)  # (0,0) sits at (a, 0, 0)
        snapshot = build_grid_topology(states, CASE_CONFIG, 0.0)
        craft = GroundNode("ac-nadir", AIRCRAFT, 0.0, 0.0, 10.7)
        attached = attach_ground_links(snapshot, [craft])
        edges = [
            e
            for e in attached.edges
            if e.link_class == SAT_TO_AIR and sat_key(0, 0) in e.key
        ]
        assert edges
        expected = CASE_CONFIG.altitude_km - 10.7
        assert edges[0].distance_km == pytest.approx(expected, abs=1e-9)

    def test_ground_to_air_edge_for_nearby_aircraft(self):
        states = propagate(CASE_CONFIG, 0.0)
        snapshot = build_grid_topology(states, CASE_CONFIG, 0.0)
        station = GroundNode("gs-0", GROUND_STATION, 0.0, 0.0)
        craft = GroundNode("ac-0", AIRCRAFT, 0.3, 0.0, 10.7)
        attached = attach_ground_links(snapshot, [station, craft])
        direct = [e for e in attached.edges if e.link_class == GROUND_TO_AIR]
        assert len(direct) == 1
        assert set(direct[0].key) == {"gs-0", "ac-0"}

    def test_station_coverage_report(self):
        from leoisl.scenario import DEFAULT_GROUND_STATIONS

        states = propagate(CASE_CONFIG, 2500.0)
        snapshot = build_grid_topology(states, CASE_CONFIG, 2500.0)
        attached = attach_ground_links(snapshot, list(DEFAULT_GROUND_STATIONS))
        per_station = {g.node_id: 0 for g in DEFAULT_GROUND_STATIONS}
        for edge in attached.edges:
            if edge.link_class == GROUND_TO_SAT:
                gs = edge.node_a if edge.node_a in per_station else edge.node_b
                per_station[gs] += 1
        # Informational: coverage depends on the epoch's geometry.
        print(f"feeder visibility at epoch 2500s: {per_station}")

    def test_duplicate_ids_rejected(self):
        states = propagate(CASE_CONFIG, 0.0)
        snapshot = build_grid_topology(states, CASE_CONFIG, 0.0)
        clash = GroundNode(sat_key(0, 0), GROUND_STATION, 0.0, 0.0)
        with pytest.raises(ValueError):
            attach_ground_links(snapshot, [clash])

    def test_coincident_nodes_produce_no_edge(self):
        states = propagate(CASE_CONFIG, 0.0)
        snapshot = build_grid_topology(states, CASE_CONFIG, 0.0)
        station = GroundNode("gs-here", GROUND_STATION, 10.0, 20.0, 5.0)
        parked = GroundNode("ac-here", AIRCRAFT, 10.0, 20.0, 5.0)
        attached = attach_ground_links(snapshot, [station, parked])
        assert not [e for e in attached.edges if e.link_class == GROUND_TO_AIR]

    @pytest.mark.parametrize("epoch", [0.0, 1800.0, 5400.0])
    def test_matches_scalar_reference(self, epoch):
        from leoisl.scenario import DEFAULT_AIRCRAFT, DEFAULT_GROUND_STATIONS

        ground = list(DEFAULT_GROUND_STATIONS) + list(DEFAULT_AIRCRAFT)
        snapshot = build_grid_topology(propagate(CASE_CONFIG, epoch), CASE_CONFIG, epoch)
        attached = attach_ground_links(snapshot, ground)
        assert attached.edges == scalar_attach_reference(snapshot, ground)


def scalar_attach_reference(snapshot, ground):
    """Edges of ``attach_ground_links`` with one scalar elevation test per pair."""
    params = default_link_params()
    positions = dict(snapshot.positions)
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
            if not visible_from_ground(positions[node.node_id], positions[other]):
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
