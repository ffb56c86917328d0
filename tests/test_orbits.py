"""Constellation geometry and two-body motion checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoisl.orbits import (
    EARTH_RADIUS_KM,
    AIRCRAFT,
    GROUND_STATION,
    MAX_EPOCH_S,
    MAX_SATELLITES,
    ConstellationConfig,
    GroundNode,
    elevation_deg,
    elevations_deg,
    generate_walker,
    ground_position,
    propagate,
    sat_key,
    sat_keys,
    visible,
)

from oracles import measured_period_s

CASE_CONFIG = ConstellationConfig()  # 6 planes x 20 sats, 1000 km, 53 deg


class TestWalkerPattern:
    def test_case_constellation_count(self):
        raan, anomaly = generate_walker(CASE_CONFIG)
        assert len(raan) == len(anomaly) == len(sat_keys(CASE_CONFIG)) == 120
        assert CASE_CONFIG.total_satellites == 120

    def test_single_satellite(self):
        config = ConstellationConfig(
            num_planes=1, sats_per_plane=1, altitude_km=500.0, phasing_factor=0
        )
        (raan,), (anomaly,) = generate_walker(config)
        assert raan == 0.0
        assert anomaly == 0.0

    def test_two_by_two_phasing(self):
        config = ConstellationConfig(
            num_planes=2, sats_per_plane=2, altitude_km=700.0, phasing_factor=1
        )
        raan, anomaly = generate_walker(config)
        by_plane = anomaly.reshape(2, 2).tolist()
        assert raan.tolist() == [0.0, 0.0, 180.0, 180.0]
        assert by_plane[0] == [0.0, 180.0]
        assert by_plane[1] == [90.0, 270.0]

    def test_keys_in_shell_index_order(self):
        config = ConstellationConfig(num_planes=3, sats_per_plane=4, phasing_factor=2)
        assert sat_keys(config) == tuple(
            sat_key(*divmod(index, 4)) for index in range(12)
        )

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ConstellationConfig(num_planes=0)
        with pytest.raises(ValueError):
            ConstellationConfig(inclination_deg=200.0)
        with pytest.raises(ValueError):
            ConstellationConfig(altitude_km=-1.0)
        with pytest.raises(ValueError):
            ConstellationConfig(num_planes=2, phasing_factor=5)

    def test_shell_size_bound(self):
        # The bound is on the product: neither factor alone reaches it.
        largest = ConstellationConfig(num_planes=5000, sats_per_plane=20)
        assert largest.total_satellites == MAX_SATELLITES
        with pytest.raises(ValueError, match="total_satellites must be <= 100000"):
            ConstellationConfig(num_planes=317, sats_per_plane=316)


class TestPropagation:
    def test_epoch_zero_matches_pattern(self):
        states = propagate(CASE_CONFIG, 0.0)
        assert len(states) == 120
        first = states[0]
        a = CASE_CONFIG.semi_major_axis_km
        assert first.node_key == sat_key(0, 0)
        np.testing.assert_allclose(first.position_km, [a, 0.0, 0.0], atol=1e-9)
        for index, state in enumerate(states):
            assert state.node_key == sat_key(*divmod(index, CASE_CONFIG.sats_per_plane))
        assert tuple(s.node_key for s in states) == sat_keys(CASE_CONFIG)

    def test_radius_conserved_over_random_epochs(self):
        rng = np.random.default_rng(1)
        a = CASE_CONFIG.semi_major_axis_km
        worst = 0.0
        for epoch in rng.uniform(0.0, 5 * CASE_CONFIG.orbital_period_s, size=1000):
            states = propagate(CASE_CONFIG, float(epoch))
            for state in states[::17]:
                radius = float(np.linalg.norm(state.position_km))
                worst = max(worst, abs(radius - a) / a)
        assert worst < 1e-9

    def test_velocity_perpendicular_to_position(self):
        for state in propagate(CASE_CONFIG, 1234.5):
            dot = float(state.position_km @ state.velocity_km_s)
            scale = float(
                np.linalg.norm(state.position_km) * np.linalg.norm(state.velocity_km_s)
            )
            assert abs(dot) / scale < 1e-9

    def test_period_matches_oracle(self):
        measured = measured_period_s(CASE_CONFIG)
        assert abs(measured - 6298.0) <= 1.0
        assert abs(measured - CASE_CONFIG.orbital_period_s) <= 0.5

    def test_periodicity(self):
        period = CASE_CONFIG.orbital_period_s
        start = propagate(CASE_CONFIG, 0.0)
        wrapped = propagate(CASE_CONFIG, period)
        for s0, s1 in zip(start, wrapped):
            assert float(np.linalg.norm(s0.position_km - s1.position_km)) < 1.0

    def test_intra_plane_distance_epoch_invariant(self):
        period = CASE_CONFIG.orbital_period_s
        pairs = [((0, 0), (0, 1)), ((0, 2), (0, 11)), ((3, 5), (3, 6))]
        for id_a, id_b in pairs:
            distances = []
            for epoch in np.linspace(0.0, period, 40):
                by_key = {s.node_key: s for s in propagate(CASE_CONFIG, float(epoch))}
                distances.append(
                    float(
                        np.linalg.norm(
                            by_key[sat_key(*id_a)].position_km - by_key[sat_key(*id_b)].position_km
                        )
                    )
                )
            spread = (max(distances) - min(distances)) / max(distances)
            assert spread < 1e-6

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            propagate(CASE_CONFIG, -1.0)

    def test_epoch_beyond_the_bound_is_refused(self):
        craft = GroundNode("ac", AIRCRAFT, 10.0, 20.0, 10.7, 90.0, 0.23)
        assert MAX_EPOCH_S == 1e9
        propagate(CASE_CONFIG, MAX_EPOCH_S)
        ground_position(craft, MAX_EPOCH_S)
        for epoch in (1e9 + 1.0, 1e18, 1e300):
            message = f"epoch_s must be <= 1e9 s (about 31.7 years), got {epoch}"
            with pytest.raises(ValueError) as refused:
                propagate(CASE_CONFIG, epoch)
            assert str(refused.value) == message
            with pytest.raises(ValueError) as refused:
                ground_position(craft, epoch)
            assert str(refused.value) == message
        for epoch in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError) as refused:
                ground_position(craft, epoch)
            assert str(refused.value) == f"epoch_s must be finite and >= 0, got {epoch}"


def scalar_propagate_reference(config, epoch_s):
    """Positions and velocities from one scalar evaluation per satellite:
    the per-satellite Walker pattern and two-body formula, walking the shell
    plane by plane."""
    a = config.semi_major_axis_km
    n = config.mean_motion_rad_s
    inc = math.radians(config.inclination_deg)
    cos_i, sin_i = math.cos(inc), math.sin(inc)
    plane_step = config.raan_spread_deg / config.num_planes
    slot_step = 360.0 / config.sats_per_plane
    phase_step = config.phasing_factor * 360.0 / config.total_satellites
    positions, velocities = [], []
    for plane in range(config.num_planes):
        raan = math.radians(plane * plane_step)
        for slot in range(config.sats_per_plane):
            anomaly = (slot * slot_step + plane * phase_step) % 360.0
            u = math.radians(anomaly) + n * epoch_s
            cu, su = math.cos(u), math.sin(u)
            co, so = math.cos(raan), math.sin(raan)
            positions.append(
                np.array(
                    [
                        a * (cu * co - su * cos_i * so),
                        a * (cu * so + su * cos_i * co),
                        a * su * sin_i,
                    ]
                )
            )
            velocities.append(
                (a * n)
                * np.array(
                    [
                        -su * co - cu * cos_i * so,
                        -su * so + cu * cos_i * co,
                        cu * sin_i,
                    ]
                )
            )
    return np.array(positions), np.array(velocities)


class TestMatchesScalarReference:
    """The array propagation against the per-satellite formula, with ``==``."""

    @pytest.mark.parametrize(
        "planes, slots, altitude_km, phasing",
        [(6, 20, 1000.0, 1), (24, 22, 550.0, 1), (72, 22, 550.0, 1), (5, 7, 1234.5, 3)],
    )
    @pytest.mark.parametrize("epoch", [0.0, 777.5, 2400.0])
    def test_shells(self, planes, slots, altitude_km, phasing, epoch):
        config = ConstellationConfig(
            num_planes=planes,
            sats_per_plane=slots,
            altitude_km=altitude_km,
            phasing_factor=phasing,
        )
        states = propagate(config, epoch)
        positions, velocities = states.position_km, states.velocity_km_s
        ref_positions, ref_velocities = scalar_propagate_reference(config, epoch)
        assert positions.shape == velocities.shape == (config.total_satellites, 3)
        assert np.array_equal(positions, ref_positions)
        assert np.array_equal(velocities, ref_velocities)
        assert np.array_equal([s.position_km for s in states], positions)
        assert np.array_equal([s.velocity_km_s for s in states], velocities)


class TestPropagationProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        planes=st.integers(1, 12),
        slots=st.integers(1, 24),
        altitude_km=st.floats(200.0, 36000.0),
        inclination_deg=st.floats(0.0, 180.0),
        phasing=st.integers(0, 11),
        raan_spread_deg=st.floats(1.0, 360.0),
        epoch=st.floats(0.0, 1.0e6),
    )
    def test_circular_motion(
        self, planes, slots, altitude_km, inclination_deg, phasing, raan_spread_deg, epoch
    ):
        config = ConstellationConfig(
            num_planes=planes,
            sats_per_plane=slots,
            altitude_km=altitude_km,
            inclination_deg=inclination_deg,
            phasing_factor=min(phasing, planes - 1),
            raan_spread_deg=raan_spread_deg,
        )
        a = config.semi_major_axis_km
        shell = propagate(config, epoch)
        positions, velocities = shell.position_km, shell.velocity_km_s
        radius = np.linalg.norm(positions, axis=1)
        speed = np.linalg.norm(velocities, axis=1)
        assert np.allclose(radius, a, rtol=1e-12, atol=0.0)
        assert np.allclose(speed, a * config.mean_motion_rad_s, rtol=1e-12, atol=0.0)
        cosines = (positions * velocities).sum(axis=1) / (radius * speed)
        assert np.all(np.abs(cosines) < 1e-12)
        # One period later: the anomaly grew by 2 pi, up to the rounding of
        # n * epoch, which grows with the epoch.
        later_shell = propagate(config, epoch + config.orbital_period_s)
        later, later_velocities = later_shell.position_km, later_shell.velocity_km_s
        tolerance = 1e-12 * (1.0 + config.mean_motion_rad_s * epoch)
        assert np.allclose(later, positions, rtol=0.0, atol=tolerance * a)
        assert np.allclose(later_velocities, velocities, rtol=0.0, atol=tolerance * speed.max())


    @settings(max_examples=60, deadline=None)
    @given(
        planes=st.integers(1, 12),
        slots=st.integers(2, 40),
        altitude_km=st.floats(200.0, 36000.0),
        inclination_deg=st.floats(0.0, 180.0),
        phasing=st.integers(0, 11),
        epoch=st.one_of(st.floats(0.0, MAX_EPOCH_S), st.just(MAX_EPOCH_S)),
    )
    def test_in_plane_links_keep_their_length_up_to_the_epoch_bound(
        self, planes, slots, altitude_km, inclination_deg, phasing, epoch
    ):
        # Every accepted epoch keeps each in-plane link at its epoch-0
        # length within 1e-5 km. The slack is the rounding of the motion
        # angle n * epoch: at 1e9 s the baseline's links move by up to
        # 7.7e-7 km and a 550 km shell's by up to 1.2e-6 km.
        config = ConstellationConfig(
            num_planes=planes,
            sats_per_plane=slots,
            altitude_km=altitude_km,
            inclination_deg=inclination_deg,
            phasing_factor=min(phasing, planes - 1),
        )

        def in_plane_links(epoch_s):
            positions = propagate(config, epoch_s).position_km.reshape(planes, slots, 3)
            return np.linalg.norm(positions - np.roll(positions, -1, axis=1), axis=2)

        assert np.abs(in_plane_links(epoch) - in_plane_links(0.0)).max() <= 1e-5


class TestGroundMotion:
    def test_equatorial_reference(self):
        node = GroundNode("gs", GROUND_STATION, 0.0, 0.0)
        np.testing.assert_allclose(
            ground_position(node, 0.0), [EARTH_RADIUS_KM, 0.0, 0.0], atol=1e-12
        )

    def test_sidereal_day_return(self):
        # 2*pi / 7.2921159e-5 rad/s = 86164.090 s; the common 86164.1
        # rounding already misses the metre-level tolerance used here.
        node = GroundNode("gs", GROUND_STATION, 0.0, 0.0)
        after = ground_position(node, 86164.0905)
        np.testing.assert_allclose(after, [EARTH_RADIUS_KM, 0.0, 0.0], atol=1e-3)

    def test_stationary_aircraft_equals_station_at_altitude(self):
        craft = GroundNode("ac", AIRCRAFT, 12.0, 34.0, 10.7, heading_deg=45.0)
        station = GroundNode("gs", GROUND_STATION, 12.0, 34.0, 10.7)
        for epoch in (0.0, 500.0, 5000.0):
            np.testing.assert_allclose(
                ground_position(craft, epoch), ground_position(station, epoch)
            )

    def test_aircraft_advances_along_great_circle(self):
        craft = GroundNode("ac", AIRCRAFT, 0.0, 0.0, 10.7, 90.0, 0.23)
        radius = EARTH_RADIUS_KM + 10.7
        hour = 3600.0
        pos = ground_position(craft, hour)
        assert abs(float(np.linalg.norm(pos)) - radius) < 1e-9
        # Angle from the start must equal speed * t / radius (Earth spin aside).
        start = ground_position(GroundNode("gs", GROUND_STATION, 0.0, 0.0, 10.7), hour)
        cos_angle = float(pos @ start) / radius**2
        expected = 0.23 * hour / radius
        assert abs(math.acos(max(-1.0, min(1.0, cos_angle))) - expected) < 1e-9

    def test_station_speed_rejected(self):
        with pytest.raises(ValueError):
            GroundNode("gs", GROUND_STATION, 0.0, 0.0, speed_km_s=0.1)
        with pytest.raises(ValueError):
            GroundNode("gs", GROUND_STATION, 95.0, 0.0)


class TestVisibility:
    def test_diametrically_opposite_blocked(self):
        a = np.array([7371.0, 0.0, 0.0])
        assert visible(a, -a, 80.0) is False

    def test_adjacent_intra_plane_visible(self):
        states = propagate(CASE_CONFIG, 0.0)
        by_key = {s.node_key: s for s in states}
        a, b = by_key[sat_key(0, 0)].position_km, by_key[sat_key(0, 1)].position_km
        assert visible(a, b, 80.0) is True

    def test_zero_length_segment(self):
        a = np.array([7000.0, 0.0, 0.0])
        assert visible(a, a, 80.0) is True

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            a = a / np.linalg.norm(a) * rng.uniform(6600, 9000)
            b = b / np.linalg.norm(b) * rng.uniform(6600, 9000)
            assert visible(a, b, 80.0) == visible(b, a, 80.0)

    def test_elevation_overhead(self):
        ground = np.array([EARTH_RADIUS_KM, 0.0, 0.0])
        above = np.array([EARTH_RADIUS_KM + 800.0, 0.0, 0.0])
        assert abs(elevation_deg(ground, above) - 90.0) < 1e-9

    def test_elevation_horizon(self):
        ground = np.array([EARTH_RADIUS_KM, 0.0, 0.0])
        level = np.array([EARTH_RADIUS_KM, 500.0, 0.0])
        assert abs(elevation_deg(ground, level)) < 3.0  # slightly below true horizon


def _target_at(observer, elevation, azimuth_vector, range_km):
    """Point seen from ``observer`` at ``elevation`` degrees, ``range_km`` away."""
    zenith = observer / np.linalg.norm(observer)
    horizontal = azimuth_vector - (azimuth_vector @ zenith) * zenith
    horizontal /= np.linalg.norm(horizontal)
    rad = math.radians(elevation)
    return observer + range_km * (math.cos(rad) * horizontal + math.sin(rad) * zenith)


class TestVectorizedElevation:
    """``elevations_deg`` against the scalar ``elevation_deg`` oracle."""

    def test_matches_scalar_on_sampled_pairs(self):
        rng = np.random.default_rng(11)
        for epoch in (0.0, 1500.0, 4000.0):
            sats = propagate(CASE_CONFIG, epoch).position_km
            for _ in range(20):
                node = GroundNode(
                    "g", GROUND_STATION, rng.uniform(-80, 80), rng.uniform(-180, 180)
                )
                observer = ground_position(node, epoch)
                scalar = np.array([elevation_deg(observer, p) for p in sats])
                vector = elevations_deg(observer, sats)
                # Rounding differs in the last bits; compare where asin is
                # well conditioned, and in sine space everywhere.
                assert np.allclose(
                    np.sin(np.radians(vector)), np.sin(np.radians(scalar)), rtol=0, atol=1e-12
                )
                assert np.allclose(vector, scalar, rtol=0, atol=1e-9)

    def test_special_geometry(self):
        observer = ground_position(GroundNode("g", GROUND_STATION, 40.0, 10.0), 0.0)
        east = np.array([0.0, 1.0, 0.0])
        targets = np.array(
            [
                observer * (1.0 + 800.0 / np.linalg.norm(observer)),  # zenith
                observer,  # zero range
                _target_at(observer, -30.0, east, 2000.0),  # below the horizon
                _target_at(observer, -90.0, east, 500.0),  # nadir
            ]
        )
        vector = elevations_deg(observer, targets)
        scalar = [elevation_deg(observer, t) for t in targets]
        assert vector[1] == scalar[1] == 90.0
        assert np.allclose(vector, scalar, rtol=0, atol=1e-6)
        assert vector[2] < 0.0 and vector[3] == pytest.approx(-90.0, abs=1e-6)

    @pytest.mark.parametrize("mask", [10.0, 25.0, 40.0])
    def test_same_side_of_mask_within_a_micro_degree(self, mask):
        observer = ground_position(GroundNode("g", GROUND_STATION, -33.9, 151.2), 700.0)
        rng = np.random.default_rng(int(mask))
        offsets = (-1e-6, 1e-6)
        targets = np.array(
            [
                _target_at(observer, mask + offset, rng.normal(size=3), rng.uniform(600, 3000))
                for _ in range(50)
                for offset in offsets
            ]
        )
        vector = elevations_deg(observer, targets) >= mask
        scalar = [elevation_deg(observer, t) >= mask for t in targets]
        assert vector.tolist() == scalar == [False, True] * 50

    def test_empty_positions(self):
        observer = ground_position(GroundNode("g", GROUND_STATION, 0.0, 0.0), 0.0)
        assert elevations_deg(observer, np.empty((0, 3))).shape == (0,)


class TestSeveralObservers:
    """``elevations_deg`` from several observers at once, row for row."""

    @settings(max_examples=60, deadline=None)
    @given(
        places=st.lists(
            st.tuples(
                st.floats(-89.0, 89.0),
                st.floats(-180.0, 180.0),
                st.sampled_from([GROUND_STATION, AIRCRAFT]),
            ),
            min_size=1,
            max_size=9,
        ),
        epoch=st.floats(0.0, 6000.0),
        mask=st.sampled_from([0.0, 10.0, 25.0]),
    )
    def test_rows_equal_one_observer_calls(self, places, epoch, mask):
        nodes = [
            GroundNode(f"g{k}", kind, lat, lon, altitude_km=10.0 if kind == AIRCRAFT else 0.0)
            for k, (lat, lon, kind) in enumerate(places)
        ]
        observers = np.array([ground_position(node, epoch) for node in nodes])
        rng = np.random.default_rng(len(places))
        positions = np.concatenate(
            [
                propagate(CASE_CONFIG, epoch).position_km,
                observers[:1],  # zero range from the first observer
                [_target_at(observers[0], mask, rng.normal(size=3), 1500.0)],  # at its mask
            ]
        )
        batched = elevations_deg(observers, positions)
        stacked = np.stack([elevations_deg(observer, positions) for observer in observers])
        assert batched.shape == (len(observers), len(positions))
        assert np.array_equal(batched, stacked)
        assert batched[0, -2] == 90.0
        assert np.array_equal(batched >= mask, stacked >= mask)

    def test_no_positions(self):
        observers = np.array([ground_position(GroundNode("g", GROUND_STATION, 0.0, 0.0), 0.0)] * 2)
        assert elevations_deg(observers, np.empty((0, 3))).shape == (2, 0)
