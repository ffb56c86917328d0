"""Link-budget model checks with hand-computed anchors."""

import math

import numpy as np
import pytest

from leoisl.links import (
    GROUND_TO_SAT,
    RF_CLASSES,
    SAT_TO_AIR,
    LinkBudgetParams,
    capacity_bps,
    default_link_params,
    fspl_db,
    propagation_delay_s,
    rf_terms,
)
from leoisl.scenario import TopologySettings

PARAMS = default_link_params()


class TestFspl:
    def test_hand_value_15ghz_1000km(self):
        # 92.45 + 20*log10(15) + 20*log10(1000) = 175.9718...
        assert fspl_db(1000.0, 15.0e9) == pytest.approx(175.97, abs=5e-3)

    def test_reference_point(self):
        assert fspl_db(1.0, 1.0e9) == pytest.approx(92.45, abs=1e-12)

    def test_doubling_distance_adds_6db(self):
        step = 20.0 * math.log10(2.0)
        for d in (1.0, 10.0, 1234.5):
            assert fspl_db(2 * d, 12e9) - fspl_db(d, 12e9) == pytest.approx(
                step, abs=1e-9
            )

    def test_zero_distance_rejected(self):
        with pytest.raises(ValueError):
            fspl_db(0.0, 15e9)


class TestCapacity:
    def test_sat_to_air_case_values(self):
        params = PARAMS[SAT_TO_AIR]
        rx_w, noise_w = rf_terms(params, 1000.0)
        snr_db = 10.0 * math.log10(rx_w / noise_w)
        assert snr_db == pytest.approx(25.0, abs=0.05)
        assert capacity_bps(params, 1000.0) == pytest.approx(8.3e8, rel=0.02)

    def test_capacity_vanishes_with_share(self):
        params = PARAMS[GROUND_TO_SAT]
        caps = [capacity_bps(params, 1500.0, share) for share in (1e-2, 1e-4, 1e-6)]
        assert caps[0] > caps[1] > caps[2]
        assert caps[2] < 1e4

    def test_strictly_decreasing_in_distance(self):
        params = PARAMS[SAT_TO_AIR]
        distances = [200.0, 500.0, 1000.0, 2500.0, 4000.0]
        caps = [capacity_bps(params, d) for d in distances]
        assert all(a > b for a, b in zip(caps, caps[1:]))

    def test_strictly_increasing_in_share(self):
        params = PARAMS[GROUND_TO_SAT]
        shares = [0.05, 0.1, 0.3, 0.6, 1.0]
        caps = [capacity_bps(params, 1800.0, s) for s in shares]
        assert all(a < b for a, b in zip(caps, caps[1:]))

    def test_bad_inputs_rejected(self):
        params = PARAMS[SAT_TO_AIR]
        with pytest.raises(ValueError):
            capacity_bps(params, 1000.0, 0.0)
        with pytest.raises(ValueError):
            capacity_bps(params, 1000.0, -0.5)
        with pytest.raises(ValueError):
            capacity_bps(params, 0.0)

    def test_param_invariants(self):
        with pytest.raises(ValueError):
            LinkBudgetParams(0.0, 40.0, 30.0, 15e9, 100e6)
        with pytest.raises(ValueError):
            LinkBudgetParams(5.0, 40.0, 30.0, 15e9, 0.0)


class TestPropagationDelay:
    def test_zero(self):
        assert propagation_delay_s(0.0) == 0.0

    def test_thousand_km(self):
        assert propagation_delay_s(1000.0) == pytest.approx(3.3356e-3, rel=1e-4)

    def test_neighbor_chord(self):
        assert propagation_delay_s(2306.0) == pytest.approx(7.693e-3, rel=1e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            propagation_delay_s(-1.0)

    def test_array_matches_scalar_elementwise(self):
        distances = np.array([0.0, 1.5, 1000.0, 2306.0, 13426.642825385174])
        delays = propagation_delay_s(distances)
        assert delays.tolist() == [propagation_delay_s(d) for d in distances.tolist()]

    def test_negative_array_entry_rejected_naming_the_smallest(self):
        with pytest.raises(ValueError, match=r"^distance_km must be >= 0, got -7\.5$"):
            propagation_delay_s(np.array([3.0, -2.0, -7.5, 0.0]))


class TestDefaults:
    def test_case_parameter_set(self):
        assert PARAMS[SAT_TO_AIR].tx_power_w == 5.0
        assert PARAMS[GROUND_TO_SAT].tx_power_w == 10.0
        assert PARAMS[SAT_TO_AIR].carrier_hz == 15.0e9
        assert PARAMS["ground_to_air"].carrier_hz == 18.0e9
        assert PARAMS[GROUND_TO_SAT].carrier_hz == 30.0e9
        assert tuple(PARAMS) == RF_CLASSES
        assert TopologySettings().laser_rate_bps == 1.0e10
        for link_class in (SAT_TO_AIR, "ground_to_air", GROUND_TO_SAT):
            assert PARAMS[link_class].bandwidth_hz == 100.0e6
        assert PARAMS[SAT_TO_AIR].tx_gain_db == 40.0
        assert PARAMS[SAT_TO_AIR].rx_gain_db == 30.0
        assert PARAMS[GROUND_TO_SAT].tx_gain_db == 52.0
