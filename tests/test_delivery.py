"""Delivery planning: water-filling, bandwidth shares, and slot execution."""

import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leoisl import delivery, routing
from leoisl.delivery import (
    AIR_SHARING_MODES,
    CUT_THROUGH,
    DELAY_MODELS,
    EQUAL_SPLIT,
    STORE_AND_FORWARD,
    PER_STREAM,
    SWEEP_MODES,
    FileRequest,
    SweepResult,
    SweepRow,
    SlotContext,
    build_slot_context,
    generate_requests,
    optimal_ratio_delay,
    optimize_gs_shares,
    plan_cached,
    plan_non_cached,
    run_slot,
    sweep_max_isls,
)
from leoisl.delivery import _marginal_gain
from leoisl.links import (
    GROUND_TO_AIR,
    GROUND_TO_SAT,
    ISL_LASER,
    SAT_TO_AIR,
    LinkBudgetParams,
    capacity_bps,
    default_link_params,
    propagation_delay_s,
    rf_terms,
)
from leoisl.orbits import AIRCRAFT, GroundNode
from leoisl.routing import _chains, _path
from leoisl.scenario import (
    IfcSettings,
    Scenario,
    load_scenario,
    scenario_from_dict,
)
from leoisl.topology import LinkEdge

from oracles import (
    bisection_delay_oracle,
    edge,
    enumerate_cached_plan_delay,
    exhaustive_greedy_pick,
    exhaustive_route_options,
    exhaustive_standalone_pick,
    full_dist,
    gs_flow,
    nested_bisection_gs_shares,
    snapshot_of,
    unmemoised_select_holders,
)

DATA = pathlib.Path(__file__).parent / "data"


def context(snapshot, **ifc):
    return SlotContext(snapshot, Scenario(ifc=IfcSettings(**ifc)))


def feeder(gs, node, link_class, distance):
    """A hand-built feeder at its default budget's full-band rate, as a
    snapshot prices it."""
    capacity = capacity_bps(default_link_params()[link_class], distance)
    return edge(gs, node, link_class, distance, capacity)


def fresh_slot(scenario, max_isls, mode, seed, epoch_s=0.0):
    """One slot planned on a context and a request draw of its own."""
    requests = generate_requests(scenario, seed)
    return run_slot(build_slot_context(scenario, epoch_s), requests, max_isls, mode)


def cached_request(holders, packets=1000, aircraft="air-1"):
    return FileRequest(
        request_id="req-c",
        aircraft_id=aircraft,
        file_class=2,
        num_packets=packets,
        cached=True,
        packet_bits=1080,
        cache_holders=frozenset(holders),
    )


class TestOptimalRatioDelay:
    def test_single_source(self):
        delay, ratios = optimal_ratio_delay([(0.01, 1e6)], 5e5)
        assert delay == pytest.approx(0.01 + 0.5)
        assert ratios == [1.0]

    def test_two_sources_rate_weighted(self):
        rate = 1e6
        bits = 3e5
        delay, ratios = optimal_ratio_delay([(0.0, 2 * rate), (0.0, rate)], bits)
        assert delay == pytest.approx(bits / (3 * rate))
        assert ratios[0] == pytest.approx(2.0 / 3.0)
        assert ratios[1] == pytest.approx(1.0 / 3.0)

    def test_slow_starter_clipped(self):
        delay, ratios = optimal_ratio_delay([(0.0, 1e6), (10.0, 1e6)], 10.0)
        assert ratios == [1.0, 0.0]
        assert delay == pytest.approx(1e-5)

    def test_no_usable_source(self):
        delay, ratios = optimal_ratio_delay([(0.1, 0.0)], 100.0)
        assert math.isinf(delay)
        assert ratios == [0.0]

    def test_zero_bits(self):
        delay, ratios = optimal_ratio_delay([(0.4, 1e6), (0.2, 1e3)], 0.0)
        assert delay == 0.2
        assert ratios == [0.0, 1.0]

    def test_against_bisection_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            sources = [
                (float(rng.uniform(0.0, 0.05)), float(10 ** rng.uniform(6, 10)))
                for _ in range(n)
            ]
            bits = float(10 ** rng.uniform(3, 7))
            delay, ratios = optimal_ratio_delay(sources, bits)
            assert delay == pytest.approx(
                bisection_delay_oracle(sources, bits), abs=1e-9
            )
            assert sum(ratios) == pytest.approx(1.0, abs=1e-12)
            for (prop, rate), ratio in zip(sources, ratios):
                if ratio > 0:
                    finish = prop + ratio * bits / rate
                    assert finish == pytest.approx(delay, abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 20), st.integers(1, 9)), min_size=1, max_size=8),
        st.integers(1, 500),
        st.tuples(st.integers(0, 20), st.integers(1, 9)),
    )
    def test_equal_finish_properties(self, sources, bits, extra):
        # Integer props and rates make equal props and exact finishes real.
        sources = [(float(p), float(r)) for p, r in sources]
        delay, ratios = optimal_ratio_delay(sources, bits)
        assert sum(ratios) == pytest.approx(1.0, abs=1e-12)
        for (prop, rate), ratio in zip(sources, ratios):
            assert ratio >= 0
            if ratio > 0:
                assert prop + ratio * bits / rate == pytest.approx(delay, rel=1e-12)
            else:
                assert prop >= delay * (1 - 1e-12)
        more, _ = optimal_ratio_delay(sources + [tuple(map(float, extra))], bits)
        assert more <= delay * (1 + 1e-12)


class TestGsShares:
    def flow(
        self, flow_id, bits, fixed_cap=math.inf, distance=1500.0, prop=0.02, saf=False
    ):
        return gs_flow(
            flow_id=flow_id,
            bits=bits,
            base_prop_s=prop,
            fixed_cap_bps=fixed_cap,
            feeder_params=default_link_params()[GROUND_TO_SAT],
            feeder_distance_km=distance,
            store_and_forward=saf,
        )

    def test_single_flow_gets_everything(self):
        shares = optimize_gs_shares([self.flow("f", 1e6)])
        assert shares == {"f": 1.0}
        assert optimize_gs_shares([self.flow("f", 1e6)], equal=True) == {"f": 1.0}

    def test_identical_flows_split_in_half(self):
        flows = [self.flow("a", 1e6), self.flow("b", 1e6)]
        shares = optimize_gs_shares(flows)
        assert shares["a"] == pytest.approx(0.5, abs=1e-9)
        assert shares["b"] == pytest.approx(0.5, abs=1e-9)
        equal = optimize_gs_shares(flows, equal=True)
        assert equal == {"a": 0.5, "b": 0.5}

    def test_larger_file_weighted_more_and_beats_equal(self):
        flows = [self.flow("small", 100 * 1080.0), self.flow("big", 1000 * 1080.0)]
        shares = optimize_gs_shares(flows)
        assert shares["big"] > shares["small"]
        assert sum(shares.values()) <= 1.0 + 1e-12
        optimized_total = sum(f.delay_s(shares[f.flow_id]) for f in flows)
        grid_best = math.inf
        for a in range(1, 100):
            b = 100 - a
            total = flows[0].delay_s(a / 100.0) + flows[1].delay_s(b / 100.0)
            grid_best = min(grid_best, total)
        assert optimized_total <= grid_best + 1e-6
        equal_total = sum(f.delay_s(0.5) for f in flows)
        assert optimized_total < equal_total

    def test_capped_flows_leave_band_for_others(self):
        # One flow hits a slow downstream bottleneck early; the other is
        # feeder-limited and should collect the remaining band.
        flows = [
            self.flow("capped", 1e6, fixed_cap=2e7),
            self.flow("hungry", 1e7),
        ]
        shares = optimize_gs_shares(flows)
        assert shares["hungry"] > shares["capped"]
        assert flows[0].rate_bps(shares["capped"]) == pytest.approx(2e7)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 5000),
                st.integers(500, 2500),
                st.one_of(st.none(), st.integers(1, 2000)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_optimal_split_properties(self, specs):
        # Packets, feeder distance (km) and downstream cap (Mbps, None for
        # none); full-band feeder rates run about 1.2-1.7 Gbps, so caps both
        # bind and stay loose.
        flows = [
            self.flow(
                f"f{i}",
                packets * 1080.0,
                fixed_cap=math.inf if cap is None else cap * 1e6,
                distance=float(distance),
            )
            for i, (packets, distance, cap) in enumerate(specs)
        ]
        shares = optimize_gs_shares(flows)
        assert sum(shares.values()) <= 1.0 + 1e-9
        gains = [
            _marginal_gain(flow, shares[flow.flow_id])
            for flow in flows
            if shares[flow.flow_id] < flow.option.share_cap
        ]
        if gains:
            assert max(gains) == pytest.approx(min(gains), rel=1e-9)
        equal = optimize_gs_shares(flows, equal=True)
        optimized_total = sum(f.delay_s(shares[f.flow_id]) for f in flows)
        equal_total = sum(f.delay_s(equal[f.flow_id]) for f in flows)
        assert optimized_total <= equal_total * (1 + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 5000),
                st.integers(500, 2500),
                st.one_of(st.none(), st.integers(1, 2000)),
            ),
            min_size=1,
            max_size=6,
        ),
        st.booleans(),
        st.booleans(),
    )
    def test_shares_equal_the_nested_bisection_bit_for_bit(self, specs, saf, equal):
        # Packets, feeder distance (km) and downstream cap (Mbps, None for
        # none), as in the property above; store-and-forward and equal split
        # each on and off. Every marginal gain read back from a flow's memo
        # is the one priced afresh, so the shares are the same floats.
        flows = [
            self.flow(
                f"f{i}",
                packets * 1080.0,
                fixed_cap=math.inf if cap is None else cap * 1e6,
                distance=float(distance),
                saf=saf,
            )
            for i, (packets, distance, cap) in enumerate(specs)
        ]
        shares = optimize_gs_shares(flows, equal=equal)
        reference = nested_bisection_gs_shares(flows, equal=equal)
        assert [(k, v.hex()) for k, v in shares.items()] == [
            (k, v.hex()) for k, v in reference.items()
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 5000),
                st.integers(500, 2500),
                st.one_of(st.none(), st.integers(1, 2000)),
            ),
            min_size=2,
            max_size=6,
        ),
        st.booleans(),
        st.sampled_from([None, 0.0, 1e-30, 1e30, 1.0 - 1e-9, 1.0 + 1e-9]),
    )
    def test_a_failed_bracket_walks_from_the_root(self, specs, saf, factor):
        # A guess that is missing, or whose node the checks refute, leaves
        # the whole 60-step walk from the root, so the shares are the nested
        # bisection's still.
        flows = [
            self.flow(
                f"f{i}",
                packets * 1080.0,
                fixed_cap=math.inf if cap is None else cap * 1e6,
                distance=float(distance),
                saf=saf,
            )
            for i, (packets, distance, cap) in enumerate(specs)
        ]
        root, bisect = delivery._marginal_root, delivery._bisect
        walks = []

        def wrong_guess(flows, caps):
            guess = root(flows, caps)
            return None if factor is None or guess is None else guess * factor

        def spy(below, lo, hi, steps=60):
            if lo == 0.0:  # the walk on the common marginal value
                walks.append(steps)
            return bisect(below, lo, hi, steps)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(delivery, "_marginal_root", wrong_guess)
            patch.setattr(delivery, "_bisect", spy)
            shares = optimize_gs_shares(flows)
        reference = nested_bisection_gs_shares(flows)
        assert [(k, v.hex()) for k, v in shares.items()] == [
            (k, v.hex()) for k, v in reference.items()
        ]
        assert walks in ([], [60])  # none when every flow fits under its cap

    def test_slot_memo_keys_on_flow_order_bits_and_equal(self, monkeypatch):
        ctx = context(snapshot_of([], ["gs"]))
        small, big = self.flow("a", 1e6), self.flow("b", 4e6, fixed_cap=2e7)
        bigger = self.flow("b", 8e6, fixed_cap=2e7)
        cases = [
            ([small, big], False),
            ([big, small], False),  # order only
            ([small, bigger], False),  # bits only
            ([small, big], True),  # equal only
        ]
        for flows, equal in cases:
            expected = nested_bisection_gs_shares(flows, equal=equal)
            assert list(ctx.gs_shares(flows, equal).items()) == list(expected.items())
        assert len(ctx._gs_shares) == len(cases)

        # A repeat is read back, never solved again, and the caller's copy
        # does not reach the memo.
        def unsolvable(flows, *, equal=False):
            raise AssertionError("solved a split the slot already holds")

        monkeypatch.setattr(delivery, "optimize_gs_shares", unsolvable)
        for flows, equal in reversed(cases):
            shares = ctx.gs_shares(flows, equal)
            expected = nested_bisection_gs_shares(flows, equal=equal)
            assert list(shares.items()) == list(expected.items())
            shares.clear()
        assert all(ctx._gs_shares.values())

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.5, 100.0),  # tx power, W
        st.floats(0.0, 60.0),  # tx gain, dB
        st.floats(0.0, 60.0),  # rx gain, dB
        st.floats(1.0e9, 40.0e9),  # carrier, Hz
        st.floats(1.0e6, 1.0e9),  # bandwidth, Hz
        st.floats(50.0, 1000.0),  # noise temperature, K
        st.floats(200.0, 3000.0),  # distance, km
        st.floats(1e-9, 1.0),  # share
        st.floats(1.0e3, 1.0e10),  # bits
    )
    def test_cached_feeder_terms_are_bit_identical(
        self, power, tx_gain, rx_gain, carrier, bandwidth, noise_k, distance, share, bits
    ):
        params = LinkBudgetParams(
            power, tx_gain, rx_gain, carrier, bandwidth, noise_temperature_k=noise_k
        )
        flow = gs_flow("f", bits, 0.01, math.inf, params, distance)
        cap = capacity_bps(params, distance, share)
        assert flow.option.feeder_capacity_bps(share) == cap
        # The marginal gain as written before the feeder terms were cached.
        rx_w, noise_w = rf_terms(params, distance)
        s_full = rx_w / noise_w
        slope = (bandwidth / math.log(2.0)) * (
            math.log1p(s_full / share) - s_full / (share + s_full)
        )
        assert _marginal_gain(flow, share) == bits * slope / (cap * cap)


AIR = "air-1"


class TestPlanCached:
    def snapshot_one_serving(self, air_cap=8e8, holders_spec=()):
        edges = [edge("S0", AIR, SAT_TO_AIR, 1000.0, air_cap)]
        for holder, distance, cap in holders_spec:
            edges.append(edge(holder, "S0", ISL_LASER, distance, cap))
        return snapshot_of(edges)

    def test_local_cache_hit(self):
        snapshot = self.snapshot_one_serving()
        request = cached_request({"S0"}, packets=100)
        plan = plan_cached(request, context(snapshot), 4)
        assert plan.delivered
        assert plan.serving_satellite == "S0"
        assert plan.activated_isl_edges == ()
        assert len(plan.streams) == 1
        expected = propagation_delay_s(1000.0) + request.total_bits / 8e8
        assert plan.delay_s == pytest.approx(expected)

    def test_budget_beyond_holders_matches_fully_connected(self):
        snapshot = self.snapshot_one_serving(
            holders_spec=[("H1", 1200.0, 1e10), ("H2", 2500.0, 1e10)]
        )
        request = cached_request({"H1", "H2"})
        constrained = plan_cached(request, context(snapshot), 8)
        unconstrained = plan_cached(request, context(snapshot), 0, mode="full")
        assert constrained == unconstrained

    def test_no_visible_satellite_undeliverable(self):
        snapshot = snapshot_of([edge("S0", "other-air", SAT_TO_AIR, 900.0, 8e8)], [AIR])
        request = cached_request({"S0"})
        plan = plan_cached(request, context(snapshot), 4)
        assert not plan.delivered
        assert math.isinf(plan.delay_s)

    def test_degree_budget_enforced(self):
        holders = [(f"H{i}", 800.0 + 100 * i, 1e10) for i in range(5)]
        snapshot = self.snapshot_one_serving(holders_spec=holders)
        request = cached_request({h for h, _, _ in holders}, packets=3000)
        for budget in (1, 2, 3):
            plan = plan_cached(request, context(snapshot), budget)
            assert len(plan.activated_isl_edges) <= budget

    def test_optimized_beats_greedy_and_matches_enumeration(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            serving_count = int(rng.integers(1, 4))
            edges = [
                edge(
                    f"S{i}",
                    AIR,
                    SAT_TO_AIR,
                    float(rng.uniform(900, 2400)),
                    float(rng.uniform(4e8, 9e8)),
                )
                for i in range(serving_count)
            ]
            holders = [f"H{j}" for j in range(int(rng.integers(1, 4)))]
            for holder in holders:
                for i in range(serving_count):
                    if rng.random() < 0.7:
                        edges.append(
                            edge(
                                holder,
                                f"S{i}",
                                ISL_LASER,
                                float(rng.uniform(500, 5000)),
                                1e10,
                            )
                        )
            snapshot = snapshot_of(edges, holders)
            request = cached_request(set(holders), packets=int(rng.integers(10, 3000)))
            k = int(rng.integers(1, 4))
            optimized = plan_cached(request, context(snapshot), k)
            greedy = plan_cached(request, context(snapshot), k, mode="greedy")
            assert optimized.delivered == greedy.delivered
            if not optimized.delivered:
                continue
            assert optimized.delay_s <= greedy.delay_s + 1e-15
            oracle = enumerate_cached_plan_delay(request, snapshot, k)
            assert optimized.delay_s == oracle

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_enumeration_property(self, data):
        # Integer propagation delays, rates and bits make ties between
        # holders and between subsets real; up to 15 holders.
        draw = data.draw
        n = draw(st.integers(0, 15), label="holders")
        budget = draw(st.integers(0, n if n <= 8 else 5), label="budget")
        air_sharing = draw(st.sampled_from(AIR_SHARING_MODES), label="air_sharing")
        store_and_forward = draw(st.booleans(), label="store_and_forward")
        serving_holds = draw(st.booleans(), label="serving_holds")
        air_prop, air_cap = draw(st.tuples(st.integers(0, 5), st.integers(1, 9)), label="air")
        edges = [LinkEdge("S0", AIR, SAT_TO_AIR, 1.0, float(air_cap), float(air_prop))]
        holders = {"S0"} if serving_holds else set()
        for i in range(n):
            prop, cap = draw(st.tuples(st.integers(1, 12), st.integers(1, 9)), label=f"H{i:02d}")
            edges.append(LinkEdge(f"H{i:02d}", "S0", ISL_LASER, 1.0, float(cap), float(prop)))
            holders.add(f"H{i:02d}")
        snapshot = snapshot_of(edges)
        request = FileRequest(
            request_id="req-c",
            aircraft_id=AIR,
            file_class=0,
            num_packets=draw(st.integers(1, 200), label="bits"),
            cached=True,
            packet_bits=1,
            cache_holders=frozenset(holders),
        )
        delay_model = STORE_AND_FORWARD if store_and_forward else CUT_THROUGH
        plan = plan_cached(
            request,
            context(snapshot, air_link_sharing=air_sharing, delay_model=delay_model),
            budget,
        )
        oracle = enumerate_cached_plan_delay(
            request, snapshot, budget, air_sharing, store_and_forward
        )
        if math.isinf(oracle):
            assert not plan.delivered
            return
        assert plan.delay_s == pytest.approx(oracle, rel=1e-12, abs=0)
        assert len(plan.activated_isl_edges) <= budget
        assert all(stream.ratio > 0 for stream in plan.streams)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_saturated_entry_equals_a_fresh_solve(self, data):
        # Integer delays, rates and bits make ties real, as in the property
        # above. A first budget is solved, then larger ones until a count's
        # set comes out smaller than it; every budget from the saturated
        # entry's count on reads it, and it equals a solve without the memo.
        draw = data.draw
        n = draw(st.integers(1, 10), label="holders")
        air_sharing = draw(st.sampled_from(AIR_SHARING_MODES), label="air_sharing")
        delay_model = draw(st.sampled_from(DELAY_MODELS), label="delay_model")
        serving_holds = draw(st.booleans(), label="serving_holds")
        air_prop, air_cap = draw(st.tuples(st.integers(0, 5), st.integers(1, 9)), label="air")
        edges = [LinkEdge("S0", AIR, SAT_TO_AIR, 1.0, float(air_cap), float(air_prop))]
        holders = {"S0"} if serving_holds else set()
        for i in range(n):
            prop, cap = draw(st.tuples(st.integers(1, 12), st.integers(1, 9)), label=f"H{i:02d}")
            edges.append(LinkEdge(f"H{i:02d}", "S0", ISL_LASER, 1.0, float(cap), float(prop)))
            holders.add(f"H{i:02d}")
        packets = draw(st.integers(1, 200), label="bits")
        request = replace(cached_request(holders), num_packets=packets, packet_bits=1)
        ctx = context(snapshot_of(edges), air_link_sharing=air_sharing, delay_model=delay_model)
        (option,), _ = delivery._servings(ctx, request)
        bits = float(packets)
        budget = draw(st.integers(0, n), label="first budget")
        while True:  # a count above n holders always saturates
            delivery._select_holders(ctx, option, budget, bits)
            solves = option.solves[bits]
            if math.isfinite(solves.saturated):
                break
            budget += 1
        entry, solved = solves.best[solves.saturated], len(solves.best)
        larger = draw(st.integers(solves.saturated, n + 20), label="larger budget")
        for budget in (solves.saturated, larger):
            assert delivery._select_holders(ctx, option, budget, bits) == entry
            assert unmemoised_select_holders(ctx, option, budget, bits) == entry
        assert len(solves.best) == solved  # read, not solved again
        assert math.isinf(entry[0]) or len(entry[1]) <= solves.saturated

    def test_air_sharing_modes(self):
        # Serving holds the file; a nearby holder helps only when every
        # stream keeps a full-rate air beam.
        air_prop = propagation_delay_s(1000.0)
        edges = [
            edge("S0", AIR, SAT_TO_AIR, 1000.0, 8e8),
            edge("H1", "S0", ISL_LASER, 60.0, 1e10),
        ]
        snapshot = snapshot_of(edges)
        request = cached_request({"S0", "H1"}, packets=3000)
        per_stream = plan_cached(request, context(snapshot, air_link_sharing=PER_STREAM), 4)
        split = plan_cached(request, context(snapshot, air_link_sharing=EQUAL_SPLIT), 4)
        assert len(per_stream.streams) == 2
        assert per_stream.delay_s < air_prop + request.total_bits / 8e8 + 1e-15
        assert len(split.streams) == 1
        assert split.delay_s == pytest.approx(air_prop + request.total_bits / 8e8)


class TestPlanNonCached:
    def chain_snapshot(self, feeders=("G1",), servings=("S0",), air_cap=8e8):
        edges = []
        for gs in feeders:
            for sat in servings:
                edges.append(feeder(gs, sat, GROUND_TO_SAT, 1800.0))
        for sat in servings:
            edges.append(edge(sat, AIR, SAT_TO_AIR, 1200.0, air_cap))
        return snapshot_of(edges)

    def request(self, rid, gs_set, packets=800, aircraft=AIR):
        return FileRequest(
            request_id=rid,
            aircraft_id=aircraft,
            file_class=1,
            num_packets=packets,
            cached=False,
            packet_bits=1080,
            source_gs_set=frozenset(gs_set),
        )

    def test_single_file_full_share(self):
        snapshot = self.chain_snapshot()
        request = self.request("r1", {"G1"})
        (plan,) = plan_non_cached([request], context(snapshot), 4)
        assert plan.delivered
        assert plan.gs_id == "G1"
        assert plan.bandwidth_share == 1.0
        (equal_plan,) = plan_non_cached([request], context(snapshot), 4, mode="equal")
        assert equal_plan.bandwidth_share == 1.0

    def test_two_identical_files_split_evenly(self):
        edges = [
            feeder("G1", "S0", GROUND_TO_SAT, 1800.0),
            edge("S0", "air-1", SAT_TO_AIR, 1200.0, 8e8),
            edge("S0", "air-2", SAT_TO_AIR, 1200.0, 8e8),
        ]
        snapshot = snapshot_of(edges)
        requests = [
            self.request("r1", {"G1"}, aircraft="air-1"),
            self.request("r2", {"G1"}, aircraft="air-2"),
        ]
        plans = plan_non_cached(requests, context(snapshot), 4)
        assert plans[0].bandwidth_share == pytest.approx(0.5, abs=1e-9)
        assert plans[1].bandwidth_share == pytest.approx(0.5, abs=1e-9)
        equal_plans = plan_non_cached(requests, context(snapshot), 4, mode="equal")
        assert [p.bandwidth_share for p in equal_plans] == [0.5, 0.5]

    def test_unbalanced_sizes_beat_equal_allocation(self):
        edges = [
            feeder("G1", "S0", GROUND_TO_SAT, 1800.0),
            edge("S0", "air-1", SAT_TO_AIR, 1200.0, 8e8),
            edge("S0", "air-2", SAT_TO_AIR, 1200.0, 8e8),
        ]
        snapshot = snapshot_of(edges)
        requests = [
            self.request("r1", {"G1"}, packets=100, aircraft="air-1"),
            self.request("r2", {"G1"}, packets=1000, aircraft="air-2"),
        ]
        optimized = plan_non_cached(requests, context(snapshot), 4)
        equal = plan_non_cached(requests, context(snapshot), 4, mode="equal")
        assert optimized[1].bandwidth_share > optimized[0].bandwidth_share
        assert sum(p.delay_s for p in optimized) < sum(p.delay_s for p in equal)

    def test_no_route_is_undeliverable(self):
        snapshot = snapshot_of([edge("S0", AIR, SAT_TO_AIR, 1200.0, 8e8)], ["G1"])
        request = self.request("r1", {"G1"})
        (plan,) = plan_non_cached([request], context(snapshot), 4)
        assert not plan.delivered

    def test_greedy_falls_back_to_the_best_direct_feeder(self):
        # The aircraft's one serving satellite reaches no station's entry,
        # so every option is a direct feeder: greedy takes the best-rate
        # one (the nearer station), as the standalone pick does.
        edges = [
            feeder("G1", AIR, GROUND_TO_AIR, 300.0),
            feeder("G2", AIR, GROUND_TO_AIR, 200.0),
            feeder("G1", "S1", GROUND_TO_SAT, 800.0),
            edge("S0", AIR, SAT_TO_AIR, 1200.0, 8e8),
        ]
        request = self.request("r1", {"G1", "G2"})
        for mode in ("greedy", "optimized"):
            (plan,) = plan_non_cached([request], context(snapshot_of(edges)), 4, mode=mode)
            assert plan.delivered
            assert (plan.gs_id, plan.serving_satellite, plan.streams[0].nodes) == (
                "G2",
                None,
                ("G2", AIR),
            )

    def test_full_plans_as_optimized_at_a_positive_budget(self):
        # "full" lifts the degree budget, which the non-cached planner reads
        # only through the zero-budget route filter: on the baseline's
        # no-hit requests it equals "optimized" at every budget >= 1, and
        # at budget 0 it equals "optimized" at budget 1. Fresh contexts, so
        # neither plan is a memo hit of the other.
        scenario = Scenario(ifc=IfcSettings(cache_hit_probability=0.0))
        snapshot = build_slot_context(scenario, 0.0).snapshot
        for seed in (1, 2, 3):
            requests = generate_requests(scenario, seed)
            for max_isls in range(9):
                full = plan_non_cached(
                    requests, SlotContext(snapshot, scenario), max_isls, mode="full"
                )
                optimized = plan_non_cached(
                    requests, SlotContext(snapshot, scenario), max(max_isls, 1)
                )
                assert full == optimized
                assert any(plan.delivered for plan in full)

    def test_zero_budget_requires_shared_satellite(self):
        # Entry and serving differ; with no ISL budget the chain is illegal.
        edges = [
            feeder("G1", "S-entry", GROUND_TO_SAT, 1800.0),
            edge("S-entry", "S-serve", ISL_LASER, 2000.0, 1e10),
            edge("S-serve", AIR, SAT_TO_AIR, 1200.0, 8e8),
        ]
        snapshot = snapshot_of(edges)
        request = self.request("r1", {"G1"})
        (blocked,) = plan_non_cached([request], context(snapshot), 0)
        assert not blocked.delivered
        (routed,) = plan_non_cached([request], context(snapshot), 1)
        assert routed.delivered
        assert routed.activated_isl_edges == (("S-entry", "S-serve"),)

    @pytest.mark.parametrize(
        ("scenario_file", "store_and_forward"),
        [(None, False), ("feeder_limited.json", False), ("cached_equal_split_saf.json", True)],
    )
    def test_route_options_carry_their_full_share_rate(self, scenario_file, store_and_forward):
        # The standalone and greedy keys read each option's full-share rate;
        # it must equal, bit for bit, the series rate of the feeder's
        # full-band capacity, with the feeder found from the option's ends.
        scenario = Scenario() if scenario_file is None else load_scenario(DATA / scenario_file)
        # Every request non-cached, so that every aircraft has route options.
        scenario = replace(scenario, ifc=replace(scenario.ifc, cache_hit_probability=0.0))
        ctx = build_slot_context(scenario, 0.0)
        assert ctx.store_and_forward == store_and_forward
        checked = 0
        for seed in (1, 2, 3):
            requests = generate_requests(scenario, seed)
            for max_isls in range(9):
                for mode in SWEEP_MODES:
                    plan_non_cached(requests, ctx, max_isls, mode)
        # Every option the planner built, in every table it kept.
        for table in ctx._option_tables.values():
            for option in filter(None, table.exact.values()):
                if option.entry is None:
                    link_class, far_end = GROUND_TO_AIR, table.aircraft
                else:
                    link_class, far_end = GROUND_TO_SAT, option.entry
                links = ctx.edges_at(link_class, option.gs)
                (feeder,) = [e for e in links if e.other(option.gs) == far_end]
                params = ctx.link_params[link_class]
                assert option.feeder_params == params
                assert option.feeder_distance_km == feeder.distance_km
                expected = delivery._series_rate(
                    capacity_bps(params, feeder.distance_km),
                    option.fixed_cap_bps,
                    option.fixed_inv_rate,
                    store_and_forward,
                )
                assert option.full_rate_bps == expected
                checked += 1
        assert checked > 0
        assert len(ctx._option_tables) > 0

    @settings(max_examples=30, deadline=None)
    @given(
        shell=st.sampled_from([None, "shell_24x22.json"]),
        delay_model=st.sampled_from(DELAY_MODELS),
        latitude=st.floats(-70.0, 70.0),
        longitude=st.floats(-180.0, 180.0),
        heading=st.floats(0.0, 359.0),
        epoch_s=st.sampled_from([0.0, 777.5, 2400.0]),
        seed=st.integers(0, 10_000),
        bits=st.floats(1e2, 1e10),
    )
    def test_pruned_picks_match_exhaustive_picks(
        self, shell, delay_model, latitude, longitude, heading, epoch_s, seed, bits
    ):
        # The planner builds only options whose bounds can still win; its
        # standalone and greedy picks must equal those of a scan over every
        # option built in full, at zero and at positive budgets, and every
        # row's bounds must hold for its exact option.
        scenario = Scenario() if shell is None else load_scenario(DATA / shell)
        drawn = GroundNode("ac-drawn", AIRCRAFT, latitude, longitude, 10.7, heading, 0.23)
        scenario = replace(
            scenario,
            aircraft=(*scenario.aircraft, drawn),
            ifc=replace(scenario.ifc, cache_hit_probability=0.0, delay_model=delay_model),
        )
        ctx = build_slot_context(scenario, epoch_s)
        nodes = ctx._isl.nodes
        for request in generate_requests(scenario, seed):
            aircraft = request.aircraft_id
            for zero_budget in (False, True):
                table = delivery._OptionTable(ctx, aircraft, request.source_gs_set, zero_budget)
                options = exhaustive_route_options(ctx, request, zero_budget)
                rows = {
                    (gs, nodes[e] if e >= 0 else None, nodes[s] if s >= 0 else None): k
                    for k, ((gs, *_), (e, s)) in enumerate(zip(table.chains, table.ends))
                }
                for option in options:
                    k = rows[(option.gs, option.entry, option.serving)]
                    assert table.prop_s[k] <= option.base_prop_s
                    assert table.rate_bps[k] >= option.full_rate_bps
                assert table.greedy() == exhaustive_greedy_pick(ctx, aircraft, options)
                for size in (float(request.total_bits), bits):
                    expected = exhaustive_standalone_pick(options, size)
                    assert table.standalone(size) == expected


class TestSlotExecution:
    def test_same_seed_identical_plans(self):
        scenario = Scenario()
        first = fresh_slot(scenario, 3, "optimized", 11)
        second = fresh_slot(scenario, 3, "optimized", 11)
        assert first == second

    def test_zero_aircraft_slot(self):
        scenario = Scenario(aircraft=())
        plan = fresh_slot(scenario, 4, "optimized", 1)
        assert plan.request_plans == ()
        assert plan.average_delay_s is None
        assert plan.delivered == 0

    def test_zero_delivery_slot_reports_no_average(self):
        # A near-vertical elevation mask hides every satellite and station.
        scenario = scenario_from_dict({"topology": {"elevation_mask_deg": 89.9}})
        plan = fresh_slot(scenario, 4, "optimized", 1)
        assert (plan.average_delay_s, plan.delivered, plan.undelivered) == (None, 0, 4)
        result = sweep_max_isls(scenario, [4], ["optimized"], [0.0], [1])
        assert result.csv_rows()[1][4:] == ("", 0, 4)
        assert result.mean_delay(4, "optimized") is None
        assert result.summary_csv_rows()[1] == (4, "optimized", "")

    def test_mean_delay_skips_cells_without_deliveries(self):
        rows = tuple(
            SweepRow(2, "optimized", seed, 0.0, delay, 1 if delay else 0, 0 if delay else 1)
            for seed, delay in ((1, 0.25), (2, None), (3, 0.75))
        )
        assert SweepResult(rows).mean_delay(2, "optimized") == 0.5

    def test_request_generation_is_seeded_and_classed(self):
        scenario = Scenario()
        first = generate_requests(scenario, 3)
        second = generate_requests(scenario, 3)
        assert first == second
        ranges = scenario.ifc.file_class_packet_ranges
        sat_count = scenario.constellation.total_satellites
        for request in first:
            lo, hi = ranges[request.file_class]
            assert lo <= request.num_packets <= hi
            if request.cached:
                assert len(request.cache_holders) == round(0.1 * sat_count)
                assert not request.source_gs_set
            else:
                assert len(request.source_gs_set) == 5
                assert not request.cache_holders

    def test_sweep_single_cell_matches_run_slot(self):
        scenario = Scenario()
        result = sweep_max_isls(scenario, [3], ["optimized"], [0.0], [5])
        assert len(result.rows) == 1
        row = result.rows[0]
        plan = fresh_slot(scenario, 3, "optimized", 5)
        assert row.avg_delay_s == plan.average_delay_s
        assert row.delivered == plan.delivered

    def test_shared_context_matches_fresh_context(self):
        # One context per scenario serves every cell, as in the sweep; each
        # cell must plan as on a context of its own. Budget 0 exercises the
        # entry == serving route filter and full vs optimized the
        # association mode. Only without cache hits do two flows share a
        # station, which the equal bandwidth mode needs to differ; those two
        # scenarios draw the same requests under both delay models.
        no_hits = [
            Scenario(ifc=IfcSettings(cache_hit_probability=0.0, delay_model=model))
            for model in ("cut_through", "store_and_forward")
        ]
        cases = [(Scenario(), range(9), (1, 2, 3))]
        cases += [(scenario, (0, 1, 8), (1,)) for scenario in no_hits]
        for scenario, budgets, seeds in cases:
            shared = build_slot_context(scenario, 0.0)
            for max_isls in budgets:
                for mode in SWEEP_MODES:
                    for seed in seeds:
                        requests = generate_requests(scenario, seed)
                        fresh = SlotContext(shared.snapshot, scenario)
                        assert run_slot(shared, requests, max_isls, mode) == run_slot(
                            fresh, requests, max_isls, mode
                        )
        # Every cached plan too, on each scenario's shared context: all
        # modes, air sharing modes and delay models, and budgets past every
        # serving satellite's candidate count (at most 4 here).
        all_cached = [
            Scenario(
                ifc=IfcSettings(
                    cache_hit_probability=1.0, air_link_sharing=sharing, delay_model=model
                )
            )
            for sharing in AIR_SHARING_MODES
            for model in DELAY_MODELS
        ]
        for scenario in all_cached:
            shared = build_slot_context(scenario, 0.0)
            for seed in (1, 2):
                for request in generate_requests(scenario, seed):
                    for mode in SWEEP_MODES:
                        for max_isls in range(10):
                            fresh = SlotContext(shared.snapshot, scenario)
                            assert plan_cached(
                                request, shared, max_isls, mode
                            ) == plan_cached(request, fresh, max_isls, mode)

    def test_batched_route_search_matches_fresh_context_per_route(self, monkeypatch):
        # Building a table's rows labels their serving satellites in one
        # batch, each as far as its entries; every relay read from that batch
        # must equal the one read from its serving satellite's full labels
        # alone, and every (station, entry, serving) chain those labels reach
        # has its option.
        batches = []

        def recording(graph, roots, *wanted):
            batches.append(list(roots))
            return shortest_paths(graph, roots, *wanted)

        shortest_paths = routing._shortest_paths
        monkeypatch.setattr(routing, "_shortest_paths", recording)
        scenario = Scenario()
        ctx = build_slot_context(scenario, 0.0)
        graph = ctx._isl
        stations = frozenset(gs.node_id for gs in scenario.ground_stations)
        routes = 0
        for aircraft in sorted(scenario.aircraft, key=lambda a: a.node_id):
            batches.clear()
            table = delivery._OptionTable(ctx, aircraft.node_id, stations, False)
            relays = {
                (o.gs, o.entry, o.serving): o
                for o in table.built(list(range(len(table.chains))))
                if o is not None and o.entry is not None
            }
            air_edges = ctx.edges_at(SAT_TO_AIR, aircraft.node_id)
            servings = [e.other(aircraft.node_id) for e in air_edges]
            assert batches == [sorted(graph.index[serving] for serving in servings)]
            reached = 0
            feeders = [(gs, f) for gs in sorted(stations) for f in ctx.edges_at(GROUND_TO_SAT, gs)]
            entries = np.array([graph.index[f.other(gs)] for gs, f in feeders], dtype=np.intp)
            for air_edge, serving in zip(air_edges, servings):
                root = np.array([graph.index[serving]])
                chains = _chains(
                    graph, full_dist(graph, root), root, np.zeros(len(entries), np.intp), entries
                )
                for (gs, feeder), found in zip(feeders, chains):
                    if found is None:
                        continue
                    chain, rows = found
                    route = _path(graph, chain[::-1], rows[::-1])
                    option = relays[(gs, feeder.other(gs), serving)]
                    assert option.nodes == (gs, *route.nodes, aircraft.node_id)
                    assert option.base_prop_s == (
                        feeder.delay_s + route.total_propagation_delay_s + air_edge.delay_s
                    )
                    assert option.fixed_cap_bps == min(
                        route.edge_capacities_bps + (air_edge.capacity_bps,)
                    )
                    reached += 1
            assert reached == len(relays)
            routes += reached
        assert routes > 100

    def test_zero_budget_sweep_runs_no_route_search(self, monkeypatch):
        # A zero budget reads only zero-hop routes (entry == serving), so
        # its cells search from no serving satellite; "full" association
        # ignores the budget and does search.
        roots = []

        def counting(graph, batch, *wanted):
            roots.extend(batch)
            return shortest_paths(graph, batch, *wanted)

        shortest_paths = routing._shortest_paths
        monkeypatch.setattr(routing, "_shortest_paths", counting)
        scenario = Scenario()
        budgeted = [mode for mode in SWEEP_MODES if mode != delivery.MODE_FULL]
        result = sweep_max_isls(scenario, [0], budgeted, [0.0], [1, 2, 3])
        assert sum(row.delivered for row in result.rows) > 0
        assert roots == []
        sweep_max_isls(scenario, [0], [delivery.MODE_FULL], [0.0], [1])
        assert roots

    def test_passed_requests_match_drawn_requests(self):
        scenario = Scenario()
        ctx = build_slot_context(scenario, 0.0)
        for seed in (1, 2, 3):
            requests = generate_requests(scenario, seed)
            for max_isls in (0, 2):
                for mode in SWEEP_MODES:
                    assert run_slot(ctx, requests, max_isls, mode) == fresh_slot(
                        scenario, max_isls, mode, seed
                    )

    def test_mode_dominance_and_convergence_small(self):
        scenario = Scenario()
        result = sweep_max_isls(
            scenario, [1, 2, 8], ["optimized", "greedy", "equal", "full"], [0.0], [0, 1]
        )
        cell = {(r.max_isls, r.mode, r.seed): r.avg_delay_s for r in result.rows}
        for seed in (0, 1):
            for k in (1, 2, 8):
                assert cell[(k, "optimized", seed)] <= cell[(k, "greedy", seed)] + 1e-12
                assert cell[(k, "optimized", seed)] <= cell[(k, "equal", seed)] + 1e-12
                assert cell[(k, "full", seed)] <= cell[(k, "optimized", seed)] + 1e-12
            assert cell[(8, "optimized", seed)] == pytest.approx(
                cell[(8, "full", seed)], abs=1e-9
            )

    def test_feeder_limited_split_beats_equal_shares(self):
        # Without cache hits two non-cached flows share a station, but on the
        # baseline links both reach their share cap and the split never
        # matters. A 5 MHz feeder band makes it bind.
        scenario = scenario_from_dict(
            {
                "ifc": {"cache_hit_probability": 0.0},
                "link_params": {"ground_to_sat": {"bandwidth_hz": 5e6}},
            }
        )
        seeds = range(1, 11)
        result = sweep_max_isls(scenario, [1, 2], ["optimized", "equal"], [0.0], seeds)
        cell = {(r.max_isls, r.mode, r.seed): r.avg_delay_s for r in result.rows}
        pairs = [(cell[(k, "optimized", s)], cell[(k, "equal", s)]) for k in (1, 2) for s in seeds]
        assert all(optimized <= equal for optimized, equal in pairs)
        assert any(optimized < equal for optimized, equal in pairs)

    def test_degree_feasibility_of_plans(self):
        scenario = Scenario()
        ctx = build_slot_context(scenario, 0.0)
        for seed in range(3):
            requests = generate_requests(scenario, seed)
            for k in (1, 2, 4):
                plan = run_slot(ctx, requests, k, "optimized")
                gs_shares = {}
                for request_plan in plan.request_plans:
                    degree = {}
                    for a, b in request_plan.activated_isl_edges:
                        degree[a] = degree.get(a, 0) + 1
                        degree[b] = degree.get(b, 0) + 1
                    if request_plan.serving_satellite is not None:
                        assert degree.get(request_plan.serving_satellite, 0) <= k
                    if request_plan.delivered and request_plan.request.cached:
                        total = sum(s.ratio for s in request_plan.streams)
                        assert total == pytest.approx(1.0, abs=1e-12)
                    gs, share = request_plan.gs_id, request_plan.bandwidth_share
                    if gs is not None and share is not None:
                        gs_shares[gs] = gs_shares.get(gs, 0.0) + share
                assert all(total <= 1.0 + 1e-12 for total in gs_shares.values())

    def test_store_and_forward_and_split_sharing_variants(self):
        base = Scenario()
        from leoisl.scenario import IfcSettings

        variants = [
            IfcSettings(delay_model="store_and_forward"),
            IfcSettings(air_link_sharing="equal_split"),
            IfcSettings(delay_model="store_and_forward", air_link_sharing="equal_split"),
        ]
        for ifc in variants:
            scenario = Scenario(ifc=ifc)
            cells = {}
            for mode in ("optimized", "greedy", "equal", "full"):
                for k in (1, 3):
                    cells[(mode, k)] = fresh_slot(scenario, k, mode, 2)
            for k in (1, 3):
                opt = cells[("optimized", k)].average_delay_s
                assert opt <= cells[("greedy", k)].average_delay_s + 1e-12
                assert opt <= cells[("equal", k)].average_delay_s + 1e-12
                assert cells[("full", k)].average_delay_s <= opt + 1e-12
            base_plan = fresh_slot(base, 3, "optimized", 2)
            assert cells[("optimized", 3)] != base_plan  # the knobs must bite

    def test_unknown_mode_rejected(self):
        # The planners check the mode and budget: cached requests reach
        # plan_cached, and every slot, even an empty or all-cached one,
        # reaches plan_non_cached.
        scenarios = [Scenario(ifc=IfcSettings(cache_hit_probability=p)) for p in (0.0, 0.5, 1.0)]
        for scenario in scenarios + [Scenario(aircraft=())]:
            ctx = build_slot_context(scenario, 0.0)
            requests = generate_requests(scenario, 1)
            with pytest.raises(ValueError, match="got 'best'$"):
                run_slot(ctx, requests, 4, "best")
            with pytest.raises(ValueError, match="max_isls must be >= 0, got -1$"):
                run_slot(ctx, requests, -1, "optimized")

    def test_repeated_request_ids_rejected(self):
        # Plans and feeder shares are keyed by request id, so a repeated id
        # would hand one request's plan to another.
        scenario = Scenario()
        ctx = build_slot_context(scenario, 0.0)
        requests = generate_requests(scenario, 1)
        first = requests[0].request_id
        repeated = [requests[0], replace(requests[1], request_id=first), *requests[2:]]
        with pytest.raises(ValueError, match=f"request id {first!r} is repeated$"):
            run_slot(ctx, repeated, 2, "optimized")
        non_cached = [r for r in requests if not r.cached]
        again = non_cached[0].request_id
        with pytest.raises(ValueError, match=f"request id {again!r} is repeated$"):
            plan_non_cached([*non_cached, non_cached[0]], ctx, 2)
        # Distinct ids still plan every request, each its own.
        plan = run_slot(ctx, requests, 2, "optimized")
        assert [p.request for p in plan.request_plans] == requests

    @pytest.mark.parametrize(
        ("isls", "message"),
        [([2, -1], "max_isls must be >= 0, got -1$"), ([1, 2, 1], r"repeat, got \[1, 2, 1\]$")],
    )
    def test_sweep_rejects_bad_budgets_before_building(self, monkeypatch, isls, message):
        def unreachable(*args):
            raise AssertionError("a slot context was built")

        monkeypatch.setattr(delivery, "build_slot_context", unreachable)
        with pytest.raises(ValueError, match=message):
            sweep_max_isls(Scenario(), isls, ["optimized"], [0.0], [1])

    @pytest.mark.parametrize(
        ("modes", "epochs", "seeds", "message"),
        [
            (["optimized", "greedy", "optimized"], [0.0], [1], r"^modes must not repeat, got \["),
            (["optimized"], [0.0, 60.0, 0.0], [1], r"^epochs must not repeat, got \[0.0, 60.0, 0.0\]$"),
            (["optimized"], [0.0], [1, 1, 2], r"^seeds must not repeat, got \[1, 1, 2\]$"),
        ],
        ids=["modes", "epochs", "seeds"],
    )
    def test_sweep_rejects_repeats_before_drawing(self, monkeypatch, modes, epochs, seeds, message):
        # A repeated seed or epoch would count its cells twice in the summary
        # means, and a repeated mode would duplicate rows.
        def unreachable(*args):
            raise AssertionError("requests were drawn or a slot context was built")

        monkeypatch.setattr(delivery, "generate_requests", unreachable)
        monkeypatch.setattr(delivery, "build_slot_context", unreachable)
        with pytest.raises(ValueError, match=message):
            sweep_max_isls(Scenario(), [1, 2], modes, epochs, seeds)

    def test_plan_reports_the_epoch_of_its_context(self):
        scenario = Scenario()
        requests = generate_requests(scenario, 1)
        early = run_slot(build_slot_context(scenario, 0.0), requests, 4, "optimized")
        late = run_slot(build_slot_context(scenario, 3000.0), requests, 4, "optimized")
        assert (early.epoch_s, late.epoch_s) == (0.0, 3000.0)
        assert early.average_delay_s != late.average_delay_s

    def test_sweep_rows_carry_the_epoch_of_their_context(self):
        scenario = Scenario()
        epochs = [0.0, 3000.0]
        result = sweep_max_isls(scenario, [2], ["optimized"], epochs, [1, 2])
        assert sorted({row.epoch_s for row in result.rows}) == epochs
        for row in result.rows:
            plan = fresh_slot(scenario, 2, "optimized", row.seed, row.epoch_s)
            assert (row.epoch_s, row.avg_delay_s, row.delivered) == (
                plan.epoch_s,
                plan.average_delay_s,
                plan.delivered,
            )


@pytest.mark.parametrize("mode", ["fully_connected", "best"])
def test_planners_reject_retired_and_unknown_modes(mode):
    snapshot = snapshot_of([edge("S0", AIR, SAT_TO_AIR, 1000.0, 8e8)])
    with pytest.raises(ValueError, match=repr(mode)):
        plan_cached(cached_request({"S0"}), context(snapshot), 4, mode)
    with pytest.raises(ValueError, match=repr(mode)):
        plan_non_cached([], context(snapshot), 4, mode)


class TestUnknownNodes:
    """A request that names a node missing from the snapshot is refused by
    every planner, instead of being left undelivered."""

    def slot(self):
        scenario = Scenario()
        return build_slot_context(scenario, 0.0), generate_requests(scenario, 1)

    @staticmethod
    def refused(request, node):
        return pytest.raises(
            ValueError, match=re.escape(f"request {request.request_id} names unknown node {node!r}")
        )

    def test_unknown_aircraft(self):
        ctx, requests = self.slot()
        requests = [replace(r, aircraft_id=r.aircraft_id + "-x") for r in requests]
        cached = next(r for r in requests if r.cached)
        non_cached = next(r for r in requests if not r.cached)
        with self.refused(cached, cached.aircraft_id):
            plan_cached(cached, ctx, 4)
        with self.refused(non_cached, non_cached.aircraft_id):
            plan_non_cached([non_cached], ctx, 4)
        with self.refused(requests[0], requests[0].aircraft_id):
            run_slot(ctx, requests, 4, "optimized")

    def test_unknown_cache_holder(self):
        ctx, requests = self.slot()
        requests = [
            replace(r, cache_holders=frozenset({"S999-999"})) if r.cached else r for r in requests
        ]
        cached = next(r for r in requests if r.cached)
        with self.refused(cached, "S999-999"):
            plan_cached(cached, ctx, 4)
        with self.refused(cached, "S999-999"):
            run_slot(ctx, requests, 4, "greedy")

    def test_unknown_source_station(self):
        ctx, requests = self.slot()
        requests = [
            r if r.cached else replace(r, source_gs_set=frozenset({"gs-nowhere"}))
            for r in requests
        ]
        non_cached = next(r for r in requests if not r.cached)
        with self.refused(non_cached, "gs-nowhere"):
            plan_non_cached([non_cached], ctx, 0)
        with self.refused(non_cached, "gs-nowhere"):
            run_slot(ctx, requests, 4, "full")
