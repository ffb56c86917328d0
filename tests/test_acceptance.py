"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including the measured values behind each assertion.
"""

import itertools
import math
import time

import numpy as np
import pytest

from leoisl import cli
from leoisl.delivery import (
    FileRequest,
    SlotContext,
    optimal_ratio_delay,
    optimize_gs_shares,
    plan_cached,
    sweep_max_isls,
)
from leoisl.links import (
    GROUND_TO_SAT,
    ISL_LASER,
    SAT_TO_AIR,
    default_link_params,
)
from leoisl.orbits import ConstellationConfig, propagate, visible
from leoisl.routing import min_hop_path, sdp_mhp_fraction, shortest_distance_path
from leoisl.scenario import Scenario, TopologySettings
from leoisl.topology import build_dynamic_topology

from oracles import (
    bisection_delay_oracle,
    edge,
    enumerate_cached_plan_delay,
    feasible_split_delay,
    gs_flow,
    isl_degrees,
    measured_period_s,
    neighbor_lists,
    scenario_on,
    snapshot_of,
)


def test_criterion_1_delay_sweep_trend():
    """Degree sweep: monotone optimized curve, convergence, dominance, <60 s."""
    scenario = Scenario()
    seeds = list(range(10))
    modes = ["optimized", "greedy", "equal", "full"]
    started = time.monotonic()
    result = sweep_max_isls(scenario, range(1, 9), modes, [0.0], seeds)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"

    cell = {(r.max_isls, r.mode, r.seed): r.avg_delay_s for r in result.rows}
    means = {
        (k, mode): result.mean_delay(k, mode)
        for k in range(1, 9)
        for mode in modes
    }
    # (a) optimized mean delay is non-increasing in the budget.
    for k in range(1, 8):
        assert means[(k + 1, "optimized")] <= means[(k, "optimized")] + 1e-12
    # (b) converges to the fully connected bound at the top of the sweep.
    for seed in seeds:
        assert abs(cell[(8, "optimized", seed)] - cell[(8, "full", seed)]) <= 1e-9
    # (c) optimized dominates both baselines on every seed and budget.
    for seed in seeds:
        for k in range(1, 9):
            assert cell[(k, "optimized", seed)] <= cell[(k, "greedy", seed)] + 1e-12
            assert cell[(k, "optimized", seed)] <= cell[(k, "equal", seed)] + 1e-12
            assert cell[(k, "full", seed)] <= cell[(k, "optimized", seed)] + 1e-12
    span = means[(1, "optimized")] - means[(8, "optimized")]
    print(
        f"PASS criterion 1: sweep in {elapsed:.1f}s, optimized mean delay "
        f"{means[(1, 'optimized')]:.6f}s @k=1 -> {means[(8, 'optimized')]:.6f}s @k=8 "
        f"(drop {span:.2e}s), converged to full bound"
    )


def test_criterion_2_orbital_correctness():
    """Integrated period within 1 s of 6298 s; in-plane spacing frozen."""
    config = ConstellationConfig()
    period = measured_period_s(config)
    assert abs(period - 6298.0) <= 1.0

    worst = 0.0
    pairs = [((0, 0), (0, 1)), ((2, 4), (2, 13))]
    for id_a, id_b in pairs:
        distances = []
        for epoch in np.linspace(0.0, config.orbital_period_s, 60):
            positions = propagate(config, float(epoch)).position_km
            a, b = (positions[plane * config.sats_per_plane + slot] for plane, slot in (id_a, id_b))
            distances.append(float(np.linalg.norm(a - b)))
        worst = max(worst, (max(distances) - min(distances)) / max(distances))
    assert worst < 1e-6
    print(
        f"PASS criterion 2: integrated period {period:.2f}s (target 6298 +/- 1), "
        f"intra-plane spacing varies by {worst:.2e} relative"
    )


def test_criterion_3_routing_oracle_equivalence():
    """SDP/MHP equal exhaustive enumeration on 100 random small graphs."""
    rng = np.random.default_rng(3)
    graphs = comparisons = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        nodes = [f"n{i}" for i in range(n)]
        edges = []
        for a, b in itertools.combinations(nodes, 2):
            if rng.random() < 0.45:
                edges.append(edge(a, b, ISL_LASER, float(rng.uniform(0.1, 10.0)), 1e10))
        snapshot = snapshot_of(edges, nodes)
        adjacency = neighbor_lists(snapshot)

        def all_paths(src, dst):
            found = []

            def walk(node, seen, dist, hops):
                if node == dst:
                    found.append((tuple(seen), dist, hops))
                    return
                for neighbor, link in adjacency.get(node, ()):
                    if neighbor in seen:
                        continue
                    seen.append(neighbor)
                    walk(neighbor, seen, dist + link.distance_km, hops + 1)
                    seen.pop()

            if src in adjacency:
                walk(src, [src], 0.0, 0)
            return found

        for src, dst in itertools.combinations(nodes, 2):
            if rng.random() > 0.35:  # subsample pairs to bound the runtime
                continue
            paths = all_paths(src, dst)
            sdp = shortest_distance_path(snapshot, src, dst)
            mhp = min_hop_path(snapshot, src, dst)
            comparisons += 1
            if not paths:
                assert sdp is None and mhp is None
                continue
            best_sdp = min(paths, key=lambda p: (p[1], p[2], p[0]))
            best_mhp = min(paths, key=lambda p: (p[2], p[0]))
            assert sdp.hop_count == best_sdp[2]
            assert sdp.total_distance_km == pytest.approx(best_sdp[1], abs=1e-9)
            assert mhp.hop_count == best_mhp[2]
        graphs += 1
    assert graphs == 100
    print(
        f"PASS criterion 3: SDP/MHP matched exhaustive enumeration on "
        f"{graphs} graphs ({comparisons} pairs)"
    )


def test_criterion_4_sdp_subset_of_mhp():
    """On the 53-degree grid, nearly every SDP is also a minimum-hop path."""
    config = ConstellationConfig()
    period = config.orbital_period_s
    epochs = [i * period / 10.0 for i in range(10)]
    scenario = Scenario(config, topology=TopologySettings("grid"))
    result = sdp_mhp_fraction(scenario, 200, epochs, rng_seed=4)
    assert result.pairs_checked == 2000
    assert result.fraction >= 0.95
    print(
        f"PASS criterion 4: SDP-in-MHP fraction {result.fraction:.4f} over "
        f"{result.pairs_checked} sampled pairs (gate 0.95)"
    )


def test_criterion_5_water_filling_correctness():
    """Closed-form completion time against bisection over 1000 instances."""
    rng = np.random.default_rng(5)
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        sources = [
            (float(rng.uniform(0.0, 0.05)), float(10 ** rng.uniform(6, 10)))
            for _ in range(n)
        ]
        bits = float(10 ** rng.uniform(3, 7))
        delay, ratios = optimal_ratio_delay(sources, bits)
        assert abs(delay - bisection_delay_oracle(sources, bits)) <= 1e-9
        assert abs(sum(ratios) - 1.0) <= 1e-12
        for (prop, rate), ratio in zip(sources, ratios):
            if ratio > 0:
                assert abs(prop + ratio * bits / rate - delay) <= 1e-9
        for _ in range(100):
            raw = rng.random(n)
            feasible = (raw / raw.sum()).tolist()
            assert delay <= feasible_split_delay(sources, bits, feasible) + 1e-9
    print(
        "PASS criterion 5: 1000 instances matched the bisection oracle within "
        "1e-9; ratios sum to 1; no random feasible split beat the optimum"
    )


def test_criterion_6_bandwidth_allocation_optimality():
    """Share optimizer ties or beats a 0.01-step grid search per station."""
    rng = np.random.default_rng(6)
    params = default_link_params()[GROUND_TO_SAT]
    checked = 0
    for _ in range(18):
        n = int(rng.integers(1, 4))
        flows = []
        for i in range(n):
            fixed_cap = (
                math.inf if rng.random() < 0.3 else float(rng.uniform(2e8, 2e9))
            )
            flows.append(
                gs_flow(
                    flow_id=f"f{i}",
                    bits=float(rng.integers(10, 3000)) * 1080.0,
                    base_prop_s=float(rng.uniform(0.005, 0.04)),
                    fixed_cap_bps=fixed_cap,
                    feeder_params=params,
                    feeder_distance_km=float(rng.uniform(600.0, 2600.0)),
                )
            )
        shares = optimize_gs_shares(flows)
        assert sum(shares.values()) <= 1.0 + 1e-12
        total = sum(flow.delay_s(shares[flow.flow_id]) for flow in flows)

        tables = [
            [flow.delay_s(i / 100.0) for i in range(1, 100)] for flow in flows
        ]
        grid_best = math.inf
        if n == 1:
            grid_best = min(tables[0])
        elif n == 2:
            for a in range(1, 100):
                for b in range(1, 101 - a):
                    if b > 99:
                        continue
                    grid_best = min(grid_best, tables[0][a - 1] + tables[1][b - 1])
        else:
            for a in range(1, 99):
                row_a = tables[0][a - 1]
                for b in range(1, 100 - a):
                    partial = row_a + tables[1][b - 1]
                    if partial >= grid_best:
                        continue
                    c_max = min(99, 100 - a - b)
                    best_c = min(tables[2][: c_max])
                    grid_best = min(grid_best, partial + best_c)
        assert total <= grid_best + 1e-6
        checked += 1
    print(
        f"PASS criterion 6: optimizer beat or tied the 0.01-step grid on "
        f"{checked} station instances (tolerance 1e-6 s)"
    )


def test_criterion_7_small_plan_optimality():
    """Optimized cached plans match exhaustive enumeration exactly."""
    rng = np.random.default_rng(7)
    evaluated = 0
    for _ in range(200):
        serving_count = int(rng.integers(1, 5))
        edges = [
            edge(
                f"S{i}",
                "air-x",
                SAT_TO_AIR,
                float(rng.uniform(990.0, 2400.0)),
                float(rng.uniform(4e8, 9e8)),
            )
            for i in range(serving_count)
        ]
        holder_count = int(rng.integers(0, 4))
        holders = set()
        for j in range(holder_count):
            if rng.random() < 0.3:
                holders.add(f"S{int(rng.integers(0, serving_count))}")
                continue
            holder = f"H{j}"
            holders.add(holder)
            for i in range(serving_count):
                if rng.random() < 0.75:
                    edges.append(
                        edge(
                            holder,
                            f"S{i}",
                            ISL_LASER,
                            float(rng.uniform(300.0, 5000.0)),
                            1e10,
                        )
                    )
        if not holders:
            holders = {f"S{int(rng.integers(0, serving_count))}"}
        snapshot = snapshot_of(edges, holders)
        request = FileRequest(
            request_id="req",
            aircraft_id="air-x",
            file_class=int(rng.integers(0, 4)),
            num_packets=int(rng.integers(10, 3000)),
            cached=True,
            packet_bits=1080,
            cache_holders=frozenset(holders),
        )
        max_isls = int(rng.integers(1, 4))
        plan = plan_cached(request, SlotContext(snapshot, Scenario()), max_isls)
        oracle = enumerate_cached_plan_delay(request, snapshot, max_isls)
        if not plan.delivered:
            assert math.isinf(oracle)
            continue
        assert plan.delay_s == oracle
        evaluated += 1
    assert evaluated > 150
    print(
        f"PASS criterion 7: optimized plan equals exhaustive enumeration on "
        f"{evaluated} deliverable instances (exact equality)"
    )


def test_criterion_8_structural_invariants(tmp_path):
    """Grid degrees, dynamic caps, visibility, nesting, CSV determinism."""
    from leoisl.topology import build_grid_topology
    from leoisl.orbits import sat_key

    config = ConstellationConfig()
    positions = propagate(config, 0.0).position_km
    grid = build_grid_topology(positions, scenario_on(config), 0.0)
    grazing = TopologySettings().grazing_altitude_km
    where = dict(zip(grid.nodes, grid.positions))
    degrees = isl_degrees(grid)
    assert all(d <= 4 for d in degrees.values())
    full = 0
    for plane in range(config.num_planes):
        for slot in range(config.sats_per_plane):
            here = sat_key(plane, slot)
            neighbors = [
                sat_key(plane, (slot + 1) % 20),
                sat_key(plane, (slot - 1) % 20),
                sat_key((plane + 1) % 6, slot),
                sat_key((plane - 1) % 6, slot),
            ]
            if all(visible(where[here], where[n], grazing) for n in neighbors):
                assert degrees[here] == 4
                full += 1
    assert full > 0

    previous = set()
    for k in range(1, 9):
        dynamic = build_dynamic_topology(positions, scenario_on(config, max_isls=k), 0.0)
        degs = isl_degrees(dynamic)
        assert max(degs.values()) <= k
        where = dict(zip(dynamic.nodes, dynamic.positions))
        for link in dynamic.edges:
            assert visible(where[link.node_a], where[link.node_b], grazing)
        current = {e.key for e in dynamic.edges}
        assert previous <= current
        previous = current

    args = [
        "ifc-sweep",
        "--isls",
        "1..2",
        "--modes",
        "optimized,greedy",
        "--seeds",
        "2",
    ]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert cli.main(args + ["--output", str(first)]) == 0
    assert cli.main(args + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    topo_a, topo_b = tmp_path / "ta.csv", tmp_path / "tb.csv"
    assert cli.main(["topology", "--mode", "grid", "--output", str(topo_a)]) == 0
    assert cli.main(["topology", "--mode", "grid", "--output", str(topo_b)]) == 0
    assert topo_a.read_bytes() == topo_b.read_bytes()
    print(
        f"PASS criterion 8: grid degrees ({full} satellites at full degree 4), "
        "dynamic caps, edge visibility, nested budgets, and byte-identical CSV"
    )
