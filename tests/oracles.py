"""Independent oracles used by the test suite.

These deliberately avoid the library's own search/solve paths: numerical
integration for orbits, bisection for the equal-finish completion time, and
exhaustive enumeration for plan and path choices.
"""

import itertools
import math

import numpy as np

from leoisl.delivery import (
    _MIN_SHARE,
    PER_STREAM,
    GsFlow,
    _delay_s,
    _marginal_gain,
    _RouteOption,
    _share_cap,
    optimal_ratio_delay,
)
from leoisl.links import GROUND_TO_AIR, GROUND_TO_SAT, ISL_LASER, SAT_TO_AIR, SPEED_OF_LIGHT_KM_S
from leoisl.orbits import AIRCRAFT, EARTH_MU_KM3_S2, GROUND_STATION, propagate
from leoisl.routing import _chains, _path, _shortest_paths, _total
from leoisl.scenario import Scenario, TopologySettings
from leoisl.topology import CLASS_ORDER, LinkEdge, Links, TopologySnapshot


def edge(a, b, link_class, distance, capacity):
    """A hand-built link with its ends in id order and a light-time delay."""
    a, b = sorted((a, b))
    return LinkEdge(a, b, link_class, distance, capacity, distance / SPEED_OF_LIGHT_KM_S)


def snapshot_of(edges, nodes=(), epoch_s=0.0):
    """A hand-built snapshot holding ``edges`` (``LinkEdge`` objects, in any
    order) over their ends and any further ``nodes``. Hand-built graphs
    have no geometry, so every position is NaN."""
    nodes = tuple(sorted({*nodes, *(n for e in edges for n in e.key)}))
    index = {node: i for i, node in enumerate(nodes)}
    links = Links(
        np.array([index[e.node_a] for e in edges], dtype=np.intp),
        np.array([index[e.node_b] for e in edges], dtype=np.intp),
        np.array([CLASS_ORDER.index(e.link_class) for e in edges], dtype=np.int8),
        *(np.array([getattr(e, f) for e in edges], dtype=float)
          for f in ("distance_km", "capacity_bps", "delay_s")),
    )
    return TopologySnapshot(epoch_s, nodes, np.full((len(nodes), 3), np.nan), links)


def scenario_on(config, ground=(), **topology):
    """A scenario on the shell ``config`` whose stations and aircraft are the
    ``ground`` nodes and whose topology settings are ``topology``; every
    other field keeps its default."""
    return Scenario(
        config,
        ground_stations=tuple(node for node in ground if node.kind == GROUND_STATION),
        aircraft=tuple(node for node in ground if node.kind == AIRCRAFT),
        topology=TopologySettings(**topology),
    )


def full_dist(graph, roots):
    """Distance labels of ``roots`` to every node: each root needs them all."""
    n, roots = len(graph.nodes), np.asarray(roots, dtype=np.intp)
    rows, ends = np.divmod(np.arange(len(roots) * n), max(1, n))
    return _shortest_paths(graph, roots, rows, ends)


def gs_flow(
    flow_id,
    bits,
    base_prop_s,
    fixed_cap_bps,
    feeder_params,
    feeder_distance_km,
    store_and_forward=False,
):
    """A flow over a hand-built route option: a feeder of ``feeder_params``
    over ``feeder_distance_km`` in series with one fixed hop of
    ``fixed_cap_bps`` (none when infinite), cut-through unless
    ``store_and_forward``."""
    option = _RouteOption(
        gs="gs",
        entry=None,
        serving=None,
        nodes=("gs", "air"),
        activated_edge=None,
        base_prop_s=base_prop_s,
        fixed_cap_bps=fixed_cap_bps,
        fixed_inv_rate=1.0 / fixed_cap_bps if store_and_forward else 0.0,
        feeder_params=feeder_params,
        feeder_distance_km=feeder_distance_km,
        store_and_forward=store_and_forward,
    )
    return GsFlow(flow_id, bits, option)


def nested_bisection_gs_shares(flows, *, equal=False):
    """``optimize_gs_shares`` as three nested 60-step bisections that price
    every marginal gain afresh: the outer one on the common marginal value,
    and per flow one on its share at that value (its cap from ``_share_cap``)."""

    def bisect(below, lo, hi):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if below(mid):
                lo = mid
            else:
                hi = mid
        return lo, hi

    if not flows:
        return {}
    n = len(flows)
    if equal:
        return {flow.flow_id: 1.0 / n for flow in flows}
    caps = [_share_cap(flow) for flow in flows]
    total_cap = _total(caps)
    if total_cap <= 1.0:
        slack = (1.0 - total_cap) / n
        return {flow.flow_id: cap + slack for flow, cap in zip(flows, caps)}

    def share_at(flow, lam, cap):
        if _marginal_gain(flow, cap) >= lam:
            return cap
        lo, hi = bisect(lambda share: _marginal_gain(flow, share) >= lam, _MIN_SHARE, cap)
        return 0.5 * (lo + hi)

    def shares_at(lam):
        return [share_at(flow, lam, cap) for flow, cap in zip(flows, caps)]

    def oversubscribed(lam):
        return _total(shares_at(lam)) > 1.0

    hi = 1.0
    while oversubscribed(hi):
        hi *= 4.0
    final = shares_at(bisect(oversubscribed, 0.0, hi)[1])
    return {flow.flow_id: share for flow, share in zip(flows, final)}


def rk4_two_body(r0, v0, dt, steps):
    """Fixed-step RK4 integration of the point-mass central force."""

    def acceleration(r):
        return -EARTH_MU_KM3_S2 * r / np.linalg.norm(r) ** 3

    r = np.array(r0, dtype=float)
    v = np.array(v0, dtype=float)
    trajectory = [(r.copy(), v.copy())]
    for _ in range(steps):
        k1r, k1v = v, acceleration(r)
        k2r, k2v = v + 0.5 * dt * k1v, acceleration(r + 0.5 * dt * k1r)
        k3r, k3v = v + 0.5 * dt * k2v, acceleration(r + 0.5 * dt * k2r)
        k4r, k4v = v + dt * k3v, acceleration(r + dt * k3r)
        r = r + dt / 6.0 * (k1r + 2 * k2r + 2 * k3r + k4r)
        v = v + dt / 6.0 * (k1v + 2 * k2v + 2 * k3v + k4v)
        trajectory.append((r.copy(), v.copy()))
    return trajectory


def measured_period_s(config, dt=1.0):
    """One revolution measured on the integrated trajectory."""
    state = propagate(config, 0.0)[0]
    steps = int(1.05 * config.orbital_period_s / dt)
    trajectory = rk4_two_body(state.position_km, state.velocity_km_s, dt, steps)
    r0 = trajectory[0][0]
    x_axis = r0 / np.linalg.norm(r0)
    normal = np.cross(r0, trajectory[0][1])
    normal /= np.linalg.norm(normal)
    y_axis = np.cross(normal, x_axis)
    previous = 0.0
    total = 0.0
    for i, (r, _) in enumerate(trajectory):
        angle = math.atan2(float(r @ y_axis), float(r @ x_axis)) % (2 * math.pi)
        if i == 0:
            previous = angle
            continue
        delta = (angle - previous) % (2 * math.pi)
        if total + delta >= 2 * math.pi:
            return dt * (i - 1) + dt * (2 * math.pi - total) / delta
        total += delta
        previous = angle
    raise AssertionError("no full revolution inside the integration window")


def bisection_delay_oracle(sources, bits):
    """Solve the equal-finish completion time purely by bisection."""
    usable = [(p, r) for p, r in sources if r > 0 and not math.isinf(p)]
    if not usable:
        return math.inf
    props = [p for p, _ in usable]
    rates = [r for _, r in usable]
    if bits == 0:
        return min(props)

    def shipped(deadline):
        return sum(max(0.0, deadline - p) * r for p, r in usable)

    lo = min(props)
    hi = max(props) + bits / sum(rates) + 1.0
    while shipped(hi) < bits:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if shipped(mid) < bits:
            lo = mid
        else:
            hi = mid
    return hi


def feasible_split_delay(sources, bits, ratios):
    """Completion time of an arbitrary ratio vector (max over active streams)."""
    worst = 0.0
    for (prop, rate), ratio in zip(sources, ratios):
        if ratio <= 0:
            continue
        if rate <= 0:
            return math.inf
        worst = max(worst, prop + ratio * bits / rate)
    return worst


def isl_degrees(snapshot):
    """Laser links at each node of ``snapshot``, by node id, counted edge by edge."""
    degrees = dict.fromkeys(snapshot.nodes, 0)
    for edge in snapshot.edges:
        if edge.link_class == ISL_LASER:
            degrees[edge.node_a] += 1
            degrees[edge.node_b] += 1
    return degrees


def neighbor_lists(snapshot):
    """Every node's ``(neighbor, edge)`` pairs, sorted by neighbor id."""
    neighbors = {node: [] for node in snapshot.nodes}
    for edge in snapshot.edges:
        neighbors[edge.node_a].append((edge.node_b, edge))
        neighbors[edge.node_b].append((edge.node_a, edge))
    for pairs in neighbors.values():
        pairs.sort(key=lambda item: item[0])
    return neighbors


def enumerate_cached_plan_delay(
    request, snapshot, max_isls, air_sharing=PER_STREAM, store_and_forward=False
):
    """Best cached-delivery delay over every (serving, holder subset) choice.

    A holder stream runs at the slower of its laser link and its air share
    (cut-through), or pays both transmission times (store-and-forward).
    """
    air_edges = sorted(
        (
            e
            for e in snapshot.edges
            if e.link_class == SAT_TO_AIR and request.aircraft_id in e.key
        ),
        key=lambda e: (e.distance_km, e.other(request.aircraft_id)),
    )
    laser = {e.key: e for e in snapshot.edges if e.link_class == ISL_LASER}
    best = math.inf
    bits = float(request.total_bits)
    for air_edge in air_edges:
        serving = air_edge.other(request.aircraft_id)
        holds = serving in request.cache_holders
        cands = []
        for holder in sorted(request.cache_holders):
            if holder == serving:
                continue
            link = laser.get(tuple(sorted((holder, serving))))
            if link is not None:
                cands.append((link.delay_s, holder, link))
        cands.sort(key=lambda c: (c[0], c[1]))
        for size in range(0, min(max_isls, len(cands)) + 1):
            for combo in itertools.combinations(range(len(cands)), size):
                m = len(combo) + (1 if holds else 0)
                if m == 0:
                    continue
                share = (
                    air_edge.capacity_bps
                    if air_sharing == PER_STREAM
                    else air_edge.capacity_bps / m
                )
                streams = []
                if holds:
                    streams.append((air_edge.delay_s, share))
                for i in combo:
                    prop, _, link = cands[i]
                    if store_and_forward:
                        rate = 1.0 / (1.0 / link.capacity_bps + 1.0 / share)
                    else:
                        rate = min(link.capacity_bps, share)
                    streams.append((prop + air_edge.delay_s, rate))
                delay, _ = optimal_ratio_delay(streams, bits)
                best = min(best, delay)
    return best


def exhaustive_route_options(ctx, request, zero_budget):
    """Every chain a non-cached file can take to its aircraft, each built in
    full: the route-option builder the planner used before it bounded its
    options. The aircraft's serving satellites are labelled in one batch and
    every relay is read back from its serving satellite's labels in one
    ``_chains`` call. Options run station by station, a direct feeder first,
    then the feeders nearest first, each with the serving satellites nearest
    first; with ``zero_budget``, only relays whose entry is the serving
    satellite."""
    aircraft = request.aircraft_id
    graph = ctx._isl
    air_edges = ctx.edges_at(SAT_TO_AIR, aircraft)
    roots = np.array([graph.index[edge.other(aircraft)] for edge in air_edges], dtype=np.intp)
    direct_links = {edge.other(aircraft): edge for edge in ctx.edges_at(GROUND_TO_AIR, aircraft)}
    chains = []  # (station, feeder, air link or None, root row, entry), in option order
    for gs in sorted(request.source_gs_set):
        if gs in direct_links:
            chains.append((gs, direct_links[gs], None, -1, -1))
        for feeder in ctx.edges_at(GROUND_TO_SAT, gs):
            entry = graph.index[feeder.other(gs)]
            for k, air_edge in enumerate(air_edges):
                if entry == roots[k] or not zero_budget:
                    chains.append((gs, feeder, air_edge, k, entry))
    wanted = [(k, entry) for _, _, air, k, entry in chains if air is not None and entry != roots[k]]
    rows, ends = np.array(wanted, dtype=np.intp).reshape(-1, 2).T
    read = iter(_chains(graph, full_dist(graph, roots), roots, rows, ends) if wanted else ())
    options = []
    for gs, feeder, air_edge, k, entry in chains:
        relay, caps, prop_s = (), (), feeder.delay_s
        if air_edge is not None:
            found = ([entry], []) if entry == roots[k] else next(read)
            if found is None:
                continue
            chain, links = found
            route = _path(graph, chain[::-1], links[::-1])
            relay, caps = route.nodes, route.edge_capacities_bps + (air_edge.capacity_bps,)
            prop_s = feeder.delay_s + route.total_propagation_delay_s + air_edge.delay_s
        options.append(
            _RouteOption(
                gs=gs,
                entry=relay[0] if relay else None,
                serving=relay[-1] if relay else None,
                nodes=(gs, *relay, aircraft),
                activated_edge=tuple(sorted(relay[-2:])) if len(relay) > 1 else None,
                base_prop_s=prop_s,
                fixed_cap_bps=min(caps, default=math.inf),
                fixed_inv_rate=_total(1.0 / c for c in caps),
                feeder_params=ctx.link_params[feeder.link_class],
                feeder_distance_km=feeder.distance_km,
                store_and_forward=ctx.store_and_forward,
            )
        )
    return options


def exhaustive_standalone_pick(options, bits):
    """The option of least full-share delay, ties by (station, entry,
    serving), by scanning every option; None without options."""
    return min(
        options,
        key=lambda o: (
            _delay_s(o.base_prop_s, bits, o.full_rate_bps), o.gs, o.entry or "", o.serving or ""
        ),
        default=None,
    )


def exhaustive_greedy_pick(ctx, aircraft, options):
    """The best-rate option at the nearest serving satellite that has any,
    by scanning every option; with none, the best-rate option of all."""

    def rate_key(option):
        return (-option.full_rate_bps, option.base_prop_s, option.gs, option.entry or "")

    for air_edge in ctx.edges_at(SAT_TO_AIR, aircraft):
        pool = [o for o in options if o.serving == air_edge.other(aircraft)]
        if pool:
            return min(pool, key=rate_key)
    return min(options, key=rate_key, default=None)
