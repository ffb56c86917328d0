"""Content delivery to aircraft over the satellite mesh.

Cached files stream in parallel from cache-holding satellites into a serving
satellite and down its space-to-air link; the serving satellite may activate
at most ``max_isls`` holder links, which is the degree budget the whole
study sweeps. Non-cached files travel one chain each: ground station feeder
(with a bandwidth allocation factor), laser relay path to the serving
satellite, then the space-to-air hop; stations split their feeder band
across the non-cached flows they carry.

Download ratios are eliminated in closed form: at the optimum every active
stream finishes simultaneously, so the completion time solves
``sum_c max(0, D - prop_c) * rate_c = bits`` (water-filling over streams).
Relay hops between the entry and serving satellites ride the mesh and do
not count against the degree budget; only links terminating at the serving
satellite do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from . import orbits
from .links import (
    GROUND_TO_AIR,
    GROUND_TO_SAT,
    ISL_LASER,
    SAT_TO_AIR,
    LinkBudgetParams,
    rf_terms,
)
from .routing import Path, _chain, _graph, _path, _shortest_paths
from .topology import DYNAMIC_MODE, LinkEdge, TopologySnapshot, build_snapshot

if TYPE_CHECKING:  # pragma: no cover
    from .scenario import Scenario

PER_STREAM = "per_stream"
EQUAL_SPLIT = "equal_split"
AIR_SHARING_MODES = (PER_STREAM, EQUAL_SPLIT)

CUT_THROUGH = "cut_through"
STORE_AND_FORWARD = "store_and_forward"
DELAY_MODELS = (CUT_THROUGH, STORE_AND_FORWARD)

# The planning schemes the study compares: optimized association and
# feeder bandwidth, greedy (nearest-serving) association, equal feeder
# shares, and the fully connected bound with no degree budget.
MODE_OPTIMIZED = "optimized"
MODE_GREEDY = "greedy"
MODE_EQUAL = "equal"
MODE_FULL = "full"
SWEEP_MODES = (MODE_OPTIMIZED, MODE_GREEDY, MODE_EQUAL, MODE_FULL)

_MIN_SHARE = 1e-9

SWEEP_CSV_HEADER = (
    "max_isls",
    "mode",
    "seed",
    "epoch_s",
    "avg_delay_s",
    "delivered",
    "undelivered",
)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FileRequest:
    """One aircraft's file request for the current time slot."""

    request_id: str
    aircraft_id: str
    file_class: int
    num_packets: int
    cached: bool
    packet_bits: int = 1080
    cache_holders: frozenset[str] = frozenset()
    source_gs_set: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.num_packets <= 0:
            raise ValueError(f"num_packets must be > 0, got {self.num_packets}")
        if self.packet_bits <= 0:
            raise ValueError(f"packet_bits must be > 0, got {self.packet_bits}")

    @property
    def total_bits(self) -> int:
        return self.num_packets * self.packet_bits


@dataclass(frozen=True)
class StreamPlan:
    """One parallel download stream and its share of the file."""

    source: str
    nodes: tuple[str, ...]
    prop_delay_s: float
    rate_bps: float
    ratio: float


@dataclass(frozen=True)
class RequestPlan:
    """Delivery decision for a single request."""

    request: FileRequest
    delivered: bool
    delay_s: float
    serving_satellite: str | None = None
    gs_id: str | None = None
    bandwidth_share: float | None = None
    streams: tuple[StreamPlan, ...] = ()
    activated_isl_edges: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class DeliveryPlan:
    """All per-request decisions of one slot plus the slot aggregates.

    ``average_delay_s`` is None when the slot delivered nothing.
    """

    epoch_s: float
    max_isls: int
    mode: str
    request_plans: tuple[RequestPlan, ...]
    average_delay_s: float | None
    delivered: int
    undelivered: int

    def gs_bandwidth_shares(self) -> dict[str, dict[str, float]]:
        shares: dict[str, dict[str, float]] = {}
        for plan in self.request_plans:
            if plan.gs_id is not None and plan.bandwidth_share is not None:
                shares.setdefault(plan.gs_id, {})[plan.request.request_id] = (
                    plan.bandwidth_share
                )
        return shares


# ---------------------------------------------------------------------------
# Delay primitives
# ---------------------------------------------------------------------------


def optimal_ratio_delay(
    sources: Sequence[tuple[float, float]], total_bits: float
) -> tuple[float, list[float]]:
    """Minimum completion time over parallel sources and the split achieving it.

    ``sources`` is a list of (propagation delay, rate). The returned D is the
    unique solution of ``sum_c max(0, D - prop_c) * rate_c = total_bits``;
    ratios are ``(D - prop_c) * rate_c / total_bits`` clipped at zero, so all
    active sources finish together at D. Sources with non-positive rate never
    activate; with no usable source the delay is infinite.
    """
    if total_bits < 0:
        raise ValueError(f"total_bits must be >= 0, got {total_bits}")
    ratios = [0.0] * len(sources)
    usable = [
        (prop, rate, idx)
        for idx, (prop, rate) in enumerate(sources)
        if rate > 0 and not math.isinf(prop)
    ]
    if not usable:
        return math.inf, ratios
    usable.sort(key=lambda item: (item[0], item[2]))
    if total_bits == 0:
        ratios[usable[0][2]] = 1.0
        return usable[0][0], ratios
    rate_sum = 0.0
    weighted_prop = 0.0
    delay = math.inf
    active = 0
    for j, (prop, rate, _) in enumerate(usable):
        rate_sum += rate
        weighted_prop += prop * rate
        candidate = (total_bits + weighted_prop) / rate_sum
        if j + 1 == len(usable) or candidate <= usable[j + 1][0]:
            delay = candidate
            active = j + 1
            break
    for prop, rate, idx in usable[:active]:
        ratios[idx] = max(0.0, (delay - prop) * rate / total_bits)
    # The active set satisfies sum((D - p) * r) == bits analytically; divide
    # out the floating-point residue so the ratios sum to exactly one.
    total = sum(ratios)
    if total > 0:
        ratios = [r / total for r in ratios]
    return delay, ratios


# ---------------------------------------------------------------------------
# Ground-station bandwidth allocation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GsFlow:
    """One non-cached flow drawing a share of its ground station's band.

    ``fixed_cap_bps`` is the bottleneck of the share-independent hops
    (infinite when the feeder is the only link); ``fixed_inv_rate`` is the
    summed inverse rate of those hops for the store-and-forward model.
    The feeder's received and noise power are read once per flow, from the
    ``links.rf_terms`` memo.
    """

    flow_id: str
    bits: float
    base_prop_s: float
    fixed_cap_bps: float
    feeder_params: LinkBudgetParams
    feeder_distance_km: float
    store_and_forward: bool = False
    fixed_inv_rate: float = 0.0

    @cached_property
    def _feeder_terms(self) -> tuple[float, float]:
        return rf_terms(self.feeder_params, self.feeder_distance_km)

    def feeder_capacity_bps(self, share: float) -> float:
        # capacity_bps's arithmetic, in its order, on the cached terms.
        rx_w, noise_w = self._feeder_terms
        bw = self.feeder_params.bandwidth_hz * share
        return bw * math.log2(1.0 + rx_w / (noise_w * share))

    def rate_bps(self, share: float) -> float:
        cap = self.feeder_capacity_bps(share)
        if self.store_and_forward:
            return 1.0 / (1.0 / cap + self.fixed_inv_rate)
        return min(cap, self.fixed_cap_bps)

    def delay_s(self, share: float) -> float:
        return _delay_s(self.base_prop_s, self.bits, self.rate_bps(share))


def _delay_s(prop_s: float, bits: float, rate_bps: float) -> float:
    return math.inf if rate_bps <= 0 else prop_s + bits / rate_bps


def _marginal_gain(flow: GsFlow, share: float) -> float:
    """-d(delay)/d(share): how much one more unit of share still buys."""
    cap = flow.feeder_capacity_bps(share)
    # d/dshare of share*B*log2(1 + S/share), S the full-band SNR.
    rx_w, noise_w = flow._feeder_terms
    s_full = rx_w / noise_w
    slope = (flow.feeder_params.bandwidth_hz / math.log(2.0)) * (
        math.log1p(s_full / share) - s_full / (share + s_full)
    )
    return flow.bits * slope / (cap * cap)


def _share_cap(flow: GsFlow) -> float:
    """Smallest share beyond which more feeder bandwidth cannot help."""
    if flow.store_and_forward or math.isinf(flow.fixed_cap_bps):
        return 1.0
    if flow.feeder_capacity_bps(1.0) <= flow.fixed_cap_bps:
        return 1.0
    lo, hi = _MIN_SHARE, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if flow.feeder_capacity_bps(mid) < flow.fixed_cap_bps:
            lo = mid
        else:
            hi = mid
    return hi


def _share_at_marginal(flow: GsFlow, lam: float, cap: float) -> float:
    if _marginal_gain(flow, cap) >= lam:
        return cap
    lo, hi = _MIN_SHARE, cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _marginal_gain(flow, mid) >= lam:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimize_gs_shares(
    flows: Sequence[GsFlow], *, equal: bool = False
) -> dict[str, float]:
    """Feeder shares minimizing the summed delay of one station's flows.

    Subject to the shares summing to at most one. Marginal delay reduction
    is decreasing in the share for every flow, so the optimum equalizes the
    marginals (found by bisection on the common marginal value); flows whose
    delay already hit the downstream bottleneck are capped at the share that
    reaches it. Leftover band is spread evenly, which changes no delay.
    """
    if not flows:
        return {}
    n = len(flows)
    if equal:
        return {flow.flow_id: 1.0 / n for flow in flows}
    caps = [_share_cap(flow) for flow in flows]
    total_cap = sum(caps)
    if total_cap <= 1.0:
        slack = (1.0 - total_cap) / n
        return {flow.flow_id: cap + slack for flow, cap in zip(flows, caps)}

    def shares_at(lam: float) -> list[float]:
        return [
            _share_at_marginal(flow, lam, cap) for flow, cap in zip(flows, caps)
        ]

    hi = 1.0
    while sum(shares_at(hi)) > 1.0:
        hi *= 4.0
    lo = 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if sum(shares_at(mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    final = shares_at(hi)
    return {flow.flow_id: share for flow, share in zip(flows, final)}


# ---------------------------------------------------------------------------
# Slot context: indexed view of one epoch's candidate snapshot
# ---------------------------------------------------------------------------


class SlotContext:
    """Per-epoch lookups over the candidate snapshot (mesh plus ground links).

    ``scenario`` must be the scenario the snapshot was built from. The
    context plans for that scenario alone: it keeps its link budgets, which
    feeder rates are read from, and its delivery settings (air-link sharing
    and delay model). Laser routes are read back from distance labels
    rooted at serving satellites; a file's route options label all of its
    aircraft's serving satellites in one batch (``search``). The labels are
    cached for the slot, and so are the planners' holder candidates, route
    options and plans, each under a key holding everything it reads, so
    that a sweep's cells share them.
    """

    def __init__(self, snapshot: TopologySnapshot, scenario: "Scenario"):
        self.snapshot = snapshot
        self.link_params = scenario.link_params
        self.per_stream = scenario.ifc.air_link_sharing == PER_STREAM
        self.store_and_forward = scenario.ifc.delay_model == STORE_AND_FORWARD
        self._by_class_by_node: dict[str, dict[str, list[LinkEdge]]] = {}
        for edge in snapshot.edges:
            if edge.link_class == ISL_LASER:
                continue
            per_node = self._by_class_by_node.setdefault(edge.link_class, {})
            per_node.setdefault(edge.node_a, []).append(edge)
            per_node.setdefault(edge.node_b, []).append(edge)
        for per_node in self._by_class_by_node.values():
            for node, edges in per_node.items():
                edges.sort(key=lambda e: (e.distance_km, e.other(node)))
        self._isl = _graph(snapshot, snapshot.isl_edges())
        self._searches: dict[int, list[float]] = {}
        self._servings: dict[tuple[str, frozenset[str]], tuple[_Serving, ...]] = {}
        self._cached_plans: dict[tuple, RequestPlan] = {}
        self._route_options: dict[tuple, tuple[_RouteOption, ...]] = {}
        self._non_cached_plans: dict[tuple, tuple[RequestPlan, ...]] = {}

    def edges_at(self, link_class: str, node: str) -> list[LinkEdge]:
        """Ground links of ``link_class`` at ``node``, nearest first, ties by
        the far end's id. Laser links are not indexed here: ``edge_between``
        and ``isl_route`` read them from the mesh graph."""
        return self._by_class_by_node.get(link_class, {}).get(node, [])

    def edge_between(self, link_class: str, a: str, b: str) -> LinkEdge | None:
        if link_class == ISL_LASER:
            return self._isl.edges.get((a, b) if a < b else (b, a))
        for edge in self.edges_at(link_class, a):
            if edge.other(a) == b:
                return edge
        return None

    def search(self, roots: Iterable[str]) -> None:
        """Distances over the mesh from every root not searched yet, in one batch."""
        fresh = sorted({self._isl.index[root] for root in roots} - self._searches.keys())
        if fresh:
            self._searches.update(zip(fresh, _shortest_paths(self._isl, fresh).tolist()))

    def isl_route(self, src: str, dst: str) -> Path | None:
        """Shortest-distance laser path from src to dst over the mesh.

        The search is rooted at ``dst``, so among equal ``(distance, hops)``
        paths this is the reverse of the lexicographically smallest one
        from ``dst``.
        """
        root = self._isl.index[dst]
        if src == dst:  # the zero-hop route needs no search
            chain = [root]
        else:
            if root not in self._searches:
                self.search([dst])
            chain = _chain(self._isl, self._searches[root], root, self._isl.index[src])
        return None if chain is None else _path(self._isl, chain[::-1])


def build_slot_context(scenario: "Scenario", epoch_s: float) -> SlotContext:
    """Candidate snapshot for one epoch: full in-range mesh plus ground links."""
    mesh = replace(
        scenario.topology,
        mode=DYNAMIC_MODE,
        max_isls=scenario.constellation.total_satellites - 1,
    )
    candidates = build_snapshot(replace(scenario, topology=mesh), epoch_s, ground=True)
    return SlotContext(candidates, scenario)


# ---------------------------------------------------------------------------
# Cached delivery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _HolderCandidate:
    holder: str
    edge: LinkEdge
    prop_s: float


# (air edge, serving satellite, serving satellite holds the file, its
# laser-linked holders by (propagation, holder id))
_Serving = tuple[LinkEdge, str, bool, tuple[_HolderCandidate, ...]]


def _servings(ctx: SlotContext, aircraft: str, holders: frozenset[str]) -> tuple[_Serving, ...]:
    """The aircraft's visible serving satellites, nearest first, each with
    its holder candidates; computed once per slot and holder set."""
    key = (aircraft, holders)
    memo = ctx._servings.get(key)
    if memo is not None:
        return memo
    ordered_holders = sorted(holders)
    servings = []
    for air_edge in ctx.edges_at(SAT_TO_AIR, aircraft):
        serving = air_edge.other(aircraft)
        candidates = []
        for holder in ordered_holders:
            if holder == serving:
                continue
            edge = ctx.edge_between(ISL_LASER, holder, serving)
            if edge is not None:
                candidates.append(_HolderCandidate(holder, edge, edge.delay_s))
        candidates.sort(key=lambda c: (c.prop_s, c.holder))
        servings.append((air_edge, serving, serving in holders, tuple(candidates)))
    ctx._servings[key] = memo = tuple(servings)
    return memo


def _holder_rates(
    ctx: SlotContext, air_edge: LinkEdge, candidates: Sequence[_HolderCandidate], streams: int
) -> tuple[float, list[float]]:
    """Air share and each holder's stream rate when ``streams`` streams
    share the serving satellite's air link.

    ``per_stream`` grants each stream a full-rate beam, ``equal_split``
    divides the air rate across the streams. A holder stream crosses its
    laser link and then the air share: cut-through runs at the slower of
    the two, store-and-forward pays both transmission times.
    """
    share = air_edge.capacity_bps if ctx.per_stream else air_edge.capacity_bps / streams
    if ctx.store_and_forward:
        return share, [1.0 / (1.0 / c.edge.capacity_bps + 1.0 / share) for c in candidates]
    return share, [min(c.edge.capacity_bps, share) for c in candidates]


def _highest_rates(rates: Sequence[float], count: int) -> tuple[int, ...]:
    """The ``count`` highest-rate candidates; ties by candidate order."""
    return tuple(sorted(sorted(range(len(rates)), key=lambda i: (-rates[i], i))[:count]))


def _evaluate_cached(
    ctx: SlotContext, option: _Serving, aircraft: str, chosen: tuple[int, ...], bits: float
) -> tuple[float, list[StreamPlan]]:
    """Delay of one (serving satellite, holder subset) choice."""
    air_edge, serving, serving_holds, candidates = option
    m = len(chosen) + (1 if serving_holds else 0)
    if m == 0:
        return math.inf, []
    air_prop = air_edge.delay_s
    share, rates = _holder_rates(ctx, air_edge, [candidates[i] for i in chosen], m)
    sources = []
    specs = []
    if serving_holds:
        sources.append((air_prop, share))
        specs.append((serving, (serving, aircraft), air_prop, share))
    for idx, rate in zip(chosen, rates):
        cand = candidates[idx]
        prop = cand.prop_s + air_prop
        sources.append((prop, rate))
        specs.append((cand.holder, (cand.holder, serving, aircraft), prop, rate))
    delay, ratios = optimal_ratio_delay(sources, bits)
    streams = [
        StreamPlan(source, nodes, prop, rate, ratio)
        for (source, nodes, prop, rate), ratio in zip(specs, ratios)
    ]
    return delay, streams


def _largest_terms_holders(
    own: list[tuple[float, float]],
    props: Sequence[float],
    rates: Sequence[float],
    count: int,
    bits: float,
) -> tuple[int, ...]:
    """Least-delay set of at most ``count`` holders at fixed stream rates.

    A set S finishes at the D solving ``own(D) + sum_{c in S} r_c *
    max(0, D - p_c) = bits``, and no set of at most ``count`` holders ships
    more by any D than the ``count`` largest positive terms
    ``r_c * (D - p_c)``. So, starting from the highest-rate holders, each
    step takes the largest terms at the current set's finish time (ties by
    candidate order) until the set stops changing or the delay would rise:
    the parametric method of fractional programming (Dinkelbach,
    Management Science 1967). A step that keeps the delay is taken, so
    holders with ``p_c >= D`` are never kept.
    """

    def finish(chosen: tuple[int, ...]) -> float:
        return optimal_ratio_delay(own + [(props[i], rates[i]) for i in chosen], bits)[0]

    chosen = _highest_rates(rates, count)
    delay = finish(chosen)
    while True:
        terms = [rate * (delay - prop) for prop, rate in zip(props, rates)]
        ranked = sorted(
            (i for i, term in enumerate(terms) if term > 0), key=lambda i: (-terms[i], i)
        )
        step = tuple(sorted(ranked[:count]))
        if step == chosen:
            return chosen
        step_delay = finish(step)
        if step_delay > delay:
            return chosen
        chosen, delay = step, step_delay


def _select_holders(
    ctx: SlotContext, option: _Serving, aircraft: str, budget: int, bits: float
) -> tuple[float, tuple[int, ...], list[StreamPlan]]:
    """Least-delay set of at most ``budget`` holders for one serving
    satellite, with its delay and streams.

    Under ``equal_split`` the stream rates depend on the stream count, so
    each count is solved at its own rates; a set smaller than its count
    only runs faster. The least delay wins, fewer holders on a tie.
    """
    air_edge, _, serving_holds, candidates = option
    air_prop = air_edge.delay_s
    props = [c.prop_s + air_prop for c in candidates]
    if ctx.per_stream:
        sizes: Iterable[int] = (budget,)
    else:
        sizes = range(0 if serving_holds else 1, budget + 1)
    best: tuple[float, tuple[int, ...], list[StreamPlan]] = (math.inf, (), [])
    for size in sizes:
        share, rates = _holder_rates(ctx, air_edge, candidates, size + serving_holds)
        own = [(air_prop, share)] if serving_holds else []
        chosen = _largest_terms_holders(own, props, rates, size, bits)
        delay, streams = _evaluate_cached(ctx, option, aircraft, chosen, bits)
        if (delay, len(chosen)) < (best[0], len(best[1])):
            best = (delay, chosen, streams)
    return best


def _check_mode(mode: str) -> None:
    if mode not in SWEEP_MODES:
        raise ValueError(f"mode must be one of {SWEEP_MODES}, got {mode!r}")


def plan_cached(
    request: FileRequest, ctx: SlotContext, max_isls: int, mode: str = MODE_OPTIMIZED
) -> RequestPlan:
    """Serving-satellite association and holder selection for a cached file.

    ``optimized`` takes, at every visible serving satellite, the least-delay
    holder set within the budget: the budget's largest positive
    rate x slack terms ``r_c * (D - p_c)`` at the optimal delay D, ties by
    (propagation, holder id), fewer holders winning across stream counts;
    the least delay over serving satellites wins. ``equal`` plans as
    ``optimized``: the band it splits equally is a ground station's, which
    a cached file does not use. ``greedy`` takes the nearest serving
    satellite that can deliver and fills its budget with the highest-rate
    holders; ``full`` lifts the degree budget.

    Plans are memoised on the context by (request, greedy or not, effective
    budget). Each serving satellite's budget is ``min(max_isls, its
    candidate count)``, so the effective budget is ``max_isls`` capped at
    the largest candidate count, and ``full`` takes that count: cells that
    differ only there share one plan.
    """
    _check_mode(mode)
    if max_isls < 0:
        raise ValueError(f"max_isls must be >= 0, got {max_isls}")
    if not request.cached:
        raise ValueError(f"request {request.request_id} is not cached")
    servings = _servings(ctx, request.aircraft_id, request.cache_holders)
    effective_budget = max((len(c) for *_, c in servings), default=0)
    if mode != MODE_FULL:
        effective_budget = min(max_isls, effective_budget)
    greedy = mode == MODE_GREEDY
    key = (request, greedy, effective_budget)
    memo = ctx._cached_plans.get(key)
    if memo is not None:
        return memo
    bits = float(request.total_bits)
    best: tuple[float, _Serving, tuple[int, ...], list[StreamPlan]] | None = None
    for option in servings:
        air_edge, _, serving_holds, candidates = option
        budget = min(effective_budget, len(candidates))
        if greedy:
            _, rates = _holder_rates(ctx, air_edge, candidates, 1)
            chosen = _highest_rates(rates, budget)
            if not chosen and not serving_holds:
                continue  # nothing to stream from here; try the next nearest
            delay, streams = _evaluate_cached(ctx, option, request.aircraft_id, chosen, bits)
            best = (delay, option, chosen, streams)
            break
        delay, chosen, streams = _select_holders(ctx, option, request.aircraft_id, budget, bits)
        if math.isinf(delay):
            continue
        if best is None or delay < best[0]:
            best = (delay, option, chosen, streams)
    if best is None:
        plan = RequestPlan(request=request, delivered=False, delay_s=math.inf)
    else:
        delay, option, chosen, streams = best
        _, serving, _, candidates = option
        plan = RequestPlan(
            request=request,
            delivered=True,
            delay_s=delay,
            serving_satellite=serving,
            streams=tuple(streams),
            activated_isl_edges=tuple(sorted(candidates[i].edge.key for i in chosen)),
        )
    ctx._cached_plans[key] = plan
    return plan


# ---------------------------------------------------------------------------
# Non-cached delivery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RouteOption:
    """One candidate chain for a non-cached file."""

    gs: str
    entry: str | None
    serving: str | None
    nodes: tuple[str, ...]
    base_prop_s: float
    fixed_cap_bps: float
    fixed_inv_rate: float
    feeder_class: str
    feeder_distance_km: float
    activated_edge: tuple[str, str] | None
    # The flow's rate at share 1.0 under the context's delay model; filled
    # in by _route_options, which builds every option.
    full_rate_bps: float = math.nan


def _route_options(
    ctx: SlotContext, request: FileRequest, zero_budget: bool
) -> tuple[_RouteOption, ...]:
    """Every chain to the request's aircraft, memoised on the context under
    everything it reads: the aircraft, the source stations and whether the
    budget is zero."""
    key = (request.aircraft_id, request.source_gs_set, zero_budget)
    memo = ctx._route_options.get(key)
    if memo is not None:
        return memo
    options: list[_RouteOption] = []
    air_edges = ctx.edges_at(SAT_TO_AIR, request.aircraft_id)
    if not zero_budget:  # a zero budget reads only zero-hop routes
        ctx.search(edge.other(request.aircraft_id) for edge in air_edges)
    for gs in sorted(request.source_gs_set):
        direct = ctx.edge_between(GROUND_TO_AIR, gs, request.aircraft_id)
        if direct is not None:
            options.append(
                _RouteOption(
                    gs=gs,
                    entry=None,
                    serving=None,
                    nodes=(gs, request.aircraft_id),
                    base_prop_s=direct.delay_s,
                    fixed_cap_bps=math.inf,
                    fixed_inv_rate=0.0,
                    feeder_class=GROUND_TO_AIR,
                    feeder_distance_km=direct.distance_km,
                    activated_edge=None,
                )
            )
        for feeder in ctx.edges_at(GROUND_TO_SAT, gs):
            entry = feeder.other(gs)
            for air_edge in air_edges:
                serving = air_edge.other(request.aircraft_id)
                if zero_budget and entry != serving:
                    continue
                route = ctx.isl_route(entry, serving)
                if route is None:
                    continue
                caps = route.edge_capacities_bps + (air_edge.capacity_bps,)
                options.append(
                    _RouteOption(
                        gs=gs,
                        entry=entry,
                        serving=serving,
                        nodes=(gs,) + route.nodes + (request.aircraft_id,),
                        base_prop_s=(
                            feeder.delay_s + route.total_propagation_delay_s + air_edge.delay_s
                        ),
                        fixed_cap_bps=min(caps),
                        fixed_inv_rate=sum(1.0 / c for c in caps),
                        feeder_class=GROUND_TO_SAT,
                        feeder_distance_km=feeder.distance_km,
                        activated_edge=(
                            None
                            if route.hop_count == 0
                            else tuple(sorted(route.nodes[-2:]))
                        ),
                    )
                )
    memo = tuple(
        replace(option, full_rate_bps=_flow_for(ctx, request, option).rate_bps(1.0))
        for option in options
    )
    ctx._route_options[key] = memo
    return memo


def _flow_for(ctx: SlotContext, request: FileRequest, option: _RouteOption) -> GsFlow:
    return GsFlow(
        flow_id=request.request_id,
        bits=float(request.total_bits),
        base_prop_s=option.base_prop_s,
        fixed_cap_bps=option.fixed_cap_bps,
        feeder_params=ctx.link_params[option.feeder_class],
        feeder_distance_km=option.feeder_distance_km,
        store_and_forward=ctx.store_and_forward,
        fixed_inv_rate=option.fixed_inv_rate,
    )


def _greedy_route(
    ctx: SlotContext, request: FileRequest, options: Sequence[_RouteOption]
) -> _RouteOption:
    def rate_key(option: _RouteOption):
        return (-option.full_rate_bps, option.base_prop_s, option.gs, option.entry or "")

    for air_edge in ctx.edges_at(SAT_TO_AIR, request.aircraft_id):
        serving = air_edge.other(request.aircraft_id)
        pool = [o for o in options if o.serving == serving]
        if pool:
            return min(pool, key=rate_key)
    direct = [o for o in options if o.serving is None]
    if direct:
        return min(direct, key=rate_key)
    return min(options, key=rate_key)


def plan_non_cached(
    requests: Sequence[FileRequest],
    ctx: SlotContext,
    max_isls: int,
    mode: str = MODE_OPTIMIZED,
) -> list[RequestPlan]:
    """Jointly plan the slot's non-cached files.

    Each file takes one chain. Two route assignments are evaluated end to
    end, per-file standalone-best and greedy serving-first, and the cheaper
    one wins; ``greedy`` is pinned to the latter, so the optimized plan can
    never lose to it. Stations split their feeder band optimally, or in
    equal shares under ``equal``. ``full`` lifts the degree budget, which
    the planner reads only through the zero-budget route filter.
    """
    _check_mode(mode)
    if max_isls < 0:
        raise ValueError(f"max_isls must be >= 0, got {max_isls}")
    for request in requests:
        if request.cached:
            raise ValueError(f"request {request.request_id} is cached")

    equal = mode == MODE_EQUAL
    zero_budget = max_isls == 0 and mode != MODE_FULL
    # Everything below reads only the context and these values, so a slot's
    # sweep cells share one plan per distinct key.
    key = (tuple(requests), mode == MODE_GREEDY, equal, zero_budget)
    memo = ctx._non_cached_plans.get(key)
    if memo is not None:
        return list(memo)
    options_by_request: dict[str, Sequence[_RouteOption]] = {}
    plans: dict[str, RequestPlan] = {}
    deliverable: list[FileRequest] = []
    for request in requests:
        options = _route_options(ctx, request, zero_budget)
        if not options:
            plans[request.request_id] = RequestPlan(
                request=request, delivered=False, delay_s=math.inf
            )
            continue
        options_by_request[request.request_id] = options
        deliverable.append(request)

    if deliverable:
        standalone: dict[str, _RouteOption] = {}
        for request in deliverable:
            options = options_by_request[request.request_id]
            bits = float(request.total_bits)
            standalone[request.request_id] = min(
                options,
                key=lambda o: (
                    _delay_s(o.base_prop_s, bits, o.full_rate_bps),
                    o.gs,
                    o.entry or "",
                    o.serving or "",
                ),
            )
        greedy = {
            request.request_id: _greedy_route(ctx, request, options_by_request[request.request_id])
            for request in deliverable
        }

        def evaluate(assignment: dict[str, _RouteOption]) -> tuple:
            flows = {
                request.request_id: _flow_for(ctx, request, assignment[request.request_id])
                for request in deliverable
            }
            by_gs: dict[str, list[GsFlow]] = {}
            for request_id, flow in flows.items():
                by_gs.setdefault(assignment[request_id].gs, []).append(flow)
            shares: dict[str, float] = {}
            for gs in sorted(by_gs):
                shares.update(optimize_gs_shares(by_gs[gs], equal=equal))
            delays = {rid: flow.delay_s(shares[rid]) for rid, flow in flows.items()}
            return sum(delays.values()), assignment, flows, shares, delays

        if mode == MODE_GREEDY:
            chosen = evaluate(greedy)
        else:
            by_standalone, by_greedy = evaluate(standalone), evaluate(greedy)
            chosen = by_standalone if by_standalone[0] <= by_greedy[0] else by_greedy
        _, assignment, flows, shares, delays = chosen

        for request in deliverable:
            option = assignment[request.request_id]
            share = shares[request.request_id]
            delay = delays[request.request_id]
            flow = flows[request.request_id]
            stream = StreamPlan(
                source=option.gs,
                nodes=option.nodes,
                prop_delay_s=option.base_prop_s,
                rate_bps=flow.rate_bps(share),
                ratio=1.0,
            )
            plans[request.request_id] = RequestPlan(
                request=request,
                delivered=True,
                delay_s=delay,
                serving_satellite=option.serving,
                gs_id=option.gs,
                bandwidth_share=share,
                streams=(stream,),
                activated_isl_edges=(
                    (option.activated_edge,) if option.activated_edge else ()
                ),
            )

    result = [plans[request.request_id] for request in requests]
    ctx._non_cached_plans[key] = tuple(result)
    return result


# ---------------------------------------------------------------------------
# Slot execution and the degree sweep
# ---------------------------------------------------------------------------


def generate_requests(scenario: "Scenario", rng_seed: int) -> list[FileRequest]:
    """One request per aircraft, reproducibly drawn from ``rng_seed``.

    File class and size are uniform over the configured class ranges; a
    request is cached with the scenario hit probability. Each class's cache
    placement (a fixed fraction of the fleet) is drawn first, so every
    request of a class sees the same holder set. Non-cached files can be
    fetched from any ground station.
    """
    sat_nodes = orbits.sat_keys(scenario.constellation)
    rng = np.random.default_rng(rng_seed)
    ranges = scenario.ifc.file_class_packet_ranges
    n_cache = max(1, round(scenario.ifc.cache_fraction * len(sat_nodes)))
    placements = []
    for _ in ranges:
        perm = rng.permutation(len(sat_nodes))
        placements.append(frozenset(sat_nodes[int(i)] for i in perm[:n_cache]))
    gs_ids = frozenset(g.node_id for g in scenario.ground_stations)
    requests = []
    aircraft = sorted(scenario.aircraft, key=lambda g: g.node_id)
    for idx, ac in enumerate(aircraft):
        file_class = int(rng.integers(0, len(ranges)))
        lo, hi = ranges[file_class]
        packets = int(rng.integers(lo, hi, endpoint=True))
        cached = bool(rng.random() < scenario.ifc.cache_hit_probability)
        requests.append(
            FileRequest(
                request_id=f"req-{idx:03d}",
                aircraft_id=ac.node_id,
                file_class=file_class,
                num_packets=packets,
                cached=cached,
                packet_bits=scenario.ifc.packet_bits,
                cache_holders=placements[file_class] if cached else frozenset(),
                source_gs_set=frozenset() if cached else gs_ids,
            )
        )
    return requests


def run_slot(
    ctx: SlotContext, requests: Sequence[FileRequest], max_isls: int, mode: str
) -> DeliveryPlan:
    """Plan one slot's requests on ``ctx``; average over delivered files.

    The plan's epoch is the context's, and the average is None when nothing
    was delivered. Fully deterministic in (context, requests, max_isls,
    mode). Request generation never looks at the degree budget or the mode,
    so one ``generate_requests`` draw compares the same workload across
    every sweep cell, and cells that share one context share its memos.
    """
    plans: dict[str, RequestPlan] = {}
    for request in requests:
        if request.cached:
            plans[request.request_id] = plan_cached(request, ctx, max_isls, mode)
    non_cached = [r for r in requests if not r.cached]
    for plan in plan_non_cached(non_cached, ctx, max_isls, mode):
        plans[plan.request.request_id] = plan
    ordered = tuple(plans[r.request_id] for r in requests)
    delivered = [p for p in ordered if p.delivered]
    average = sum(p.delay_s for p in delivered) / len(delivered) if delivered else None
    return DeliveryPlan(
        epoch_s=ctx.snapshot.epoch_s,
        max_isls=max_isls,
        mode=mode,
        request_plans=ordered,
        average_delay_s=average,
        delivered=len(delivered),
        undelivered=len(ordered) - len(delivered),
    )


@dataclass(frozen=True)
class SweepRow:
    max_isls: int
    mode: str
    seed: int
    epoch_s: float
    avg_delay_s: float | None
    delivered: int
    undelivered: int


@dataclass(frozen=True)
class SweepResult:
    """Sweep cells; a cell or mean that delivered nothing is None, written
    as a blank CSV cell."""

    rows: tuple[SweepRow, ...]

    def csv_rows(self) -> list[tuple]:
        out = [SWEEP_CSV_HEADER]
        for r in self.rows:
            delay = "" if r.avg_delay_s is None else r.avg_delay_s
            out.append((r.max_isls, r.mode, r.seed, r.epoch_s, delay, r.delivered, r.undelivered))
        return out

    def mean_delay(self, max_isls: int, mode: str) -> float | None:
        """Mean over the (budget, mode) cells that delivered something."""
        rows = [r for r in self.rows if r.max_isls == max_isls and r.mode == mode]
        if not rows:
            raise KeyError(f"no rows for (max_isls={max_isls}, mode={mode!r})")
        cells = [r.avg_delay_s for r in rows if r.avg_delay_s is not None]
        return sum(cells) / len(cells) if cells else None

    def summary(self) -> list[tuple[int, str, float | None]]:
        keys = sorted({(r.max_isls, r.mode) for r in self.rows})
        return [(k, m, self.mean_delay(k, m)) for k, m in keys]

    def summary_csv_rows(self) -> list[tuple]:
        out = [("max_isls", "mode", "mean_avg_delay_s")]
        out.extend((k, m, "" if mean is None else mean) for k, m, mean in self.summary())
        return out


def sweep_max_isls(
    scenario: "Scenario",
    isls_values: Iterable[int],
    modes: Iterable[str],
    epochs: Iterable[float],
    seeds: Iterable[int],
) -> SweepResult:
    """Average delay per (degree budget, mode) cell over epochs and seeds."""
    isls_values = list(isls_values)
    modes = list(modes)
    epochs = list(epochs)
    seeds = list(seeds)
    if not isls_values or not modes or not epochs or not seeds:
        raise ValueError("isls_values, modes, epochs and seeds must be non-empty")
    for mode in modes:
        _check_mode(mode)
    # Requests read only the seed, so each seed's draw serves every cell.
    requests = {seed: generate_requests(scenario, seed) for seed in seeds}
    rows = []
    for epoch_s in epochs:
        ctx = build_slot_context(scenario, epoch_s)
        for max_isls in isls_values:
            for mode in modes:
                for seed in seeds:
                    plan = run_slot(ctx, requests[seed], max_isls, mode)
                    rows.append(
                        SweepRow(
                            max_isls=max_isls,
                            mode=mode,
                            seed=seed,
                            epoch_s=plan.epoch_s,
                            avg_delay_s=plan.average_delay_s,
                            delivered=plan.delivered,
                            undelivered=plan.undelivered,
                        )
                    )
    rows.sort(key=lambda r: (r.max_isls, r.mode, r.seed, r.epoch_s))
    return SweepResult(tuple(rows))
