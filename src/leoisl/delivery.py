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
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import cache, cached_property, partial
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import orbits
from .links import (
    GROUND_TO_AIR,
    GROUND_TO_SAT,
    SAT_TO_AIR,
    LinkBudgetParams,
    propagation_delay_s,
    rf_terms,
    shannon_bps,
)
from .routing import _chains, _graph, _least_distance, _path, _total
from .topology import DYNAMIC_MODE, ISL_CODE, LinkEdge, TopologySnapshot, build_snapshot

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
    packet_bits: int
    cache_holders: frozenset[str] = frozenset()
    source_gs_set: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        orbits.check_fields(self, (
            ("num_packets", "> 0", lambda v: v > 0),
            ("packet_bits", "> 0", lambda v: v > 0),
        ))

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
    # The active set's (D - p) * r add up to bits analytically; divide out
    # the floating-point residue so the ratios add up to exactly one.
    total = _total(ratios)
    if total > 0:
        ratios = [r / total for r in ratios]
    return delay, ratios


# ---------------------------------------------------------------------------
# Ground-station bandwidth allocation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _RouteOption:
    """One chain for a non-cached file, priced at any share of its station's
    band: station ``gs``'s feeder (``feeder_params`` over
    ``feeder_distance_km``), then the laser relay from ``entry`` to
    ``serving`` and its air link; a direct feeder has neither (None).

    ``fixed_cap_bps`` and ``fixed_inv_rate`` are the bottleneck and the
    summed inverse rate (for store-and-forward) of the share-independent
    hops: infinite and zero for a direct feeder. The feeder's received and
    noise power are computed once per option, by ``_feeder_terms``.
    """

    gs: str
    entry: str | None
    serving: str | None
    nodes: tuple[str, ...]
    activated_edge: tuple[str, str] | None
    base_prop_s: float
    fixed_cap_bps: float
    fixed_inv_rate: float
    feeder_params: LinkBudgetParams
    feeder_distance_km: float
    store_and_forward: bool

    @cached_property
    def _feeder_terms(self) -> tuple[float, float]:
        return rf_terms(self.feeder_params, self.feeder_distance_km)

    def feeder_capacity_bps(self, share: float) -> float:
        rx_w, noise_w = self._feeder_terms
        return shannon_bps(self.feeder_params.bandwidth_hz, rx_w, noise_w, share)

    def rate_bps(self, share: float) -> float:
        cap = self.feeder_capacity_bps(share)
        return _series_rate(cap, self.fixed_cap_bps, self.fixed_inv_rate, self.store_and_forward)

    @cached_property
    def full_rate_bps(self) -> float:
        """``rate_bps(1.0)``, computed once: both route keys read it on every plan."""
        return self.rate_bps(1.0)

    @cached_property
    def share_cap(self) -> float:
        """Smallest share beyond which more feeder bandwidth cannot help."""
        fixed = self.fixed_cap_bps
        if self.store_and_forward or self.feeder_capacity_bps(1.0) <= fixed:
            return 1.0
        return _bisect(lambda share: self.feeder_capacity_bps(share) < fixed, _MIN_SHARE, 1.0)[1]


class GsFlow(NamedTuple):
    """A non-cached file of ``bits`` drawing a share of its option's station band."""

    flow_id: str
    bits: float
    option: _RouteOption

    def rate_bps(self, share: float) -> float:
        return self.option.rate_bps(share)

    def delay_s(self, share: float) -> float:
        return _delay_s(self.option.base_prop_s, self.bits, self.option.rate_bps(share))


def _series_rate(
    rate_bps: float, fixed_cap_bps: float, fixed_inv_rate: float, store_and_forward: bool
) -> float:
    """Rate over a link of ``rate_bps`` in series with fixed hops (bottleneck
    ``fixed_cap_bps``, summed inverse rate ``fixed_inv_rate``): cut-through
    runs at the slowest hop, store-and-forward pays every hop's time."""
    if store_and_forward:
        return 1.0 / (1.0 / rate_bps + fixed_inv_rate)
    return min(rate_bps, fixed_cap_bps)


def _delay_s(prop_s: float, bits: float, rate_bps: float) -> float:
    return math.inf if rate_bps <= 0 else prop_s + bits / rate_bps


def _bisect(
    below: Callable[[float], bool], lo: float, hi: float, steps: int = 60
) -> tuple[float, float]:
    """The bracket after ``steps`` halvings: a midpoint ``below`` takes
    becomes ``lo``, else ``hi``."""
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _marginal_gain(flow: GsFlow, share: float) -> float:
    """-d(delay)/d(share): how much one more unit of share still buys."""
    rx_w, noise_w = flow.option._feeder_terms
    bandwidth_hz = flow.option.feeder_params.bandwidth_hz
    cap = shannon_bps(bandwidth_hz, rx_w, noise_w, share)
    # d/dshare of share*B*log2(1 + S/share), S the full-band SNR.
    s_full = rx_w / noise_w
    slope = (bandwidth_hz / math.log(2.0)) * (
        math.log1p(s_full / share) - s_full / (share + s_full)
    )
    return flow.bits * slope / (cap * cap)


def _marginal_root(flows: Sequence[GsFlow], caps: Sequence[float]) -> float | None:
    """The common marginal gain at which the flows' shares, each at most its
    cap, add up to one, by Newton's method on smooth formulas; None if it
    does not settle. It guesses ``optimize_gs_shares``' threshold.

    With x = S / share, S a flow's full-band SNR, its gain is ``K * h(x)``:
    K = bits ln 2 / (B S^2), h(x) = x^2 u / L^2, L = ln(1 + x) and
    u = L - x / (1 + x). ln h rises in ln x at a slope D of about 2, so
    Newton steps in ln x give each share at t = ln(gain), and steps in t,
    where a share below its cap falls at -share / D, make ln(total) zero.
    """
    terms = []  # per flow: S, ln K and ln x, first at share 1/n
    for flow in flows:
        rx_w, noise_w = flow.option._feeder_terms
        snr = rx_w / noise_w
        scale = flow.bits * math.log(2.0) / (flow.option.feeder_params.bandwidth_hz * snr * snr)
        terms.append([snr, math.log(scale), math.log(snr * len(flows))])
    t = _total(ln_scale + 2.0 * y for _, ln_scale, y in terms) / len(terms)
    try:
        for _ in range(50):
            total = slope = 0.0
            for term, cap in zip(terms, caps):
                snr, ln_scale, y = term
                for _ in range(50):
                    x = math.exp(y)
                    big_l = math.log1p(x)
                    u = big_l - x / (1.0 + x)
                    d = 2.0 + x * x / ((1.0 + x) ** 2 * u) - 2.0 * x / ((1.0 + x) * big_l)
                    step = (ln_scale + 2.0 * y + math.log(u) - 2.0 * math.log(big_l) - t) / d
                    y -= step
                    if abs(step) < 1e-12:
                        break
                term[2] = y  # the next total starts from here
                share = snr / math.exp(y)
                if share >= cap:
                    total += cap
                else:
                    total, slope = total + share, slope - share / d
            step = -math.log(total) * total / slope if slope < 0 else 1.0
            t += step
            if abs(step) < 1e-12:
                return math.exp(t)
    except (ValueError, ZeroDivisionError, OverflowError):  # a log of a non-positive u or L
        pass
    return None


def _share_at_marginal(gain: Callable[[float], float], lam: float, cap: float) -> float:
    """The share at which a flow's marginal ``gain`` falls to ``lam``, at most ``cap``."""
    if gain(cap) >= lam:
        return cap
    lo, hi = _bisect(lambda share: gain(share) >= lam, _MIN_SHARE, cap)
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

    Each inner bisection starts from ``(_MIN_SHARE, cap)``, so a flow's
    midpoints come from one fixed tree, and the outer steps walk much of it
    again; each flow prices a midpoint once and reads it back after.
    """
    if not flows:
        return {}
    n = len(flows)
    if equal:
        return {flow.flow_id: 1.0 / n for flow in flows}
    caps = [flow.option.share_cap for flow in flows]
    total_cap = _total(caps)
    if total_cap <= 1.0:
        slack = (1.0 - total_cap) / n
        return {flow.flow_id: cap + slack for flow, cap in zip(flows, caps)}

    gains = [cache(partial(_marginal_gain, flow)) for flow in flows]

    def shares_at(lam: float) -> list[float]:
        return [_share_at_marginal(gain, lam, cap) for gain, cap in zip(gains, caps)]

    def oversubscribed(lam: float) -> bool:
        return _total(shares_at(lam)) > 1.0

    hi = 1.0
    while oversubscribed(hi):
        hi *= 4.0
    # ``oversubscribed`` is true below one threshold and false above it, as
    # each leaf share falls with ``lam`` and float addition is monotone. So
    # a tree node with ``oversubscribed(lo)`` and not ``oversubscribed(hi)``
    # implies every halving above it: the walk starts at the deepest node
    # holding the guessed threshold, or at the root if a check fails.
    lo, top, depth, guess = 0.0, hi, 0, _marginal_root(flows, caps)
    while guess is not None and depth < 60:
        mid = 0.5 * (lo + hi)
        if guess * (1.0 + 1e-12) < mid:
            hi = mid
        elif guess * (1.0 - 1e-12) > mid:
            lo = mid
        else:
            break
        depth += 1
    if (lo > 0.0 and not oversubscribed(lo)) or (hi < top and oversubscribed(hi)):
        lo, hi, depth = 0.0, top, 0
    final = shares_at(_bisect(oversubscribed, lo, hi, 60 - depth)[1])
    return {flow.flow_id: share for flow, share in zip(flows, final)}


# ---------------------------------------------------------------------------
# Slot context: indexed view of one epoch's candidate snapshot
# ---------------------------------------------------------------------------


class SlotContext:
    """Per-epoch lookups over the candidate snapshot (mesh plus ground links).

    ``scenario`` must be the scenario the snapshot was built from. The
    context plans for that scenario alone: it keeps its link budgets, which
    feeder rates are read from, and its delivery settings (air-link sharing
    and delay model). The planners' holder candidates, route options,
    stations' feeder splits and plans are cached for the slot, each under a
    key holding everything it reads, so that a sweep's cells share them.
    """

    def __init__(self, snapshot: TopologySnapshot, scenario: "Scenario"):
        self.snapshot = snapshot
        self.link_params = scenario.link_params
        self.per_stream = scenario.ifc.air_link_sharing == PER_STREAM
        self.store_and_forward = scenario.ifc.delay_model == STORE_AND_FORWARD
        self._ground: dict[tuple[str, str], list[LinkEdge]] = {}
        for edge in snapshot.link_edges(snapshot.links.link_class != ISL_CODE):
            for node in edge.key:
                self._ground.setdefault((edge.link_class, node), []).append(edge)
        for (_, node), edges in self._ground.items():
            edges.sort(key=lambda e: (e.distance_km, e.other(node)))
        self._isl = _graph(snapshot)
        self._servings: dict[tuple[str, frozenset[str]], tuple[tuple[_Serving, ...], int]] = {}
        self._cached_plans: dict[tuple, RequestPlan] = {}
        self._option_tables: dict[tuple, _OptionTable] = {}
        self._non_cached_plans: dict[tuple, tuple[RequestPlan, ...]] = {}
        self._gs_shares: dict[tuple, dict[str, float]] = {}

    def edges_at(self, link_class: str, node: str) -> list[LinkEdge]:
        """Ground links of ``link_class`` at ``node``, nearest first, ties by
        the far end's id. Laser links are not indexed here: ``_servings``
        and ``_OptionTable`` read them from the mesh graph's arrays."""
        return self._ground.get((link_class, node), [])

    def gs_shares(self, flows: Sequence[GsFlow], equal: bool) -> dict[str, float]:
        """``optimize_gs_shares(flows, equal=equal)``, solved once per slot.
        The flows in their order (float totals follow it) and ``equal`` are
        all the solver reads, so they are the key."""
        key = (tuple(flows), equal)
        if key not in self._gs_shares:
            self._gs_shares[key] = optimize_gs_shares(flows, equal=equal)
        return dict(self._gs_shares[key])


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


class _HolderCandidate(NamedTuple):
    """A cache holder, its laser link to a serving satellite (by its ends)
    and that link's rate and delay."""

    holder: str
    key: tuple[str, str]
    capacity_bps: float
    delay_s: float


@dataclass
class _Solves:
    """A serving satellite's holder solves for one file size: the best
    (delay, holder set) within each stream count, and the least count whose
    solved set came out smaller than it."""

    best: dict[int, tuple[float, tuple[int, ...]]] = field(default_factory=dict)
    saturated: float = math.inf


class _Serving(NamedTuple):
    """A serving satellite of an aircraft for one holder set: its air link,
    whether it holds the file, its laser-linked holders by (propagation,
    holder id), and its holder solves by file size (``_select_holders``)."""

    air_edge: LinkEdge
    serving: str
    holds: bool
    candidates: tuple[_HolderCandidate, ...]
    solves: dict[float, _Solves]


def _check_nodes(ctx: SlotContext, request: FileRequest, nodes: Iterable[str]) -> None:
    """Reject a request that names a node missing from the context's snapshot."""
    for node in nodes:
        if node not in ctx._isl.index:
            raise ValueError(f"request {request.request_id} names unknown node {node!r}")


def _servings(ctx: SlotContext, request: FileRequest) -> tuple[tuple[_Serving, ...], int]:
    """The aircraft's visible serving satellites, nearest first, each with
    its holder candidates, and the most candidates any of them has;
    computed once per slot, aircraft and holder set."""
    aircraft, holders = request.aircraft_id, request.cache_holders
    key = (aircraft, holders)
    memo = ctx._servings.get(key)
    if memo is not None:
        return memo
    ordered_holders = sorted(holders)
    _check_nodes(ctx, request, [aircraft, *ordered_holders])
    graph = ctx._isl
    servings = []
    for air_edge in ctx.edges_at(SAT_TO_AIR, aircraft):
        serving = air_edge.other(aircraft)
        # The serving satellite's laser links by far end, pads at node N; it
        # has no self-link.
        here = graph.index[serving]
        linked = dict(zip(graph.neighbors[here].tolist(), graph.rows[here].tolist()))
        candidates = []
        for holder in ordered_holders:
            k = linked.get(graph.index[holder])
            if k is not None:
                ends = (holder, serving) if holder < serving else (serving, holder)
                rate, delay = graph.links.capacity_bps[k], graph.links.delay_s[k]
                candidates.append(_HolderCandidate(holder, ends, float(rate), float(delay)))
        candidates.sort(key=lambda c: (c.delay_s, c.holder))
        servings.append(_Serving(air_edge, serving, serving in holders, tuple(candidates), {}))
    most = max((len(option.candidates) for option in servings), default=0)
    ctx._servings[key] = memo = (tuple(servings), most)
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
    inv_share = 1.0 / share
    return share, [
        _series_rate(c.capacity_bps, share, inv_share, ctx.store_and_forward)
        for c in candidates
    ]


def _highest_rates(rates: Sequence[float], count: int) -> tuple[int, ...]:
    """The ``count`` highest-rate candidates; ties by candidate order."""
    return tuple(sorted(sorted(range(len(rates)), key=lambda i: (-rates[i], i))[:count]))


def _sources(
    ctx: SlotContext, option: _Serving, chosen: tuple[int, ...]
) -> list[tuple[float, float]]:
    """(propagation, rate) of each stream of one holder subset, the serving
    satellite's own first; none without a stream."""
    air_edge, _, holds, candidates, _ = option
    if not chosen and not holds:
        return []
    streams = len(chosen) + holds
    share, rates = _holder_rates(ctx, air_edge, [candidates[i] for i in chosen], streams)
    own = [(air_edge.delay_s, share)] if holds else []
    return own + [(candidates[i].delay_s + air_edge.delay_s, r) for i, r in zip(chosen, rates)]


def _evaluate_cached(
    ctx: SlotContext, option: _Serving, aircraft: str, chosen: tuple[int, ...], bits: float
) -> tuple[float, list[StreamPlan]]:
    """Delay and streams of one (serving satellite, holder subset) choice."""
    _, serving, holds, candidates, _ = option
    sources = _sources(ctx, option, chosen)
    delay, ratios = optimal_ratio_delay(sources, bits)
    ends = [(serving, (serving, aircraft))] if holds else []
    ends += [(candidates[i].holder, (candidates[i].holder, serving, aircraft)) for i in chosen]
    return delay, [
        StreamPlan(source, nodes, prop, rate, ratio)
        for (source, nodes), (prop, rate), ratio in zip(ends, sources, ratios)
    ]


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
    ctx: SlotContext, option: _Serving, budget: int, bits: float
) -> tuple[float, tuple[int, ...]]:
    """Least-delay set of at most ``budget`` holders for one serving
    satellite, and its delay.

    Under ``equal_split`` the stream rates depend on the stream count, so
    each count is solved at its own rates; a set smaller than its count
    only runs faster. The least delay wins, fewer holders on a tie.

    Each count is solved once per slot, serving satellite and file size
    (``option.solves``). A set smaller than its count holds every positive
    term at its own delay, so no set of any size ships more by then at that
    count's rates, or at a larger count's, which are no higher
    (``_largest_terms_holders``): every larger budget reads that count, and
    under ``per_stream``, whose rates do not depend on the count, every
    budget from the set's size on.
    """
    solves = option.solves.setdefault(bits, _Solves())
    budget = min(budget, solves.saturated)
    if budget in solves.best:
        return solves.best[budget]
    air_edge, _, holds, candidates, _ = option
    props = [c.delay_s + air_edge.delay_s for c in candidates]
    if ctx.per_stream:
        size, best = budget - 1, (math.inf, ())
    else:  # the best within each count, from the largest count solved below
        size = max((c for c in solves.best if c < budget), default=-1 if holds else 0)
        best = solves.best.get(size, (math.inf, ()))
    for size in range(size + 1, budget + 1):
        share, rates = _holder_rates(ctx, air_edge, candidates, size + holds)
        own = [(air_edge.delay_s, share)] if holds else []
        chosen = _largest_terms_holders(own, props, rates, size, bits)
        delay = optimal_ratio_delay(_sources(ctx, option, chosen), bits)[0]
        if (delay, len(chosen)) < (best[0], len(best[1])):
            best = (delay, chosen)
        solves.best[size] = best
        if len(chosen) < size:
            solves.saturated = len(chosen) if ctx.per_stream else size
            solves.best[solves.saturated] = best
            break
    return best


def _check_mode(mode: str, max_isls: int) -> None:
    """The planners' argument check."""
    if mode not in SWEEP_MODES:
        raise ValueError(f"mode must be one of {SWEEP_MODES}, got {mode!r}")
    if max_isls < 0:
        raise ValueError(f"max_isls must be >= 0, got {max_isls}")


def _check_request_ids(requests: Sequence[FileRequest]) -> None:
    """Reject requests that share an id: plans and feeder shares are keyed by it."""
    ids = [request.request_id for request in requests]
    if len(set(ids)) < len(ids):
        repeated = next(rid for k, rid in enumerate(ids) if rid in ids[:k])
        raise ValueError(f"request id {repeated!r} is repeated")


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
    differ only there share one plan. Streams are built for the winning
    serving satellite only.
    """
    _check_mode(mode, max_isls)
    if not request.cached:
        raise ValueError(f"request {request.request_id} is not cached")
    servings, effective_budget = _servings(ctx, request)
    if mode != MODE_FULL:
        effective_budget = min(max_isls, effective_budget)
    greedy = mode == MODE_GREEDY
    key = (request, greedy, effective_budget)
    memo = ctx._cached_plans.get(key)
    if memo is not None:
        return memo
    bits = float(request.total_bits)
    best: tuple[float, _Serving, tuple[int, ...]] | None = None
    for option in servings:
        budget = min(effective_budget, len(option.candidates))
        if greedy:
            _, rates = _holder_rates(ctx, option.air_edge, option.candidates, 1)
            chosen = _highest_rates(rates, budget)
            if not chosen and not option.holds:
                continue  # nothing to stream from here; try the next nearest
            best = (math.nan, option, chosen)  # the nearest wins; its delay is priced below
            break
        delay, chosen = _select_holders(ctx, option, budget, bits)
        if math.isinf(delay):
            continue
        if best is None or delay < best[0]:
            best = (delay, option, chosen)
    if best is None:
        plan = RequestPlan(request=request, delivered=False, delay_s=math.inf)
    else:
        _, option, chosen = best
        delay, streams = _evaluate_cached(ctx, option, request.aircraft_id, chosen, bits)
        plan = RequestPlan(
            request=request,
            delivered=True,
            delay_s=delay,
            serving_satellite=option.serving,
            streams=tuple(streams),
            activated_isl_edges=tuple(sorted(option.candidates[i].key for i in chosen)),
        )
    ctx._cached_plans[key] = plan
    return plan


# ---------------------------------------------------------------------------
# Non-cached delivery
# ---------------------------------------------------------------------------


class _OptionTable:
    """A non-cached file's chains to one aircraft from a set of stations,
    each built only when a pick needs it.

    Row ``k`` is station ``chains[k][0]``'s feeder ``chains[k][1]``, the
    relay between the mesh nodes ``ends[k]``, entry then serving, and the
    serving satellite's air link ``chains[k][2]`` ((-1, -1) and None for a
    direct feeder); with ``zero_budget``, only relays with entry == serving.
    ``serving`` is the serving column as an array. Without a search,
    ``prop_s`` and ``rate_bps`` bound a row's propagation delay from below
    and its full-share rate from above, exactly for a row with no laser hop.

    A relay is at least the straight line between its ends, as link lengths
    are the distances of their ends' positions (the A* bound: Goldberg and
    Harrelson, SODA 2005; NaN positions bound by 0). Its delay sums at most
    N - 1 link delays of an N-node mesh, so rounding may put it below the
    line's by (N + 10)u to first order, u the unit roundoff: the
    recursive-summation bound (Higham 2002, §4.2) plus norms and divisions.
    The line's delay is lowered by (N + 10)eps = 2(N + 10)u, which covers
    the higher orders, and the rest adds up in the exact option's order;
    float addition is monotone. The rate bound takes one laser hop at the
    mesh's top laser rate: a cut-through bottleneck can only be lower, a
    store-and-forward sum of inverse rates only larger.
    """

    def __init__(
        self, ctx: SlotContext, aircraft: str, stations: frozenset[str], zero_budget: bool
    ):
        graph, params = ctx._isl, ctx.link_params
        # The context's parts, not the context, which keeps this table in a memo.
        self.graph, self.params, self.store_and_forward = graph, params, ctx.store_and_forward
        self.aircraft = aircraft
        self.exact: dict[int, _RouteOption | None] = {}  # by row
        self.picks: dict[float | None, _RouteOption | None] = {}  # by ``pick``'s bits
        airs = [(e, graph.index[e.other(aircraft)]) for e in ctx.edges_at(SAT_TO_AIR, aircraft)]
        direct = {e.other(aircraft): e for e in ctx.edges_at(GROUND_TO_AIR, aircraft)}
        self.nearest = [serving for _, serving in airs]  # serving satellites, nearest first
        self.chains: list[tuple[str, LinkEdge, LinkEdge | None]] = []
        columns = []  # entry, serving, feeder delay and full-band rate, air delay and rate
        for gs in sorted(stations):
            for feeder in ([direct[gs]] if gs in direct else []) + ctx.edges_at(GROUND_TO_SAT, gs):
                feeder_terms = (feeder.delay_s, feeder.capacity_bps)
                if feeder.link_class == GROUND_TO_AIR:
                    self.chains.append((gs, feeder, None))
                    columns.append((-1, -1, *feeder_terms, 0.0, math.inf))
                    continue
                entry = graph.index[feeder.other(gs)]
                for air, serving in airs:
                    if entry == serving or not zero_budget:
                        self.chains.append((gs, feeder, air))
                        air_terms = (air.delay_s, air.capacity_bps)
                        columns.append((entry, serving, *feeder_terms, *air_terms))
        columns = np.reshape(columns, (-1, 6)).T
        entries, self.serving = columns[:2].astype(np.intp)
        self.ends = list(zip(entries.tolist(), self.serving.tolist()))
        feeder_s, feeder_bps, air_s, air_bps = columns[2:]
        hop = entries != self.serving
        laser = float(graph.links.capacity_bps.max(initial=0.0)) or math.inf
        if ctx.store_and_forward:
            rate = 1.0 / (1.0 / feeder_bps + (np.where(hop, 1.0 / laser, 0.0) + 1.0 / air_bps))
        else:
            rate = np.minimum(feeder_bps, np.minimum(np.where(hop, laser, math.inf), air_bps))
        ends = ctx.snapshot.positions[entries] - ctx.snapshot.positions[self.serving]
        line = propagation_delay_s(np.nan_to_num(orbits.row_norms(ends)))
        margin = (len(graph.nodes) + 10) * np.finfo(float).eps
        self.prop_s, self.rate_bps = feeder_s + line * (1.0 - margin) + air_s, rate

    def built(self, rows: list[int]) -> list[_RouteOption | None]:
        """The exact options of ``rows``, each built once; None where the
        entry is out of reach. Every relay is read in one ``_least_distance``
        call from its serving satellite to its entry: among equal
        ``(distance, hops)`` paths from the serving satellite, the reverse of
        the lexicographically smallest."""
        graph, exact = self.graph, self.exact
        todo = [k for k in rows if k not in exact]
        relays = [k for k in todo if self.ends[k][0] != self.ends[k][1]]
        chains = {}
        if relays:  # most calls build no relay: skip the search's setup
            entries, servings = np.array([self.ends[k] for k in relays]).T
            chains = dict(zip(relays, _least_distance(graph, servings, entries, _chains)))
        for k in todo:
            (gs, feeder, air), serving = self.chains[k], self.ends[k][1]
            relay, caps, prop_s = (), (), feeder.delay_s
            if air is not None:
                if (found := chains.get(k, ([serving], []))) is None:  # zero hops: no chain
                    exact[k] = None
                    continue
                route = _path(graph, found[0][::-1], found[1][::-1])
                relay, caps = route.nodes, route.edge_capacities_bps + (air.capacity_bps,)
                prop_s = feeder.delay_s + route.total_propagation_delay_s + air.delay_s
            exact[k] = _RouteOption(
                gs=gs,
                entry=relay[0] if relay else None,
                serving=relay[-1] if relay else None,
                nodes=(gs, *relay, self.aircraft),
                activated_edge=tuple(sorted(relay[-2:])) if len(relay) > 1 else None,
                base_prop_s=prop_s,
                fixed_cap_bps=min(caps, default=math.inf),
                fixed_inv_rate=_total(1.0 / c for c in caps),
                feeder_params=self.params[feeder.link_class],
                feeder_distance_km=feeder.distance_km,
                store_and_forward=self.store_and_forward,
            )
        return [exact[k] for k in rows]

    def least(self, order: list[int], bound: Callable, key: Callable) -> _RouteOption | None:
        """The built option of least ``key`` among the rows in ``order``,
        None if none is reachable. ``order`` runs by ``bound``, which is
        never above a row's exact key. The first row is built alone, then in
        each round every row whose bound is within the best key so far, until
        a round adds none: a row left out can neither beat the best nor tie it."""
        best, done = None, 0
        while done < len(order):
            stop = done + 1 if best is None else bisect_right(order, key(best), done, key=bound)
            if stop == done:
                break
            for option in self.built(order[done:stop]):
                if option is not None and (best is None or key(option) < key(best)):
                    best = option
            done = stop
        return best

    def pick(self, bits: float | None) -> _RouteOption | None:
        """``greedy()`` for ``bits`` None, else ``standalone(bits)``, each
        found once: a table and the bits are all either reads."""
        if bits not in self.picks:
            self.picks[bits] = self.greedy() if bits is None else self.standalone(bits)
        return self.picks[bits]

    def standalone(self, bits: float) -> _RouteOption | None:
        """The option of least full-share delay, ties by (station, entry,
        serving); ``prop_s + bits / rate_bps`` bounds a row's delay."""
        bound = self.prop_s + bits / self.rate_bps
        order, bound = np.argsort(bound, kind="stable").tolist(), bound.tolist()

        def key(o: _RouteOption) -> tuple:
            delay = _delay_s(o.base_prop_s, bits, o.full_rate_bps)
            return (delay, o.gs, o.entry or "", o.serving or "")

        return self.least(order, lambda k: (bound[k],), key)

    def greedy(self) -> _RouteOption | None:
        """The option of least ``(-rate, base prop, station, entry)`` at the
        nearest serving satellite that has any; with none, every option is a
        direct feeder, and the least of those wins. A row's key at its bounds
        is never above its exact key."""
        nodes = (*self.graph.nodes, "")  # a direct feeder's entry, -1, reads ""
        rates, props = self.rate_bps.tolist(), self.prop_s.tolist()

        def bound(k: int) -> tuple:
            return (-rates[k], props[k], self.chains[k][0], nodes[self.ends[k][0]])

        def key(o: _RouteOption) -> tuple:
            return (-o.full_rate_bps, o.base_prop_s, o.gs, o.entry or "")

        for serving in [*self.nearest, -1]:
            rows = sorted(np.flatnonzero(self.serving == serving).tolist(), key=bound)
            if (best := self.least(rows, bound, key)) is not None:
                return best
        return None


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
    _check_mode(mode, max_isls)
    for request in requests:
        if request.cached:
            raise ValueError(f"request {request.request_id} is cached")

    greedy_only = mode == MODE_GREEDY
    equal = mode == MODE_EQUAL
    zero_budget = max_isls == 0 and mode != MODE_FULL
    # Everything below reads only the context and these values, so a slot's
    # sweep cells share one plan per distinct key.
    key = (tuple(requests), greedy_only, equal, zero_budget)
    memo = ctx._non_cached_plans.get(key)
    if memo is not None:
        return list(memo)
    _check_request_ids(requests)
    plans: dict[str, RequestPlan] = {}
    deliverable: list[FileRequest] = []
    standalone: list[GsFlow] = []
    greedy: list[GsFlow] = []
    for request in requests:
        table_key = (request.aircraft_id, request.source_gs_set, zero_budget)
        if table_key not in ctx._option_tables:
            _check_nodes(ctx, request, [request.aircraft_id, *sorted(request.source_gs_set)])
            ctx._option_tables[table_key] = _OptionTable(ctx, *table_key)
        table = ctx._option_tables[table_key]
        pick = table.pick(None)
        if pick is None:
            plans[request.request_id] = RequestPlan(request, delivered=False, delay_s=math.inf)
            continue
        bits = float(request.total_bits)
        deliverable.append(request)
        greedy.append(GsFlow(request.request_id, bits, pick))
        if not greedy_only:
            standalone.append(GsFlow(request.request_id, bits, table.pick(bits)))

    def evaluate(flows: list[GsFlow]) -> tuple[float, list[GsFlow], dict[str, float]]:
        by_gs: dict[str, list[GsFlow]] = {}
        for flow in flows:
            by_gs.setdefault(flow.option.gs, []).append(flow)
        shares: dict[str, float] = {}
        for gs in sorted(by_gs):
            shares.update(ctx.gs_shares(by_gs[gs], equal))
        return _total(flow.delay_s(shares[flow.flow_id]) for flow in flows), flows, shares

    # The assignment with the least total delay wins, standalone on a tie.
    assignments = [greedy] if greedy_only else [standalone, greedy]
    _, flows, shares = min((evaluate(a) for a in assignments), key=lambda e: e[0])

    for request, flow in zip(deliverable, flows):
        option = flow.option
        share = shares[flow.flow_id]
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
            delay_s=flow.delay_s(share),
            serving_satellite=option.serving,
            gs_id=option.gs,
            bandwidth_share=share,
            streams=(stream,),
            activated_isl_edges=((option.activated_edge,) if option.activated_edge else ()),
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
    _check_request_ids(requests)
    plans: dict[str, RequestPlan] = {}
    for request in requests:
        if request.cached:
            plans[request.request_id] = plan_cached(request, ctx, max_isls, mode)
    non_cached = [r for r in requests if not r.cached]
    for plan in plan_non_cached(non_cached, ctx, max_isls, mode):
        plans[plan.request.request_id] = plan
    ordered = tuple(plans[r.request_id] for r in requests)
    delivered = [p for p in ordered if p.delivered]
    average = _total(p.delay_s for p in delivered) / len(delivered) if delivered else None
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
        return _total(cells) / len(cells) if cells else None

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
    lists = {"isls_values": isls_values, "modes": modes, "epochs": epochs, "seeds": seeds}
    if not all(lists.values()):
        raise ValueError("isls_values, modes, epochs and seeds must be non-empty")
    for mode in modes:
        _check_mode(mode, min(isls_values))
    # A repeated seed or epoch would weigh its cells twice in the means.
    for name, values in lists.items():
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must not repeat, got {values}")
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
