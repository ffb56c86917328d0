"""Independent oracles used by the test suite.

These deliberately avoid the library's own search/solve paths: numerical
integration for orbits, bisection for the equal-finish completion time, and
exhaustive enumeration for plan and path choices.
"""

import itertools
import math

import numpy as np

from leoisl.delivery import PER_STREAM, optimal_ratio_delay
from leoisl.links import ISL_LASER, SAT_TO_AIR
from leoisl.orbits import EARTH_MU_KM3_S2, propagate


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
