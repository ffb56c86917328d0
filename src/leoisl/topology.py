"""Per-epoch link graphs.

Two ISL construction modes: the quasi-permanent +grid (two in-plane
neighbors, two same-slot neighbors in adjacent planes) and a dynamic
degree-capped assignment over everything in communication range. Ground
stations and aircraft are attached afterwards via elevation-masked RF links.

Snapshots are immutable once built; build one per epoch and route on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import links, orbits
from .links import (
    GROUND_TO_AIR,
    GROUND_TO_SAT,
    ISL_LASER,
    SAT_TO_AIR,
    LinkBudgetParams,
    capacity_bps,
    propagation_delay_s,
)
from .orbits import (
    AIRCRAFT,
    DEFAULT_ELEVATION_MASK_DEG,
    DEFAULT_GRAZING_ALTITUDE_KM,
    GROUND_STATION,
    ConstellationConfig,
    GroundNode,
    SatelliteState,
    elevations_deg,
    ground_position,
    visible,
    visible_from_ground,
)

NEAREST_FIRST = "nearest_first"
INTRA_ORBIT_PREFERRED = "intra_orbit_preferred"
DYNAMIC_POLICIES = (NEAREST_FIRST, INTRA_ORBIT_PREFERRED)

DEFAULT_MAX_RANGE_KM = 5000.0

GRID_MODE = "grid"
DYNAMIC_MODE = "dynamic"
TOPOLOGY_MODES = (GRID_MODE, DYNAMIC_MODE)

CSV_HEADER = (
    "epoch_s",
    "node_a",
    "node_b",
    "link_class",
    "distance_km",
    "capacity_bps",
    "delay_s",
)


@dataclass(frozen=True)
class LinkEdge:
    """One undirected link; ``node_a < node_b`` by construction."""

    node_a: str
    node_b: str
    link_class: str
    distance_km: float
    capacity_bps: float
    delay_s: float

    @property
    def key(self) -> tuple[str, str]:
        return (self.node_a, self.node_b)

    def other(self, node: str) -> str:
        return self.node_b if node == self.node_a else self.node_a


@dataclass
class TopologySnapshot:
    """Time-stamped link graph over satellite and ground nodes."""

    epoch_s: float
    nodes: tuple[str, ...]
    edges: tuple[LinkEdge, ...]
    # Excluded from equality: ndarray comparison is elementwise.
    positions: dict[str, np.ndarray] = field(compare=False)
    _adjacency: dict[str, list[tuple[str, LinkEdge]]] | None = field(
        default=None, repr=False, compare=False
    )

    def adjacency(self) -> dict[str, list[tuple[str, LinkEdge]]]:
        """Neighbor lists (sorted by neighbor id) for every node."""
        if self._adjacency is None:
            adj: dict[str, list[tuple[str, LinkEdge]]] = {n: [] for n in self.nodes}
            for edge in self.edges:
                adj[edge.node_a].append((edge.node_b, edge))
                adj[edge.node_b].append((edge.node_a, edge))
            for neighbors in adj.values():
                neighbors.sort(key=lambda item: item[0])
            self._adjacency = adj
        return self._adjacency

    def isl_edges(self) -> list[LinkEdge]:
        return [e for e in self.edges if e.link_class == ISL_LASER]

    def isl_degrees(self) -> dict[str, int]:
        degrees = {n: 0 for n in self.nodes}
        for edge in self.isl_edges():
            degrees[edge.node_a] += 1
            degrees[edge.node_b] += 1
        return degrees

    def csv_rows(self) -> list[tuple]:
        rows = [CSV_HEADER]
        for e in self.edges:
            rows.append(
                (
                    self.epoch_s,
                    e.node_a,
                    e.node_b,
                    e.link_class,
                    e.distance_km,
                    e.capacity_bps,
                    e.delay_s,
                )
            )
        return rows


def _isl_edge(
    key_a: str, key_b: str, distance: float, params: LinkBudgetParams
) -> LinkEdge:
    a, b = (key_a, key_b) if key_a < key_b else (key_b, key_a)
    return LinkEdge(
        node_a=a,
        node_b=b,
        link_class=ISL_LASER,
        distance_km=distance,
        capacity_bps=params.lisl_fixed_rate_bps,
        delay_s=propagation_delay_s(distance),
    )


def _grid_pairs(num_planes: int, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate +grid links as index pairs ``(lo, hi)``, each link once.

    Satellite ``(plane, slot)`` has index ``plane * slots + slot``. Every
    link joins a satellite to its next slot in the plane or to the same slot
    in the next plane; a shell with two slots or two planes names a link
    twice, and ``np.unique`` keeps one.
    """
    index = np.arange(num_planes * slots)
    plane, slot = np.divmod(index, slots)
    ends = []
    if slots >= 2:
        ends.append(plane * slots + (slot + 1) % slots)
    if num_planes >= 2:
        ends.append((plane + 1) % num_planes * slots + slot)
    if not ends:
        return index[:0], index[:0]
    a = np.tile(index, len(ends))
    b = np.concatenate(ends)
    pairs = np.unique(np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1), axis=0)
    return pairs[:, 0], pairs[:, 1]


def build_grid_topology(
    states: list[SatelliteState],
    config: ConstellationConfig,
    epoch_s: float = 0.0,
    *,
    grazing_altitude_km: float = DEFAULT_GRAZING_ALTITUDE_KM,
    isl_params: LinkBudgetParams | None = None,
) -> TopologySnapshot:
    """The +grid pattern: in-plane ring plus same-slot links to adjacent planes.

    Candidate links that fail line-of-sight (Earth plus grazing buffer) are
    dropped, so satellites near unfavorable geometry carry fewer than four
    links. Degenerate shells (single plane, two slots, ...) yield the subset
    of the pattern that exists without duplicate edges.
    """
    if isl_params is None:
        isl_params = links.default_link_params()[ISL_LASER]
    positions = {s.node_key: s.position_km for s in states}
    num_planes, slots = config.num_planes, config.sats_per_plane
    keys = [orbits.sat_key(plane, slot) for plane in range(num_planes) for slot in range(slots)]
    pos = np.array([positions[key] for key in keys])
    # Line of sight runs from the lower index, as the scalar check would
    # walking the shell plane by plane.
    lo, hi = _grid_pairs(num_planes, slots)
    seen = orbits.visible_rows(pos[lo], pos[hi], grazing_altitude_km)
    lo, hi = lo[seen], hi[seen]
    distances = orbits.row_norms(pos[lo] - pos[hi])
    edges = [
        _isl_edge(keys[a], keys[b], distance, isl_params)
        for a, b, distance in zip(lo.tolist(), hi.tolist(), distances.tolist())
    ]
    edges.sort(key=lambda e: e.key)
    return TopologySnapshot(
        epoch_s=epoch_s,
        nodes=tuple(sorted(positions)),
        edges=tuple(edges),
        positions=positions,
    )


def build_dynamic_topology(
    states: list[SatelliteState],
    max_isls: int,
    epoch_s: float = 0.0,
    *,
    max_range_km: float = DEFAULT_MAX_RANGE_KM,
    policy: str = NEAREST_FIRST,
    grazing_altitude_km: float = DEFAULT_GRAZING_ALTITUDE_KM,
    isl_params: LinkBudgetParams | None = None,
) -> TopologySnapshot:
    """Degree-capped greedy assignment over all pairs in communication range.

    Candidates (visible, within ``max_range_km``) are ranked by the policy
    key; ``intra_orbit_preferred`` boosts same-plane pairs ahead of
    inter-plane ones. Edges are then admitted in budget layers 1..max_isls:
    within each layer a candidate is accepted iff both endpoints still sit
    below the layer's degree. The layering makes the edge set for budget k
    a strict subset of the set for k+1, which a single greedy pass over the
    ranked list does not guarantee.
    """
    if max_isls < 0:
        raise ValueError(f"max_isls must be >= 0, got {max_isls}")
    if policy not in DYNAMIC_POLICIES:
        raise ValueError(f"policy must be one of {DYNAMIC_POLICIES}, got {policy!r}")
    if isl_params is None:
        isl_params = links.default_link_params()[ISL_LASER]

    keyed = sorted(states, key=lambda s: s.node_key)
    positions = {s.node_key: s.position_km for s in keyed}
    planes = {s.node_key: s.sat_id[0] for s in keyed}

    candidates = []
    for i, sa in enumerate(keyed):
        for sb in keyed[i + 1 :]:
            distance = float(np.linalg.norm(sa.position_km - sb.position_km))
            if distance > max_range_km:
                continue
            if not visible(sa.position_km, sb.position_km, grazing_altitude_km):
                continue
            candidates.append((sa.node_key, sb.node_key, distance))
    if policy == INTRA_ORBIT_PREFERRED:
        candidates.sort(
            key=lambda c: (planes[c[0]] != planes[c[1]], c[2], c[0], c[1])
        )
    else:
        candidates.sort(key=lambda c: (c[2], c[0], c[1]))

    accepted: list[tuple[str, str, float]] = []
    if max_isls >= len(keyed) - 1:
        # Every candidate is admitted by the final layer anyway.
        accepted = candidates
    elif max_isls > 0:
        degree = {s.node_key: 0 for s in keyed}
        taken = [False] * len(candidates)
        for level in range(1, max_isls + 1):
            for idx, (a, b, _) in enumerate(candidates):
                if taken[idx]:
                    continue
                if degree[a] < level and degree[b] < level:
                    taken[idx] = True
                    degree[a] += 1
                    degree[b] += 1
        accepted = [c for c, ok in zip(candidates, taken) if ok]

    edges = [_isl_edge(a, b, distance, isl_params) for a, b, distance in accepted]
    edges.sort(key=lambda e: e.key)
    return TopologySnapshot(
        epoch_s=epoch_s,
        nodes=tuple(sorted(positions)),
        edges=tuple(edges),
        positions=positions,
    )


def build_isl_snapshot(
    config: ConstellationConfig,
    epoch_s: float,
    mode: str,
    *,
    max_isls: int,
    max_range_km: float = DEFAULT_MAX_RANGE_KM,
    grazing_altitude_km: float = DEFAULT_GRAZING_ALTITUDE_KM,
    isl_params: LinkBudgetParams | None = None,
) -> TopologySnapshot:
    """The shell's ISL snapshot at ``epoch_s`` in topology ``mode``.

    ``grid`` builds the +grid; ``dynamic`` the nearest-first mesh with at
    most ``max_isls`` links per satellite within ``max_range_km``.
    """
    if mode not in TOPOLOGY_MODES:
        raise ValueError(f"topology mode must be one of {TOPOLOGY_MODES}, got {mode!r}")
    states = orbits.propagate(config, epoch_s)
    if mode == GRID_MODE:
        return build_grid_topology(
            states,
            config,
            epoch_s,
            grazing_altitude_km=grazing_altitude_km,
            isl_params=isl_params,
        )
    return build_dynamic_topology(
        states,
        max_isls,
        epoch_s,
        max_range_km=max_range_km,
        grazing_altitude_km=grazing_altitude_km,
        isl_params=isl_params,
    )


def attach_ground_links(
    snapshot: TopologySnapshot,
    ground_nodes: list[GroundNode],
    *,
    link_params: dict[str, LinkBudgetParams] | None = None,
    elevation_mask_deg: float = DEFAULT_ELEVATION_MASK_DEG,
) -> TopologySnapshot:
    """New snapshot with feeder, space-to-air and ground-to-air edges added.

    A ground station links to every satellite above its elevation mask
    (``ground_to_sat``), an aircraft to every such satellite
    (``sat_to_air``), and a ground station to every aircraft above its mask
    (``ground_to_air``). Edge capacities are full-bandwidth; allocation
    factors are applied downstream by the delivery planner.
    """
    if link_params is None:
        link_params = links.default_link_params()
    sat_keys = [n for n in snapshot.nodes if n in snapshot.positions]
    positions = dict(snapshot.positions)
    stations = [g for g in ground_nodes if g.kind == GROUND_STATION]
    aircraft = [g for g in ground_nodes if g.kind == AIRCRAFT]
    for node in ground_nodes:
        if node.node_id in positions:
            raise ValueError(f"duplicate node id {node.node_id!r} in snapshot")
        positions[node.node_id] = ground_position(node, snapshot.epoch_s)

    def rf_edge(ground_id: str, other_id: str, link_class: str) -> LinkEdge | None:
        params = link_params[link_class]
        distance = float(np.linalg.norm(positions[ground_id] - positions[other_id]))
        if distance == 0.0:  # coincident nodes; the loss model is undefined
            return None
        a, b = sorted((ground_id, other_id))
        return LinkEdge(
            node_a=a,
            node_b=b,
            link_class=link_class,
            distance_km=distance,
            capacity_bps=capacity_bps(params, distance, 1.0),
            delay_s=propagation_delay_s(distance),
        )

    new_edges = list(snapshot.edges)

    def attach(ground_id: str, other_id: str, link_class: str) -> None:
        if visible_from_ground(
            positions[ground_id], positions[other_id], elevation_mask_deg
        ):
            link = rf_edge(ground_id, other_id, link_class)
            if link is not None:
                new_edges.append(link)

    sat_positions = np.array([snapshot.positions[key] for key in sat_keys])

    def attach_sats(ground_id: str, link_class: str) -> None:
        elevations = elevations_deg(positions[ground_id], sat_positions)
        for sat, elevation in zip(sat_keys, elevations.tolist()):
            if elevation >= elevation_mask_deg:
                link = rf_edge(ground_id, sat, link_class)
                if link is not None:
                    new_edges.append(link)

    for gs in stations:
        attach_sats(gs.node_id, GROUND_TO_SAT)
    for ac in aircraft:
        attach_sats(ac.node_id, SAT_TO_AIR)
    for gs in stations:
        for ac in aircraft:
            attach(gs.node_id, ac.node_id, GROUND_TO_AIR)

    new_edges.sort(key=lambda e: (e.key, e.link_class))
    return TopologySnapshot(
        epoch_s=snapshot.epoch_s,
        nodes=tuple(sorted(positions)),
        edges=tuple(new_edges),
        positions=positions,
    )
