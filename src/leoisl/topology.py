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
    elevation_deg,
    elevations_deg,
    ground_position,
)


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


def _grid_pairs(num_planes: int, slots: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate +grid links as index pairs ``(lo, hi)``, each link once.

    Satellite ``(plane, slot)`` has index ``plane * slots + slot``. Every
    link joins a satellite to its next slot in the plane or to the same slot
    in the next plane. A ring of two holds one link, which only its index 0
    emits.
    """
    index = np.arange(num_planes * slots)
    plane, slot = np.divmod(index, slots)
    a, b = [index[:0]], [index[:0]]
    if slots >= 2:
        own = (slot == 0) | (slots > 2)
        a.append(index[own])
        b.append((plane * slots + (slot + 1) % slots)[own])
    if num_planes >= 2:
        own = (plane == 0) | (num_planes > 2)
        a.append(index[own])
        b.append(((plane + 1) % num_planes * slots + slot)[own])
    a, b = np.concatenate(a), np.concatenate(b)
    return np.minimum(a, b), np.maximum(a, b)


def _shell(
    positions: np.ndarray, config: ConstellationConfig
) -> tuple[tuple[str, ...], np.ndarray]:
    """The shell's node ids and its ``(N, 3)`` positions, in shell index order."""
    keys = orbits.sat_keys(config)
    pos = np.asarray(positions, dtype=float)
    if pos.shape != (len(keys), 3):
        raise ValueError(f"positions must have shape ({len(keys)}, 3), got {pos.shape}")
    return keys, pos


def _snapshot(
    keys: tuple[str, ...],
    pos: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    distances: np.ndarray,
    epoch_s: float,
    isl_params: LinkBudgetParams | None,
) -> TopologySnapshot:
    """ISL snapshot with one link per index pair ``(lo[i], hi[i])``, of
    length ``distances[i]``: the tail both builders share."""
    if isl_params is None:
        isl_params = links.default_link_params()[ISL_LASER]
    rate = isl_params.lisl_fixed_rate_bps
    # Links are ordered by (lower id, higher id). Each pair occurs once, so
    # sorting the id ranks of its ends gives that order.
    by_key = sorted(range(len(keys)), key=keys.__getitem__)
    nodes = tuple(keys[i] for i in by_key)
    rank = np.empty(len(keys), dtype=np.intp)
    rank[by_key] = np.arange(len(keys))
    first, second = np.minimum(rank[lo], rank[hi]), np.maximum(rank[lo], rank[hi])
    order = np.lexsort((second, first))
    ends = zip(first[order].tolist(), second[order].tolist(), distances[order].tolist())
    return TopologySnapshot(
        epoch_s=epoch_s,
        nodes=nodes,
        edges=tuple(
            LinkEdge(nodes[a], nodes[b], ISL_LASER, d, rate, propagation_delay_s(d))
            for a, b, d in ends
        ),
        positions=dict(zip(keys, pos)),
    )


def build_grid_topology(
    positions: np.ndarray,
    config: ConstellationConfig,
    epoch_s: float = 0.0,
    *,
    grazing_altitude_km: float = DEFAULT_GRAZING_ALTITUDE_KM,
    isl_params: LinkBudgetParams | None = None,
) -> TopologySnapshot:
    """The +grid pattern: in-plane ring plus same-slot links to adjacent planes.

    ``positions`` is the shell's ``(N, 3)`` array in shell index order, as
    :func:`orbits.propagate_arrays` returns it. Candidate links that fail
    line-of-sight (Earth plus grazing buffer) are dropped, so satellites near
    unfavorable geometry carry fewer than four links. Degenerate shells
    (single plane, two slots, ...) yield the subset of the pattern that
    exists without duplicate edges.
    """
    keys, pos = _shell(positions, config)
    # Line of sight runs from the lower index, as the scalar check would
    # walking the shell plane by plane.
    lo, hi = _grid_pairs(config.num_planes, config.sats_per_plane)
    seen = orbits.visible_rows(pos[lo], pos[hi], grazing_altitude_km)
    lo, hi = lo[seen], hi[seen]
    distances = orbits.row_norms(pos[lo] - pos[hi])
    return _snapshot(keys, pos, lo, hi, distances, epoch_s, isl_params)


def _admit(lo: list[int], hi: list[int], num_nodes: int, max_isls: int) -> np.ndarray:
    """Mask of the ranked candidates admitted by budget layers ``1..max_isls``:
    within a layer, a candidate is taken iff both ends sit below its degree."""
    degree = [0] * num_nodes
    taken = [False] * len(lo)
    for level in range(1, max_isls + 1):
        for c, (a, b) in enumerate(zip(lo, hi)):
            if not taken[c] and degree[a] < level and degree[b] < level:
                taken[c] = True
                degree[a] += 1
                degree[b] += 1
    return np.array(taken, dtype=bool)


def build_dynamic_topology(
    positions: np.ndarray,
    config: ConstellationConfig,
    max_isls: int,
    epoch_s: float = 0.0,
    *,
    max_range_km: float = DEFAULT_MAX_RANGE_KM,
    grazing_altitude_km: float = DEFAULT_GRAZING_ALTITUDE_KM,
    isl_params: LinkBudgetParams | None = None,
) -> TopologySnapshot:
    """Degree-capped greedy assignment over all pairs in communication range.

    ``positions`` is the shell's ``(N, 3)`` array in shell index order.
    Candidates (visible, within ``max_range_km``) are ranked nearest first,
    ties by node id. Edges are then admitted in budget layers 1..max_isls:
    within each layer a candidate is accepted iff both endpoints still sit
    below the layer's degree. The layering makes the edge set for budget k
    a strict subset of the set for k+1, which a single greedy pass over the
    ranked list does not guarantee.
    """
    if max_isls < 0:
        raise ValueError(f"max_isls must be >= 0, got {max_isls}")
    keys, pos = _shell(positions, config)
    # Pairs are taken in node-id order, so ties rank by id and line of sight
    # runs from the lower id. Shell index order agrees with it only while
    # planes and slots stay below 1000, where ``sat_key`` pads to 3 digits.
    by_key = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
    ranked = pos[by_key]
    lo, hi, distances = [], [], []
    # The last row has no later rows; its empty arrays keep the lists non-empty.
    for i in range(len(keys)):
        d = orbits.row_norms(ranked[i] - ranked[i + 1 :])
        near = np.flatnonzero(d <= max_range_km)
        near = near[orbits.visible_rows(ranked[i], ranked[i + 1 + near], grazing_altitude_km)]
        lo.append(np.full(len(near), i))
        hi.append(near + (i + 1))
        distances.append(d[near])
    lo, hi, distances = (np.concatenate(parts) for parts in (lo, hi, distances))
    order = np.lexsort((hi, lo, distances))
    if max_isls < len(keys) - 1:
        # From n - 1 links per node on, the final layer admits every candidate.
        order = order[_admit(lo[order].tolist(), hi[order].tolist(), len(keys), max_isls)]
    lo, hi, distances = by_key[lo[order]], by_key[hi[order]], distances[order]
    return _snapshot(keys, pos, lo, hi, distances, epoch_s, isl_params)


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
    positions, _ = orbits.propagate_arrays(config, epoch_s)
    if mode == GRID_MODE:
        return build_grid_topology(
            positions,
            config,
            epoch_s,
            grazing_altitude_km=grazing_altitude_km,
            isl_params=isl_params,
        )
    return build_dynamic_topology(
        positions,
        config,
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

    new_edges = list(snapshot.edges)

    def link(ground_id: str, other_id: str, link_class: str) -> None:
        distance = float(np.linalg.norm(positions[ground_id] - positions[other_id]))
        if distance == 0.0:  # coincident nodes; the loss model is undefined
            return
        a, b = sorted((ground_id, other_id))
        capacity = capacity_bps(link_params[link_class], distance, 1.0)
        new_edges.append(
            LinkEdge(a, b, link_class, distance, capacity, propagation_delay_s(distance))
        )

    sat_positions = np.array([snapshot.positions[key] for key in sat_keys])
    for node in stations + aircraft:
        sat_class = GROUND_TO_SAT if node.kind == GROUND_STATION else SAT_TO_AIR
        elevations = elevations_deg(positions[node.node_id], sat_positions)
        for sat, elevation in zip(sat_keys, elevations.tolist()):
            if elevation >= elevation_mask_deg:
                link(node.node_id, sat, sat_class)
    for gs in stations:
        for ac in aircraft:
            here, there = positions[gs.node_id], positions[ac.node_id]
            if elevation_deg(here, there) >= elevation_mask_deg:
                link(gs.node_id, ac.node_id, GROUND_TO_AIR)

    new_edges.sort(key=lambda e: (e.key, e.link_class))
    return TopologySnapshot(
        epoch_s=snapshot.epoch_s,
        nodes=tuple(sorted(positions)),
        edges=tuple(new_edges),
        positions=positions,
    )
