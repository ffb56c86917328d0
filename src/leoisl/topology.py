"""Per-epoch link graphs.

Two ISL construction modes: the quasi-permanent +grid (two in-plane
neighbors, two same-slot neighbors in adjacent planes) and a dynamic
degree-capped assignment over everything in communication range. Ground
stations and aircraft are attached afterwards via elevation-masked RF links.
``build_snapshot`` builds a scenario's epoch; it and the three builders it
calls read every setting (shell, laser rate, RF budgets, range, grazing
altitude, elevation mask, ground nodes) from the scenario they are handed.

Snapshots are immutable once built; build one per epoch and route on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from . import links, orbits
from .links import (
    GROUND_TO_AIR,
    GROUND_TO_SAT,
    ISL_LASER,
    LINK_CLASSES,
    SAT_TO_AIR,
    capacity_bps,
)
from .orbits import (
    AIRCRAFT,
    GROUND_STATION,
    elevations_deg,
    ground_position,
)

if TYPE_CHECKING:  # pragma: no cover - scenario imports this module
    from .scenario import Scenario


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


# Link class codes index this tuple. It is sorted, so code order is id order.
CLASS_ORDER = tuple(sorted(LINK_CLASSES))
ISL_CODE = CLASS_ORDER.index(ISL_LASER)


class Links(NamedTuple):
    """Parallel link arrays: link ``k`` joins node indexes ``a[k]`` and
    ``b[k]``, and its class is ``CLASS_ORDER[link_class[k]]``."""

    a: np.ndarray
    b: np.ndarray
    link_class: np.ndarray
    distance_km: np.ndarray
    capacity_bps: np.ndarray
    delay_s: np.ndarray

    def take(self, rows) -> Links:
        """The links at ``rows``: an index array, a mask or a slice."""
        return Links(*(column[rows] for column in self))


def _links(a, b, link_class: str, distances: np.ndarray, capacities: np.ndarray) -> Links:
    """Links of one class, with light-time delays."""
    code = np.full(len(distances), CLASS_ORDER.index(link_class), dtype=np.int8)
    return Links(a, b, code, distances, capacities, links.propagation_delay_s(distances))


@dataclass(eq=False)
class TopologySnapshot:
    """Time-stamped link graph over satellite and ground nodes.

    Row ``i`` of the ``(N, 3)`` ``positions`` belongs to ``nodes[i]``, and
    the links index ``nodes``. Built from nodes in any order, a snapshot
    holds them sorted by id, and its links in (node_a, node_b, class) order
    with ``a < b``.
    """

    epoch_s: float
    nodes: tuple[str, ...]
    positions: np.ndarray
    links: Links

    def __post_init__(self) -> None:
        by_id = sorted(range(len(self.nodes)), key=self.nodes.__getitem__)
        rank = np.empty(len(by_id), dtype=np.intp)
        rank[by_id] = np.arange(len(by_id))
        self.nodes = tuple(self.nodes[i] for i in by_id)
        self.positions = self.positions[by_id]
        a, b = rank[self.links.a], rank[self.links.b]
        a, b = np.minimum(a, b), np.maximum(a, b)
        # One sort by (a, b, class) packed into an integer: a stable sort of
        # a key that arrives mostly in order takes about a pass.
        key = (a * len(by_id) + b) * len(CLASS_ORDER) + self.links.link_class
        self.links = self.links._replace(a=a, b=b).take(np.argsort(key, kind="stable"))

    def _rows(self, rows) -> Iterator[tuple]:
        """The links at ``rows`` (see ``Links.take``) as ``LinkEdge`` field tuples."""
        nodes = self.nodes
        for i, j, k, *metrics in zip(*(column.tolist() for column in self.links.take(rows))):
            yield (nodes[i], nodes[j], CLASS_ORDER[k], *metrics)

    def link_edges(self, rows) -> tuple[LinkEdge, ...]:
        return tuple(LinkEdge(*fields) for fields in self._rows(rows))

    @cached_property
    def edges(self) -> tuple[LinkEdge, ...]:
        """Every link as a ``LinkEdge``, built on first use."""
        return self.link_edges(slice(None))

    def csv_rows(self) -> list[tuple]:
        return [CSV_HEADER, *((self.epoch_s, *fields) for fields in self._rows(slice(None)))]


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


def _shell(positions: np.ndarray, scenario: Scenario) -> tuple[tuple[str, ...], np.ndarray]:
    """The shell's node ids and its ``(N, 3)`` positions, in shell index order."""
    keys = orbits.sat_keys(scenario.constellation)
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
    scenario: Scenario,
) -> TopologySnapshot:
    """ISL snapshot with one link per index pair ``(lo[i], hi[i])``, of
    length ``distances[i]``, at the scenario's laser rate: the tail both
    builders share."""
    rates = np.full(len(distances), scenario.topology.laser_rate_bps, dtype=float)
    return TopologySnapshot(epoch_s, keys, pos, _links(lo, hi, ISL_LASER, distances, rates))


def build_grid_topology(
    positions: np.ndarray, scenario: Scenario, epoch_s: float
) -> TopologySnapshot:
    """The +grid pattern: in-plane ring plus same-slot links to adjacent planes.

    ``positions`` is the scenario shell's ``(N, 3)`` array in shell index
    order, as :func:`orbits.propagate`'s ``position_km``. Candidate links
    that fail line-of-sight (Earth plus the scenario's grazing buffer) are
    dropped, so satellites near unfavorable geometry carry fewer than four
    links. Degenerate shells (single plane, two slots, ...) yield the subset
    of the pattern that exists without duplicate edges.
    """
    keys, pos = _shell(positions, scenario)
    config = scenario.constellation
    # Line of sight runs from the lower index, as the scalar check would
    # walking the shell plane by plane.
    lo, hi = _grid_pairs(config.num_planes, config.sats_per_plane)
    seen = orbits.visible_rows(pos[lo], pos[hi], scenario.topology.grazing_altitude_km)
    lo, hi = lo[seen], hi[seen]
    distances = orbits.row_norms(pos[lo] - pos[hi])
    return _snapshot(keys, pos, lo, hi, distances, epoch_s, scenario)


# Candidate pairs one scan block may hold. A block's temporaries are a few
# arrays of this many pairs (its differences three floats each), so a block
# takes ``_SCAN_PAIRS // N`` rows: a 120-satellite shell in one block, 248
# rows at 528 satellites and 82 at 1584.
_SCAN_PAIRS = 1 << 17


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
    positions: np.ndarray, scenario: Scenario, epoch_s: float
) -> TopologySnapshot:
    """Degree-capped greedy assignment over all pairs in communication range.

    ``positions`` is the scenario shell's ``(N, 3)`` array in shell index
    order. Candidates (visible, within the scenario's ``max_range_km``) are
    ranked nearest first, ties by node id. Edges are then admitted in budget
    layers 1..max_isls: within each layer a candidate is accepted iff both
    endpoints still sit below the layer's degree. The layering makes the
    edge set for budget k a strict subset of the set for k+1, which a single
    greedy pass over the ranked list does not guarantee.
    """
    keys, pos = _shell(positions, scenario)
    topology = scenario.topology
    # Pairs are taken in node-id order, so ties rank by id and line of sight
    # runs from the lower id. Shell index order agrees with it only while
    # planes and slots stay below 1000, where ``sat_key`` pads to 3 digits.
    by_key = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.intp)
    ranked = pos[by_key]
    lo, hi, distances = [], [], []
    # Rows ``first..last`` against every later row, one block at a time. Row
    # ``i``'s column ``c`` is node ``first + 1 + c``, later than ``i`` iff
    # ``c >= i - first``. ``np.nonzero`` walks the block row-major, so the
    # pairs come out as a scan row by row would emit them.
    step = max(1, _SCAN_PAIRS // len(keys))
    for first in range(0, len(keys), step):
        d = orbits.row_norms(ranked[first : first + step, None] - ranked[None, first + 1 :])
        later = np.arange(d.shape[1]) >= np.arange(d.shape[0])[:, None]
        rows, cols = np.nonzero(later & (d <= topology.max_range_km))
        i, j = first + rows, first + 1 + cols
        seen = orbits.visible_rows(ranked[i], ranked[j], topology.grazing_altitude_km)
        lo.append(i[seen])
        hi.append(j[seen])
        distances.append(d[rows[seen], cols[seen]])
    lo, hi, distances = (np.concatenate(parts) for parts in (lo, hi, distances))
    # From n - 1 links per node on, the final layer admits every candidate.
    if topology.max_isls < len(keys) - 1:
        order = np.lexsort((hi, lo, distances))
        taken = _admit(lo[order].tolist(), hi[order].tolist(), len(keys), topology.max_isls)
        order = order[taken]
        lo, hi, distances = lo[order], hi[order], distances[order]
    return _snapshot(keys, pos, by_key[lo], by_key[hi], distances, epoch_s, scenario)


def attach_ground_links(snapshot: TopologySnapshot, scenario: Scenario) -> TopologySnapshot:
    """New snapshot with the scenario's stations and aircraft and their
    feeder, space-to-air and ground-to-air edges added.

    A ground station links to every satellite above the scenario's elevation
    mask (``ground_to_sat``), an aircraft to every such satellite
    (``sat_to_air``), and a ground station to every aircraft above the mask
    (``ground_to_air``). Edge capacities are full-bandwidth at the scenario's
    link budgets; allocation factors are applied downstream by the delivery
    planner.
    """
    ground_nodes = [*scenario.ground_stations, *scenario.aircraft]
    ids = set(snapshot.nodes)
    for node in ground_nodes:
        if node.node_id in ids:
            raise ValueError(f"duplicate node id {node.node_id!r} in snapshot")
        ids.add(node.node_id)
    # The ground nodes follow the snapshot's: ``ground_nodes[i]`` is ``first + i``.
    first = len(snapshot.nodes)
    placed = [ground_position(node, snapshot.epoch_s) for node in ground_nodes]
    positions = np.concatenate([snapshot.positions, np.reshape(placed, (-1, 3))])
    parts = [snapshot.links]

    def link(ground: int, others: np.ndarray, link_class: str) -> None:
        """Links of ``link_class`` from ``ground`` to the ``others`` above its mask."""
        elevations = elevations_deg(positions[ground], positions[others])
        others = others[elevations >= scenario.topology.elevation_mask_deg]
        distances = orbits.row_norms(positions[ground] - positions[others])
        keep = distances != 0.0  # coincident nodes; the loss model is undefined
        others, distances = others[keep], distances[keep]
        params = scenario.link_params[link_class]
        capacities = np.array([capacity_bps(params, d, 1.0) for d in distances.tolist()])
        ground_ends = np.full(len(others), ground)
        parts.append(_links(ground_ends, others, link_class, distances, capacities))

    satellites = np.arange(first)
    aircraft = first + np.flatnonzero([node.kind == AIRCRAFT for node in ground_nodes])
    for g, node in enumerate(ground_nodes, first):
        if node.kind == GROUND_STATION:
            link(g, satellites, GROUND_TO_SAT)
            link(g, aircraft, GROUND_TO_AIR)
        else:
            link(g, satellites, SAT_TO_AIR)
    nodes = snapshot.nodes + tuple(node.node_id for node in ground_nodes)
    merged = Links(*map(np.concatenate, zip(*parts)))
    return TopologySnapshot(snapshot.epoch_s, nodes, positions, merged)


def build_snapshot(
    scenario: Scenario, epoch_s: float, *, ground: bool = False
) -> TopologySnapshot:
    """The scenario's snapshot at ``epoch_s``.

    Propagates the shell once and builds the ISLs that
    ``scenario.topology.mode`` names: the +grid (``grid``) or the
    nearest-first mesh (``dynamic``). With ``ground``, attaches the
    scenario's stations and aircraft. Every builder reads its settings from
    the scenario.
    """
    positions = orbits.propagate(scenario.constellation, epoch_s).position_km
    if scenario.topology.mode == GRID_MODE:
        snapshot = build_grid_topology(positions, scenario, epoch_s)
    else:
        snapshot = build_dynamic_topology(positions, scenario, epoch_s)
    return attach_ground_links(snapshot, scenario) if ground else snapshot
