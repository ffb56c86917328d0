"""Snapshot path computation and path-structure analysis.

Shortest-distance paths (SDP) and minimum-hop paths (MHP) over a frozen
snapshot, hop-count statistics between ground terminals across all possible
satellite associations, and an empirical check of how often the SDP is also
an MHP.

Every path comes from one engine in two parts. ``_shortest_paths`` computes
the distance labels of a batch of roots at once, in array rounds over the
graph's CSR arrays; ``_chain`` reads one path back from a root's labels
over tight links. The tie-break is minimum ``(distance, hops)`` (an MHP
weighs each link 1, so its distance is its hop count), then the
lexicographically smallest node sequence from the root: the path a Dijkstra
search with that tie-break picks. Results are therefore reproducible across
runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .orbits import (
    DEFAULT_ELEVATION_MASK_DEG,
    DEFAULT_GRAZING_ALTITUDE_KM,
    ConstellationConfig,
    GroundNode,
    elevations_deg,
    ground_position,
)
from .topology import (
    DEFAULT_MAX_RANGE_KM,
    GRID_MODE,
    LinkEdge,
    TopologySnapshot,
    build_isl_snapshot,
)

HOP_STATS_CSV_HEADER = (
    "pair_id",
    "epoch_s",
    "min_hops",
    "max_hops",
    "mean_hops",
    "spread",
)


@dataclass(frozen=True)
class Path:
    """A walk through a snapshot with its aggregate link metrics."""

    nodes: tuple[str, ...]
    hop_count: int
    total_distance_km: float
    total_propagation_delay_s: float
    bottleneck_capacity_bps: float
    edge_capacities_bps: tuple[float, ...] = ()


class _Graph(NamedTuple):
    """Integer-indexed view of some of a snapshot's links, as CSR arrays.

    Node ``i`` is ``nodes[i]``; ``snapshot.nodes`` is sorted, so index order
    is node-id order. Node ``i``'s links run to ``targets[offsets[i]:
    offsets[i + 1]]``, in index order, with lengths ``weights[...]``; each
    link is listed from both ends. ``edges`` maps each link's ``key`` to the
    link.
    """

    nodes: tuple[str, ...]
    index: dict[str, int]
    offsets: np.ndarray
    targets: np.ndarray
    weights: np.ndarray
    edges: dict[tuple[str, str], LinkEdge]


def _graph(
    snapshot: TopologySnapshot, edges: Iterable[LinkEdge], *, unit_weights: bool = False
) -> _Graph:
    """Graph over ``edges``, weighted by distance or, for hop counts, by 1."""
    nodes = snapshot.nodes
    index = {key: i for i, key in enumerate(nodes)}
    by_key = {edge.key: edge for edge in edges}
    ends = np.array([index[node] for key in by_key for node in key], dtype=np.intp)
    ends = ends.reshape(-1, 2)
    lengths = (
        np.ones(len(ends))
        if unit_weights
        else np.array([edge.distance_km for edge in by_key.values()], dtype=np.float64)
    )
    heads = np.concatenate([ends[:, 0], ends[:, 1]])
    tails = np.concatenate([ends[:, 1], ends[:, 0]])
    order = np.lexsort((tails, heads))
    offsets = np.zeros(len(nodes) + 1, dtype=np.intp)
    np.cumsum(np.bincount(heads, minlength=len(nodes)), out=offsets[1:])
    weights = np.concatenate([lengths, lengths])[order]
    return _Graph(nodes, index, offsets, tails[order], weights, by_key)


# Links one relaxation round may touch, summed over its roots. A round's
# temporaries are a few arrays of this length, so the roots go in batches
# of ``_batch_roots``.
_BATCH_LINKS = 1 << 18


def _batch_roots(graph: _Graph) -> int:
    """Roots per relaxation batch: ``_BATCH_LINKS`` over the number of
    directed links, at least one; 41 on a 1584-node +grid, 7 on a 528-node
    in-range mesh."""
    return max(1, _BATCH_LINKS // max(1, len(graph.targets)))


def _shortest_paths(graph: _Graph, roots: Sequence[int]) -> np.ndarray:
    """Distances from each of ``roots`` to every node, ``(len(roots), N)``.

    Unreached nodes are at infinity. Each round relaxes, in one array pass,
    the links of every (root, node) pair whose label fell in the round
    before, and lowers labels with ``np.minimum.at``; a batch of roots ends
    when no label falls. A label is the float sum ``fl(dist[u] + w)`` of its
    predecessor's label and the link, and float addition of a non-negative
    length is monotone, so the labels reach the least fixpoint of
    ``dist[v] = min_u fl(dist[u] + w)`` whatever the order of relaxation:
    bit for bit the labels a Dijkstra search settles.
    """
    size = len(graph.nodes)
    offsets, targets, weights = graph.offsets, graph.targets, graph.weights
    roots = np.asarray(roots, dtype=np.intp)
    dist = np.full((len(roots), size), np.inf)
    step = _batch_roots(graph)
    fallen = np.zeros(min(step, len(roots)) * size, dtype=bool)
    for first in range(0, len(roots), step):
        batch = roots[first : first + step]
        labels = dist[first : first + step].reshape(-1)  # a view: pair ``r * size + node``
        fell = np.arange(len(batch)) * size + batch
        labels[fell] = 0.0
        while fell.size:
            node = fell % size
            start = offsets[node]
            count = offsets[node + 1] - start
            # Every link of every fallen pair: link ``start + k`` of its node.
            ends = np.cumsum(count)
            link = np.arange(ends[-1]) + np.repeat(start - ends + count, count)
            label = np.repeat(labels[fell], count) + weights[link]
            pair = np.repeat(fell - node, count) + targets[link]
            lower = label < labels[pair]
            pair = pair[lower]
            np.minimum.at(labels, pair, label[lower])
            fallen[pair] = True
            fell = np.flatnonzero(fallen)
            fallen[fell] = False
    return dist


def _chain(graph: _Graph, dist: Sequence[float], root: int, v: int) -> list[int] | None:
    """The chosen ``root``-to-``v`` path as node indices, None if unreached.

    ``dist`` is ``root``'s row of ``_shortest_paths``, best as a list: the
    search reads it one node at a time. A link ``u -> x`` is tight when
    ``fl(dist[u] + w) == dist[x]``; the tight paths from ``root`` are
    exactly the least-distance ones. A breadth-first search backward from
    ``v`` over tight links keeps, for each node, its tight successors one
    level nearer ``v``, and stops at the level that holds ``root``. The walk
    forward from ``root`` then takes the smallest-index successor at each
    step: the fewest hops among least-distance paths, then the
    lexicographically smallest node sequence.
    """
    if math.isinf(dist[v]):
        return None
    offsets, targets, weights = graph.offsets, graph.targets, graph.weights
    successors: dict[int, list[int]] = {v: []}
    level = [v]
    while root not in successors:
        found: dict[int, list[int]] = {}
        for here in level:
            lo, hi = offsets[here], offsets[here + 1]
            label = dist[here]
            for there, weight in zip(targets[lo:hi].tolist(), weights[lo:hi].tolist()):
                if dist[there] + weight == label and there not in successors:
                    found.setdefault(there, []).append(here)
        successors.update(found)
        level = list(found)
    chain = [root]
    while chain[-1] != v:
        chain.append(min(successors[chain[-1]]))
    return chain


def _path(graph: _Graph, chain: Sequence[int]) -> Path:
    """The ``Path`` along node indices ``chain``, summed from its first node."""
    nodes = tuple([graph.nodes[i] for i in chain])
    distance = 0.0
    delay = 0.0
    capacities = []
    for a, b in zip(nodes, nodes[1:]):
        edge = graph.edges[(a, b) if a < b else (b, a)]
        distance += edge.distance_km
        delay += edge.delay_s
        capacities.append(edge.capacity_bps)
    return Path(
        nodes=nodes,
        hop_count=len(nodes) - 1,
        total_distance_km=distance,
        total_propagation_delay_s=delay,
        bottleneck_capacity_bps=min(capacities) if capacities else math.inf,
        edge_capacities_bps=tuple(capacities),
    )


def _best_path(graph: _Graph, src: str, dst: str) -> Path | None:
    if src not in graph.index or dst not in graph.index:
        raise ValueError(f"unknown node in pair ({src!r}, {dst!r})")
    root = graph.index[src]
    chain = _chain(graph, _shortest_paths(graph, [root])[0].tolist(), root, graph.index[dst])
    return None if chain is None else _path(graph, chain)


def shortest_distance_path(
    snapshot: TopologySnapshot, src: str, dst: str
) -> Path | None:
    """Minimum total-distance path, or None when the pair is disconnected."""
    return _best_path(_graph(snapshot, snapshot.edges), src, dst)


def min_hop_path(snapshot: TopologySnapshot, src: str, dst: str) -> Path | None:
    """Minimum edge-count path, or None when the pair is disconnected."""
    return _best_path(_graph(snapshot, snapshot.edges, unit_weights=True), src, dst)


# ---------------------------------------------------------------------------
# Statistics sweeps: counts only, no per-path sequences, over the ISL graph.
# ---------------------------------------------------------------------------


_BLOCK = 64  # sources per batched search: one bit of a uint64 word each
_BITS = np.left_shift(np.uint64(1), np.arange(_BLOCK, dtype=np.uint64))


def _hop_blocks(
    graph: _Graph, sources: Sequence[int], targets: Sequence[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Minimum hop counts from ``sources`` to ``targets``, 64 sources at a time.

    Yields ``(first, depth)`` per block of up to 64 consecutive sources:
    ``depth[k, j]`` is the hop count from ``sources[first + k]`` to
    ``targets[j]``, or -1 when unreachable. Each block runs one
    bit-parallel BFS: bit ``k`` of a node's word says source ``k`` has
    reached it. A level ORs together the frontier words of each node's
    neighbors (a gather over the CSR neighbor array) and keeps the bits not
    seen before, so a bit first shows on a node at its hop count. The search
    stops once every target holds every bit or nothing new is reached.
    Memory per block is a few words per node and one per directed edge.
    """
    size = len(graph.nodes)
    linked = np.flatnonzero(np.diff(graph.offsets))
    offsets = graph.offsets[linked]
    targets = np.asarray(targets, dtype=np.intp)
    for first in range(0, len(sources), _BLOCK):
        block = np.asarray(sources[first : first + _BLOCK], dtype=np.intp)
        bits = _BITS[: len(block)]
        everyone = np.bitwise_or.reduce(bits)
        frontier = np.zeros(size, dtype=np.uint64)
        np.bitwise_or.at(frontier, block, bits)
        seen = frontier.copy()
        # Target-major, so a level updates whole rows.
        depth = np.full((len(targets), len(block)), -1, dtype=np.int32)
        level = 0
        while True:
            arrived = frontier[targets]
            rows = np.flatnonzero(arrived)
            if rows.size:
                hit = np.unpackbits(
                    arrived[rows].astype("<u8", copy=False).view(np.uint8),
                    bitorder="little",
                ).reshape(-1, _BLOCK)[:, : len(block)]
                depth[rows] = np.where(hit, level, depth[rows])
            if not linked.size or (seen[targets] == everyone).all():
                break
            reached = np.zeros(size, dtype=np.uint64)
            reached[linked] = np.bitwise_or.reduceat(frontier[graph.targets], offsets)
            reached &= ~seen
            if not reached.any():
                break
            seen |= reached
            frontier = reached
            level += 1
        yield first, depth.T


@dataclass(frozen=True)
class HopStatsRow:
    """Hop-count spread of one ground pair at one epoch.

    ``associations`` counts the (start satellite, end satellite) pairs that
    were reachable; a row is ``skipped`` when an endpoint saw no satellite
    or no association was connected.
    """

    pair_id: str
    epoch_s: float
    min_hops: int | None
    max_hops: int | None
    mean_hops: float | None
    spread: int | None
    associations: int
    skipped: bool

    def csv_values(self) -> tuple:
        blank = ""
        return (
            self.pair_id,
            self.epoch_s,
            blank if self.min_hops is None else self.min_hops,
            blank if self.max_hops is None else self.max_hops,
            blank if self.mean_hops is None else self.mean_hops,
            blank if self.spread is None else self.spread,
        )


def ground_pair_hop_stats(
    config: ConstellationConfig,
    pairs: Sequence[tuple[GroundNode, GroundNode]],
    epochs: Iterable[float],
    topology_mode: str = GRID_MODE,
    *,
    max_isls: int = 4,
    max_range_km: float = DEFAULT_MAX_RANGE_KM,
    grazing_altitude_km: float = DEFAULT_GRAZING_ALTITUDE_KM,
    elevation_mask_deg: float = DEFAULT_ELEVATION_MASK_DEG,
) -> list[HopStatsRow]:
    """MHP hop-count stats over every satellite association of each pair.

    For each pair and epoch, every visible start satellite is associated
    with every visible end satellite and the ISL hop count between them is
    collected; the row reports min/max/mean and the max-min spread.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    epochs = list(epochs)
    if not epochs:
        raise ValueError("epochs must be non-empty")
    rows = []
    for epoch_s in epochs:
        snapshot = build_isl_snapshot(
            config,
            epoch_s,
            topology_mode,
            max_isls=max_isls,
            max_range_km=max_range_km,
            grazing_altitude_km=grazing_altitude_km,
        )
        graph = _graph(snapshot, snapshot.isl_edges())
        sat_positions = np.array([snapshot.positions[key] for key in graph.nodes])

        # Sorted indices of the satellites each ground node sees, computed
        # once per node. Keyed by the node itself: two nodes may share an id.
        visibility: dict[GroundNode, np.ndarray] = {}
        for node in itertools.chain.from_iterable(pairs):
            if node not in visibility:
                elevations = elevations_deg(ground_position(node, epoch_s), sat_positions)
                visibility[node] = np.flatnonzero(elevations >= elevation_mask_deg)

        # One batched search from every start satellite to every end
        # satellite; each pair reads its own rows and columns of each block.
        is_source = np.zeros(len(graph.nodes), dtype=bool)
        is_target = np.zeros(len(graph.nodes), dtype=bool)
        for node_a, node_b in pairs:
            is_source[visibility[node_a]] = True
            is_target[visibility[node_b]] = True
        sources, targets = np.flatnonzero(is_source), np.flatnonzero(is_target)
        starts = [np.searchsorted(sources, visibility[a]) for a, _ in pairs]
        ends = [np.searchsorted(targets, visibility[b]) for _, b in pairs]
        low: list[int | None] = [None] * len(pairs)
        high = [0] * len(pairs)
        total = [0] * len(pairs)
        count = [0] * len(pairs)
        for first, depth in _hop_blocks(graph, sources, targets):
            for p, (pair_starts, pair_ends) in enumerate(zip(starts, ends)):
                lo, hi = np.searchsorted(pair_starts, (first, first + len(depth)))
                if lo == hi or not pair_ends.size:
                    continue
                hops = depth[np.ix_(pair_starts[lo:hi] - first, pair_ends)]
                hops = hops[hops >= 0]
                if not hops.size:
                    continue
                least, most = int(hops.min()), int(hops.max())
                low[p] = least if low[p] is None else min(low[p], least)
                high[p] = max(high[p], most)
                total[p] += int(hops.sum(dtype=np.int64))
                count[p] += hops.size

        for p, (node_a, node_b) in enumerate(pairs):
            pair_id = f"{node_a.node_id}|{node_b.node_id}"
            if not count[p]:
                rows.append(
                    HopStatsRow(pair_id, epoch_s, None, None, None, None, 0, True)
                )
                continue
            rows.append(
                HopStatsRow(
                    pair_id=pair_id,
                    epoch_s=epoch_s,
                    min_hops=low[p],
                    max_hops=high[p],
                    mean_hops=total[p] / count[p],
                    spread=high[p] - low[p],
                    associations=count[p],
                    skipped=False,
                )
            )
    return rows


@dataclass(frozen=True)
class SdpMhpResult:
    """Fraction of sampled pairs whose SDP hop count equals the MHP's."""

    fraction: float
    pairs_checked: int
    pairs_matched: int
    pairs_unreachable: int


def snapshot_sdp_mhp_fraction(
    snapshot: TopologySnapshot, pairs: Sequence[tuple[str, str]]
) -> SdpMhpResult:
    """Evaluate the SDP-hops == MHP-hops discriminant on explicit pairs."""
    graph = _graph(snapshot, snapshot.isl_edges())
    by_source: dict[int, list[int]] = {}
    for src, dst in pairs:
        if src not in graph.index or dst not in graph.index:
            raise ValueError(f"unknown node in pair ({src!r}, {dst!r})")
        by_source.setdefault(graph.index[src], []).append(graph.index[dst])
    sources = list(by_source)
    targets = sorted({dst for dsts in by_source.values() for dst in dsts})
    column = {dst: j for j, dst in enumerate(targets)}
    checked = matched = unreachable = 0
    step = _batch_roots(graph)  # one engine batch at a time bounds the labels held
    for first, depth in _hop_blocks(graph, sources, targets):
        for part in range(0, len(depth), step):
            block = sources[first + part : first + part + step]
            rows = _shortest_paths(graph, block)
            for src, row, hops in zip(block, rows, depth[part : part + step]):
                dist = row.tolist()
                for dst in by_source[src]:
                    chain = _chain(graph, dist, src, dst)
                    if chain is None:
                        unreachable += 1
                        continue
                    checked += 1
                    if len(chain) - 1 == hops[column[dst]]:
                        matched += 1
    fraction = matched / checked if checked else 0.0
    return SdpMhpResult(fraction, checked, matched, unreachable)


def sdp_mhp_fraction(
    config: ConstellationConfig,
    topology_mode: str,
    sample_pairs: int,
    epochs: Iterable[float],
    rng_seed: int,
    *,
    max_isls: int = 4,
    max_range_km: float = DEFAULT_MAX_RANGE_KM,
    grazing_altitude_km: float = DEFAULT_GRAZING_ALTITUDE_KM,
) -> SdpMhpResult:
    """Sample satellite pairs per epoch and report the matched fraction."""
    if sample_pairs < 1:
        raise ValueError(f"sample_pairs must be >= 1, got {sample_pairs}")
    epochs = list(epochs)
    if not epochs:
        raise ValueError("epochs must be non-empty")
    rng = np.random.default_rng(rng_seed)
    checked = matched = unreachable = 0
    for epoch_s in epochs:
        snapshot = build_isl_snapshot(
            config,
            epoch_s,
            topology_mode,
            max_isls=max_isls,
            max_range_km=max_range_km,
            grazing_altitude_km=grazing_altitude_km,
        )
        nodes = list(snapshot.nodes)
        if len(nodes) < 2:
            continue
        pairs = []
        for _ in range(sample_pairs):
            i = int(rng.integers(0, len(nodes)))
            j = int(rng.integers(0, len(nodes) - 1))
            if j >= i:
                j += 1
            pairs.append((nodes[i], nodes[j]))
        result = snapshot_sdp_mhp_fraction(snapshot, pairs)
        checked += result.pairs_checked
        matched += result.pairs_matched
        unreachable += result.pairs_unreachable
    fraction = matched / checked if checked else 0.0
    return SdpMhpResult(fraction, checked, matched, unreachable)
