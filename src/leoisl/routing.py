"""Snapshot path computation and path-structure analysis.

Shortest-distance paths (SDP) and minimum-hop paths (MHP) over a frozen
snapshot, hop-count statistics between ground terminals across all possible
satellite associations, and an empirical check of how often the SDP is also
an MHP.

Every path comes from one engine. ``_shortest_paths`` computes
the distance labels of a batch of roots at once, in array rounds over the
graph's padded table, only as far as the farthest of each root's targets;
``_tight_levels`` then runs one breadth-first search backward from the end
of every (root, end) pair at once over tight links, and ``_chains`` walks
each pair's path forward through its levels. The tie-break is minimum
``(distance, hops)`` (an MHP weighs each link 1, so its distance is its hop
count), then the lexicographically smallest node sequence from the root:
the path a Dijkstra search with that tie-break picks. Results are therefore
reproducible across runs. Where only a path's hop count is wanted, as in
``sdp-mhp``, the levels' counts suffice and no path is walked.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .orbits import GroundNode, elevations_deg, ground_position
from .topology import ISL_CODE, Links, TopologySnapshot, build_snapshot

if TYPE_CHECKING:  # pragma: no cover - scenario imports this module through delivery
    from .scenario import Scenario

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
    """Integer-indexed view of some of a snapshot's links, as one padded table.

    Node ``i`` is ``nodes[i]``; ``snapshot.nodes`` is sorted, so index order
    is node-id order. Row ``i`` of the max-degree-wide ``neighbors`` lists
    node ``i``'s links by far end, in index order; ``lengths`` holds their
    lengths and ``rows`` their rows in ``links``, the snapshot's link arrays
    the graph was built from. Each link is listed from both ends. Short rows
    are padded with node ``N = len(nodes)`` at infinite length and row -1.
    A pad's length keeps it from lowering a label or looking tight, whatever
    label it reads, and the hop search gives node N a word that stays 0.
    A link's table position ``i * width + slot`` orders by node first.
    """

    nodes: tuple[str, ...]
    index: dict[str, int]
    neighbors: np.ndarray
    lengths: np.ndarray
    rows: np.ndarray
    links: Links


def _graph(
    snapshot: TopologySnapshot, *, ground: bool = False, unit_weights: bool = False
) -> _Graph:
    """Graph over the snapshot's laser links, or over all its links with
    ``ground``; weighted by distance or, for hop counts, by 1."""
    nodes, size = snapshot.nodes, len(snapshot.nodes)
    links = snapshot.links
    if not ground:
        links = links.take(links.link_class == ISL_CODE)
    lengths = np.ones(len(links.a)) if unit_weights else links.distance_km
    # Every link from both ends, by (near end, far end): row-major order
    # over the table's filled slots.
    tails = np.concatenate([links.b, links.a])
    order = np.argsort(np.concatenate([links.a, links.b]) * size + tails, kind="stable")
    degree = np.bincount(links.a, minlength=size) + np.bincount(links.b, minlength=size)
    filled = np.arange(degree.max(initial=0)) < degree[:, None]

    def padded(pad, values: np.ndarray) -> np.ndarray:
        table = np.full(filled.shape, pad, dtype=values.dtype)
        table[filled] = values
        return table

    neighbors = padded(size, tails[order])
    rows = np.remainder(order, max(1, len(links.a)), out=order)  # in place: a large mesh
    index = {key: i for i, key in enumerate(nodes)}
    return _Graph(nodes, index, neighbors, padded(np.inf, lengths[rows]), padded(-1, rows), links)


# Table slots one relaxation round may touch, summed over its roots. A
# round's temporaries are a few arrays of this length, so the roots go in
# batches of ``_batch_roots``.
_BATCH_LINKS = 1 << 19


def _batch_roots(graph: _Graph) -> int:
    """Roots per relaxation batch: ``_BATCH_LINKS`` over the table's slots,
    at least one; 82 on a 1584-node +grid, more than a hop block's 64
    sources, and 1 on its in-range mesh."""
    return max(1, _BATCH_LINKS // max(1, graph.neighbors.size))


def _shortest_paths(
    graph: _Graph, roots: Sequence[int], targets: Sequence[Sequence[int]]
) -> np.ndarray:
    """Distances from each of ``roots`` to every node, ``(len(roots), N)``,
    exact up to the farthest of each root's ``targets``.

    Unreached nodes are at infinity. Each round relaxes, in one array pass,
    the links of every (root, node) pair whose label fell in the round
    before, read as that node's table row, and lowers labels with
    ``np.minimum.at``; a batch of roots ends when no label falls. A label is
    the float sum ``fl(dist[u] + w)`` of its predecessor's label and the
    link, and float addition of a non-negative length is monotone, so the
    labels reach the least fixpoint of ``dist[v] = min_u fl(dist[u] + w)``
    whatever the order of relaxation: bit for bit the labels a Dijkstra
    search settles. A pad's pair ``r * N + N`` is the next row's first
    label, or past the last (read clipped); its infinite length never lowers it.

    A round drops every fallen pair whose label is above its root's bound:
    the largest current label among the root's targets, infinite until all
    are reached. Float addition of a length >= 0 is monotone, so a node no
    farther than the farthest target has least-distance predecessors no
    farther still, which are never dropped once exact, and keeps its exact
    label. Any other label stays at or above its fixpoint, so it never makes
    a link into a target's tight subgraph look tight, and ``_chains`` reads
    the same paths from these labels as from full ones. Full labels take
    every node as a target.
    """
    size = len(graph.nodes)
    roots = np.asarray(roots, dtype=np.intp)
    dist = np.full((len(roots), size), np.inf)
    step = _batch_roots(graph)
    fallen = np.zeros(min(step, len(roots)) * size, dtype=bool)
    for first in range(0, len(roots), step):
        batch = roots[first : first + step]
        labels = dist[first : first + step].reshape(-1)  # a view: pair ``r * size + node``
        fell = np.arange(len(batch)) * size + batch
        # Each root's targets as pairs, padded with the root itself: its
        # label 0 never raises the bound.
        wanted = targets[first : first + step]
        need = np.repeat(fell[:, None], max(map(len, wanted), default=0), axis=1)
        for k, nodes in enumerate(wanted):
            need[k, : len(nodes)] = np.asarray(nodes, dtype=np.intp) + k * size
        labels[fell] = 0.0
        while fell.size:
            node = fell % size
            label = (labels[fell][:, None] + np.take(graph.lengths, node, axis=0)).ravel()
            pair = ((fell - node)[:, None] + np.take(graph.neighbors, node, axis=0)).ravel()
            lower = label < np.take(labels, pair, mode="clip")
            pair = pair[lower]
            np.minimum.at(labels, pair, label[lower])
            fallen[pair] = True
            fell = np.flatnonzero(fallen)
            fallen[fell] = False
            if fell.size:
                bound = labels[need].max(axis=1, initial=0.0)
                fell = fell[labels[fell] <= bound[fell // size]]
    return dist


def _tight_levels(
    graph: _Graph, dist: np.ndarray, roots: np.ndarray, rows: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The hop count of the chosen path of each pair ``(r, e)`` of ``rows``
    and ``ends``, from ``roots[r]`` to ``e`` over ``dist[r]``, or -1 where
    ``e`` is unreached; and the levels of the search that finds them.

    A link ``u -> x`` is tight when ``fl(dist[u] + w) == dist[x]``; the
    tight paths from a root are exactly its least-distance ones. One
    breadth-first search runs backward from every pair's end at once, in
    array rounds over the table's rows; a pair's count is the first level
    that holds its root, the fewest hops among its least-distance paths.
    Level ``d`` holds, as sorted keys ``pair * N + node``, the nodes with a
    tight path of ``d`` links to the pair's end, for each pair still
    searching; and for each key past level 0, the table position of its
    first tight link into level ``d - 1``. Positions order by node first,
    so that link leads to the smallest-index successor. ``dist`` must be
    exact at the ends, as full labels are and as labels bounded by these
    ends are: then every tight path from a reached end leads to its root,
    and each pair's search stops there. A pad is never tight: its infinite
    length tops any label it reads (the last row's read clipped).
    """
    size, width = len(graph.nodes), graph.neighbors.shape[1]
    span = max(1, graph.neighbors.size)
    labels = dist.reshape(-1)
    base = rows * size  # each pair's row of ``labels``
    hops = np.full(len(rows), -1, dtype=np.intp)
    levels = []
    pair = np.flatnonzero(np.isfinite(labels[base + ends]))
    node, link = ends[pair], np.full(len(pair), -1)
    while pair.size:
        levels.append((pair * size + node, link))
        hops[pair[node == roots[rows[pair]]]] = len(levels) - 1
        open_ = hops[pair] < 0
        pair, node = pair[open_], node[open_]
        there, row = np.take(graph.neighbors, node, axis=0), base[pair]
        ahead = np.take(labels, row[:, None] + there, mode="clip")
        tight = ahead + np.take(graph.lengths, node, axis=0) == labels[row + node][:, None]
        link = node[:, None] * width + np.arange(width)
        key, link = np.divmod(np.sort(((pair[:, None] * size + there) * span + link)[tight]), span)
        fresh = np.empty(key.size, dtype=bool)  # the first of each run of equal keys
        fresh[:1] = True
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        (pair, node), link = np.divmod(key[fresh], size), link[fresh]
    return hops, levels


def _chains(
    graph: _Graph, dist: np.ndarray, roots: np.ndarray, rows: np.ndarray, ends: np.ndarray
) -> list[tuple[list[int], np.ndarray] | None]:
    """The chosen path of each pair ``(r, e)`` of ``rows`` and ``ends``,
    from ``roots[r]`` to ``e`` over ``dist[r]``: its node indices and the
    rows of its links in ``graph.links``, or None where ``e`` is unreached.

    Every pair walks forward from its root through ``_tight_levels``, one
    level nearer its end per step, along each node's first tight link: the
    fewest hops among least-distance paths, then the lexicographically
    smallest node sequence.
    """
    hops, levels = _tight_levels(graph, dist, roots, rows, ends)
    size = len(graph.nodes)
    span = len(rows) * size
    # Every level in one sorted array, level ``d``'s keys shifted by ``d * span``.
    none = np.empty(0, dtype=np.intp)
    keys = np.concatenate([none] + [key + d * span for d, (key, _) in enumerate(levels)])
    firsts = np.concatenate([none] + [link for _, link in levels])
    nodes = np.zeros((len(rows), hops.max(initial=0) + 1), dtype=np.intp)
    links = np.zeros((len(rows), nodes.shape[1] - 1), dtype=np.intp)
    nodes[:, 0] = roots[rows]
    pair = np.flatnonzero(hops > 0)
    for step in range(links.shape[1]):
        key = (hops[pair] - step) * span + pair * size + nodes[pair, step]
        links[pair, step] = link = firsts[np.searchsorted(keys, key)]
        nodes[pair, step + 1] = link // graph.neighbors.shape[1]
        pair = pair[hops[pair] > step + 1]
    return [
        None if h < 0 else (nodes[k, : h + 1].tolist(), np.take(graph.rows, links[k, :h]))
        for k, h in enumerate(hops.tolist())
    ]


def _total(values: Iterable[float]) -> float:
    """Float sum from 0.0, strictly left to right. Every float total goes
    through here: the builtin ``sum`` is compensated from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


def _path(graph: _Graph, chain: Sequence[int], rows: np.ndarray) -> Path:
    """The ``Path`` along node indices ``chain`` over the links at ``rows``,
    each metric column read once; distance and delay add up hop by hop from
    the first node."""
    nodes = tuple([graph.nodes[i] for i in chain])
    links = graph.links
    capacities = links.capacity_bps[rows].tolist()
    return Path(
        nodes=nodes,
        hop_count=len(nodes) - 1,
        total_distance_km=_total(links.distance_km[rows].tolist()),
        total_propagation_delay_s=_total(links.delay_s[rows].tolist()),
        bottleneck_capacity_bps=min(capacities) if capacities else math.inf,
        edge_capacities_bps=tuple(capacities),
    )


def _best_path(graph: _Graph, src: str, dst: str) -> Path | None:
    if src not in graph.index or dst not in graph.index:
        raise ValueError(f"unknown node in pair ({src!r}, {dst!r})")
    root, end = np.array([graph.index[src]]), np.array([graph.index[dst]])
    (found,) = _chains(graph, _shortest_paths(graph, root, [end]), root, np.zeros(1, np.intp), end)
    return None if found is None else _path(graph, *found)


def shortest_distance_path(
    snapshot: TopologySnapshot, src: str, dst: str
) -> Path | None:
    """Minimum total-distance path, or None when the pair is disconnected."""
    return _best_path(_graph(snapshot, ground=True), src, dst)


def min_hop_path(snapshot: TopologySnapshot, src: str, dst: str) -> Path | None:
    """Minimum edge-count path, or None when the pair is disconnected."""
    return _best_path(_graph(snapshot, ground=True, unit_weights=True), src, dst)


# ---------------------------------------------------------------------------
# Statistics sweeps: counts only, no per-path sequences, over the ISL graph.
# ---------------------------------------------------------------------------


_BLOCK = 64  # sources per yielded block: one bit of a uint64 word each
_BITS = np.left_shift(np.uint64(1), np.arange(_BLOCK, dtype=np.uint64))
# Table slots times 64-bit words one hop-search level may gather. A level's
# temporaries are a few arrays of this many words, so the sources go in
# searches of as many words as fit, at least one.
_BATCH_WORDS = 1 << 16


def _unpack(words: np.ndarray, count: int) -> np.ndarray:
    """Bits 0 to ``count - 1`` of each word as 0/1 columns, ``(len(words), count)``."""
    bits = np.unpackbits(np.ascontiguousarray(words, dtype="<u8").view(np.uint8), bitorder="little")
    return bits.reshape(-1, _BLOCK)[:, :count].astype(np.int32)


def _hop_blocks(
    graph: _Graph, sources: Sequence[int], targets: Sequence[int]
) -> Iterator[tuple[int, np.ndarray]]:
    """Minimum hop counts from ``sources`` to ``targets``, 64 sources at a time.

    Yields ``(first, depth)`` per block of up to 64 consecutive sources:
    ``depth[k, j]`` is the hop count from ``sources[first + k]`` to
    ``targets[j]``, or -1 when unreachable. Each search is one bit-parallel
    BFS over as many 64-bit words per node as ``_BATCH_WORDS`` allows
    (Then et al., VLDB 2014): bit ``k`` of word ``w`` says the search's
    source ``64 w + k`` has reached the node. A level gathers the frontier
    words of each node's neighbors, node-major through the graph's table,
    ORs them together and keeps the bits not seen before, so a bit first
    shows on a node at its hop count. Pads read node N, whose words stay 0.
    The search stops once every target holds every bit or nothing new is
    reached. Each bit arrives at a target at one level, so bit ``b`` of its
    hop count is set exactly when it arrived at a level with bit ``b`` set:
    each level ORs its targets' new bits into the plane of each of its set
    bits, and each block decodes its word of the planes.
    """
    size = len(graph.nodes)
    words = max(1, _BATCH_WORDS // max(1, graph.neighbors.size))
    sources = np.asarray(sources, dtype=np.intp)
    targets = np.asarray(targets, dtype=np.intp)
    slots = np.ascontiguousarray(graph.neighbors.T)  # np.take copies a strided index per call
    for start in range(0, len(sources), words * _BLOCK):
        bit = np.arange(min(words * _BLOCK, len(sources) - start))
        frontier = np.zeros((size + 1, -(-len(bit) // _BLOCK)), dtype=np.uint64)
        np.bitwise_or.at(frontier, (sources[start + bit], bit // _BLOCK), _BITS[bit % _BLOCK])
        everyone = np.bitwise_or.reduce(frontier, axis=0)
        seen = frontier.copy()
        reached = np.zeros_like(frontier)
        planes = []  # plane ``b``: the targets' bits that arrived at a level with bit ``b``
        for level in itertools.count():
            arrived = frontier[targets]
            if level >> len(planes):  # the first level with this many bits
                planes.append(np.zeros_like(arrived))
            for b, plane in enumerate(planes):
                if level >> b & 1:
                    plane |= arrived
            if (seen[targets] == everyone).all():
                break
            grown = reached[:size]  # node N's words stay 0
            np.bitwise_or.reduce(np.take(frontier, slots, axis=0), axis=0, out=grown)
            grown &= np.invert(seen[:size], out=frontier[:size])
            if not reached.any():
                break
            seen |= reached
            frontier, reached = reached, frontier
        seen = seen[targets]
        for w in range(seen.shape[1]):
            count = min(_BLOCK, len(bit) - w * _BLOCK)
            depth = _unpack(seen[:, w], count) - 1  # target-major
            for b, plane in enumerate(planes):
                depth += _unpack(plane[:, w], count) << b
            yield start + w * _BLOCK, depth.T


_OBSERVERS = 8  # ground nodes per ``elevations_deg`` call: rows of its temporaries


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
    scenario: Scenario,
    pairs: Sequence[tuple[GroundNode, GroundNode]],
    epochs: Iterable[float],
) -> list[HopStatsRow]:
    """MHP hop-count stats over every satellite association of each pair.

    For each pair and epoch, every start satellite above the scenario's
    elevation mask is associated with every such end satellite and the ISL
    hop count between them, over the scenario's ISL snapshot, is collected;
    the row reports min/max/mean and the max-min spread.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    epochs = list(epochs)
    if not epochs:
        raise ValueError("epochs must be non-empty")
    # Each distinct ground node once, in order. Keyed by the node itself:
    # two nodes may share an id.
    ground = list(dict.fromkeys(itertools.chain.from_iterable(pairs)))
    rows = []
    for epoch_s in epochs:
        snapshot = build_snapshot(scenario, epoch_s)
        graph = _graph(snapshot)

        # Sorted indices of the satellites each ground node sees, in chunks
        # of observers that bound the elevation arrays.
        visibility: dict[GroundNode, np.ndarray] = {}
        for first in range(0, len(ground), _OBSERVERS):
            chunk = ground[first : first + _OBSERVERS]
            here = np.array([ground_position(node, epoch_s) for node in chunk])
            above = elevations_deg(here, snapshot.positions) >= scenario.topology.elevation_mask_deg
            visibility.update(zip(chunk, map(np.flatnonzero, above)))

        # One batched search from every start satellite to every end
        # satellite. Every association (pair, start, end), pair by pair,
        # takes its hop count from the block holding its start.
        is_source = np.zeros(len(graph.nodes), dtype=bool)
        is_target = np.zeros(len(graph.nodes), dtype=bool)
        for node_a, node_b in pairs:
            is_source[visibility[node_a]] = True
            is_target[visibility[node_b]] = True
        sources, targets = np.flatnonzero(is_source), np.flatnonzero(is_target)
        starts = [np.searchsorted(sources, visibility[a]) for a, _ in pairs]
        ends = [np.searchsorted(targets, visibility[b]) for _, b in pairs]
        start = np.concatenate([np.repeat(s, len(e)) for s, e in zip(starts, ends)])
        end = np.concatenate([np.tile(e, len(s)) for s, e in zip(starts, ends)])
        hops = np.empty(len(start), dtype=np.int32)
        for first, depth in _hop_blocks(graph, sources, targets):
            at = np.flatnonzero(start // _BLOCK == first // _BLOCK)
            hops[at] = depth[start[at] - first, end[at]]

        cuts = np.cumsum([len(s) * len(e) for s, e in zip(starts, ends)])
        for (node_a, node_b), counts in zip(pairs, np.split(hops, cuts[:-1])):
            pair_id = f"{node_a.node_id}|{node_b.node_id}"
            counts = counts[counts >= 0]
            if not counts.size:
                rows.append(HopStatsRow(pair_id, epoch_s, None, None, None, None, 0, True))
                continue
            least, most = int(counts.min()), int(counts.max())
            mean = int(counts.sum(dtype=np.int64)) / counts.size
            rows.append(
                HopStatsRow(pair_id, epoch_s, least, most, mean, most - least, counts.size, False)
            )
    return rows


@dataclass(frozen=True)
class SdpMhpResult:
    """Fraction of sampled pairs whose SDP hop count equals the MHP's."""

    fraction: float
    pairs_checked: int
    pairs_matched: int
    pairs_unreachable: int


def _sdp_mhp(graph: _Graph, srcs: np.ndarray, dsts: np.ndarray) -> SdpMhpResult:
    """The SDP-hops == MHP-hops discriminant on the index pairs ``(srcs[k], dsts[k])``.

    Each hop block's sources are labelled up to their farthest ends, and
    the SDP hop counts of all its pairs come from one ``_tight_levels`` call;
    the MHP counts come from ``_hop_blocks``.
    """
    # Each pair's source and end, the pairs grouped by source.
    order = np.argsort(srcs, kind="stable")
    srcs, dsts = srcs[order], dsts[order]
    # Distinct nodes by counting, not ``np.unique``: numpy would import
    # numpy.ma on its first call in the process.
    sources = np.flatnonzero(np.bincount(srcs, minlength=len(graph.nodes)))
    targets = np.flatnonzero(np.bincount(dsts, minlength=len(graph.nodes)))
    which = np.searchsorted(sources, srcs)
    cuts = np.searchsorted(which, np.arange(len(sources) + 1))
    columns = np.searchsorted(targets, dsts)
    checked = matched = 0
    for first, depth in _hop_blocks(graph, sources, targets):
        # One hop block's sources at a time bounds the labels held to 64 rows.
        last = first + len(depth)
        part = slice(cuts[first], cuts[last])
        wanted = np.split(dsts[part], cuts[first + 1 : last] - cuts[first])
        dist = _shortest_paths(graph, sources[first:last], wanted)
        sdp, _ = _tight_levels(graph, dist, sources[first:last], which[part] - first, dsts[part])
        reached = sdp >= 0
        checked += int(reached.sum())
        matched += int((reached & (sdp == depth[which[part] - first, columns[part]])).sum())
    return SdpMhpResult(matched / checked if checked else 0.0, checked, matched, len(srcs) - checked)


def sdp_mhp_fraction(
    scenario: Scenario, sample_pairs: int, epochs: Iterable[float], rng_seed: int
) -> SdpMhpResult:
    """Sample satellite pairs of the scenario's ISL snapshot per epoch and
    report the matched fraction."""
    if sample_pairs < 1:
        raise ValueError(f"sample_pairs must be >= 1, got {sample_pairs}")
    epochs = list(epochs)
    if not epochs:
        raise ValueError("epochs must be non-empty")
    rng = np.random.default_rng(rng_seed)
    checked = matched = unreachable = 0
    for epoch_s in epochs:
        snapshot = build_snapshot(scenario, epoch_s)
        size = len(snapshot.nodes)
        if size < 2:
            continue
        # One draw for every endpoint: the same numbers, in the same order,
        # as one scalar draw per endpoint, source then end, pair by pair.
        draws = rng.integers(0, np.tile([size, size - 1], sample_pairs))
        i, j = draws.reshape(-1, 2).T
        j += j >= i
        result = _sdp_mhp(_graph(snapshot), i, j)
        checked += result.pairs_checked
        matched += result.pairs_matched
        unreachable += result.pairs_unreachable
    fraction = matched / checked if checked else 0.0
    return SdpMhpResult(fraction, checked, matched, unreachable)
