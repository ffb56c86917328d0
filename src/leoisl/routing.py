"""Snapshot path computation and path-structure analysis.

Shortest-distance paths (SDP) and minimum-hop paths (MHP) over a frozen
snapshot, hop-count statistics between ground terminals across all possible
satellite associations, and an empirical check of how often the SDP is also
an MHP.

Every search answers (start, end) pairs of node indexes as they are given.
``_hop_counts`` decodes each pair's hop count from ``_hop_search``. Paths come from
one engine, behind ``_least_distance``: ``_shortest_paths`` computes the
distance labels of a batch of starts at once, in array rounds over the
graph's padded table, only as far as the farthest of each start's ends;
``_tight_levels`` then runs one breadth-first search backward from the end
of every pair at once over tight links, and ``_chains`` walks each pair's
path forward through its levels. The tie-break is minimum
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
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .orbits import _OBSERVERS, GroundNode, elevations_deg, ground_position
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
    at least one; 82 on a 1584-node +grid, more than the 64 starts
    ``_least_distance`` labels at once, and 1 on its in-range mesh."""
    return max(1, _BATCH_LINKS // max(1, graph.neighbors.size))


def _shortest_paths(
    graph: _Graph, roots: np.ndarray, rows: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Distances from each of ``roots`` to every node, ``(len(roots), N)``,
    exact up to the farthest of each root's ends: root ``roots[rows[k]]``
    needs ``ends[k]``.

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
    the largest current label among the root's ends, infinite until all
    are reached. Float addition of a length >= 0 is monotone, so a node no
    farther than the farthest end has least-distance predecessors no
    farther still, which are never dropped once exact, and keeps its exact
    label. Any other label stays at or above its fixpoint, so it never makes
    a link into an end's tight subgraph look tight, and ``_chains`` reads
    the same paths from these labels as from full ones. Full labels give
    each root every node as an end.
    """
    size = len(graph.nodes)
    dist = np.full((len(roots), size), np.inf)
    step = _batch_roots(graph)
    fallen = np.zeros(min(step, len(roots)) * size, dtype=bool)
    for first in range(0, len(roots), step):
        batch = roots[first : first + step]
        labels = dist[first : first + step].reshape(-1)  # a view: pair ``r * size + node``
        fell = np.arange(len(batch)) * size + batch
        # The batch's ends as pairs ``r * size + end``, sorted: one run per
        # root, which holds the root itself, whose label 0 never raises the bound.
        mine = (rows >= first) & (rows < first + step)
        need = np.sort(np.concatenate([fell, (rows[mine] - first) * size + ends[mine]]))
        runs = np.searchsorted(need, fell - batch)
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
                bound = np.maximum.reduceat(labels[need], runs)
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


_BLOCK = 64  # starts per label block and per hop-search word, a bit each


def _least_distance(
    graph: _Graph, starts: Sequence[int], ends: Sequence[int], read: Callable
) -> list:
    """``read``'s answer for each pair ``(starts[k], ends[k])`` of node
    indexes: with ``_chains`` its chosen path. The distinct starts are
    labelled ``_BLOCK`` at a time, each only as far as its own ends, and
    ``read(graph, dist, roots, rows, ends)`` reads a block's pairs. A
    start's labels depend on its own ends alone, so the blocks change no answer."""
    starts, ends = np.asarray(starts, dtype=np.intp), np.asarray(ends, dtype=np.intp)
    roots = np.flatnonzero(np.bincount(starts, minlength=len(graph.nodes)))
    which = np.searchsorted(roots, starts)
    found = [None] * len(starts)
    for first in range(0, len(roots), _BLOCK):
        pair = np.flatnonzero(which // _BLOCK == first // _BLOCK)
        block = (roots[first : first + _BLOCK], which[pair] - first, ends[pair])
        for k, answer in zip(pair.tolist(), read(graph, _shortest_paths(graph, *block), *block)):
            found[k] = answer
    return found


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
    (found,) = _least_distance(graph, [graph.index[src]], [graph.index[dst]], _chains)
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


_BITS = np.left_shift(np.uint64(1), np.arange(_BLOCK, dtype=np.uint64))
# 64-bit words per node row of a hop-search pass, times its N + 1 rows (41 on
# the 72x22 shell); each column block a level gathers, with its indexes, fits it.
_BATCH_WORDS = 1 << 16


def _hop_search(graph: _Graph, sources: np.ndarray, targets: np.ndarray) -> Iterator:
    """A bit-parallel BFS (Then et al., VLDB 2014) from the sorted node
    indexes ``sources`` to the sorted ``targets``, in passes of as many
    words per node as ``_BATCH_WORDS`` allows. A level ORs the frontier
    words of each node's neighbors (pads read node N, whose words stay 0)
    and keeps the bits not seen before, so a bit first shows on a node at
    its hop count; the targets' new bits go into the plane of each set bit
    of its number. A pass ends once every target holds every bit or nothing
    new is reached, and yields ``(first, seen, planes)``: bit ``k`` of word
    ``w`` of ``seen[t]`` says source ``first + 64 w + k`` reached
    ``targets[t]``, and its bit of ``planes[b][t]`` is bit ``b`` of its count.
    """
    size, width = graph.neighbors.shape
    words = max(1, _BATCH_WORDS // (size + 1))
    for first in range(0, len(sources), words * _BLOCK):
        bit = np.arange(min(words * _BLOCK, len(sources) - first))
        frontier = np.zeros((size + 1, -(-len(bit) // _BLOCK)), dtype=np.uint64)
        np.bitwise_or.at(frontier, (sources[first + bit], bit // _BLOCK), _BITS[bit % _BLOCK])
        everyone = np.bitwise_or.reduce(frontier, axis=0)
        seen, reached, scratch = frontier.copy(), np.zeros_like(frontier), frontier[:size].copy()
        columns = max(1, _BATCH_WORDS // (size * (frontier.shape[1] + 1)))
        blocks = [graph.neighbors[:, c : c + columns].T for c in range(0, max(1, width), columns)]
        if len(blocks) == 1:  # copied once here, not by ``take`` at every level
            blocks = [np.ascontiguousarray(blocks[0])]
        planes = []
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
            np.bitwise_or.reduce(np.take(frontier, blocks[0], axis=0), axis=0, out=grown)
            for block in blocks[1:]:
                grown |= np.bitwise_or.reduce(np.take(frontier, block, axis=0), axis=0, out=scratch)
            grown &= np.invert(seen[:size], out=scratch)
            if not reached.any():
                break
            seen |= reached
            frontier, reached = reached, frontier
        yield first, seen[targets], planes


def _hop_decode(seen: np.ndarray, planes: list, target: np.ndarray, bit: np.ndarray) -> np.ndarray:
    """The hop counts a ``_hop_search`` pass holds for target rows ``target``
    and source bits ``bit``, broadcast together; -1 where unreached."""
    at, mask = (target, bit // _BLOCK), _BITS[bit % _BLOCK]
    count = ((seen[at] & mask) != 0) - 1
    for b, plane in enumerate(planes):
        count += ((plane[at] & mask) != 0) << b
    return count


def _hop_counts(graph: _Graph, starts: Sequence[int], ends: Sequence[int]) -> np.ndarray:
    """The minimum hop count of each pair ``(starts[k], ends[k])`` of node
    indexes, -1 where the end is unreachable: one ``_hop_search`` from the
    distinct starts to the distinct ends, each pair decoding its own bits."""
    starts, ends = np.asarray(starts, dtype=np.intp), np.asarray(ends, dtype=np.intp)
    # Distinct nodes by counting: ``np.unique`` would import numpy.ma.
    sources = np.flatnonzero(np.bincount(starts, minlength=len(graph.nodes)))
    targets = np.flatnonzero(np.bincount(ends, minlength=len(graph.nodes)))
    source, target = np.searchsorted(sources, starts), np.searchsorted(targets, ends)
    hops = np.empty(len(starts), dtype=np.intp)
    for first, seen, planes in _hop_search(graph, sources, targets):
        pair = np.flatnonzero((source >= first) & (source < first + _BLOCK * seen.shape[1]))
        hops[pair] = _hop_decode(seen, planes, target[pair], source[pair] - first)
    return hops


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
        stats = (self.min_hops, self.max_hops, self.mean_hops, self.spread)
        return (self.pair_id, self.epoch_s, *("" if v is None else v for v in stats))


def ground_pair_hop_stats(
    scenario: Scenario,
    pairs: Sequence[tuple[GroundNode, GroundNode]],
    epochs: Iterable[float],
) -> list[HopStatsRow]:
    """MHP hop-count stats over every satellite association of each pair.

    For each pair and epoch, every start satellite above the scenario's
    elevation mask is associated with every such end satellite; one
    ``_hop_search`` counts their ISL hops, folded a pair's block at a time.
    """
    if not pairs:
        raise ValueError("pairs must be non-empty")
    epochs = list(epochs)
    if not epochs:
        raise ValueError("epochs must be non-empty")
    # Each distinct ground node once, in order, keyed by the node: two may share an id.
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

        # One search from every start to every end satellite; each pass folds each pair's block.
        starts, ends = np.zeros((2, len(snapshot.nodes)), dtype=bool)
        for node_a, node_b in pairs:
            starts[visibility[node_a]] = ends[visibility[node_b]] = True
        sources, targets = np.flatnonzero(starts), np.flatnonzero(ends)
        folds = [(math.inf, -1, 0, 0)] * len(pairs)  # min, max, sum and count of reached
        for first, seen, planes in _hop_search(graph, sources, targets):
            for k, (node_a, node_b) in enumerate(pairs):
                bit = np.searchsorted(sources, visibility[node_a]) - first
                bit = bit[(bit >= 0) & (bit < _BLOCK * seen.shape[1])]
                end = np.searchsorted(targets, visibility[node_b])[:, None]
                counts = _hop_decode(seen, planes, end, bit)
                if (counts := counts[counts >= 0]).size:
                    least, most, total, count = folds[k]
                    least, most = min(least, int(counts.min())), max(most, int(counts.max()))
                    folds[k] = (least, most, total + int(counts.sum()), count + counts.size)
        for (node_a, node_b), (least, most, total, count) in zip(pairs, folds):
            stats = (least, most, total / count, most - least) if count else (None,) * 4
            pair_id = f"{node_a.node_id}|{node_b.node_id}"
            rows.append(HopStatsRow(pair_id, epoch_s, *stats, count, not count))
    return rows


@dataclass(frozen=True)
class SdpMhpResult:
    """Fraction of sampled pairs whose SDP hop count equals the MHP's."""

    fraction: float
    pairs_checked: int
    pairs_matched: int
    pairs_unreachable: int


def _sdp_mhp(graph: _Graph, srcs: np.ndarray, dsts: np.ndarray) -> SdpMhpResult:
    """The SDP-hops == MHP-hops discriminant on the index pairs ``(srcs[k], dsts[k])``:
    the SDP hop counts are read from ``_tight_levels``, no path walked, and
    the MHP counts come from ``_hop_counts``."""
    sdp = np.array(_least_distance(graph, srcs, dsts, lambda *block: _tight_levels(*block)[0]))
    reached = sdp >= 0
    checked = int(reached.sum())
    matched = int((reached & (sdp == _hop_counts(graph, srcs, dsts))).sum())
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
