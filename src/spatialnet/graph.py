"""Spatial graph core: node/edge records, validated construction, and
single-source shortest paths, with path counting where it is asked for.

The graph is undirected and edge-weighted. Nodes carry a label
and geographic coordinates; edges carry a kilometric length and one
travel time per epoch label (e.g. "1988", "2010"). Edge costs for
routing come in three modes: "binary" (1 per edge), "km", and "time"
(which additionally needs an epoch). Every weight must be finite and
positive; ``build_graph`` rejects the rest.

``build_graph`` numbers the nodes once, in sorted node-id order, stores
each edge by its ends' numbers with its costs in columns, and keeps
integer neighbour lists in edge order (``neighbour_lists``); node numbers
are the graph's only topology, and ``index`` maps a node id to its
number. So two files that list the same nodes in different orders give
the same graph. All traversals run on those lists: one BFS kernel for
binary mode, and for km/time one counted Dijkstra kernel and one
distance-only kernel, all returning per-source lists indexed by node
number. ``traverse`` is the one entry point to them; ``shortest_paths``
maps a traversal back onto node ids.

BFS and counted Dijkstra return the number of shortest paths
(``sigma``) and the predecessors on them (``preds``), which only Brandes
betweenness reads. BFS counts them inline, always; the component count
in ``build_graph`` reads its visit order. Counted Dijkstra runs one heap
loop for the distances and the settle order; one pass over that order
then reads ``sigma`` and ``preds`` off the final distances. Only
``shortest_paths`` and ``betweenness`` in km or time ask for counts.

The distance-only kernel takes nodes from a bucket queue, not a heap
(Dial, CACM 1969; the bucket relaxation of delta-stepping, Meyer &
Sanders, J. Algorithms 2003): a reached node is keyed by ``label //
width`` in a dict of lists, a small heap of live keys visits the buckets
in increasing order, each bucket's list is scanned while it grows, and a
node is scanned again whenever its label falls. It returns the same
floats as the heap loop (see ``TIE_RTOL``). ``bucket_width`` is half the
median arc cost of the arc table, taken once per all-sources pass: a
median, unlike a mean, does not follow a heavy tail of long arcs, and
unlike a width from a source's own arcs, it puts no long route from a
source with short arcs at a huge bucket number. The one case
measured slower than the heap is a long path with weights log-uniform
over six decades, where most buckets hold one node: about 2x the heap's
time over all sources of a 400-node path.

Binary closeness, path length and diameter need only each node's sum of
hop distances and the largest one. ``hop_distances`` computes those for
all sources at once from integer neighbour lists (a graph's
``adj_index``, or a null-model replicate's), over Python-int bitsets, in
integers, so they are exact.

Counted Dijkstra puts the arc u-v on a shortest path when v settles
after u and ``dist[u] + w <= dist[v] * (1 + TIE_RTOL)`` on final
distances, so 0.1 + 0.2 and 0.15 + 0.15 km are one length and both
routes count. The tie is judged once, so counts match in both directions.

An all-sources pass that needs distances only may shrink its own copy of
the arc lists as it goes: after the Dijkstra from s, ``drop_dominated_arcs``
removes each arc s-v longer than v's distance from s by more than
``TIE_RTOL`` times s's largest distance. Such an arc lies on no shortest
path (the "essential subgraph" of Karger, Koller & Phillips, 1993), and
the margin, absolute and scaled by the largest distance, outweighs the
rounding of every float route sum, so later traversals return the same
floats; the argument is given beside ``TIE_RTOL``. Counted traversals
never run on pruned lists: their tie rule is relative to ``dist[v]``,
so it can count an arc that the margin drops.

A SpatialGraph is immutable once built, so concurrent read-only
traversals are safe. Unreachable targets are reported with an explicit
``math.inf`` sentinel, never a large finite number.
"""

from __future__ import annotations

import math
from heapq import heappush, heappop
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from .exceptions import ComputeError, DisconnectedError, SchemaError

MODES = ("binary", "km", "time")

# A path costing at most 1 + TIE_RTOL times the shortest weighted cost is a
# shortest path: far above the rounding of a float sum of edge costs (about
# 1e-16 relative per edge) and far below one metre in 1000 km.
#
# ``drop_dominated_arcs`` uses TIE_RTOL as an absolute margin too: after the
# Dijkstra from s, an arc s-v with w > dist[v] + TIE_RTOL * ecc_s (ecc_s the
# largest distance from s) goes from both ends' lists, and no later
# distance-only traversal changes.
#
# Both weighted kernels return the least fixed point of dist[v] = min_u
# fl(dist[u] + w_uv) with dist[source] = 0. fl(d + w) is monotone in d and
# never below d, so by induction along a path any such fixed point is at
# most every left-to-right float path sum. The heap loop and the bucket
# scan each stop only when no label can fall, so each returns a fixed point
# whose labels are float path sums: the least one, whatever the order of
# processing. And since fl(d + w) >= d, a bucket key never goes below the
# bucket being scanned.
#
# So the dropped arc matters to a later source t only if fl(dist_t[s] + w)
# <= dist_t[v]. A float distance is a float sum of at most n - 1 edges, so it
# lies within about n * 2**-53 relative of the exact least cost; the exact
# costs obey d_t(v) <= d_t(s) + d_s(v); and every distance is at most the
# diameter, which is at most 2 * ecc_s. Together, fl(dist_t[s] + w) -
# dist_t[v] > margin - 2 * (2n+1) * 2**-53 * diameter >= (TIE_RTOL -
# 4 * (2n+1) * 2**-53) * ecc_s, which is positive for n below about a
# million: the arc only ever offers a longer route, so no distance can
# change.
# The margin is absolute on purpose: a margin relative to dist[v] falls
# below the rounding of a long route's sum when a 0.001 km edge sits beside
# 1000 km routes. Counted passes are never pruned, because their tie rule
# is relative to dist[v] and can admit an arc that this margin drops.
TIE_RTOL = 1e-9


class DuplicateNodeError(SchemaError):
    pass


class DanglingEdgeError(SchemaError):
    pass


class SelfLoopError(SchemaError):
    pass


class DuplicateEdgeError(SchemaError):
    pass


class NegativeWeightError(SchemaError):
    pass


class NonFiniteWeightError(SchemaError):
    pass


class InvalidCoordinateError(SchemaError):
    pass


class UnknownNodeError(ComputeError):
    pass


class UnknownEpochError(ComputeError):
    pass


class NodeRecord(NamedTuple):
    """A place in the network: id, display label, position."""

    id: str
    label: str = ""
    lat: Optional[float] = None
    lon: Optional[float] = None

    @property
    def has_coordinates(self) -> bool:
        return self.lat is not None and self.lon is not None


class EdgeRecord(NamedTuple):
    """An undirected road link with kilometric and per-epoch time costs.
    Left out, ``time_min`` is one shared empty mapping that cannot change."""

    u: str
    v: str
    distance_km: float
    time_min: Mapping[str, float] = MappingProxyType({})


class SpatialGraph(NamedTuple):
    """Validated undirected graph. Build through :func:`build_graph`.

    A node's number is its position in ``nodes``, and ``index`` maps its
    id to that number (the field hides ``tuple.index``). Edge k joins the
    node numbers ``ends[k]`` and costs ``km[k]`` kilometres and
    ``minutes[k][epoch]`` minutes per epoch, a read-only copy of its
    record's ``time_min``. ``adj_index[i]`` lists the numbers of node i's
    neighbours in the order of the edges that join them.
    """

    nodes: tuple[NodeRecord, ...]
    ends: tuple[tuple[int, int], ...]
    km: tuple[float, ...]
    minutes: tuple[Mapping[str, float], ...]
    index: Mapping[str, int]
    components: int
    adj_index: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> tuple[EdgeRecord, ...]:
        """The edges as records, built per call from the columns."""
        ids = self.node_ids
        return tuple(EdgeRecord(ids[u], ids[v], km, times)
                     for (u, v), km, times in zip(self.ends, self.km, self.minutes))

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.ends)

    @property
    def is_connected(self) -> bool:
        return self.components == 1

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)

    def degree(self, node_id: str) -> int:
        if node_id not in self.index:
            raise UnknownNodeError(f"node {node_id!r} is not in the graph")
        return len(self.adj_index[self.index[node_id]])

    def costs(
        self, mode: str, epoch: Optional[str] = None
    ) -> Optional[tuple[tuple[tuple[int, float], ...], ...]]:
        """Per-node arc lists ``((neighbour, cost), ...)`` in ``adj_index``
        order, or None in binary mode (the BFS kernel needs none). Built
        per call in one pass over ``ends`` and the mode's cost column."""
        if mode == "binary":
            return None
        if mode == "km":
            weights = self.km
        elif mode == "time":
            weights = []
            for (u, v), times in zip(self.ends, self.minutes):
                if epoch not in times:
                    raise UnknownEpochError(
                        f"edge ({self.nodes[u].id}, {self.nodes[v].id}) has no time for "
                        f"epoch {epoch!r}; declared epochs: {sorted(times)}"
                    )
                weights.append(times[epoch])
        else:
            raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
        arcs: list[list[tuple[int, float]]] = [[] for _ in self.nodes]
        for (u, v), w in zip(self.ends, weights):
            arcs[u].append((v, w))
            arcs[v].append((u, w))
        return tuple(map(tuple, arcs))

    def epochs(self) -> tuple[str, ...]:
        return tuple(sorted(set().union(*self.minutes)))


class PathTable(NamedTuple):
    """Single-source shortest-path result.

    ``dist`` maps every node to its minimal cost from the source
    (``math.inf`` when unreachable). ``sigma`` counts the shortest paths
    to each target, ``preds`` lists each node's predecessors on those
    paths, and ``order`` lists reachable nodes by nondecreasing distance
    (the processing order needed for dependency accumulation).
    """

    source: str
    mode: str
    epoch: Optional[str]
    dist: Mapping[str, float]
    sigma: Mapping[str, int]
    preds: Mapping[str, tuple[str, ...]]
    order: tuple[str, ...]


def build_graph(nodes: Iterable[NodeRecord], edges: Iterable[EdgeRecord]) -> SpatialGraph:
    """Validate records and assemble a SpatialGraph.

    Rejects duplicate node ids, dangling edge endpoints, self-loops,
    repeated unordered node pairs, and nonpositive or non-finite weights.
    The error message always names the offending record. Nodes are checked
    in the order given, then numbered in sorted node-id order.
    """
    node_list = tuple(nodes)
    edge_list = tuple(edges)

    seen: set[str] = set()
    for node in node_list:
        if node.id in seen:
            raise DuplicateNodeError(f"duplicate node id {node.id!r}")
        seen.add(node.id)
        if node.lat is not None and not -90.0 <= node.lat <= 90.0:
            raise InvalidCoordinateError(f"node {node.id!r}: lat {node.lat} outside [-90, 90]")
        if node.lon is not None and not -180.0 <= node.lon <= 180.0:
            raise InvalidCoordinateError(f"node {node.id!r}: lon {node.lon} outside [-180, 180]")
    node_list = tuple(sorted(node_list, key=lambda node: node.id))
    index = {node.id: i for i, node in enumerate(node_list)}

    ends: list[tuple[int, int]] = []
    pairs: set[tuple[int, int]] = set()
    for edge in edge_list:
        u, v = index.get(edge.u), index.get(edge.v)
        if u is None or v is None:
            raise DanglingEdgeError(f"edge ({edge.u}, {edge.v}) references a missing node")
        if u == v:
            raise SelfLoopError(f"edge ({edge.u}, {edge.v}) is a self-loop")
        pair = (u, v) if u < v else (v, u)
        if pair in pairs:
            raise DuplicateEdgeError(f"edge ({edge.u}, {edge.v}) repeats an existing pair")
        pairs.add(pair)
        _check_weight(edge, "distance_km", edge.distance_km)
        for epoch, time in edge.time_min.items():
            _check_weight(edge, "time", time, f" for epoch {epoch!r}")
        ends.append((u, v))

    adj_index = neighbour_lists(len(node_list), ends)
    return SpatialGraph(nodes=node_list, ends=tuple(ends),
                        km=tuple(edge.distance_km for edge in edge_list),
                        minutes=tuple(MappingProxyType(dict(edge.time_min)) for edge in edge_list),
                        index=index, components=_count_components(adj_index), adj_index=adj_index)


def neighbour_lists(n: int, ends: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Per node of the n numbered, its neighbours' numbers in the order of
    the edges in ``ends`` that join them."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in ends:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(map(tuple, adj))


def _check_weight(edge: EdgeRecord, what: str, value: float, where: str = "") -> None:
    if not math.isfinite(value):
        raise NonFiniteWeightError(f"edge ({edge.u}, {edge.v}) has non-finite {what} {value}{where}")
    if not value > 0:
        raise NegativeWeightError(f"edge ({edge.u}, {edge.v}) has nonpositive {what} {value}{where}")


def _count_components(adj: tuple[tuple[int, ...], ...]) -> int:
    reached = [False] * len(adj)
    count = 0
    for source in range(len(adj)):
        if not reached[source]:
            count += 1
            for v in _bfs(adj, source)[3]:
                reached[v] = True
    return count


def shortest_paths(
    g: SpatialGraph,
    source: str,
    mode: str = "binary",
    epoch: Optional[str] = None,
) -> PathTable:
    """Single-source shortest paths under the chosen edge cost, keyed by
    node id.

    Binary mode runs a BFS; km/time modes run Dijkstra. Equal-cost paths
    are all counted in ``sigma`` (ties are never broken, and a weighted
    cost within ``TIE_RTOL`` of the shortest ties it), which is what
    betweenness accumulation needs.
    """
    if source not in g.index:
        raise UnknownNodeError(f"source {source!r} is not in the graph")
    ids = g.node_ids
    dist, sigma, preds, order = traverse(g, g.index[source], g.costs(mode, epoch), True)
    return PathTable(
        source=source,
        mode=mode,
        epoch=epoch if mode == "time" else None,
        dist=dict(zip(ids, dist)),
        sigma=dict(zip(ids, sigma)),
        preds={ids[i]: tuple(ids[p] for p in preds[i] or ()) for i in range(len(ids))},
        order=tuple(ids[i] for i in order),
    )


def traverse(g: SpatialGraph, source: int, arcs=None, count: bool = False,
             width: Optional[float] = None):
    """One single-source traversal from node number ``source``: BFS when
    ``arcs`` is None, otherwise over ``arcs`` (see ``SpatialGraph.costs``)
    counted Dijkstra with ``count`` and the bucket queue without it, keyed
    by ``width`` (``bucket_width(arcs)`` when None; an all-sources pass
    computes it once).

    Returns ``(dist, sigma, preds, order)``: lists indexed by node number
    holding the distance (``math.inf`` when unreachable), the number of
    shortest paths, and the predecessors on them in arrival order (None
    when unreachable), plus the reached nodes in nondecreasing distance.
    BFS always counts paths and ignores ``count``. The bucket queue
    returns only ``dist``, with None for the other three; counted Dijkstra
    reads the counts off the final distances in settle order.
    """
    # positional calls: tests count kernel calls through ``*args`` wrappers
    if arcs is None:
        return _bfs(g.adj_index, source)
    if count:
        return _dijkstra(arcs, source)
    return _bucket_distances(arcs, source, bucket_width(arcs) if width is None else width)


def bucket_width(arcs) -> float:
    """The distance-only kernel's bucket width for the arc table ``arcs``:
    half its median arc cost (1.0 for a table with no arcs)."""
    costs = sorted(w for row in arcs for _, w in row)
    if not costs:
        return 1.0
    median = costs[len(costs) // 2]
    return median / 2.0 or median  # half the least subnormal rounds to 0


def drop_dominated_arcs(arcs: list, source: int, dist, far: float) -> None:
    """Remove from both ends' lists each arc source-v of ``arcs`` (per-node
    lists of ``(neighbour, cost)``) whose cost exceeds ``dist[v]`` by more
    than ``TIE_RTOL * far``. ``dist`` is the distance-only Dijkstra from
    ``source`` over ``arcs`` and ``far`` its largest entry. Later
    distance-only traversals over the pruned lists return the same floats
    (see ``TIE_RTOL``); counted ones may not, so they must not use them.
    """
    margin = TIE_RTOL * far
    kept = []
    for arc in arcs[source]:
        v, w = arc
        if w > dist[v] + margin:
            arcs[v].remove((source, w))
        else:
            kept.append(arc)
    arcs[source] = kept


def hop_distances(adj) -> tuple[list[int], int]:
    """Hop distances from every node at once of the graph with neighbour
    lists ``adj``, over bitsets.

    Returns each node's sum of hop distances to all other nodes, and the
    largest hop distance (the diameter). Python ints serve as bitsets:
    ``reach[i]`` has bit t set when t lies within h hops of i, and one
    level ORs each node's set with its neighbours' sets from the level
    before. The sums and the diameter are integers, so they are exact. A
    node's sum is the number of (h, t) with t more than h hops away, taken
    over h = 0, 1, ... until ``reach[i]`` holds every node. Raises
    DisconnectedError when some node cannot reach every other.
    """
    n = len(adj)
    everyone = (1 << n) - 1
    reach = [1 << i for i in range(n)]
    sums = [n - 1] * n
    pending = [i for i in range(n) if reach[i] != everyone]
    hops = 0
    while pending:
        hops += 1
        grown = reach[:]
        still = []
        for i in pending:
            r = reach[i]
            for j in adj[i]:
                r |= reach[j]
            if r == reach[i]:
                raise DisconnectedError(f"hop distances require a connected graph; "
                                        f"node number {i} reaches {r.bit_count()} of {n}")
            grown[i] = r
            if r != everyone:
                sums[i] += n - r.bit_count()
                still.append(i)
        reach, pending = grown, still
    return sums, hops


def _bfs(adj, source: int):
    n = len(adj)
    dist = [math.inf] * n
    dist[source] = 0.0
    order = [source]
    sigma = [0] * n
    preds: list = [None] * n
    sigma[source] = 1
    preds[source] = ()
    for u in order:  # grows while iterated: the list is the queue
        du = dist[u] + 1.0
        su = sigma[u]
        for v in adj[u]:
            dv = dist[v]
            if dv == math.inf:
                dist[v] = du
                sigma[v] = su
                preds[v] = [u]
                order.append(v)
            elif dv == du:
                sigma[v] += su
                preds[v].append(u)
    return dist, sigma, preds, order


def _bucket_distances(arcs, source: int, width: float):
    n = len(arcs)
    dist = [math.inf] * n
    dist[source] = 0.0
    scanned = [None] * n  # the label each node was last scanned at
    buckets = {0.0: [source]}
    keys = [0.0]
    while keys:
        key = heappop(keys)
        for u in buckets[key]:  # grows while scanned
            d = dist[u]
            if d == scanned[u]:  # a stale entry, or its label is done
                continue
            scanned[u] = d
            for v, w in arcs[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    k = nd // width  # a float key: inf, not an OverflowError, past 1e308
                    bucket = buckets.get(k)
                    if bucket is None:
                        buckets[k] = [v]
                        heappush(keys, k)
                    else:
                        bucket.append(v)
        del buckets[key]
    return dist, None, None, None


def _dijkstra(arcs, source: int):
    n = len(arcs)
    dist = [math.inf] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    order = []
    # a node is pushed only when its distance strictly falls, so the
    # one entry whose key equals its distance is the live one
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        order.append(u)
        for v, w in arcs[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heappush(heap, (nd, v))
    # u-v is on a shortest path when v settles after u and the route
    # through u ties v's final distance; the settle order, not the
    # distances, orders the DAG, since w may vanish in d + w
    rank = [0] * n
    sigma = [0] * n
    preds: list = [None] * n
    for i, u in enumerate(order):
        rank[u] = i
        preds[u] = []
    sigma[source] = 1
    preds[source] = ()
    tie = 1.0 + TIE_RTOL
    for u in order:
        du, su, ru = dist[u], sigma[u], rank[u]
        for v, w in arcs[u]:
            if rank[v] > ru and du + w <= dist[v] * tie:
                sigma[v] += su
                preds[v].append(u)
    return dist, sigma, preds, order
