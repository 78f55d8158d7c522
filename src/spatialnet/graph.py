"""Spatial graph core: node/edge records, validated construction, and
single-source shortest paths with path counting.

The graph is undirected, node- and edge-weighted. Nodes carry geographic
coordinates and named attribute values; edges carry a kilometric length
and one travel time per epoch label (e.g. "1988", "2010"). Edge costs for
routing come in three modes: "binary" (1 per edge), "km", and "time"
(which additionally needs an epoch).

A SpatialGraph is immutable once built, so concurrent read-only
traversals are safe. Unreachable targets are reported with an explicit
``math.inf`` sentinel, never a large finite number.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from heapq import heappush, heappop
from typing import Iterable, Mapping, Optional

from .exceptions import ComputeError, SchemaError

MODES = ("binary", "km", "time")


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


class InvalidCoordinateError(SchemaError):
    pass


class UnknownNodeError(ComputeError):
    pass


class UnknownEpochError(ComputeError):
    pass


@dataclass(frozen=True)
class NodeRecord:
    """A place in the network: id, display label, position, attributes."""

    id: str
    label: str = ""
    lat: Optional[float] = None
    lon: Optional[float] = None
    attributes: Mapping[str, float] = field(default_factory=dict)

    @property
    def has_coordinates(self) -> bool:
        return self.lat is not None and self.lon is not None


@dataclass(frozen=True)
class EdgeRecord:
    """An undirected road link with kilometric and per-epoch time costs."""

    u: str
    v: str
    distance_km: float
    time_min: Mapping[str, float] = field(default_factory=dict)

    def cost(self, mode: str, epoch: Optional[str] = None) -> float:
        if mode == "binary":
            return 1.0
        if mode == "km":
            return self.distance_km
        if mode == "time":
            if epoch is None or epoch not in self.time_min:
                raise UnknownEpochError(
                    f"edge ({self.u}, {self.v}) has no time for epoch {epoch!r}; "
                    f"declared epochs: {sorted(self.time_min)}"
                )
            return self.time_min[epoch]
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")


@dataclass(frozen=True)
class SpatialGraph:
    """Validated undirected graph. Build through :func:`build_graph`."""

    nodes: tuple[NodeRecord, ...]
    edges: tuple[EdgeRecord, ...]
    adjacency: Mapping[str, Mapping[str, EdgeRecord]]
    components: int

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def is_connected(self) -> bool:
        return self.components == 1

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(node.id for node in self.nodes)

    def neighbors(self, node_id: str) -> tuple[str, ...]:
        if node_id not in self.adjacency:
            raise UnknownNodeError(f"node {node_id!r} is not in the graph")
        return tuple(self.adjacency[node_id])

    def degree(self, node_id: str) -> int:
        return len(self.neighbors(node_id))

    def epochs(self) -> tuple[str, ...]:
        labels: set[str] = set()
        for edge in self.edges:
            labels.update(edge.time_min)
        return tuple(sorted(labels))


@dataclass(frozen=True)
class PathTable:
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
    repeated unordered node pairs, and nonpositive weights. The error
    message always names the offending record.
    """
    node_list = tuple(nodes)
    edge_list = tuple(edges)

    seen_ids: set[str] = set()
    for node in node_list:
        if node.id in seen_ids:
            raise DuplicateNodeError(f"duplicate node id {node.id!r}")
        seen_ids.add(node.id)
        if node.lat is not None and not -90.0 <= node.lat <= 90.0:
            raise InvalidCoordinateError(f"node {node.id!r}: lat {node.lat} outside [-90, 90]")
        if node.lon is not None and not -180.0 <= node.lon <= 180.0:
            raise InvalidCoordinateError(f"node {node.id!r}: lon {node.lon} outside [-180, 180]")

    adjacency: dict[str, dict[str, EdgeRecord]] = {node.id: {} for node in node_list}
    seen_pairs: set[frozenset[str]] = set()
    for edge in edge_list:
        if edge.u not in seen_ids or edge.v not in seen_ids:
            raise DanglingEdgeError(f"edge ({edge.u}, {edge.v}) references a missing node")
        if edge.u == edge.v:
            raise SelfLoopError(f"edge ({edge.u}, {edge.v}) is a self-loop")
        pair = frozenset((edge.u, edge.v))
        if pair in seen_pairs:
            raise DuplicateEdgeError(f"edge ({edge.u}, {edge.v}) repeats an existing pair")
        seen_pairs.add(pair)
        if not edge.distance_km > 0:
            raise NegativeWeightError(
                f"edge ({edge.u}, {edge.v}) has nonpositive distance_km {edge.distance_km}"
            )
        for epoch, minutes in edge.time_min.items():
            if not minutes > 0:
                raise NegativeWeightError(
                    f"edge ({edge.u}, {edge.v}) has nonpositive time {minutes} for epoch {epoch!r}"
                )
        adjacency[edge.u][edge.v] = edge
        adjacency[edge.v][edge.u] = edge

    components = _count_components(adjacency)
    frozen = {u: dict(nbrs) for u, nbrs in adjacency.items()}
    return SpatialGraph(nodes=node_list, edges=edge_list, adjacency=frozen, components=components)


def _count_components(adjacency: Mapping[str, Mapping[str, EdgeRecord]]) -> int:
    unvisited = set(adjacency)
    count = 0
    while unvisited:
        count += 1
        queue = deque([next(iter(unvisited))])
        while queue:
            u = queue.popleft()
            if u not in unvisited:
                continue
            unvisited.discard(u)
            queue.extend(v for v in adjacency[u] if v in unvisited)
    return count


def shortest_paths(
    g: SpatialGraph,
    source: str,
    mode: str = "binary",
    epoch: Optional[str] = None,
) -> PathTable:
    """Single-source shortest paths under the chosen edge cost.

    Binary mode runs a BFS; km/time modes run Dijkstra. Equal-cost paths
    are all counted in ``sigma`` (ties are never broken), which is what
    betweenness accumulation needs.
    """
    if source not in g.adjacency:
        raise UnknownNodeError(f"source {source!r} is not in the graph")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if mode == "binary":
        dist, sigma, preds, order = _bfs_paths(g, source)
    else:
        dist, sigma, preds, order = _dijkstra_paths(g, source, mode, epoch)
    full_dist = {node.id: dist.get(node.id, math.inf) for node in g.nodes}
    full_sigma = {node.id: sigma.get(node.id, 0) for node in g.nodes}
    full_preds = {node.id: tuple(preds.get(node.id, ())) for node in g.nodes}
    return PathTable(
        source=source,
        mode=mode,
        epoch=epoch if mode == "time" else None,
        dist=full_dist,
        sigma=full_sigma,
        preds=full_preds,
        order=tuple(order),
    )


def _bfs_paths(g: SpatialGraph, source: str):
    dist: dict[str, float] = {source: 0.0}
    sigma: dict[str, int] = {source: 1}
    preds: dict[str, list[str]] = {source: []}
    order: list[str] = []
    queue = deque([source])
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in g.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1.0
                sigma[v] = 0
                preds[v] = []
                queue.append(v)
            if dist[v] == dist[u] + 1.0:
                sigma[v] += sigma[u]
                preds[v].append(u)
    return dist, sigma, preds, order


def _dijkstra_paths(g: SpatialGraph, source: str, mode: str, epoch: Optional[str]):
    dist: dict[str, float] = {source: 0.0}
    sigma: dict[str, int] = {source: 1}
    preds: dict[str, list[str]] = {source: []}
    order: list[str] = []
    settled: set[str] = set()
    heap: list[tuple[float, str]] = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        order.append(u)
        for v, edge in g.adjacency[u].items():
            nd = d + edge.cost(mode, epoch)
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                sigma[v] = sigma[u]
                preds[v] = [u]
                heappush(heap, (nd, v))
            elif nd == dist[v] and v not in settled:
                sigma[v] += sigma[u]
                preds[v].append(u)
    return dist, sigma, preds, order
