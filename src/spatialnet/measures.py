"""Per-node and global network measures.

Conventions used throughout:

* Closeness is the mean shortest-path distance from a node to all others,
  so smaller values mean better reachability.
* Betweenness is normalized by the (n-1)(n-2)/2 pairs that could route
  through a node, so values live in [0, 1] across graph sizes.
* Local clustering of a node with fewer than two neighbors is 0, and
  those zeros always count in the network average (it is the mean over
  all n nodes).
* Average path length is the mean over ordered pairs i != j.
* Aggregates over distances (closeness, path length, diameter,
  straightness, betweenness) refuse disconnected graphs outright rather
  than folding the unreachable ``inf`` sentinel into a sum.
* Straight-line distances come from the haversine formula on lat/lon
  with an Earth radius of 6371 km.

Every path-based measure is read off one all-sources pass per cost mode
(``_pass``): the rows of one ``graph.sweep`` over every node, read into
closeness, the path-length sum and diameter, and on request Brandes
betweenness accumulation and straightness in the same loop.
``measure_report`` runs that pass once for binary, once for km, and once
for time when an epoch is given: 3n traversals, over one arc table per
cost mode and process, shared with a child process (below). Only
``betweenness`` asks the sweep to count shortest paths (BFS always
does), so the report's km and time passes are distance-only sweeps,
which pick their own bucket width and prune their own arc copy
(``graph.sweep``), changing no distance. A binary pass that
needs distances only (``closeness``, ``path_length_and_diameter``) runs
no per-source traversal at all: it reads the integer hop sums and the
diameter off ``graph.hop_distances``, which gives the same floats.
Weighted path costs within ``graph.TIE_RTOL`` of the shortest count as
ties, and graphs with non-finite weights cannot be built. Straightness
computes each unordered pair's haversine once, which is symmetric to the
bit, and hands it to the later node through a per-node array that is
freed once read.

``plan_report`` runs every check and cheap step of the report first, in
the serial order, so a failing input raises its serial error and never
forks. It returns the passes as two jobs shared with a forked child
(``shared.run``), items 0 and 1, the binary pass with Brandes and the km
pass with straightness, and one item per source of the time pass, given
an epoch, and the step that finishes the report from their results, with
the cheap results bound in it. ``measure_report`` runs the two jobs on
their own; ``cli`` runs them in one ``shared.run`` with the null-model
ensembles' jobs. Each process sweeps the time sources it claims, so
each source's ``(fsum, max)`` is the same wherever it runs, and
``_path_stats`` sums the merged rows in node order, as the serial pass
does.

All functions are pure; sums accumulate in node order (sorted node ids) via
``math.fsum`` so repeated runs are bit-stable.
"""

from __future__ import annotations

import math
from array import array
from operator import truediv
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from . import shared
from .exceptions import ComputeError, DisconnectedError
from .graph import SpatialGraph, hop_distances, sweep

EARTH_RADIUS_KM = 6371.0


class TooFewNodesError(ComputeError):
    pass


class MissingCoordinatesError(ComputeError):
    pass


class IsolatedNodeError(ComputeError):
    pass


class DegreeStrength(NamedTuple):
    degree: Mapping[str, int]
    strength_km: Mapping[str, float]
    average_degree: float
    average_strength: float


class ClusteringResult(NamedTuple):
    per_node: Mapping[str, float]
    global_coefficient: float
    average: float


class PathStats(NamedTuple):
    average: float
    diameter: float


class _PassResult(NamedTuple):
    closeness: dict[str, float]
    path_stats: PathStats
    betweenness: Optional[dict[str, float]]
    straightness: Optional[dict[str, float]]


class NeighborStats(NamedTuple):
    degree: Mapping[str, float]
    strength: Mapping[str, float]
    average_degree: float
    average_strength: float


class NodeMeasures(NamedTuple):
    degree: int
    strength_km: float
    closeness: float
    betweenness: float
    clustering: float
    straightness: float
    avg_neighbor_degree: float
    avg_neighbor_strength: float


class GlobalMeasures(NamedTuple):
    n: int
    m: int
    average_degree: float
    average_strength: float
    density_planar: float
    density_nonplanar: float
    avg_path_length_binary: float
    avg_path_length_km: float
    diameter_binary: float
    diameter_km: float
    clustering_global: float
    clustering_average: float
    total_edge_length_km: float
    average_edge_length_km: float


class TimeMeasures(NamedTuple):
    epoch: str
    avg_path_length_min: float
    diameter_min: float


class NeighborAverages(NamedTuple):
    average_degree: float
    average_strength: float


class MeasureReport(NamedTuple):
    per_node: Mapping[str, NodeMeasures]
    global_measures: GlobalMeasures
    nearest_neighbor: NeighborAverages
    time_measures: Optional[TimeMeasures] = None


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in km between two points in decimal degrees."""
    rlat1, rlat2 = math.radians(lat1), math.radians(lat2)
    dlat = math.radians(lat2 - lat1)
    dlon = math.radians(lon2 - lon1)
    a = math.sin(dlat / 2.0) ** 2 + math.cos(rlat1) * math.cos(rlat2) * math.sin(dlon / 2.0) ** 2
    return EARTH_RADIUS_KM * 2.0 * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


def degree_and_strength(g: SpatialGraph) -> DegreeStrength:
    """Node degree and kilometric strength, with their network means.
    A node's strength is the ``fsum`` of its edges' lengths, which is
    exact and so does not depend on the order of the edges."""
    lengths: list[list[float]] = [[] for _ in g.nodes]
    for (u, v), km in zip(g.ends, g.km):
        lengths[u].append(km)
        lengths[v].append(km)
    ids = g.node_ids
    degree = {node_id: len(km) for node_id, km in zip(ids, lengths)}
    strength = {node_id: math.fsum(km) for node_id, km in zip(ids, lengths)}
    n = g.n
    avg_k = 2.0 * g.m / n if n else 0.0
    avg_s = math.fsum(strength[node.id] for node in g.nodes) / n if n else 0.0
    return DegreeStrength(degree, strength, avg_k, avg_s)


def density(g: SpatialGraph, planarity: str = "nonplanar") -> float:
    """Edge count relative to the maximum: n(n-1)/2 pairs for the
    nonplanar reading, 3n-6 for the planar one."""
    if planarity == "nonplanar":
        if g.n < 2:
            return 0.0
        return 2.0 * g.m / (g.n * (g.n - 1))
    if planarity == "planar":
        if g.n < 3:
            raise TooFewNodesError(f"planar density needs n >= 3, got n = {g.n}")
        return g.m / (3.0 * g.n - 6.0)
    raise ValueError(f"unknown planarity {planarity!r}; expected 'planar' or 'nonplanar'")


def _require_connected(g: SpatialGraph, what: str) -> None:
    if not g.is_connected:
        raise DisconnectedError(f"{what} requires a connected graph; found {g.components} components")


def _require_coordinates(g: SpatialGraph) -> None:
    missing = [node.id for node in g.nodes if not node.has_coordinates]
    if missing:
        raise MissingCoordinatesError(f"nodes without coordinates: {missing}")


def _pass(
    g: SpatialGraph,
    what: str,
    mode: str = "binary",
    epoch: Optional[str] = None,
    brandes: bool = False,
    straight: bool = False,
) -> _PassResult:
    """One traversal from every node under one cost mode, read into
    closeness, path stats and, when asked, betweenness and straightness.

    Sums keep the order of a per-measure computation: ``fsum`` over
    targets in node order, ``+=`` across sources in node order, and
    Brandes dependencies in reverse visit order.
    """
    _require_connected(g, what)
    if straight:
        _require_coordinates(g)
    arcs = g.costs(mode, epoch)
    ids = g.node_ids
    n = g.n
    if n < 2:
        return _PassResult(dict.fromkeys(ids, 0.0), PathStats(0.0, 0.0),
                            dict.fromkeys(ids, 0.0) if brandes else None,
                            dict.fromkeys(ids, 1.0) if straight else None)
    if arcs is None and not (brandes or straight):
        # binary distances only: integer hop sums from all sources at once,
        # equal to the per-source float sums below, which are exact too
        sums, hops = hop_distances(g.adj_index)
        return _PassResult({node_id: total / (n - 1) for node_id, total in zip(ids, sums)},
                            PathStats(sum(sums) / (n * (n - 1)), float(hops)), None, None)
    rows, raw, straight_by_node = _traversals(g, arcs, range(n), brandes, straight)
    between = None
    if brandes:
        pairs = (n - 1) * (n - 2) / 2.0
        between = dict.fromkeys(ids, 0.0) if pairs <= 0 else {
            node_id: value / 2.0 / pairs for node_id, value in zip(ids, raw)
        }
    return _PassResult({node_id: rows[s][0] / (n - 1) for s, node_id in enumerate(ids)},
                        _path_stats(rows, n), between, straight_by_node if straight else None)


def _traversals(g: SpatialGraph, arcs, sources: Iterable[int], brandes: bool = False,
                straight: bool = False) -> tuple[dict, list[float], dict[str, float]]:
    """``_pass``'s per-source loop, over the ``graph.sweep`` from the node
    numbers in ``sources`` in that order: rows ``{s: (fsum, max) of s's
    distances to the others}``, Brandes' raw sums by node number, and
    straightness by node id (which needs every source, in node order)."""
    n = g.n
    if straight:
        # haversine_km is inlined below, with each node's cos(lat) computed once
        geo = [(node.lat, node.lon, math.cos(math.radians(node.lat))) for node in g.nodes]
        # haversine is symmetric to the bit, so each pair is computed once, by
        # its earlier node: ``before[t]`` gathers t's great-circle lengths to
        # the sources before it and is freed once t reads it, which holds
        # about n * n / 4 of them at the peak
        before = [array("d") for _ in range(n)]
    rows: dict[int, tuple[float, float]] = {}
    raw = [0.0] * n
    straight_by_node: dict[str, float] = {}
    sin, radians, sqrt, atan2 = math.sin, math.radians, math.sqrt, math.atan2
    for s, dist, far, sigma, preds, order in sweep(g, arcs, sources, brandes):
        others = dist[:s] + dist[s + 1:]
        rows[s] = math.fsum(others), far
        if brandes:
            delta = [0.0] * n
            for w in reversed(order):
                coeff = 1.0 + delta[w]
                sigma_w = sigma[w]
                for v in preds[w]:
                    delta[v] += sigma[v] / sigma_w * coeff
                if w != s:
                    raw[w] += delta[w]
        if straight:
            lat, lon, cos_s = geo[s]
            line = before[s]
            before[s] = None
            for (lat_t, lon_t, cos_t), column in zip(geo[s + 1:], before[s + 1:]):
                a = (sin(radians(lat_t - lat) / 2.0) ** 2
                     + cos_s * cos_t * sin(radians(lon_t - lon) / 2.0) ** 2)
                h = EARTH_RADIUS_KM * 2.0 * atan2(sqrt(a), sqrt(1.0 - a))
                line.append(h)
                column.append(h)
            straight_by_node[g.nodes[s].id] = math.fsum(map(truediv, line, others)) / (n - 1)
    return rows, raw, straight_by_node


def _path_stats(rows: Mapping[int, tuple[float, float]], n: int) -> PathStats:
    """Path stats from every source's row, summed with ``+=`` in node order."""
    total = diameter = 0.0
    for s in range(n):
        dist_sum, far = rows[s]
        total += dist_sum
        diameter = max(diameter, far)
    return PathStats(total / (n * (n - 1)), diameter)


def closeness(g: SpatialGraph, mode: str = "binary", epoch: Optional[str] = None) -> dict[str, float]:
    """Mean shortest-path distance from each node to all others."""
    return _pass(g, "closeness", mode, epoch).closeness


def betweenness(g: SpatialGraph, mode: str = "binary", epoch: Optional[str] = None) -> dict[str, float]:
    """Share of all-pairs shortest paths through each node, in [0, 1].

    Accumulates per-source dependencies over the path counts in reverse
    distance order, halves the total to de-duplicate ordered pairs, then
    divides by (n-1)(n-2)/2.
    """
    return _pass(g, "betweenness", mode, epoch, brandes=True).betweenness


def local_clustering(adj) -> tuple[list[float], float]:
    """Local clustering of each node of the graph with neighbour lists
    ``adj``, in node order, and the transitivity-style global coefficient."""
    local: list[float] = []
    neighbor_sets = [set(nbrs) for nbrs in adj]
    triangles2 = 0.0  # ordered connected-neighbor pairs, summed over nodes
    triplets = 0.0
    for nbrs in adj:
        k = len(nbrs)
        if k < 2:
            local.append(0.0)
            continue
        # each link between two neighbours is seen from both ends
        links = sum(len(neighbor_sets[u].intersection(nbrs)) for u in nbrs) // 2
        local.append(2.0 * links / (k * (k - 1)))
        triangles2 += 2.0 * links
        triplets += k * (k - 1) / 2.0
    return local, (triangles2 / 2.0) / triplets if triplets else 0.0


def clustering(g: SpatialGraph) -> ClusteringResult:
    """Local clustering per node, the transitivity-style global
    coefficient, and the network average over all nodes."""
    local, global_c = local_clustering(g.adj_index)
    average = math.fsum(local) / g.n if g.n else 0.0
    return ClusteringResult(dict(zip(g.node_ids, local)), global_c, average)


def path_length_and_diameter(
    g: SpatialGraph, mode: str = "binary", epoch: Optional[str] = None
) -> PathStats:
    """Mean ordered-pair shortest-path length and the maximum (diameter)."""
    return _pass(g, "average path length", mode, epoch).path_stats


def straightness(g: SpatialGraph) -> dict[str, float]:
    """Mean ratio of straight-line to route distance over all targets.

    Equals 1 only when every route out of the node is as short as the
    great-circle line; any detour pulls the value below 1.
    """
    return _pass(g, "straightness", "km", straight=True).straightness


def avg_nearest_neighbor(g: SpatialGraph) -> NeighborStats:
    """Per-node mean degree and strength of the node's neighbors, plus
    the network-wide means of those values."""
    return _neighbor_means(g, degree_and_strength(g))


def _neighbor_means(g: SpatialGraph, ds: DegreeStrength) -> NeighborStats:
    """``avg_nearest_neighbor`` from the graph's degrees and strengths."""
    isolated = [node.id for node, nbrs in zip(g.nodes, g.adj_index) if not nbrs]
    if isolated:
        raise IsolatedNodeError(f"isolated nodes: {isolated}")
    degree = [ds.degree[node.id] for node in g.nodes]
    strength = [ds.strength_km[node.id] for node in g.nodes]
    nbr_degree: dict[str, float] = {}
    nbr_strength: dict[str, float] = {}
    for node, nbrs in zip(g.nodes, g.adj_index):
        nbr_degree[node.id] = math.fsum(degree[v] for v in nbrs) / len(nbrs)
        nbr_strength[node.id] = math.fsum(strength[v] for v in nbrs) / len(nbrs)
    n = g.n
    return NeighborStats(
        nbr_degree,
        nbr_strength,
        math.fsum(nbr_degree[node.id] for node in g.nodes) / n,
        math.fsum(nbr_strength[node.id] for node in g.nodes) / n,
    )


def _report_passes(indices: Iterator[int], g: SpatialGraph) -> dict:
    """The report's passes numbered in ``indices``, as values that
    ``marshal`` carries: 0 is the binary pass with Brandes, kept under
    "binary", and 1 the km pass with straightness, under "km"."""
    done = {}
    for item in indices:
        if item == 0:
            binary = _pass(g, "closeness", "binary", brandes=True)
            done["binary"] = binary.closeness, binary.betweenness, *binary.path_stats
        else:
            km = _pass(g, "straightness", "km", straight=True)
            done["km"] = km.straightness, *km.path_stats
    return done


def _time_rows(indices: Iterator[int], g: SpatialGraph, time_arcs) -> dict:
    """The time pass's row of each source in ``indices``, under its node
    number, from one sweep over ``time_arcs``."""
    return _traversals(g, time_arcs, indices)[0]


def plan_report(g: SpatialGraph, epoch: Optional[str]
                ) -> tuple[list, Callable[[Sequence[dict]], MeasureReport]]:
    """``measure_report``'s checks and cheap steps, in the serial order;
    returns its passes as two ``shared.run`` jobs, and the step that
    finishes the report from their results, with the cheap results bound."""
    # a disconnected graph is reported as failing closeness, the first
    # measure of the report that needs connectivity
    _require_connected(g, "closeness")
    _require_coordinates(g)
    clus = clustering(g)
    ds = degree_and_strength(g)
    nbr = _neighbor_means(g, ds)
    density_planar = density(g, "planar")
    time_arcs = None if epoch is None else g.costs("time", epoch)

    def finish(done: Sequence[dict]) -> MeasureReport:
        passes, time_rows = done
        binary_closeness, between, avg_path_length_binary, diameter_binary = passes["binary"]
        straight, avg_path_length_km, diameter_km = passes["km"]

        per_node = {
            node.id: NodeMeasures(
                degree=ds.degree[node.id],
                strength_km=ds.strength_km[node.id],
                closeness=binary_closeness[node.id],
                betweenness=between[node.id],
                clustering=clus.per_node[node.id],
                straightness=straight[node.id],
                avg_neighbor_degree=nbr.degree[node.id],
                avg_neighbor_strength=nbr.strength[node.id],
            )
            for node in g.nodes
        }
        total_km = math.fsum(g.km)
        global_measures = GlobalMeasures(
            n=g.n,
            m=g.m,
            average_degree=ds.average_degree,
            average_strength=ds.average_strength,
            density_planar=density_planar,
            density_nonplanar=density(g, "nonplanar"),
            avg_path_length_binary=avg_path_length_binary,
            avg_path_length_km=avg_path_length_km,
            diameter_binary=diameter_binary,
            diameter_km=diameter_km,
            clustering_global=clus.global_coefficient,
            clustering_average=clus.average,
            total_edge_length_km=total_km,
            average_edge_length_km=total_km / g.m if g.m else 0.0,
        )
        time_measures = None
        if epoch is not None:
            time_paths = _path_stats(time_rows, g.n)
            time_measures = TimeMeasures(epoch, time_paths.average, time_paths.diameter)
        nearest = NeighborAverages(nbr.average_degree, nbr.average_strength)
        return MeasureReport(per_node, global_measures, nearest, time_measures)

    label = "the measure report"
    return ([(2, _report_passes, (g,), label),
             (0 if epoch is None else g.n, _time_rows, (g, time_arcs), label)], finish)


def measure_report(g: SpatialGraph, epoch: Optional[str] = None) -> MeasureReport:
    """Assemble the full per-node and global measure table for one graph
    snapshot. Requires a connected graph with node coordinates. Every
    check runs before the fork (``plan_report``), so a failing input raises
    its serial error, and the report is the same to the byte either way."""
    jobs, finish = plan_report(g, epoch)
    return finish(shared.run(jobs))
