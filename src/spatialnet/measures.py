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
(``_sweep``): one traversal from each node over the integer core of
``graph``, yielding closeness, the path-length sum and diameter, and on
request Brandes betweenness accumulation and straightness in the same
loop. ``measure_report`` runs that pass once for binary, once for km,
and once for time when an epoch is given: 3n traversals, over one arc
table per cost mode, with the km pass in a child process (below). Every
BFS counts shortest paths, which the report's binary pass needs for
betweenness; a weighted traversal counts them only for ``betweenness``
in km or time mode, so the report's km and time passes run
distance-only. A binary pass that needs distances only
(``closeness``, ``path_length_and_diameter``) runs no per-source
traversal at all: it reads the integer hop sums and the diameter off
``graph.hop_distances``, which gives the same floats. Weighted path
costs within ``graph.TIE_RTOL`` of the shortest count as ties, and
graphs with non-finite weights cannot be built.

The distance-only weighted passes (the report's km and time passes, and
``closeness`` or ``path_length_and_diameter`` in km or time) prune as
they go: after the traversal from s, ``graph.drop_dominated_arcs``
removes each arc s-v that is longer than v's distance from s by more
than ``TIE_RTOL`` times s's largest distance. No shortest path uses such
an arc, and that margin exceeds the rounding of any route sum in the
graph, so every later distance, and so every reported byte, is the same
as without pruning. Counted passes (``betweenness`` in km or time) keep
every arc, since their tie rule, relative to the target's distance, can
still count a pruned arc. Straightness computes each unordered pair's
haversine once, which is symmetric to the bit, and hands it to the later
node through a per-node array that is freed once read.

``measure_report`` runs its km pass (straightness, km path length and
diameter) in a child made with ``os.fork``, while this process runs
clustering, the binary pass with Brandes and the time pass; the passes
share nothing. The km pass is the largest of the three, so the forked
report takes about as long as the binary and time passes together. The
child sends its result through a pipe with ``marshal``, which is built
in and already loaded, and leaves by ``os._exit``. The parent
reads the pipe to EOF before it reaps the child, raises SweepChildError
(a ComputeError) if the child failed, and kills and reaps the child if
it fails first itself. The km pass can fail only on a disconnected graph
or a node without coordinates, and nothing before it in the serial order
can fail on a connected graph, so ``measure_report`` checks those two
first and then forks whenever ``_can_fork`` holds; a failing input
raises the same error, with the same message, as it always did.
``_can_fork``, which ``null_models`` shares, holds when ``os.fork`` and
``os.sched_getaffinity`` exist, the affinity holds at least 2 CPUs, and
no other Python thread runs, since a fork copies only the calling
thread. The children run pure Python and elementwise numpy, never BLAS,
so no native thread pool is needed in them. Otherwise ``_forked`` runs
the km pass here, last. There is no option and no size threshold.

``multiprocessing`` and ``pickle`` are left out on purpose. A spawn
pool gained only about 8 %: its child re-imports and recompiles the
package, and re-runs any unguarded ``__main__``. Importing
``multiprocessing`` alone cost about 29 ms and 2.5 MiB of peak RSS,
above the benchmark's 5 % bound on ``peak_rss_mb``, and ``pickle``
about 4 ms and 0.22 MiB. The child's memory is not part of the parent's
peak RSS, and counters kept in the parent do not see the child's
traversals unless the child returns them with its result.

All functions are pure; sums accumulate in node ingestion order via
``math.fsum`` so repeated runs are bit-stable.
"""

from __future__ import annotations

import marshal
import math
import os
import threading
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from operator import truediv
from typing import Callable, Iterator, Mapping, Optional

from .exceptions import ComputeError, DisconnectedError
from .graph import SpatialGraph, drop_dominated_arcs, hop_distances, traverse

EARTH_RADIUS_KM = 6371.0


class TooFewNodesError(ComputeError):
    pass


class MissingCoordinatesError(ComputeError):
    pass


class IsolatedNodeError(ComputeError):
    pass


class SweepChildError(ComputeError):
    """A child process made by ``_forked`` (``measure_report``'s km pass,
    or the second half of a null-model ensemble) raised, or exited without
    sending its result."""


@dataclass(frozen=True)
class DegreeStrength:
    degree: Mapping[str, int]
    strength_km: Mapping[str, float]
    average_degree: float
    average_strength: float


@dataclass(frozen=True)
class ClusteringResult:
    per_node: Mapping[str, float]
    global_coefficient: float
    average: float


@dataclass(frozen=True)
class PathStats:
    average: float
    diameter: float


@dataclass(frozen=True)
class _SweepResult:
    closeness: dict[str, float]
    path_stats: PathStats
    betweenness: Optional[dict[str, float]]
    straightness: Optional[dict[str, float]]


@dataclass(frozen=True)
class NeighborStats:
    degree: Mapping[str, float]
    strength: Mapping[str, float]
    average_degree: float
    average_strength: float


@dataclass(frozen=True)
class NodeMeasures:
    degree: int
    strength_km: float
    closeness: float
    betweenness: float
    clustering: float
    straightness: float
    avg_neighbor_degree: float
    avg_neighbor_strength: float


@dataclass(frozen=True)
class GlobalMeasures:
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


@dataclass(frozen=True)
class TimeMeasures:
    epoch: str
    avg_path_length_min: float
    diameter_min: float


@dataclass(frozen=True)
class NeighborAverages:
    average_degree: float
    average_strength: float


@dataclass(frozen=True)
class MeasureReport:
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
    lengths: dict[str, list[float]] = {node.id: [] for node in g.nodes}
    for edge in g.edges:
        lengths[edge.u].append(edge.distance_km)
        lengths[edge.v].append(edge.distance_km)
    degree = {node_id: len(km) for node_id, km in lengths.items()}
    strength = {node_id: math.fsum(km) for node_id, km in lengths.items()}
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


def _sweep(
    g: SpatialGraph,
    what: str,
    mode: str = "binary",
    epoch: Optional[str] = None,
    brandes: bool = False,
    straight: bool = False,
) -> _SweepResult:
    """One traversal from every node under one cost mode, read into
    closeness, path stats and, when asked, betweenness and straightness.

    Sums keep the order of a per-measure computation: ``fsum`` over
    targets in node order, ``+=`` across sources in node order, and
    Brandes dependencies in reverse visit order.
    """
    _require_connected(g, what)
    geo = None
    if straight:
        _require_coordinates(g)
        # haversine_km is inlined below, with each node's cos(lat) computed once
        geo = [(node.lat, node.lon, math.cos(math.radians(node.lat))) for node in g.nodes]
    arcs = g.costs(mode, epoch)
    ids = g.node_ids
    n = g.n
    if n < 2:
        return _SweepResult(dict.fromkeys(ids, 0.0), PathStats(0.0, 0.0),
                            dict.fromkeys(ids, 0.0) if brandes else None,
                            dict.fromkeys(ids, 1.0) if straight else None)
    if arcs is None and not (brandes or straight):
        # binary distances only: integer hop sums from all sources at once,
        # equal to the per-source float sums below, which are exact too
        sums, hops = hop_distances(g.adj_index)
        return _SweepResult({node_id: total / (n - 1) for node_id, total in zip(ids, sums)},
                            PathStats(sum(sums) / (n * (n - 1)), float(hops)), None, None)
    # a distance-only weighted pass drops each arc that no shortest path uses
    # once a traversal from one of its ends shows it (see graph.TIE_RTOL)
    prune = arcs is not None and not brandes
    if prune:
        arcs = list(map(list, arcs))
    if straight:
        # haversine is symmetric to the bit, so each pair is computed once, by
        # its earlier node: ``before[t]`` gathers t's great-circle lengths to
        # the sources before it and is freed once t reads it, which holds
        # about n * n / 4 of them at the peak
        before = [array("d") for _ in range(n)]
    close: dict[str, float] = {}
    raw = [0.0] * n
    straight_by_node: dict[str, float] = {}
    sin, radians, sqrt, atan2 = math.sin, math.radians, math.sqrt, math.atan2
    total = 0.0
    diameter = 0.0
    for s, node_id in enumerate(ids):
        dist, sigma, preds, order = traverse(g, s, arcs, brandes)
        others = dist[:s] + dist[s + 1:]
        dist_sum = math.fsum(others)
        close[node_id] = dist_sum / (n - 1)
        total += dist_sum
        far = max(others)
        diameter = max(diameter, far)
        if prune:
            drop_dominated_arcs(arcs, s, dist, far)
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
            straight_by_node[node_id] = math.fsum(map(truediv, line, others)) / (n - 1)
    between = None
    if brandes:
        pairs = (n - 1) * (n - 2) / 2.0
        between = dict.fromkeys(ids, 0.0) if pairs <= 0 else {
            node_id: value / 2.0 / pairs for node_id, value in zip(ids, raw)
        }
    return _SweepResult(close, PathStats(total / (n * (n - 1)), diameter), between,
                        straight_by_node if straight else None)


def closeness(g: SpatialGraph, mode: str = "binary", epoch: Optional[str] = None) -> dict[str, float]:
    """Mean shortest-path distance from each node to all others."""
    return _sweep(g, "closeness", mode, epoch).closeness


def betweenness(g: SpatialGraph, mode: str = "binary", epoch: Optional[str] = None) -> dict[str, float]:
    """Share of all-pairs shortest paths through each node, in [0, 1].

    Accumulates per-source dependencies over the path counts in reverse
    distance order, halves the total to de-duplicate ordered pairs, then
    divides by (n-1)(n-2)/2.
    """
    return _sweep(g, "betweenness", mode, epoch, brandes=True).betweenness


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
    return _sweep(g, "average path length", mode, epoch).path_stats


def straightness(g: SpatialGraph) -> dict[str, float]:
    """Mean ratio of straight-line to route distance over all targets.

    Equals 1 only when every route out of the node is as short as the
    great-circle line; any detour pulls the value below 1.
    """
    return _sweep(g, "straightness", "km", straight=True).straightness


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


def _can_fork() -> bool:
    """Whether this process may run work in a forked child: ``os.fork``
    and ``os.sched_getaffinity`` exist, the process may use a second CPU,
    and no other Python thread runs. A fork copies only the calling
    thread. The children that ``_forked`` makes here run pure Python and
    elementwise numpy, never BLAS, so a native library's idle thread pool
    is never needed in them."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2
            and threading.active_count() == 1)


def _km_pass(g: SpatialGraph) -> tuple[dict[str, float], float, float]:
    """The report's km pass, as values that ``marshal`` carries:
    straightness per node, the km average path length and the diameter."""
    km = _sweep(g, "straightness", "km", straight=True)
    return km.straightness, km.path_stats.average, km.path_stats.diameter


@contextmanager
def _forked(task: Callable, *args, label: str = "a forked task",
            fork: bool = True) -> Iterator[Callable]:
    """Run ``task(*args)`` in a forked child while the with-block runs, and
    yield a function that waits for the child and returns the result.

    The child writes ``(True, result)``, or ``(False, "Type: message")``
    when the task raises an Exception, to a pipe with ``marshal``, and
    always leaves by ``os._exit``, so none of the parent's cleanup runs in
    it; an interrupt makes it exit with code 1 and send nothing. The parent
    reads the pipe to EOF before it reaps the child, so a result larger
    than the pipe buffer cannot deadlock, and raises SweepChildError, its
    message naming the work by ``label``, when the task raised or the
    child sent nothing whole. If the block is left before the result is
    read, the child is killed and reaped. With ``fork`` False, or if the
    fork itself fails, no child is made and the task runs in this process
    when its result is asked for, raising what it raises.
    """
    pid = None
    if fork:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        yield lambda: task(*args)
        return
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                payload = (True, task(*args))
            except Exception as exc:
                payload = (False, f"{type(exc).__name__}: {exc}")
            with open(write_fd, "wb") as pipe:
                marshal.dump(payload, pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    pipe = open(read_fd, "rb")
    reaped = False

    def result():
        nonlocal reaped
        data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code != 0 or not data:
            raise SweepChildError(f"the child process of {label} exited with code {code} "
                                  "and sent no result")
        ok, value = marshal.loads(data)
        if not ok:
            raise SweepChildError(f"{label} failed in its child process: {value}")
        return value

    try:
        yield result
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


def measure_report(g: SpatialGraph, epoch: Optional[str] = None) -> MeasureReport:
    """Assemble the full per-node and global measure table for one graph
    snapshot. Requires a connected graph with node coordinates.

    Both are checked first, and then the km pass (straightness, km path
    length and diameter) cannot fail. It runs in a forked child when
    ``_can_fork`` holds, while this process runs clustering and the
    binary and time passes, and SweepChildError reports a failed child;
    otherwise it runs here, last. A later failure here (n < 3, an edge
    without ``epoch``) kills and reaps the child, so a failing input
    raises its serial error, and the report is the same to the byte.
    The child's memory is not in this process's peak RSS, and work
    counted in this process does not see the child's traversals.
    """
    # a disconnected graph is reported as failing closeness, the first
    # measure of the report that needs connectivity
    _require_connected(g, "closeness")
    _require_coordinates(g)
    with _forked(_km_pass, g, label="the km pass", fork=_can_fork()) as km_pass:
        clus = clustering(g)
        binary = _sweep(g, "closeness", "binary", brandes=True)
        ds = degree_and_strength(g)
        nbr = _neighbor_means(g, ds)
        density_planar = density(g, "planar")
        time_paths = None if epoch is None else path_length_and_diameter(g, "time", epoch)
        straight, avg_path_length_km, diameter_km = km_pass()

    per_node = {
        node.id: NodeMeasures(
            degree=ds.degree[node.id],
            strength_km=ds.strength_km[node.id],
            closeness=binary.closeness[node.id],
            betweenness=binary.betweenness[node.id],
            clustering=clus.per_node[node.id],
            straightness=straight[node.id],
            avg_neighbor_degree=nbr.degree[node.id],
            avg_neighbor_strength=nbr.strength[node.id],
        )
        for node in g.nodes
    }
    total_km = math.fsum(edge.distance_km for edge in g.edges)
    global_measures = GlobalMeasures(
        n=g.n,
        m=g.m,
        average_degree=ds.average_degree,
        average_strength=ds.average_strength,
        density_planar=density_planar,
        density_nonplanar=density(g, "nonplanar"),
        avg_path_length_binary=binary.path_stats.average,
        avg_path_length_km=avg_path_length_km,
        diameter_binary=binary.path_stats.diameter,
        diameter_km=diameter_km,
        clustering_global=clus.global_coefficient,
        clustering_average=clus.average,
        total_edge_length_km=total_km,
        average_edge_length_km=total_km / g.m if g.m else 0.0,
    )
    time_measures = None
    if time_paths is not None:
        time_measures = TimeMeasures(epoch, time_paths.average, time_paths.diameter)
    return MeasureReport(
        per_node=per_node,
        global_measures=global_measures,
        nearest_neighbor=NeighborAverages(nbr.average_degree, nbr.average_strength),
        time_measures=time_measures,
    )
