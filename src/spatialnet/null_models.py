"""Degree-preserving null models: randomization and latticeization.

Both builders run double-edge swaps — take edges (a, b) and (c, d),
rewire them to (a, d) and (c, b) — and reject any swap that would create
a self-loop, a multi-edge, or disconnect the graph. Swaps work on node
numbers (a node's position in ``g.nodes``, which is the ingestion
order). A swap keeps a connected graph connected exactly when, after it,
a still reaches b (then c reaches d through b and a), so the check is
one search that stops as soon as it meets b.

Randomization samples swaps at random and accepts every acceptable one
until ``swaps_per_edge * m`` are accepted. A replicate stops early,
without error, when an exhaustive scan finds no acceptable swap at all
(a rigid graph such as a triangle). SwapBudgetExhaustedError marks the
genuine failure: the attempt budget, MAX_ATTEMPT_FACTOR times the target
swap count, ran out while acceptable swaps still existed.

Latticeization is a steepest descent on the ring-index cost

    sum over edges (i, j) of min(|i - j|, n - |i - j|)

with i and j node numbers, which drives the topology toward the ring
lattice over the ingestion order while keeping the degree sequence
exact. Each step scores every unordered edge pair in both orientations
of the second edge, orders the simple, cost-lowering swaps by their cost
change (ties in the replicate's random order), and commits the first one
that keeps the graph connected. The descent stops when no such swap
remains — then ``converged`` is True and certifies that no single swap
can lower the cost further — or after ``swaps_per_edge * m`` steps. The
ensemble records the ring order as ``node_order``.

``ReplicateStats`` counts, per replicate: ``accepted_swaps``, the swaps
committed (descent steps for the lattice); ``attempts``, the sampled
swaps for randomization and the connectivity checks for the lattice;
and ``converged``, True when randomization reached its target or found
the graph rigid, and when the descent ran out of improving swaps.

Swap weights travel with their source endpoint ((a, d) inherits the
payload of (a, b)), so replicates remain valid spatial graphs; only the
binary topology of a replicate is meaningful.

Each replicate draws its own RNG stream derived from (seed, replicate
index), so ensembles are reproducible and replicates are independent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .exceptions import ComputeError, DisconnectedError
from .graph import EdgeRecord, SpatialGraph, build_graph
from .measures import clustering, path_length_and_diameter

DEFAULT_SWAPS_PER_EDGE = 10
DEFAULT_REPLICATES = 20
MAX_ATTEMPT_FACTOR = 100


class SwapBudgetExhaustedError(ComputeError):
    pass


@dataclass(frozen=True)
class ReplicateStats:
    path_length: float
    clustering: float
    accepted_swaps: int
    attempts: int
    converged: bool


@dataclass(frozen=True)
class EnsembleStats:
    mean_path_length: float
    mean_clustering: float
    per_replicate: tuple[ReplicateStats, ...]


@dataclass(frozen=True)
class NullModelEnsemble:
    kind: str  # "random" | "lattice"
    replicates: tuple[SpatialGraph, ...]
    seed: int
    swaps_per_edge: int
    stats: EnsembleStats
    node_order: Optional[tuple[str, ...]] = None  # lattice ordering, when relevant


class _Rewirer:
    """Integer edge list and adjacency sets of one replicate while it is
    being rewired; edge k keeps the weights of ``g.edges[k]``."""

    def __init__(self, g: SpatialGraph):
        self.g = g
        index = {node_id: i for i, node_id in enumerate(g.node_ids)}
        self.ends: list[tuple[int, int]] = [(index[e.u], index[e.v]) for e in g.edges]
        self.adj: list[set[int]] = [set(nbrs) for nbrs in g.adj_index]

    def acceptable(self, a: int, b: int, c: int, d: int) -> bool:
        if len({a, b, c, d}) < 4 or d in self.adj[a] or b in self.adj[c]:
            return False
        return self.connected_after(a, b, c, d)

    def connected_after(self, a: int, b: int, c: int, d: int) -> bool:
        self._flip(a, b, c, d)
        ok = self._reaches(a, b)
        self._flip(a, d, c, b)  # swap back
        return ok

    def _reaches(self, source: int, target: int) -> bool:
        adj = self.adj
        seen = {source}
        frontier = [source]
        for u in frontier:  # grows while iterated: the list is the queue
            for v in adj[u]:
                if v == target:
                    return True
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return False

    def _flip(self, a: int, b: int, c: int, d: int) -> None:
        adj = self.adj
        adj[a].discard(b); adj[b].discard(a)
        adj[c].discard(d); adj[d].discard(c)
        adj[a].add(d); adj[d].add(a)
        adj[c].add(b); adj[b].add(c)

    def commit(self, e1: int, e2: int, a: int, b: int, c: int, d: int) -> None:
        self._flip(a, b, c, d)
        self.ends[e1] = (a, d)
        self.ends[e2] = (c, b)

    def any_acceptable(self) -> bool:
        """Exhaustive scan over edge pairs and orientations."""
        return any(self.acceptable(a, b, cc, dd)
                   for e1, (a, b) in enumerate(self.ends)
                   for e2, (c, d) in enumerate(self.ends) if e1 != e2
                   for cc, dd in ((c, d), (d, c)))

    def edge_records(self) -> list[EdgeRecord]:
        ids = self.g.node_ids
        return [EdgeRecord(ids[u], ids[v], e.distance_km, e.time_min)
                for (u, v), e in zip(self.ends, self.g.edges)]


def _randomize_replicate(g: SpatialGraph, rng: random.Random, swaps_per_edge: int):
    """Random swaps until the target count; returns (rewirer, accepted,
    attempts, converged)."""
    rewirer = _Rewirer(g)
    m = g.m
    target = swaps_per_edge * m
    budget = MAX_ATTEMPT_FACTOR * target
    stall_limit = max(200, 20 * m)

    accepted = 0
    attempts = 0
    stall = 0
    while accepted < target:
        if attempts >= budget or stall >= stall_limit:
            if not rewirer.any_acceptable():
                break  # certified rigid: return what we have
            if attempts >= budget:
                raise SwapBudgetExhaustedError(
                    f"accepted {accepted} of {target} swaps within {budget} attempts"
                )
            stall = 0  # swaps exist; keep sampling
        e1 = rng.randrange(m)
        e2 = rng.randrange(m)
        attempts += 1
        if e1 == e2:
            stall += 1
            continue
        a, b = rewirer.ends[e1]
        c, d = rewirer.ends[e2]
        if rng.random() > 0.5:
            c, d = d, c  # explore both orientations of the second edge
        if rewirer.acceptable(a, b, c, d):
            rewirer.commit(e1, e2, a, b, c, d)
            accepted += 1
            stall = 0
        else:
            stall += 1
    return rewirer, accepted, attempts, True


def _latticeize_replicate(g: SpatialGraph, rng: random.Random, swaps_per_edge: int):
    """Steepest descent on the ring-index cost; returns (rewirer, steps,
    connectivity checks, converged)."""
    rewirer = _Rewirer(g)
    n, m = g.n, g.m
    position = np.arange(n, dtype=np.int32)
    gap = np.abs(position[:, None] - position)
    ring = np.minimum(gap, n - gap)  # ring[i, j]: ring cost of an edge i-j
    upper = np.triu(np.ones((m, m), dtype=bool), 1)

    steps = 0
    checks = 0
    while steps < swaps_per_edge * m:
        ends = rewirer.ends
        for e1, e2, flipped in _ranked_swaps(np.array(ends), ring, upper, rng):
            (a, b), (c, d) = ends[e1], ends[e2]
            if flipped:
                c, d = d, c
            checks += 1
            if rewirer.connected_after(a, b, c, d):
                rewirer.commit(e1, e2, a, b, c, d)
                steps += 1
                break
        else:
            return rewirer, steps, checks, True  # no improving swap remains
    return rewirer, steps, checks, False


def _ranked_swaps(ends: np.ndarray, ring: np.ndarray, upper: np.ndarray, rng: random.Random):
    """Yield (e1, e2, flipped) for every swap of edges e1 < e2 that lowers
    the ring cost and creates no self-loop or multi-edge, the largest
    decrease first and equal decreases in random order. Edge e1 = (a, b)
    and e2 = (c, d) rewire to (a, d), (c, b), or when ``flipped`` to
    (a, c), (d, b)."""
    u, v = ends[:, 0], ends[:, 1]
    # the diagonal is set so that a self-loop reads as an existing edge
    linked = np.eye(len(ring), dtype=bool)
    linked[u, v] = linked[v, u] = True
    # entry [e1, e2] of X_uv is X[u[e1], v[e2]]
    ring_uv = ring[u][:, v]
    linked_uv = linked[u][:, v]
    cost = np.diagonal(ring_uv)
    old = cost[:, None] + cost[None, :]
    delta = np.stack((ring_uv + ring_uv.T - old, ring[u][:, u] + ring[v][:, v] - old))
    clash = np.stack((linked_uv | linked_uv.T, linked[u][:, u] | linked[v][:, v]))
    candidates = np.flatnonzero(upper & (delta < 0) & ~clash)
    changes = delta.ravel()[candidates]
    m = len(ends)
    while candidates.size:  # one group of equal decrease at a time
        best = changes == changes.min()
        group = candidates[best].tolist()
        candidates, changes = candidates[~best], changes[~best]
        rng.shuffle(group)
        for k in group:
            flipped, rest = divmod(k, m * m)
            yield rest // m, rest % m, bool(flipped)


def _build_ensemble(
    g: SpatialGraph,
    kind: str,
    seed: int,
    swaps_per_edge: int,
    replicates: int,
) -> NullModelEnsemble:
    if not g.is_connected:
        raise DisconnectedError("null models require a connected source graph")
    if g.m < 2:
        raise ComputeError(f"need at least 2 edges to rewire, got m = {g.m}")
    if replicates < 1:
        raise ValueError("replicate count must be >= 1")
    rewire = _randomize_replicate if kind == "random" else _latticeize_replicate

    graphs: list[SpatialGraph] = []
    per_replicate: list[ReplicateStats] = []
    for index in range(replicates):
        # disjoint per-replicate streams; plain seed ^ index would collide
        # across adjacent seeds
        rng = random.Random((seed << 32) ^ index)
        rewirer, accepted, attempts, converged = rewire(g, rng, swaps_per_edge)
        replicate = build_graph(g.nodes, rewirer.edge_records())
        graphs.append(replicate)
        per_replicate.append(
            ReplicateStats(
                path_length=path_length_and_diameter(replicate, "binary").average,
                clustering=clustering(replicate).average,
                accepted_swaps=accepted,
                attempts=attempts,
                converged=converged,
            )
        )
    stats = EnsembleStats(
        mean_path_length=math.fsum(r.path_length for r in per_replicate) / replicates,
        mean_clustering=math.fsum(r.clustering for r in per_replicate) / replicates,
        per_replicate=tuple(per_replicate),
    )
    return NullModelEnsemble(
        kind=kind,
        replicates=tuple(graphs),
        seed=seed,
        swaps_per_edge=swaps_per_edge,
        stats=stats,
        node_order=g.node_ids if kind == "lattice" else None,
    )


def randomize(
    g: SpatialGraph,
    seed: int,
    swaps_per_edge: int = DEFAULT_SWAPS_PER_EDGE,
    replicates: int = DEFAULT_REPLICATES,
) -> NullModelEnsemble:
    """Ensemble of degree-preserving, connectivity-preserving random rewires."""
    return _build_ensemble(g, "random", seed, swaps_per_edge, replicates)


def latticeize(
    g: SpatialGraph,
    seed: int,
    swaps_per_edge: int = DEFAULT_SWAPS_PER_EDGE,
    replicates: int = DEFAULT_REPLICATES,
) -> NullModelEnsemble:
    """Ensemble of degree-preserving rewires descended toward a ring
    lattice whose positions follow the node ingestion order; at most
    ``swaps_per_edge * m`` descent steps per replicate."""
    return _build_ensemble(g, "lattice", seed, swaps_per_edge, replicates)


def ring_index_cost(g: SpatialGraph, node_order: Sequence[str]) -> int:
    """Total ring-index cost of a graph under the given node ordering."""
    positions = {node_id: i for i, node_id in enumerate(node_order)}
    n = len(node_order)
    total = 0
    for edge in g.edges:
        gap = abs(positions[edge.u] - positions[edge.v])
        total += min(gap, n - gap)
    return total
