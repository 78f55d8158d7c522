"""Degree-preserving null models: randomization and latticeization.

Both builders run double-edge swaps — pick edges (a, b) and (c, d),
rewire to (a, d) and (c, b) — rejecting any swap that would create a
self-loop, a multi-edge, or disconnect the graph. Randomization accepts
every remaining swap; latticeization additionally requires that the swap
does not increase the total ring-index cost

    sum over edges (u, v) of min(|pos u - pos v|, n - |pos u - pos v|)

where pos is a node's place in the ingestion order (the order of the
nodes file), which drives the topology toward that ring lattice while
keeping the degree sequence exact. The ensemble records the order it
used as ``node_order``.

Swap weights travel with their source endpoint ((a, d) inherits the
payload of (a, b)), so replicates remain valid spatial graphs; only the
binary topology of a replicate is meaningful.

Each replicate draws its own RNG stream derived from (seed, replicate
index), so ensembles are reproducible and replicates are independent. A
replicate stops early, without error, once no acceptable swap exists
anywhere (for latticeization: no cost-decreasing swap) — rigid graphs
such as a triangle and already-minimal ring lattices pass through
unchanged, and a stalled latticeization finishes its cost descent by
exhaustive scan. SwapBudgetExhaustedError marks the genuine failure
case: a randomization whose attempt budget ran out while acceptable
swaps still existed. The attempt budget of a replicate is
MAX_ATTEMPT_FACTOR times its target swap count.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

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
    """Mutable edge list + adjacency used while swapping one replicate."""

    def __init__(self, g: SpatialGraph, positions: Optional[Mapping[str, int]] = None):
        self.n = g.n
        self.edges: list[tuple[str, str]] = [(e.u, e.v) for e in g.edges]
        self.payloads: list[EdgeRecord] = list(g.edges)
        self.adj: dict[str, set[str]] = {node.id: set(g.adjacency[node.id]) for node in g.nodes}
        self.positions = positions

    def ring_cost(self, u: str, v: str) -> int:
        assert self.positions is not None
        gap = abs(self.positions[u] - self.positions[v])
        return min(gap, self.n - gap)

    def cost_delta(self, a: str, b: str, c: str, d: str) -> int:
        return (self.ring_cost(a, d) + self.ring_cost(c, b)
                - self.ring_cost(a, b) - self.ring_cost(c, d))

    def swap_ok_cheap(self, a: str, b: str, c: str, d: str) -> bool:
        if len({a, b, c, d}) < 4:
            return False
        if d in self.adj[a] or b in self.adj[c]:
            return False
        return True

    def connected_after(self, a: str, b: str, c: str, d: str) -> bool:
        # Apply tentatively on the adjacency only, BFS, then revert.
        self._flip_adj(a, b, c, d)
        seen = {a}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        ok = len(seen) == self.n
        self._flip_adj(a, d, c, b)  # revert: swap back
        return ok

    def _flip_adj(self, a: str, b: str, c: str, d: str) -> None:
        self.adj[a].discard(b); self.adj[b].discard(a)
        self.adj[c].discard(d); self.adj[d].discard(c)
        self.adj[a].add(d); self.adj[d].add(a)
        self.adj[c].add(b); self.adj[b].add(c)

    def commit(self, e1: int, e2: int, a: str, b: str, c: str, d: str) -> None:
        self._flip_adj(a, b, c, d)
        p1, p2 = self.payloads[e1], self.payloads[e2]
        self.edges[e1] = (a, d)
        self.payloads[e1] = EdgeRecord(a, d, p1.distance_km, p1.time_min)
        self.edges[e2] = (c, b)
        self.payloads[e2] = EdgeRecord(c, b, p2.distance_km, p2.time_min)

    def acceptable(self, a: str, b: str, c: str, d: str, improving_only: bool) -> bool:
        if not self.swap_ok_cheap(a, b, c, d):
            return False
        if self.positions is not None:
            delta = self.cost_delta(a, b, c, d)
            if improving_only:
                if delta >= 0:
                    return False
            elif delta > 0:
                return False
        return self.connected_after(a, b, c, d)

    def find_acceptable(self, improving_only: bool) -> Optional[tuple[int, int, str, str, str, str]]:
        """Deterministic exhaustive scan over edge pairs and orientations."""
        m = len(self.edges)
        for e1 in range(m):
            a, b = self.edges[e1]
            for e2 in range(m):
                if e1 == e2:
                    continue
                c, d = self.edges[e2]
                for cc, dd in ((c, d), (d, c)):
                    if self.acceptable(a, b, cc, dd, improving_only):
                        return e1, e2, a, b, cc, dd
        return None


def _rewire_replicate(
    g: SpatialGraph,
    rng: random.Random,
    swaps_per_edge: int,
    positions: Optional[Mapping[str, int]],
) -> tuple[list[EdgeRecord], int, int]:
    """Run one replicate's swap loop; returns (edges, accepted, attempts)."""
    rewirer = _Rewirer(g, positions)
    m = len(rewirer.edges)
    target = swaps_per_edge * m
    budget = MAX_ATTEMPT_FACTOR * target
    # Latticeization is done once no cost-decreasing swap remains (equal-
    # cost churn is not progress); an exhaustive scan certifies that.
    improving_only = positions is not None
    stall_limit = max(200, 20 * m)

    accepted = 0
    attempts = 0
    stall = 0
    while accepted < target:
        if attempts >= budget or stall >= stall_limit:
            found = rewirer.find_acceptable(improving_only)
            if found is None:
                break  # certified converged (or rigid): return what we have
            if improving_only:
                # finish the cost descent deterministically; each applied
                # swap lowers the integer cost, so this terminates
                e1, e2, a, b, c, d = found
                rewirer.commit(e1, e2, a, b, c, d)
                accepted += 1
                stall = 0
                continue
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
        a, b = rewirer.edges[e1]
        c, d = rewirer.edges[e2]
        if rng.random() > 0.5:
            c, d = d, c  # explore both orientations of the second edge
        if rewirer.acceptable(a, b, c, d, improving_only=False):
            rewirer.commit(e1, e2, a, b, c, d)
            accepted += 1
            stall = 0
        else:
            stall += 1
    return rewirer.payloads, accepted, attempts


def _build_ensemble(
    g: SpatialGraph,
    kind: str,
    seed: int,
    swaps_per_edge: int,
    replicates: int,
    node_order: Optional[tuple[str, ...]],
) -> NullModelEnsemble:
    if not g.is_connected:
        raise DisconnectedError("null models require a connected source graph")
    if g.m < 2:
        raise ComputeError(f"need at least 2 edges to rewire, got m = {g.m}")
    if replicates < 1:
        raise ValueError("replicate count must be >= 1")
    positions = None
    if node_order is not None:
        positions = {node_id: i for i, node_id in enumerate(node_order)}

    graphs: list[SpatialGraph] = []
    per_replicate: list[ReplicateStats] = []
    for index in range(replicates):
        # disjoint per-replicate streams; plain seed ^ index would collide
        # across adjacent seeds
        rng = random.Random((seed << 32) ^ index)
        edges, accepted, attempts = _rewire_replicate(g, rng, swaps_per_edge, positions)
        replicate = build_graph(g.nodes, edges)
        graphs.append(replicate)
        per_replicate.append(
            ReplicateStats(
                path_length=path_length_and_diameter(replicate, "binary").average,
                clustering=clustering(replicate).average,
                accepted_swaps=accepted,
                attempts=attempts,
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
        node_order=node_order,
    )


def randomize(
    g: SpatialGraph,
    seed: int,
    swaps_per_edge: int = DEFAULT_SWAPS_PER_EDGE,
    replicates: int = DEFAULT_REPLICATES,
) -> NullModelEnsemble:
    """Ensemble of degree-preserving, connectivity-preserving random rewires."""
    return _build_ensemble(g, "random", seed, swaps_per_edge, replicates, node_order=None)


def latticeize(
    g: SpatialGraph,
    seed: int,
    swaps_per_edge: int = DEFAULT_SWAPS_PER_EDGE,
    replicates: int = DEFAULT_REPLICATES,
) -> NullModelEnsemble:
    """Ensemble of degree-preserving rewires driven toward a ring lattice
    whose positions follow the node ingestion order."""
    return _build_ensemble(g, "lattice", seed, swaps_per_edge, replicates, node_order=g.node_ids)


def ring_index_cost(g: SpatialGraph, node_order: Sequence[str]) -> int:
    """Total ring-index cost of a graph under the given node ordering."""
    positions = {node_id: i for i, node_id in enumerate(node_order)}
    n = len(node_order)
    total = 0
    for edge in g.edges:
        gap = abs(positions[edge.u] - positions[edge.v])
        total += min(gap, n - gap)
    return total
