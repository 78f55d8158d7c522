"""Degree-preserving null models: randomization and latticeization.

Both builders run double-edge swaps — take edges (a, b) and (c, d),
rewire them to (a, d) and (c, b) — and reject any swap that would create
a self-loop, a multi-edge, or disconnect the graph. Swaps work on node
numbers (a node's position in ``g.nodes``, which is the sorted node-id
order), each node's neighbours held as one int bitset. A swap keeps a
connected graph connected exactly when, after it, a still reaches b
(then c reaches d through b and a). So a candidate is flipped in once,
by four XORs, and kept at once if the ORed bitsets of a and d meet those
of b and c, since a-d and c-b are now edges (64 % of the random chain's
checks and 95 % of the lattice's on the sample, seed 1); otherwise one
search grows from a and from b, always on the smaller side, by ORing the
bitsets of its frontier, and stops as soon as the two meet; the same
XORs undo the flip only if they never do.

Randomization samples swaps at random and accepts every acceptable one
until ``swaps_per_edge * m`` are accepted; each edge draw is
``rng.randrange(m)`` written out (``getrandbits(m.bit_length())`` until
below m, as CPython draws it). A swap is undone by its reverse,
(a, d), (c, b) -> (a, b), (c, d), which is acceptable too, so after one
accepted swap an acceptable one always remains and only the input can be
rigid (a triangle, a star, K4). One exhaustive scan before the first
draw, which draws no random number, settles that: a rigid input is
returned unchanged, with no attempt and without error, and any other
input is sampled until the target is reached. With A of the 2·m² equally
likely draws acceptable, a swap takes 2·m²/A attempts on average.

Latticeization is a steepest descent on the ring-index cost

    sum over edges (i, j) of min(|i - j|, n - |i - j|)

with i and j node numbers, which drives the topology toward the ring
lattice over the sorted node-id order while keeping the degree sequence
exact. Each replicate keeps a table of the cost change of every
unordered edge pair in both orientations of the second edge, in which
swaps that are not simple never read as improving; a committed swap
re-scores only the rows of the edges that touch its four nodes, found
from per-node sets of incident edges. The ensemble builds the start
state (ring costs, penalties and table of the input's edges) once, and
each replicate descends on a copy of it. Each step takes the swaps of
the largest decrease in the replicate's random order, then those of the
next decrease, and commits the first one that keeps the graph connected.
The descent stops when no such swap remains — then ``converged`` is True
and certifies that no single swap can lower the cost further — or after
``swaps_per_edge * m`` steps. The ensemble records the ring order as
``node_order``.

``ReplicateStats`` counts, per replicate: ``accepted_swaps``, the swaps
committed (descent steps for the lattice); ``attempts``, the sampled
swaps for randomization and the connectivity checks for the lattice;
and ``converged``, True when randomization reached its target or found
the graph rigid, and when the descent ran out of improving swaps.

A replicate is the input graph with its rewired edge ends and the
``graph.neighbour_lists`` of them, which also give its binary path
length through ``graph.hop_distances`` and its average clustering
through ``measures.local_clustering``, the kernels under
``path_length_and_diameter`` and ``clustering``. Edge costs travel with
their source endpoint ((a, d) keeps the costs of (a, b)), so a replicate
shares the input's nodes, id index and cost columns and remains a valid
spatial graph; only its binary topology is meaningful.

Each replicate draws its own RNG stream derived from (seed, replicate
index), so ensembles are reproducible and replicates are independent.

Since replicates share nothing, an ensemble of R replicates is one job of
R items that this process shares with a forked child (``ensemble_job``,
after every check; ``shared.run`` states the protocol). Each process runs
``_replicates`` on the replicate numbers it claims, which returns each
replicate's edge ends, neighbour lists and ReplicateStats fields as
``marshal`` values. A failure of the child raises
``shared.SweepChildError``.

This is the one module that imports numpy at module level: every command
that builds ensembles (``omega``, ``all``) also latticeizes. ``cli``
imports it only for those two commands, so ``analyze``,
``communities``, ``fit`` and ``regress`` never load it; its defaults
live in ``small_world``.
"""

from __future__ import annotations

import copy
import math
import random
from functools import partial
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import shared
from .exceptions import ComputeError, DisconnectedError
from .graph import SpatialGraph, hop_distances, neighbour_lists
from .measures import local_clustering
from .small_world import DEFAULT_REPLICATES, DEFAULT_SWAPS_PER_EDGE


class ReplicateStats(NamedTuple):
    path_length: float
    clustering: float
    accepted_swaps: int
    attempts: int
    converged: bool


class EnsembleStats(NamedTuple):
    mean_path_length: float
    mean_clustering: float
    per_replicate: tuple[ReplicateStats, ...]


class NullModelEnsemble(NamedTuple):
    kind: str  # "random" | "lattice"
    replicates: tuple[SpatialGraph, ...]
    seed: int
    swaps_per_edge: int
    stats: EnsembleStats
    node_order: Optional[tuple[str, ...]] = None  # lattice ordering, when relevant


class _Rewirer:
    """Edge ends and neighbour bitsets (bit v of ``bits[u]`` marks edge
    u-v) of one replicate being rewired from ``g``; edge k keeps the
    costs of ``g``'s edge k."""

    def __init__(self, g: SpatialGraph):
        self.ends: list[tuple[int, int]] = list(g.ends)
        self.bits: list[int] = [sum(1 << v for v in nbrs) for nbrs in g.adj_index]

    def simple_after(self, a: int, b: int, c: int, d: int) -> bool:
        """Whether rewiring (a, b), (c, d) to (a, d), (c, b) creates no
        self-loop and no repeated pair."""
        return len({a, b, c, d}) == 4 and not (self.bits[a] >> d & 1 or self.bits[c] >> b & 1)

    def swap(self, e1: int, e2: int, a: int, b: int, c: int, d: int) -> bool:
        """Rewire edges e1 = (a, b) and e2 = (c, d) to (a, d) and (c, b)
        if the graph stays connected, and return whether it did; the caller
        has checked ``simple_after``. The bitsets are flipped once. Since
        a-d and c-b are then edges, a common bit of ``bits[a] | bits[d]``
        and ``bits[b] | bits[c]`` is a walk from a to b; only without one
        does ``_joined`` run, and the flip is undone only when it fails."""
        bits = self.bits
        bits[a] ^= 1 << b | 1 << d
        bits[b] ^= 1 << a | 1 << c
        bits[c] ^= 1 << d | 1 << b
        bits[d] ^= 1 << c | 1 << a
        if not ((bits[a] | bits[d]) & (bits[b] | bits[c]) or self._joined(a, b)):
            self._flip(a, b, c, d)
            return False
        self.ends[e1], self.ends[e2] = (a, d), (c, b)
        return True

    def _joined(self, a: int, b: int) -> bool:
        """Whether a reaches b: a search from both ends that always grows the
        smaller frontier by ORing its nodes' bitsets, until the sides meet.
        ``swap`` calls it only when no node neighbours both a or d and b
        or c: on the sample (seed 1, 20 replicates each) for 36 % of the
        random chain's checks and 5 % of the lattice's, and all but 2 of
        its 5 089 random-chain searches find a and b joined."""
        bits = self.bits
        near = frontier = 1 << a
        far = other = 1 << b
        while frontier:
            if frontier.bit_count() > other.bit_count():
                near, far, frontier, other = far, near, other, frontier
            grown = 0
            while frontier:
                low = frontier & -frontier
                nbrs = bits[low.bit_length() - 1]
                if nbrs & far:
                    return True
                grown |= nbrs
                frontier ^= low
            frontier = grown & ~near
            near |= frontier
        return False

    def _flip(self, a: int, b: int, c: int, d: int) -> None:
        """Exchange (a, b), (c, d) and (a, d), (c, b); valid after ``simple_after``."""
        bits = self.bits
        bits[a] ^= 1 << b | 1 << d
        bits[b] ^= 1 << a | 1 << c
        bits[c] ^= 1 << d | 1 << b
        bits[d] ^= 1 << c | 1 << a

    def any_acceptable(self) -> bool:
        """Exhaustive scan over unordered edge pairs (e2, e1 rewires to a graph
        that e1, e2 does) in both orientations; leaves the edges as they were."""
        for e1, (a, b) in enumerate(self.ends):
            for e2, (c, d) in enumerate(self.ends[e1 + 1:], e1 + 1):
                for cc, dd in ((c, d), (d, c)):
                    if self.simple_after(a, b, cc, dd) and self.swap(e1, e2, a, b, cc, dd):
                        self._flip(a, b, cc, dd)  # undo
                        self.ends[e1], self.ends[e2] = (a, b), (c, d)
                        return True
        return False


def _randomize_replicate(g: SpatialGraph, rng: random.Random, swaps_per_edge: int):
    """Random swaps until the target count, none on a rigid input; returns
    (rewirer, accepted, attempts, converged)."""
    rewirer = _Rewirer(g)
    m = g.m
    target = swaps_per_edge * m if rewirer.any_acceptable() else 0

    ends, bits, swap = rewirer.ends, rewirer.bits, rewirer.swap
    getrandbits, uniform, width = rng.getrandbits, rng.random, m.bit_length()

    accepted = attempts = 0
    while accepted < target:
        # rng.randrange(m) twice, drawn as CPython's _randbelow draws it
        while (e1 := getrandbits(width)) >= m:
            pass
        while (e2 := getrandbits(width)) >= m:
            pass
        attempts += 1
        if e1 == e2:
            continue
        (a, b), (c, d) = ends[e1], ends[e2]
        if uniform() > 0.5:
            c, d = d, c  # explore both orientations of the second edge
        # simple_after, inlined (a == c or b == d makes a new pair an edge)
        if (a != d and b != c and not (bits[a] >> d & 1 or bits[c] >> b & 1)
                and swap(e1, e2, a, b, c, d)):
            accepted += 1
    return rewirer, accepted, attempts, True


def _latticeize_replicate(g: SpatialGraph, rng: random.Random, swaps_per_edge: int,
                          start: _RingDeltas):
    """Steepest descent on the ring-index cost from a copy of ``start``,
    the ``_RingDeltas`` of g's edges; returns (rewirer, steps,
    connectivity checks, converged)."""
    rewirer = _Rewirer(g)
    deltas = start.copy()
    steps = 0
    checks = 0
    while steps < swaps_per_edge * g.m:
        for e1, e2, a, b, c, d in deltas.ranked_swaps(rewirer.ends, rng):
            checks += 1
            if rewirer.swap(e1, e2, a, b, c, d):
                deltas.rewired(rewirer.ends, e1, e2)
                steps += 1
                break
        else:
            return rewirer, steps, checks, True  # no improving swap remains
    return rewirer, steps, checks, False


class _RingDeltas:
    """Ring-cost change of every swap of one replicate, kept up to date as
    the replicate is rewired.

    ``table[0, e1, e2]`` is the change when edges e1 = (a, b) and
    e2 = (c, d) rewire to (a, d), (c, b); ``table[1, e1, e2]`` the change
    when they rewire to (a, c), (d, b) (the second edge read the other
    way round). Both are symmetric in e1 and e2. A swap that would create
    a self-loop or a repeated pair scores above 0, so only simple swaps
    can be candidates: new edges are priced with ``penalized[x, y]``, the
    ring cost of x-y plus n + 1 when x = y or x-y is an edge, and a swap
    removes at most n of ring cost.

    A swap of (a, b), (c, d) changes the ring cost of its two edges and
    the penalties of pairs among a, b, c, d, so ``rewired`` re-scores the
    rows and columns of the edges that touch those four nodes, O(m) each,
    named by ``incident``, the set of edges at each node. A row of edge
    (x, y) is ``penalized[x]`` read at every edge's (v, u) ends plus
    ``penalized[y]`` read at its (u, v) ends (``vu`` and ``uv``). An
    ensemble builds its start state once; each replicate rewires a ``copy``.
    """

    def __init__(self, ends: Sequence[tuple[int, int]], n: int):
        self.n = n
        position = np.arange(n, dtype=np.int32)
        gap = np.abs(position[:, None] - position)
        ring = np.minimum(gap, n - gap)  # ring[i, j]: ring cost of an edge i-j
        u, v = np.array(ends, dtype=np.int32).T
        self.uv = np.concatenate((u, v))  # every edge's u, then every edge's v
        self.vu = np.concatenate((v, u))
        self.cost = ring[u, v]
        self.incident: list[set[int]] = [set() for _ in range(n)]
        for e, (x, y) in enumerate(ends):
            self.incident[x].add(e)
            self.incident[y].add(e)
        self.penalized = ring
        self.penalized[position, position] += n + 1
        self.penalized[u, v] += n + 1
        self.penalized[v, u] += n + 1
        self.table = np.ascontiguousarray(self._rows(np.arange(len(ends))))

    def copy(self) -> _RingDeltas:
        """An independent copy, which a replicate may rewire."""
        twin = copy.copy(self)
        for name in ("uv", "vu", "cost", "penalized", "table"):
            setattr(twin, name, getattr(self, name).copy())
        twin.incident = [set(edges) for edges in self.incident]
        return twin

    def _rows(self, rows: np.ndarray) -> np.ndarray:
        """``table[:, rows, :]`` scored from the current edges, as a view
        of one rows-by-2m block."""
        penalized, uv, vu, cost = self.penalized, self.uv, self.vu, self.cost
        # row edge (x, y) against column edge (p, q): P[x, q] + P[y, p] in
        # the first m columns, P[x, p] + P[y, q] in the last m
        scores = penalized.take(uv.take(rows), 0).take(vu, 1)
        scores += penalized.take(vu.take(rows), 0).take(uv, 1)
        scores = scores.reshape(len(rows), 2, len(cost))
        scores -= cost
        scores -= cost.take(rows)[:, None, None]
        return scores.transpose(1, 0, 2)

    def rewired(self, ends: list[tuple[int, int]], e1: int, e2: int) -> None:
        """Re-score after edges e1 = (a, b) and e2 = (c, d) rewired to
        ``ends[e1]`` = (a, d) and ``ends[e2]`` = (c, b)."""
        (a, d), (c, b) = ends[e1], ends[e2]
        n, m, uv, vu, penalized, incident = (
            self.n, len(ends), self.uv, self.vu, self.penalized, self.incident)
        for x, y, change in ((a, b, -n - 1), (c, d, -n - 1), (a, d, n + 1), (c, b, n + 1)):
            penalized[x, y] += change
            penalized[y, x] += change
        uv[e1], uv[m + e1], uv[e2], uv[m + e2] = a, d, c, b
        vu[e1], vu[m + e1], vu[e2], vu[m + e2] = d, a, b, c
        for e, x, y in ((e1, a, d), (e2, c, b)):
            gap = abs(x - y)
            self.cost[e] = min(gap, n - gap)
        incident[b] ^= {e1, e2}  # e1 moves from b to d, e2 from d to b
        incident[d] ^= {e1, e2}
        touching = incident[a] | incident[b] | incident[c] | incident[d]
        rows = np.fromiter(touching, np.intp, len(touching))
        scores = self._rows(rows)
        self.table[:, rows, :] = scores
        self.table[:, :, rows] = scores.transpose(0, 2, 1)

    def ranked_swaps(self, ends: list[tuple[int, int]], rng: random.Random):
        """Yield (e1, e2, a, b, c, d) for every simple swap of edges
        e1 < e2, (a, b), (c, d) -> (a, d), (c, b), that lowers the ring
        cost: the largest decrease first, and equal decreases in the order
        of one shuffle of their flat table indices (orientation, then e1,
        then e2)."""
        flat = self.table.ravel()
        m = len(ends)
        level = flat.min()
        while level < 0:
            group = [k for k in np.flatnonzero(flat == level).tolist()
                     if k // m % m < k % m]
            rng.shuffle(group)
            for k in group:
                flipped, rest = divmod(k, m * m)
                e1, e2 = divmod(rest, m)
                (a, b), (c, d) = ends[e1], ends[e2]
                yield (e1, e2, a, b, d, c) if flipped else (e1, e2, a, b, c, d)
            level = np.min(flat, initial=0, where=flat > level)


def _replicates(indices: Iterator[int], g: SpatialGraph, rewire, seed: int,
                swaps_per_edge: int) -> dict:
    """The replicates numbered in ``indices``, by replicate number, as
    values that ``marshal`` carries: its rewired ``ends`` and their
    ``neighbour_lists``, then its ReplicateStats fields in order."""
    n = g.n
    built = {}
    for index in indices:
        # disjoint per-replicate streams; plain seed ^ index would collide
        # across adjacent seeds
        rng = random.Random((seed << 32) ^ index)
        rewirer, accepted, attempts, converged = rewire(g, rng, swaps_per_edge)
        adj = neighbour_lists(n, rewirer.ends)
        sums, _ = hop_distances(adj)
        built[index] = (tuple(rewirer.ends), adj, sum(sums) / (n * (n - 1)),
                        math.fsum(local_clustering(adj)[0]) / n, accepted, attempts, converged)
    return built


def ensemble_job(g: SpatialGraph, kind: str, seed: int, swaps_per_edge: int,
                 replicates: int) -> tuple:
    """The ensemble's checks and start state; returns its replicates as a
    ``shared.run`` job."""
    if not g.is_connected:
        raise DisconnectedError("null models require a connected source graph")
    if g.m < 2:
        raise ComputeError(f"need at least 2 edges to rewire, got m = {g.m}")
    if replicates < 1:
        raise ValueError("replicate count must be >= 1")
    rewire = (_randomize_replicate if kind == "random" else
              partial(_latticeize_replicate, start=_RingDeltas(g.ends, g.n)))
    return replicates, _replicates, (g, rewire, seed, swaps_per_edge), f"the {kind} ensemble"


def _build_ensemble(g: SpatialGraph, kind: str, seed: int, swaps_per_edge: int,
                    replicates: int, done: Optional[dict]) -> NullModelEnsemble:
    if done is None:
        done = shared.run([ensemble_job(g, kind, seed, swaps_per_edge, replicates)])[0]
    built = [done[index] for index in range(replicates)]
    per_replicate = [ReplicateStats(*fields) for _, _, *fields in built]
    stats = EnsembleStats(
        mean_path_length=math.fsum(r.path_length for r in per_replicate) / replicates,
        mean_clustering=math.fsum(r.clustering for r in per_replicate) / replicates,
        per_replicate=tuple(per_replicate),
    )
    return NullModelEnsemble(
        kind=kind,
        replicates=tuple(g._replace(ends=ends, adj_index=adj) for ends, adj, *_ in built),
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
    *, done: Optional[dict] = None,
) -> NullModelEnsemble:
    """Ensemble of degree-preserving, connectivity-preserving random rewires;
    ``done`` is its ``ensemble_job``'s result, run beforehand (``cli``)."""
    return _build_ensemble(g, "random", seed, swaps_per_edge, replicates, done)


def latticeize(
    g: SpatialGraph,
    seed: int,
    swaps_per_edge: int = DEFAULT_SWAPS_PER_EDGE,
    replicates: int = DEFAULT_REPLICATES,
    *, done: Optional[dict] = None,
) -> NullModelEnsemble:
    """Ensemble of degree-preserving rewires descended toward a ring
    lattice whose positions follow the sorted node-id order; at most
    ``swaps_per_edge * m`` descent steps per replicate."""
    return _build_ensemble(g, "lattice", seed, swaps_per_edge, replicates, done)


def ring_index_cost(g: SpatialGraph, node_order: Sequence[str]) -> int:
    """Total ring-index cost of a graph under the given node ordering."""
    rank = {node_id: i for i, node_id in enumerate(node_order)}
    position = [rank[node_id] for node_id in g.node_ids]
    n = len(node_order)
    total = 0
    for u, v in g.ends:
        gap = abs(position[u] - position[v])
        total += min(gap, n - gap)
    return total
