"""Modularity and multi-level greedy community detection.

Modularity of an assignment is

    Q = (1 / 2m) * sum_ij [A_ij - k_i * k_j / 2m] * delta(g_i, g_j)

summed over ordered node pairs (diagonal included). Detection follows
the classic two-phase scheme: repeatedly move single nodes to the
neighboring community with the largest positive modularity gain, then
aggregate communities into super-nodes and repeat until no pass
improves. Node visit order is shuffled by the seed; equal gains break
toward the lowest community label, so results are reproducible. Each
level numbers its nodes 0..N-1 and keeps every per-node quantity
(adjacency, loops, degree, community) in a list indexed by that number.

Both modularity and detection use the binary adjacency (A_ij is 1 for
an edge, 0 otherwise, and k_i is the degree), the convention under which
the topology results are reported; edge lengths play no part.
"""

from __future__ import annotations

import math
import random
from typing import Mapping, NamedTuple

from .exceptions import ComputeError, DisconnectedError
from .graph import SpatialGraph


class IncompleteAssignmentError(ComputeError):
    pass


class CommunityPartition(NamedTuple):
    assignment: Mapping[str, int]
    q: float
    levels: tuple[Mapping[str, int], ...]
    community_count: int


def modularity(g: SpatialGraph, assignment: Mapping[str, int]) -> float:
    """Modularity Q of a complete node -> community assignment."""
    node_ids = set(g.node_ids)
    missing = node_ids - set(assignment)
    if missing:
        raise IncompleteAssignmentError(f"nodes without a community: {sorted(missing)}")
    unknown = set(assignment) - node_ids
    if unknown:
        raise IncompleteAssignmentError(f"assignment names unknown nodes: {sorted(unknown)}")

    two_m = 2 * g.m
    if two_m == 0:
        return 0.0

    labels = [assignment[node.id] for node in g.nodes]
    # sum of A_ij over ordered same-community pairs
    internal = sum(1 for i, nbrs in enumerate(g.adj_index) for j in nbrs if labels[i] == labels[j])

    community_degree: dict[int, int] = {}
    for label, nbrs in zip(labels, g.adj_index):
        community_degree[label] = community_degree.get(label, 0) + len(nbrs)
    expected = math.fsum(k * k for k in community_degree.values()) / two_m

    return (internal - expected) / two_m


class _Level:
    """One aggregation level: weighted adjacency with explicit loops, as
    lists indexed by node number."""

    def __init__(self, adj: list[dict[int, float]], loops: list[float]):
        self.adj = adj
        self.loops = loops
        self.k = [math.fsum(nbrs.values()) + loop for nbrs, loop in zip(adj, loops)]
        self.two_m = math.fsum(self.k)


def _local_moves(level: _Level, rng: random.Random) -> tuple[list[int], bool]:
    """Phase one: greedy single-node moves until no positive gain remains.

    Candidate communities are visited in ascending label order and a
    strictly larger gain is required to displace the current best, so on
    equal gains the lowest label wins and ties with staying keep the
    node where it is.
    """
    order = list(range(len(level.adj)))
    comm = list(order)
    sigma_tot = list(level.k)
    m = level.two_m / 2.0
    improved = False
    if m == 0:  # no edges: no move can gain anything
        return comm, improved

    changed = True
    while changed:
        changed = False
        rng.shuffle(order)
        for u in order:
            current = comm[u]
            k_u = level.k[u]
            sigma_tot[current] -= k_u
            # edge weight from u into each community it touches
            links: dict[int, float] = {current: 0.0}
            for v, w in level.adj[u].items():
                c = comm[v]
                links[c] = links.get(c, 0.0) + w
            best_comm = current
            best_gain = links[current] / m - sigma_tot[current] * k_u / (2.0 * m * m)
            for c in sorted(links):
                if c == current:
                    continue
                gain = links[c] / m - sigma_tot[c] * k_u / (2.0 * m * m)
                if gain > best_gain + 1e-12:
                    best_comm, best_gain = c, gain
            sigma_tot[best_comm] += k_u
            if best_comm != current:
                comm[u] = best_comm
                changed = True
                improved = True
    return comm, improved


def _aggregate(level: _Level, comm: list[int]) -> tuple[_Level, dict[int, int]]:
    """Phase two: one super-node per community, labels renumbered densely."""
    renumber = {label: i for i, label in enumerate(sorted(set(comm)))}
    adj: list[dict[int, float]] = [{} for _ in renumber]
    loops = [0.0] * len(renumber)
    for u, nbrs in enumerate(level.adj):
        cu = renumber[comm[u]]
        loops[cu] += level.loops[u]
        for v, w in nbrs.items():
            cv = renumber[comm[v]]
            if cu == cv:
                loops[cu] += w  # each ordered (u, v) counted once here
            else:
                adj[cu][cv] = adj[cu].get(cv, 0.0) + w
    return _Level(adj, loops), renumber


def find_communities(g: SpatialGraph, seed: int) -> CommunityPartition:
    """Multi-level greedy modularity optimization.

    Returns the partition of the original nodes, its Q recomputed on the
    original graph, the flattened partition recorded after each pass
    that improved it (the singleton partition when none did), and the
    number of communities.
    """
    if not g.is_connected:
        raise DisconnectedError("community detection requires a connected graph")

    ids = g.node_ids
    level = _Level([dict.fromkeys(nbrs, 1.0) for nbrs in g.adj_index], [0.0] * len(ids))

    rng = random.Random(seed)
    # membership[i] = current super-node of original node i
    membership = list(range(len(ids)))
    levels: list[dict[str, int]] = []

    while True:
        comm, improved = _local_moves(level, rng)
        if not improved:
            break
        level, renumber = _aggregate(level, comm)
        membership = [renumber[comm[c]] for c in membership]
        levels.append(dict(zip(ids, membership)))
    if not levels:  # no move helped: the singletons are the one level
        levels.append(dict(zip(ids, membership)))

    assignment = levels[-1]
    return CommunityPartition(
        assignment=assignment,
        q=modularity(g, assignment),
        levels=tuple(levels),
        community_count=len(set(assignment.values())),
    )
