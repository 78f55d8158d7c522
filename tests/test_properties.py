"""Property tests over random connected graphs.

The graph core's node numbers must agree with its records: ``nodes``
come in sorted id order, ``index`` maps each id to its position in
``nodes``, ``adj_index`` and ``costs`` list a node's far endpoints in
edge order, and ``degree`` reads them, for any node order, edge order
and edge orientation.

The null-model properties (n <= 60) pin down what a swap may never do:
change a node's degree, disconnect the graph, create a repeated pair, or
(for latticeization) raise the ring-index cost. The flip-once swap must
accept exactly the swaps that a union–find over the swapped edge set
finds connected, and leave the edge list and adjacency as the accepted
swaps made them; three swaps on an 8-cycle pin each outcome of that
check (kept by the four-endpoint test, kept only by the search, rejected
across a two-edge cut). The random chain, with its edge draws inlined from
``getrandbits``, must make the swaps, attempts and RNG draws of a plain
loop over ``randrange``, on edge counts at and next to powers of two,
where the rejection draw changes width. The lattice's incremental
swap-cost table must equal a full recomputation after every descent
step, and a lattice replicate that reports convergence must admit no
improving swap under a brute-force scan. Modularity is checked against
the raw ordered-pair double sum for arbitrary assignments.

The path measures are checked against the independent oracles at
n <= 60: binary measures against matrix powers and path enumeration, km
measures against Floyd–Warshall. The bitset hop kernel must equal a
per-source BFS sweep exactly, and refuse disconnected graphs. Weighted
path counts are checked at n <= 60 against enumeration in exact
arithmetic on km weights drawn from a set whose sums tie often
(0.1 + 0.2 vs 0.15 + 0.15), so float ties must be counted as ties.

Graphs are a random spanning tree plus up to 2n extra node pairs, the
number of pairs drawn uniformly, so dense graphs come up as often as
sparse ones.
"""

import math
import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spatialnet import null_models, shortest_paths
from spatialnet.communities import modularity
from spatialnet.exceptions import DisconnectedError
from spatialnet.graph import EdgeRecord, NodeRecord, build_graph, hop_distances, sweep
from spatialnet.measures import (
    PathStats, betweenness, closeness, path_length_and_diameter, straightness)
from spatialnet.null_models import _RingDeltas, _Rewirer, latticeize, randomize, ring_index_cost

import fixtures
import oracles
from fixtures import SETTINGS

# Tie-prone km weights; times 20 they are the exact integers 2, 3, 4, 6.
TIE_PRONE_KM = (0.1, 0.15, 0.2, 0.3)


def _scaled_km(edge):
    return round(edge.distance_km * 20)


@st.composite
def connected_edge_lists(draw, n_max=20):
    """A random spanning tree plus up to 2n extra edges.

    The number of extra node pairs is drawn first, uniformly, so dense
    graphs come up as often as sparse ones (a free-size list stays short).
    """
    n = draw(st.integers(min_value=3, max_value=n_max))
    ids = [f"v{i:02d}" for i in range(n)]
    pairs = {(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)}
    size = draw(st.integers(0, 2 * n))
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=size, max_size=size))
    for i, j in extra:
        if i != j:
            pairs.add((ids[min(i, j)], ids[max(i, j)]))
    return sorted(pairs)


def connected_graphs(n_max=20):
    return connected_edge_lists(n_max).map(fixtures.graph_from_edges)


@st.composite
def spatial_graphs(draw, km_values, n_max=40):
    """A connected graph with drawn km weights and node coordinates."""
    pairs = draw(connected_edge_lists(n_max))
    ids = sorted({node_id for pair in pairs for node_id in pair})
    coords = {node_id: (draw(st.floats(35.0, 41.5)), draw(st.floats(20.0, 26.5)))
              for node_id in ids}
    km = {pair: draw(km_values) for pair in pairs}
    return fixtures.graph_from_edges(pairs, km=km, coords=coords)


@st.composite
def shuffled_graphs(draw, n_max=60):
    """A connected graph whose nodes, edges and edge orientations come in
    drawn orders, with a distinct km and time weight on every edge."""
    pairs = draw(st.permutations(draw(connected_edge_lists(n_max))))
    ids = draw(st.permutations(sorted({node_id for pair in pairs for node_id in pair})))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [EdgeRecord(*(pair[::-1] if flip else pair), 1.0 + k, {"2010": 0.5 + k})
             for k, (pair, flip) in enumerate(zip(pairs, flips))]
    return build_graph([NodeRecord(node_id) for node_id in ids], edges)


@SETTINGS
@given(g=shuffled_graphs())
def test_integer_core_follows_node_and_edge_order(g):
    assert list(g.node_ids) == sorted(g.node_ids)
    assert len(g.index) == g.n
    for i, node in enumerate(g.nodes):
        assert g.index[node.id] == i
    km = [[] for _ in g.nodes]
    minutes = [[] for _ in g.nodes]
    for edge in g.edges:
        u, v = g.index[edge.u], g.index[edge.v]
        km[u].append((v, edge.distance_km))
        km[v].append((u, edge.distance_km))
        minutes[u].append((v, edge.time_min["2010"]))
        minutes[v].append((u, edge.time_min["2010"]))
    assert g.adj_index == tuple(tuple(j for j, _ in arcs) for arcs in km)
    assert [g.degree(node.id) for node in g.nodes] == [len(arcs) for arcs in km]
    assert g.costs("km") == tuple(map(tuple, km))
    assert g.costs("time", "2010") == tuple(map(tuple, minutes))
    assert g.costs("binary") is None


@SETTINGS
@given(
    g=connected_graphs(n_max=60),
    seed=st.integers(0, 2**16),
    swaps_per_edge=st.integers(0, 3),
    builder=st.sampled_from([randomize, latticeize]),
)
def test_null_model_replicates_keep_degrees_and_connectivity(g, seed, swaps_per_edge, builder):
    ensemble = builder(g, seed, swaps_per_edge, replicates=2)
    degrees = {node_id: g.degree(node_id) for node_id in g.node_ids}
    for replicate in ensemble.replicates:
        assert {node_id: replicate.degree(node_id) for node_id in replicate.node_ids} == degrees
        assert replicate.is_connected
        pairs = [frozenset((e.u, e.v)) for e in replicate.edges]
        assert len(set(pairs)) == len(pairs)


@SETTINGS
@given(g=connected_graphs(n_max=60), seed=st.integers(0, 2**16), swaps_per_edge=st.integers(1, 3))
def test_lattice_replicates_never_raise_ring_cost(g, seed, swaps_per_edge):
    ensemble = latticeize(g, seed, swaps_per_edge, replicates=2)
    assert ensemble.node_order == g.node_ids
    before = ring_index_cost(g, ensemble.node_order)
    for replicate in ensemble.replicates:
        assert ring_index_cost(replicate, ensemble.node_order) <= before


@SETTINGS
@given(g=connected_graphs(n_max=60), seed=st.integers(0, 2**16), swaps_per_edge=st.integers(1, 3))
def test_lattice_convergence_is_certified(g, seed, swaps_per_edge):
    ensemble = latticeize(g, seed, swaps_per_edge, replicates=2)
    for replicate, stats in zip(ensemble.replicates, ensemble.stats.per_replicate):
        if stats.converged:
            assert oracles.improving_ring_swaps(replicate) == []
        else:
            assert stats.accepted_swaps == swaps_per_edge * g.m


def _acceptable_by_oracle(ids, ends, a, b, c, d):
    """Whether rewiring (a, b), (c, d) of the edge list ``ends`` to
    (a, d), (c, b) leaves a simple connected graph, by set arithmetic and
    union-find."""
    present = {frozenset(pair) for pair in ends}
    new = {frozenset((a, d)), frozenset((c, b))}
    if len({a, b, c, d}) < 4 or new & present:
        return False
    after = present - {frozenset((a, b)), frozenset((c, d))} | new
    return oracles.is_connected(ids, [(ids[u], ids[v]) for u, v in map(tuple, after)])


@SETTINGS
@given(
    g=connected_graphs(n_max=60),
    picks=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.booleans()),
                   min_size=1, max_size=20),
)
def test_early_exit_swap_check_matches_full_connectivity(g, picks):
    # accepted swaps stay, so later picks run on the rewired graph
    rewirer = _Rewirer(g)
    ids = g.node_ids
    for i, j, flip in picks:
        e1, e2 = i % g.m, j % g.m
        (a, b), (c, d) = rewirer.ends[e1], rewirer.ends[e2]
        if flip:
            c, d = d, c
        before = list(rewirer.ends)
        expected = _acceptable_by_oracle(ids, before, a, b, c, d)
        accepted = rewirer.simple_after(a, b, c, d) and rewirer.swap(e1, e2, a, b, c, d)
        assert accepted == expected
        if accepted:
            before[e1], before[e2] = (a, d), (c, b)
        assert rewirer.ends == before
        nbrs = [set() for _ in ids]
        for u, v in before:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert rewirer.bits == [sum(1 << v for v in vs) for vs in nbrs]


# On the 8-cycle 0-1-...-7-0 (edge k is k-(k+1)), each outcome of the swap
# check, with the second edge read as (c, d):
SWAP_CHECK_OUTCOMES = [
    # (0, 1), (4, 3) -> (0, 3), (4, 1): a and b share no neighbour, but d
    # and b share 2, so the four-endpoint test keeps it
    pytest.param(3, (4, 3), True, False, id="four endpoints"),
    # (0, 1), (5, 4) -> (0, 4), (5, 1): no common bit, but the cycle
    # 0-4-3-2-1-5-6-7-0 joins a and b, which only the search finds
    pytest.param(4, (5, 4), True, True, id="search keeps it"),
    # (0, 1), (4, 5) -> (0, 5), (4, 1): the two removed edges cut 1-2-3-4
    # off 5-6-7-0, and the new edges close each side on itself
    pytest.param(4, (4, 5), False, True, id="two-edge cut"),
]


@pytest.mark.parametrize("e2, cd, kept, searched", SWAP_CHECK_OUTCOMES)
def test_swap_check_outcomes_on_a_cycle(e2, cd, kept, searched):
    g = fixtures.cycle_graph(8)
    rewirer = _Rewirer(g)
    assert rewirer.ends == [(k, (k + 1) % 8) for k in range(8)]
    (a, b), (c, d) = rewirer.ends[0], cd
    ends = list(rewirer.ends)
    assert {c, d} == set(ends[e2]) and rewirer.simple_after(a, b, c, d)
    assert kept == _acceptable_by_oracle(g.node_ids, ends, a, b, c, d)
    swapped = list(ends)
    swapped[0], swapped[e2] = (a, d), (c, b)
    nbrs = [{v for pair in swapped if u in pair for v in pair if v != u} for u in range(8)]
    assert not nbrs[a] & nbrs[b]  # a shared-neighbour test alone settles none
    joined = _Rewirer._joined
    with mock.patch.object(_Rewirer, "_joined", autospec=True, side_effect=joined) as search:
        assert rewirer.swap(0, e2, a, b, c, d) == kept
    assert search.called == searched
    if kept:
        ends = swapped
    else:
        nbrs = [{v for pair in ends if u in pair for v in pair if v != u} for u in range(8)]
    assert rewirer.ends == ends
    assert rewirer.bits == [sum(1 << v for v in vs) for vs in nbrs]


@SETTINGS
@given(g=connected_graphs(n_max=9))
@example(g=fixtures.path_graph("abcd"))  # only a-c, b-d: the second edge read backwards
def test_exhaustive_scan_matches_every_ordered_swap(g):
    # rigid exactly when no ordered edge pair, in either orientation of
    # the second edge, rewires to a simple connected graph
    rewirer = _Rewirer(g)
    ends, bits = list(rewirer.ends), list(rewirer.bits)
    expected = any(
        _acceptable_by_oracle(g.node_ids, ends, a, b, *cd)
        for e1, (a, b) in enumerate(ends)
        for e2, (c, d) in enumerate(ends) if e1 != e2
        for cd in ((c, d), (d, c))
    )
    assert rewirer.any_acceptable() == expected
    assert (rewirer.ends, rewirer.bits) == (ends, bits)


@st.composite
def graphs_near_powers_of_two(draw):
    """A connected graph on at most 60 nodes with 2**k - 1, 2**k or
    2**k + 1 edges (k from 2 to 7): a spanning tree plus drawn pairs."""
    m = 2 ** draw(st.integers(2, 7)) + draw(st.sampled_from((-1, 0, 1)))
    n_min = next(n for n in range(3, 61) if n * (n - 1) // 2 >= m)
    n = draw(st.integers(n_min, min(60, m + 1)))
    ids = [f"v{i:02d}" for i in range(n)]
    tree = {(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)}
    rest = [pair for pair in combinations(ids, 2) if pair not in tree]
    extra = draw(st.randoms(use_true_random=False)).sample(rest, m - len(tree))
    return fixtures.graph_from_edges(sorted(tree) + extra)


@SETTINGS
@given(g=graphs_near_powers_of_two(), seed=st.integers(0, 2**16),
       swaps_per_edge=st.integers(1, 3))
@example(g=fixtures.er_gnm(60, 128, seed=1, connected=True), seed=1, swaps_per_edge=3)
@example(g=fixtures.er_gnm(60, 129, seed=1, connected=True), seed=1, swaps_per_edge=3)
@example(g=fixtures.star_graph(4), seed=1, swaps_per_edge=1)  # rigid: no draw at all
@example(g=fixtures.er_gnm(9, 31, seed=1, connected=True), seed=1, swaps_per_edge=1)  # rare swaps
def test_random_chain_matches_the_plain_randrange_loop(g, seed, swaps_per_edge):
    rng, plain = random.Random(seed), random.Random(seed)
    rewirer, accepted, attempts, _ = null_models._randomize_replicate(g, rng, swaps_per_edge)
    chain = (rewirer.ends, accepted, attempts)
    assert chain == oracles.random_chain(g, plain, swaps_per_edge)
    assert rng.getstate() == plain.getstate()  # no draw more or fewer


class _RecordedBits(random.Random):
    """A Random that records every ``getrandbits`` result."""

    def __init__(self, seed):
        self.bits = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.bits.append(super().getrandbits(k))
        return self.bits[-1]


@pytest.mark.parametrize("m", [3, 64, 65, 71, 127, 128, 129])
def test_inlined_edge_draws_are_randrange_draws(m):
    # a draw is the first getrandbits result below m; replay the chain's
    # call pattern (two edge draws, then one random() for distinct edges)
    # with randrange on a fresh stream. Each graph has a swap, since a
    # rigid one draws nothing; so m = 2, where every connected graph is
    # P3, is not a case
    g = fixtures.path_graph("abcd") if m == 3 else fixtures.cycle_graph(m)
    rng = _RecordedBits(m)
    null_models._randomize_replicate(g, rng, 1)
    draws = [r for r in rng.bits if r < m]
    assert draws
    plain = random.Random(m)
    expected = []
    while len(expected) < len(draws):
        e1, e2 = plain.randrange(m), plain.randrange(m)
        expected += [e1, e2]
        if e1 != e2:
            plain.random()
    assert draws == expected
    assert rng.getstate() == plain.getstate()


def _assert_matches_ring_swap_changes(deltas, ends, n):
    change, simple = oracles.ring_swap_changes(ends, n)
    assert np.array_equal(deltas.table[simple], change[simple])
    assert (deltas.table[~simple] > 0).all()  # never a candidate


@SETTINGS
@given(g=connected_graphs(n_max=60), seed=st.integers(0, 2**16), swaps_per_edge=st.integers(1, 3))
def test_incremental_ring_deltas_equal_full_recomputation(g, seed, swaps_per_edge):
    ends = _Rewirer(g).ends
    _assert_matches_ring_swap_changes(_RingDeltas(ends, g.n), ends, g.n)
    rewired = _RingDeltas.rewired
    steps = []

    def checked(deltas, ends, e1, e2):
        rewired(deltas, ends, e1, e2)
        _assert_matches_ring_swap_changes(deltas, ends, g.n)
        steps.append((e1, e2))

    with mock.patch.object(_RingDeltas, "rewired", checked):
        ensemble = latticeize(g, seed, swaps_per_edge, replicates=1)
    assert len(steps) == ensemble.stats.per_replicate[0].accepted_swaps


def _bfs_sweep(g):
    """Closeness, path length and diameter from one BFS per source,
    summed as a per-source sweep sums them."""
    n = g.n
    close = {}
    total = 0.0
    diameter = 0.0
    for s, node_id in enumerate(g.node_ids):
        dist = next(sweep(g, None, [s]))[1]
        others = dist[:s] + dist[s + 1:]
        dist_sum = math.fsum(others)
        close[node_id] = dist_sum / (n - 1)
        total += dist_sum
        diameter = max(diameter, max(others))
    return close, PathStats(total / (n * (n - 1)), diameter)


@SETTINGS
@given(g=connected_graphs(n_max=60))
def test_hop_kernel_equals_bfs_sweep_exactly(g):
    close, stats = _bfs_sweep(g)
    assert closeness(g) == close
    assert path_length_and_diameter(g) == stats
    sums, hops = hop_distances(g.adj_index)
    assert [total / (g.n - 1) for total in sums] == list(close.values())
    assert float(hops) == stats.diameter


@SETTINGS
@given(pairs=connected_edge_lists(n_max=60), other=connected_edge_lists(n_max=10))
def test_hop_kernel_rejects_disconnected_graphs(pairs, other):
    g = fixtures.graph_from_edges(pairs + [("w" + u, "w" + v) for u, v in other])
    assert not g.is_connected
    with pytest.raises(DisconnectedError):
        hop_distances(g.adj_index)


@SETTINGS
@given(g=connected_graphs(), labels=st.lists(st.integers(0, 3), min_size=20, max_size=20))
def test_modularity_equals_raw_double_sum(g, labels):
    assignment = dict(zip(g.node_ids, labels))
    assert modularity(g, assignment) == pytest.approx(
        oracles.oracle_modularity(g, assignment), abs=1e-12)


@SETTINGS
@given(g=connected_graphs(n_max=60))
def test_binary_path_measures_match_oracles(g):
    assert closeness(g) == pytest.approx(oracles.oracle_closeness(g), rel=1e-12)
    assert betweenness(g) == pytest.approx(oracles.oracle_betweenness(g), abs=1e-12)
    stats = path_length_and_diameter(g)
    assert (stats.average, stats.diameter) == pytest.approx(oracles.oracle_path_stats(g), rel=1e-12)


@SETTINGS
@given(g=spatial_graphs(st.floats(0.5, 500.0), n_max=60))
def test_km_path_measures_match_floyd_warshall(g):
    def km(edge):
        return edge.distance_km

    assert closeness(g, "km") == pytest.approx(oracles.oracle_closeness(g, km), rel=1e-9)
    stats = path_length_and_diameter(g, "km")
    assert (stats.average, stats.diameter) == pytest.approx(
        oracles.oracle_path_stats(g, km), rel=1e-9)
    assert straightness(g) == pytest.approx(oracles.oracle_straightness(g), rel=1e-9)


@SETTINGS
@given(g=spatial_graphs(st.sampled_from(TIE_PRONE_KM), n_max=60))
def test_km_path_counts_match_enumeration_with_float_ties(g):
    tables = {node_id: shortest_paths(g, node_id, "km") for node_id in g.node_ids}
    for (s, t), paths in oracles.shortest_path_lists(g, _scaled_km).items():
        assert tables[s].sigma[t] == tables[t].sigma[s] == len(paths)
    assert betweenness(g, "km") == pytest.approx(
        oracles.oracle_betweenness(g, _scaled_km), abs=1e-12)
