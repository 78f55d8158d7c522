import math
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spatialnet import EdgeRecord, NodeRecord, build_graph, shortest_paths
from spatialnet.measures import betweenness
from spatialnet.graph import (
    DanglingEdgeError,
    DuplicateEdgeError,
    DuplicateNodeError,
    InvalidCoordinateError,
    NegativeWeightError,
    NonFiniteWeightError,
    SelfLoopError,
    UnknownEpochError,
    UnknownNodeError,
    bucket_width,
    drop_dominated_arcs,
    traverse,
)

import fixtures
import oracles


def test_build_synthetic_shape():
    g = fixtures.synthetic_network()
    assert g.n == 39
    assert g.m == 71
    assert g.components == 1


def test_single_node_graph():
    g = build_graph([NodeRecord("solo")], [])
    assert (g.n, g.m, g.components) == (1, 0, 1)


def test_nodes_are_checked_in_the_order_given_then_numbered_by_id():
    with pytest.raises(InvalidCoordinateError, match="'b'"):
        build_graph([NodeRecord("b", lat=91.0), NodeRecord("a", lat=-91.0)], [])
    g = build_graph([NodeRecord("b"), NodeRecord("c"), NodeRecord("a")],
                    [EdgeRecord("c", "a", 1.0), EdgeRecord("b", "c", 2.0)])
    assert g.node_ids == ("a", "b", "c")
    assert g.adj_index == ((2,), (2,), (0, 1))


def test_duplicate_node_rejected():
    with pytest.raises(DuplicateNodeError, match="dup"):
        build_graph([NodeRecord("dup"), NodeRecord("dup")], [])


def test_self_loop_rejected():
    with pytest.raises(SelfLoopError, match=r"\(a, a\)"):
        build_graph([NodeRecord("a")], [EdgeRecord("a", "a", 1.0)])


def test_dangling_edge_rejected():
    with pytest.raises(DanglingEdgeError, match="ghost"):
        build_graph([NodeRecord("a")], [EdgeRecord("a", "ghost", 1.0)])


def test_duplicate_edge_rejected():
    nodes = [NodeRecord("a"), NodeRecord("b")]
    with pytest.raises(DuplicateEdgeError):
        build_graph(nodes, [EdgeRecord("a", "b", 1.0), EdgeRecord("b", "a", 2.0)])


def test_nonpositive_weight_rejected():
    nodes = [NodeRecord("a"), NodeRecord("b")]
    with pytest.raises(NegativeWeightError):
        build_graph(nodes, [EdgeRecord("a", "b", -5.0)])
    with pytest.raises(NegativeWeightError):
        build_graph(nodes, [EdgeRecord("a", "b", 5.0, {"1988": 0.0})])


def test_nonfinite_weight_rejected():
    nodes = [NodeRecord("a"), NodeRecord("b")]
    with pytest.raises(NonFiniteWeightError, match=r"\(a, b\).*distance_km"):
        build_graph(nodes, [EdgeRecord("a", "b", math.inf)])
    with pytest.raises(NonFiniteWeightError, match=r"\(a, b\).*'2010'"):
        build_graph(nodes, [EdgeRecord("a", "b", 5.0, {"2010": math.inf})])
    with pytest.raises(NonFiniteWeightError, match=r"\(a, b\).*distance_km nan"):
        build_graph(nodes, [EdgeRecord("a", "b", math.nan)])


def test_coordinate_range_checked():
    with pytest.raises(InvalidCoordinateError):
        build_graph([NodeRecord("a", lat=91.0, lon=0.0)], [])


def test_binary_path_distances():
    g = fixtures.path_graph("abc")
    table = shortest_paths(g, "a")
    assert table.dist == {"a": 0.0, "b": 1.0, "c": 2.0}
    assert table.sigma["c"] == 1


def test_km_triangle_prefers_direct_edge():
    # 3-4-5 triangle: the direct 5 km edge beats the 7 km two-hop route
    g = fixtures.graph_from_edges(
        [("a", "b"), ("b", "c"), ("a", "c")],
        km={("a", "b"): 3.0, ("b", "c"): 4.0, ("a", "c"): 5.0},
    )
    table = shortest_paths(g, "a", "km")
    assert table.dist["c"] == 5.0
    assert table.dist["b"] == 3.0


def _float_tie_square():
    # s-a-t costs 0.1 + 0.2 = 0.30000000000000004, s-b-t costs 0.15 + 0.15 = 0.3
    return fixtures.graph_from_edges(
        [("a", "s"), ("a", "t"), ("b", "s"), ("b", "t")],
        km={("a", "s"): 0.1, ("a", "t"): 0.2, ("b", "s"): 0.15, ("b", "t"): 0.15},
    )


def test_km_float_ties_count_both_paths():
    table = shortest_paths(_float_tie_square(), "s", "km")
    assert table.sigma["t"] == 2
    assert sorted(table.preds["t"]) == ["a", "b"]
    assert table.dist["t"] == 0.3  # the smaller of the two rounded sums


def test_km_near_ties_do_not_chain():
    # s-v routes of 10.0, 9.999999994 and 9.999999988 km: the middle one is
    # within TIE_RTOL of the shortest, the longest 1.2e-9 relative above it
    g = fixtures.graph_from_edges(
        [("s", "u1"), ("u1", "v"), ("s", "u2"), ("u2", "v"), ("s", "u3"), ("u3", "v")],
        km={("s", "u1"): 5.0, ("u1", "v"): 5.0, ("s", "u2"): 5.0,
            ("u2", "v"): 4.999999994, ("s", "u3"): 5.0, ("u3", "v"): 4.999999988},
    )
    for source, target in (("s", "v"), ("v", "s")):
        table = shortest_paths(g, source, "km")
        assert table.sigma[target] == 2
        assert sorted(table.preds[target]) == ["u2", "u3"]


def test_km_counts_follow_settle_order_when_a_weight_vanishes():
    # 10.0 + 1e-300 == 10.0, so u ties v although it lies one edge beyond
    # it; u has a node number below v's, and still gets v as predecessor
    g = build_graph([NodeRecord("s"), NodeRecord("u"), NodeRecord("v")],
                    [EdgeRecord("s", "v", 10.0), EdgeRecord("v", "u", 1e-300)])
    assert g.index["u"] < g.index["v"]
    for source in g.node_ids:
        table = shortest_paths(g, source, "km")
        assert all(table.sigma[t] >= 1 for t in g.node_ids)
    assert shortest_paths(g, "s", "km").preds["u"] == ("v",)
    betweenness(g, "km")


def test_km_betweenness_splits_float_ties():
    cb = betweenness(_float_tie_square(), "km")
    assert cb["a"] == pytest.approx(1 / 6, rel=1e-12)
    assert cb["b"] == pytest.approx(1 / 6, rel=1e-12)


def _extreme_weights():
    # most arcs cost 1e-300, so the bucket width is 5e-301, and a route
    # over a 1e300 arc has a bucket key past the float range
    return fixtures.graph_from_edges(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("a", "e")],
        km={("a", "b"): 1e-300, ("b", "c"): 1e-300, ("c", "d"): 1e-300,
            ("d", "e"): 1e300, ("a", "e"): 1e300})


def _short_arcs():
    # the long chain makes the median 10 and the width 5, so from s every
    # node up to c lies in bucket 0: a is first scanned at 1.0 (by the s-a
    # arc, listed first) and again at 0.2, after b, and only the second
    # scan gives c and the chain their distances
    chain = [("c", "d"), ("d", "e"), ("e", "f"), ("f", "g"), ("g", "h")]
    short = {("s", "a"): 1.0, ("s", "b"): 0.1, ("a", "b"): 0.1, ("a", "c"): 0.1}
    return fixtures.graph_from_edges(list(short) + chain,
                                     km={**short, **dict.fromkeys(chain, 10.0)})


# BFS always counts, so only the weighted modes have a distance-only
# kernel; the ids are those the cases had beside the binary ones
@pytest.mark.parametrize("g, mode, epoch", [
    pytest.param(fixtures.synthetic_network(), "km", None, id="g1-km-None"),
    pytest.param(fixtures.synthetic_network(), "time", "1988", id="g2-time-1988"),
    pytest.param(fixtures.synthetic_network(), "time", "2010", id="g3-time-2010"),
    pytest.param(_float_tie_square(), "km", None, id="g5-km-None"),
    pytest.param(_extreme_weights(), "km", None, id="extreme-km-None"),
    pytest.param(_short_arcs(), "km", None, id="short-arcs-km-None"),
])
def test_distance_only_kernels_match_counted_kernels(g, mode, epoch):
    arcs = g.costs(mode, epoch)
    assert tuple(tuple(v for v, _ in row) for row in arcs) == g.adj_index
    for source in range(g.n):
        dist, sigma, preds, order = traverse(g, source, arcs)
        counted = traverse(g, source, arcs, True)
        assert (sigma, preds, order) == (None, None, None)
        assert dist == counted[0]


def test_bucket_width_is_half_the_median_arc_cost():
    assert bucket_width(_short_arcs().costs("km")) == 5.0
    assert bucket_width(_extreme_weights().costs("km")) == 5e-301
    assert bucket_width(build_graph([NodeRecord("a"), NodeRecord("b")],
                                    [EdgeRecord("a", "b", 5e-324)]).costs("km")) == 5e-324
    assert bucket_width(((), ())) == 1.0


@st.composite
def _log_uniform_graphs(draw):
    """A random spanning tree plus up to n extra pairs, with km and time
    weights log-uniform in [1e-3, 1e3], and the float near-tie square
    (0.1 + 0.2 against 0.15 + 0.15 and a direct 0.30000000000000004) hung
    off node v00."""
    n = draw(st.integers(2, 30))
    ids = [f"v{i:02d}" for i in range(n)]
    pairs = {(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=n)):
        if i != j and (ids[j], ids[i]) not in pairs:
            pairs.add((ids[i], ids[j]))
    weight = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    edges = [EdgeRecord(u, v, draw(weight), {"2010": draw(weight)}) for u, v in sorted(pairs)]
    square = [("qs", "qa", 0.1), ("qa", "qt", 0.2), ("qs", "qb", 0.15), ("qb", "qt", 0.15),
              ("qs", "qt", 0.1 + 0.2), ("v00", "qs", draw(weight))]
    edges += [EdgeRecord(u, v, w, {"2010": w}) for u, v, w in square]
    return build_graph([NodeRecord(node_id) for node_id in ids + ["qa", "qb", "qs", "qt"]],
                       edges)


@fixtures.SETTINGS
@given(g=_log_uniform_graphs())
def test_bucket_queue_equals_the_heap_on_log_uniform_weights(g):
    for mode, epoch in (("km", None), ("time", "2010")):
        arcs = g.costs(mode, epoch)
        for source in range(g.n):
            assert traverse(g, source, arcs)[0] == traverse(g, source, arcs, True)[0]


class _CountedReads(list):
    """Arc lists that count how often each node's list is read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.reads = [0] * len(rows)

    def __getitem__(self, i):
        self.reads[i] += 1
        return super().__getitem__(i)


def test_bucket_queue_rescans_only_the_nodes_whose_label_fell():
    # from s, a and c are scanned at 1.0 and 1.1 and again at 0.2 and 0.3;
    # d is keyed by its own label, past bucket 0, so it waits there and is
    # scanned once, at its final distance, as is the rest of the chain
    g = _short_arcs()
    arcs = _CountedReads(g.costs("km"))
    traverse(g, g.index["s"], arcs)
    assert dict(zip(g.node_ids, arcs.reads)) == {**dict.fromkeys(g.node_ids, 1), "a": 2, "c": 2}


def test_bucket_queue_scans_each_node_once_when_no_arc_is_below_the_width():
    # with every arc between 1 and 2 km the width is below 1, so a scan
    # keys each node it reaches past the bucket being scanned: buckets
    # then settle nodes in order, as the heap does, and each node's list is
    # read once from every source
    rng = random.Random(1)
    g = fixtures.er_gnm(30, 70, seed=2, connected=True)
    g = fixtures.graph_from_edges([(e.u, e.v) for e in g.edges],
                                  km={(e.u, e.v): rng.uniform(1.0, 2.0) for e in g.edges})
    arcs = g.costs("km")
    assert bucket_width(arcs) < 1.0
    for source in range(g.n):
        counted = _CountedReads(arcs)
        assert traverse(g, source, counted)[0] == traverse(g, source, arcs, True)[0]
        assert counted.reads == [1] * g.n


def test_distance_only_dijkstra_keeps_smaller_float_tie():
    # from s the larger sum reaches t first, from t the smaller one does
    g = _float_tie_square()
    ids = g.node_ids
    dist = traverse(g, ids.index("s"), g.costs("km"))[0]
    assert dist[ids.index("t")] == 0.3
    assert traverse(g, ids.index("t"), g.costs("km"))[0][ids.index("s")] == 0.3


@pytest.mark.parametrize("direct, kept", [(3.0, True), (3.5, False)])
def test_drop_dominated_arcs_on_a_triangle(direct, kept):
    # a-b-c costs 1 + 2 = 3 exactly: a direct a-c arc of equal cost stays,
    # a longer one leaves both ends' lists and the other arcs stay
    g = fixtures.graph_from_edges(
        [("a", "b"), ("b", "c"), ("a", "c")],
        km={("a", "b"): 1.0, ("b", "c"): 2.0, ("a", "c"): direct},
    )
    a, b, c = (g.index[x] for x in "abc")
    arcs = list(map(list, g.costs("km")))
    dist = traverse(g, a, arcs)[0]
    drop_dominated_arcs(arcs, a, dist, max(dist))
    expected = [[(b, 1.0), (c, direct)], [(a, 1.0), (c, 2.0)], [(b, 2.0), (a, direct)]]
    if not kept:
        expected = [[(b, 1.0)], [(a, 1.0), (c, 2.0)], [(b, 2.0)]]
    assert arcs == expected


def test_unreachable_distance_is_inf_sentinel():
    g = build_graph(
        [NodeRecord("a"), NodeRecord("b"), NodeRecord("x"), NodeRecord("y")],
        [EdgeRecord("a", "b", 1.0), EdgeRecord("x", "y", 1.0)],
    )
    assert g.components == 2
    table = shortest_paths(g, "a")
    assert math.isinf(table.dist["x"])
    assert table.sigma["x"] == 0


def test_unknown_epoch_raises():
    g = build_graph(
        [NodeRecord("a"), NodeRecord("b")],
        [EdgeRecord("a", "b", 1.0, {"2010": 9.0})],
    )
    with pytest.raises(UnknownEpochError, match="1988"):
        shortest_paths(g, "a", "time", epoch="1988")


def test_unknown_source_raises():
    g = fixtures.path_graph("ab")
    with pytest.raises(UnknownNodeError):
        shortest_paths(g, "zzz")
    with pytest.raises(UnknownNodeError):
        g.degree("zzz")


def test_time_mode_uses_epoch_weights():
    g = build_graph(
        [NodeRecord(x) for x in "abc"],
        [
            EdgeRecord("a", "b", 10.0, {"1988": 30.0, "2010": 10.0}),
            EdgeRecord("b", "c", 10.0, {"1988": 30.0, "2010": 10.0}),
            EdgeRecord("a", "c", 10.0, {"1988": 50.0, "2010": 25.0}),
        ],
    )
    assert shortest_paths(g, "a", "time", epoch="1988").dist["c"] == 50.0
    assert shortest_paths(g, "a", "time", epoch="2010").dist["c"] == 20.0


def test_node_order_independence():
    nodes = [NodeRecord("a"), NodeRecord("b"), NodeRecord("c")]
    edges = [EdgeRecord("a", "b", 2.0), EdgeRecord("b", "c", 3.0)]
    g1 = build_graph(nodes, edges)
    g2 = build_graph(list(reversed(nodes)), list(reversed(edges)))
    t1 = shortest_paths(g1, "a", "km")
    t2 = shortest_paths(g2, "a", "km")
    assert t1.dist == t2.dist
    assert t1.sigma == t2.sigma


@pytest.mark.parametrize("seed", range(25))
def test_symmetry_and_triangle_inequality(seed):
    g = fixtures.random_connected_graph(seed)
    for mode in ("binary", "km"):
        tables = {v: shortest_paths(g, v, mode) for v in g.node_ids}
        for i in g.node_ids:
            for j in g.node_ids:
                assert tables[i].dist[j] == tables[j].dist[i]
        for i, j, k in combinations(g.node_ids, 3):
            assert tables[i].dist[k] <= tables[i].dist[j] + tables[j].dist[k] + 1e-9


@pytest.mark.parametrize("seed", range(40, 60))
def test_binary_distances_and_sigma_match_enumeration(seed):
    g = fixtures.random_connected_graph(seed)
    ids, a = oracles.adjacency_matrix(g)
    dist = oracles.distance_matrix_by_powers(a)
    index = {node_id: i for i, node_id in enumerate(ids)}
    for source in ids:
        table = shortest_paths(g, source)
        for target in ids:
            assert table.dist[target] == dist[index[source], index[target]]
            if source != target:
                assert table.sigma[target] == oracles.oracle_sigma(g, source, target)


def test_km_paths_never_worse_than_single_edge():
    g = fixtures.random_connected_graph(99)
    for edge in g.edges:
        table = shortest_paths(g, edge.u, "km")
        assert table.dist[edge.v] <= edge.distance_km
