import math
from itertools import combinations

import pytest

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
    # 10.0 + 1e-300 == 10.0, so x ties v although it lies one edge beyond
    # it; x has a node number below v's, and still gets v as predecessor
    g = build_graph([NodeRecord("s"), NodeRecord("x"), NodeRecord("v")],
                    [EdgeRecord("s", "v", 10.0), EdgeRecord("v", "x", 1e-300)])
    for source in g.node_ids:
        table = shortest_paths(g, source, "km")
        assert all(table.sigma[t] >= 1 for t in g.node_ids)
    assert shortest_paths(g, "s", "km").preds["x"] == ("v",)
    betweenness(g, "km")


def test_km_betweenness_splits_float_ties():
    cb = betweenness(_float_tie_square(), "km")
    assert cb["a"] == pytest.approx(1 / 6, rel=1e-12)
    assert cb["b"] == pytest.approx(1 / 6, rel=1e-12)


# BFS always counts, so only the weighted modes have a distance-only
# kernel; the ids are those the cases had beside the binary ones
@pytest.mark.parametrize("g, mode, epoch", [
    pytest.param(fixtures.synthetic_network(), "km", None, id="g1-km-None"),
    pytest.param(fixtures.synthetic_network(), "time", "1988", id="g2-time-1988"),
    pytest.param(fixtures.synthetic_network(), "time", "2010", id="g3-time-2010"),
    pytest.param(_float_tie_square(), "km", None, id="g5-km-None"),
])
def test_distance_only_kernels_match_counted_kernels(g, mode, epoch):
    arcs = g.costs(mode, epoch)
    assert tuple(tuple(v for v, _ in row) for row in arcs) == g.adj_index
    for source in range(g.n):
        dist, sigma, preds, order = traverse(g, source, arcs)
        counted = traverse(g, source, arcs, True)
        assert (sigma, preds, order) == (None, None, None)
        assert dist == counted[0]


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
