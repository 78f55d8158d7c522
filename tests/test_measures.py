import math
import random

import pytest

from spatialnet import EdgeRecord, NodeRecord, build_graph, graph, shortest_paths
from spatialnet.exceptions import DisconnectedError
from spatialnet.graph import TIE_RTOL, drop_dominated_arcs, traverse
from spatialnet.measures import (
    IsolatedNodeError,
    MissingCoordinatesError,
    PathStats,
    TooFewNodesError,
    avg_nearest_neighbor,
    betweenness,
    closeness,
    clustering,
    degree_and_strength,
    density,
    haversine_km,
    measure_report,
    path_length_and_diameter,
    straightness,
)

import fixtures
import oracles


def _disconnected_pair():
    return build_graph(
        [NodeRecord(x) for x in "abxy"],
        [EdgeRecord("a", "b", 1.0), EdgeRecord("x", "y", 1.0)],
    )


# --- degree / strength ------------------------------------------------------

def test_average_degree_on_synthetic_network():
    g = fixtures.synthetic_network()
    ds = degree_and_strength(g)
    assert ds.average_degree == pytest.approx(3.641, abs=1e-3)
    assert sum(ds.degree.values()) == 2 * g.m


def test_star_degrees():
    g = fixtures.star_graph(4)
    ds = degree_and_strength(g)
    assert ds.degree["hub"] == 4
    assert all(ds.degree[f"leaf{i}"] == 1 for i in range(4))


def test_triangle_strengths_by_hand():
    g = fixtures.graph_from_edges(
        [("a", "b"), ("b", "c"), ("a", "c")],
        km={("a", "b"): 3.0, ("b", "c"): 4.0, ("a", "c"): 5.0},
    )
    strengths = degree_and_strength(g).strength_km
    assert strengths == {"a": 8.0, "b": 7.0, "c": 9.0}


# --- density ----------------------------------------------------------------

def test_density_formulas():
    g = fixtures.synthetic_network()
    assert density(g, "nonplanar") == pytest.approx(2 * 71 / (39 * 38), abs=1e-12)
    assert density(g, "planar") == pytest.approx(71 / 111, abs=1e-12)
    assert density(g, "planar") == pytest.approx(0.640, abs=1e-3)


def test_density_complete_graph():
    assert density(fixtures.complete_graph(5), "nonplanar") == 1.0


def test_density_planar_needs_three_nodes():
    g = build_graph([NodeRecord("a"), NodeRecord("b")], [EdgeRecord("a", "b", 1.0)])
    with pytest.raises(TooFewNodesError):
        density(g, "planar")


# --- closeness --------------------------------------------------------------

def test_closeness_path():
    cc = closeness(fixtures.path_graph("abc"))
    assert cc["b"] == 1.0
    assert cc["a"] == 1.5


def test_closeness_star_center():
    assert closeness(fixtures.star_graph(4))["hub"] == 1.0


def test_closeness_five_cycle():
    cc = closeness(fixtures.cycle_graph(5))
    assert all(v == pytest.approx(1.5) for v in cc.values())


def test_closeness_refuses_disconnected():
    with pytest.raises(DisconnectedError):
        closeness(_disconnected_pair())


# --- betweenness ------------------------------------------------------------

def test_betweenness_path_midpoint():
    cb = betweenness(fixtures.path_graph("abc"))
    assert cb["b"] == 1.0
    assert cb["a"] == 0.0


def test_betweenness_four_cycle():
    cb = betweenness(fixtures.cycle_graph(4))
    assert all(v == pytest.approx(1 / 6, abs=1e-12) for v in cb.values())


def test_betweenness_complete_graph_zero():
    cb = betweenness(fixtures.complete_graph(5))
    assert all(v == 0.0 for v in cb.values())


def test_betweenness_refuses_disconnected():
    with pytest.raises(DisconnectedError):
        betweenness(_disconnected_pair())


# --- clustering -------------------------------------------------------------

def test_clustering_triangle_and_star():
    tri = fixtures.complete_graph(3)
    assert all(v == 1.0 for v in clustering(tri).per_node.values())
    star = fixtures.star_graph(4)
    result = clustering(star)
    assert result.per_node["hub"] == 0.0
    assert result.global_coefficient == 0.0


def test_clustering_average_low_degree_flag():
    # path: endpoints have k=1 -> 0, midpoint has open neighborhood -> 0
    g = fixtures.graph_from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    default = clustering(g)
    assert default.average == pytest.approx((1 + 1 + 1 / 3 + 0) / 4)


def test_er_baseline_mean_clustering():
    """The ER clustering baseline is the edge probability p = m / C(n, 2)
    (up to finite-size effects), far below a spatially clustered graph.

    Averaging over nodes with k >= 2 (degree-0/1 nodes have no defined
    neighborhood) keeps the comparison against p clean.
    """
    n, m = 39, 71
    p = m / (n * (n - 1) / 2)
    means = []
    for seed in range(30):
        g = fixtures.er_gnm(n, m, seed)
        per_node = clustering(g).per_node
        values = [per_node[v] for v in g.node_ids if g.degree(v) >= 2]
        means.append(sum(values) / len(values))
    ensemble_mean = sum(means) / len(means)
    assert ensemble_mean == pytest.approx(p, abs=0.01)
    clustered = clustering(fixtures.synthetic_network()).average
    assert clustered > 3 * ensemble_mean


# --- path length / diameter -------------------------------------------------

def test_path_length_small_cases():
    stats = path_length_and_diameter(fixtures.path_graph("abc"))
    assert stats.average == pytest.approx(4 / 3)
    assert stats.diameter == 2.0
    k4 = path_length_and_diameter(fixtures.complete_graph(4))
    assert (k4.average, k4.diameter) == (1.0, 1.0)


def test_diameter_at_least_average():
    g = fixtures.synthetic_network()
    stats = path_length_and_diameter(g)
    assert stats.diameter >= stats.average


# --- straightness -----------------------------------------------------------

def _collinear_graph():
    coords = {"a": (0.0, 0.0), "b": (0.0, 0.01), "c": (0.0, 0.02)}
    km = {
        ("a", "b"): haversine_km(0.0, 0.0, 0.0, 0.01),
        ("b", "c"): haversine_km(0.0, 0.01, 0.0, 0.02),
    }
    return fixtures.graph_from_edges([("a", "b"), ("b", "c")], km=km, coords=coords)


def test_straightness_collinear_is_one():
    cs = straightness(_collinear_graph())
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in cs.values())


def test_straightness_right_angle():
    # unit-ish L: corner at origin; the far pair routes 2 legs for a
    # sqrt(2) straight line, contributing sqrt(2)/2 to each endpoint
    coords = {"corner": (0.0, 0.0), "east": (0.0, 0.01), "north": (0.01, 0.0)}
    leg_e = haversine_km(0.0, 0.0, 0.0, 0.01)
    leg_n = haversine_km(0.0, 0.0, 0.01, 0.0)
    km = {("corner", "east"): leg_e, ("corner", "north"): leg_n}
    g = fixtures.graph_from_edges([("corner", "east"), ("corner", "north")], km=km, coords=coords)
    cs = straightness(g)
    diag = haversine_km(0.0, 0.01, 0.01, 0.0)
    expected_east = (1.0 + diag / (leg_e + leg_n)) / 2.0
    assert cs["east"] == pytest.approx(expected_east, rel=1e-9)
    assert cs["east"] == pytest.approx((1.0 + math.sqrt(2) / 2) / 2, rel=1e-4)
    assert cs["corner"] == pytest.approx(1.0, abs=1e-9)


def test_straightness_detour_below_one():
    coords = {"a": (0.0, 0.0), "b": (0.0, 0.01), "c": (0.0, 0.02)}
    km = {("a", "b"): 5.0, ("b", "c"): 5.0}  # far longer than the straight lines
    g = fixtures.graph_from_edges([("a", "b"), ("b", "c")], km=km, coords=coords)
    assert all(v < 1.0 for v in straightness(g).values())


def test_straightness_equals_per_pair_haversine_exactly():
    # the sweep inlines haversine_km with hoisted cosines; the arithmetic
    # is the same, so the values must be equal, not merely close
    g = fixtures.synthetic_network()
    coords = {node.id: (node.lat, node.lon) for node in g.nodes}
    expected = {}
    for s in g.node_ids:
        dist = shortest_paths(g, s, "km").dist
        expected[s] = math.fsum(
            haversine_km(*coords[s], *coords[t]) / dist[t] for t in g.node_ids if t != s
        ) / (g.n - 1)
    assert straightness(g) == expected


def test_straightness_needs_coordinates():
    with pytest.raises(MissingCoordinatesError):
        straightness(fixtures.path_graph("abc"))


# --- nearest neighbors ------------------------------------------------------

def test_avg_nearest_neighbor_regular_ring():
    stats = avg_nearest_neighbor(fixtures.cycle_graph(6))
    assert stats.average_degree == 2.0
    assert all(v == 2.0 for v in stats.degree.values())


def test_avg_nearest_neighbor_star():
    stats = avg_nearest_neighbor(fixtures.star_graph(4))
    assert stats.degree["hub"] == 1.0
    assert stats.degree["leaf0"] == 4.0


def test_avg_nearest_neighbor_rejects_isolated():
    g = build_graph([NodeRecord("a"), NodeRecord("b"), NodeRecord("c")],
                    [EdgeRecord("a", "b", 1.0)])
    with pytest.raises(IsolatedNodeError):
        avg_nearest_neighbor(g)


# --- oracle sweeps and properties -------------------------------------------

@pytest.mark.parametrize("seed", range(100, 120))
def test_measures_match_oracles_on_small_graphs(seed):
    g = fixtures.random_connected_graph(seed)
    cb = betweenness(g)
    cb_oracle = oracles.oracle_betweenness(g)
    for node_id in g.node_ids:
        assert cb[node_id] == pytest.approx(cb_oracle[node_id], abs=1e-9)
    cc = closeness(g)
    cc_oracle = oracles.oracle_closeness(g)
    for node_id in g.node_ids:
        assert cc[node_id] == pytest.approx(cc_oracle[node_id], abs=1e-9)
    cl = clustering(g).per_node
    cl_oracle = oracles.oracle_clustering(g)
    for node_id in g.node_ids:
        assert cl[node_id] == pytest.approx(cl_oracle[node_id], abs=1e-9)


def test_measure_report_sweeps_each_mode_once(monkeypatch):
    # binary, km and time: one traversal from each node per mode, not one
    # per measure; only the binary pass, which feeds betweenness, counts
    # shortest paths
    g = fixtures.synthetic_network()
    traversals = []

    def counting(name, kernel):
        def wrapped(*args):
            result = kernel(*args)
            traversals.append((name, result[1] is not None))  # counted: sigma returned
            return result
        return wrapped

    for name in ("_bfs", "_dijkstra"):
        monkeypatch.setattr(graph, name, counting(name, getattr(graph, name)))
    # and one arc table per cost mode; strength reads the edges themselves
    tables = []
    costs = graph.SpatialGraph.costs
    monkeypatch.setattr(graph.SpatialGraph, "costs", lambda self, mode, epoch=None:
                        tables.append(mode) or costs(self, mode, epoch))
    measure_report(g, epoch="2010")
    assert len(traversals) == 3 * g.n
    assert [call for call in traversals if call[1]] == [("_bfs", True)] * g.n
    assert sorted(tables) == ["binary", "km", "time"]


# --- arc pruning in distance-only weighted passes ------------------------------

MARGIN_FACTORS = {"above": 1.001, "below": 0.999}  # excess over the pruning margin


def _adversarial_graph(seed=5, n=40):
    """A connected graph whose km and time weights are drawn across 1e-3 to
    1e3, with a float near-tie square and, hung off node c00, two-edge
    detours beside direct arcs whose excess over the detour is just above
    and just below c00's pruning margin in either mode."""
    rng = random.Random(seed)

    def weight():
        return 10.0 ** rng.uniform(-3.0, 3.0)

    cloud = [f"c{i:02d}" for i in range(n)]
    pairs = {(cloud[rng.randrange(i)], cloud[i]) for i in range(1, n)}
    while len(pairs) < 2 * n:
        u, v = rng.sample(cloud, 2)
        if (v, u) not in pairs:
            pairs.add((u, v))
    edges = [EdgeRecord(u, v, weight(), {"2010": weight()}) for u, v in sorted(pairs)]
    # qs-qa-qt costs 0.1 + 0.2 = 0.30000000000000004, qs-qb-qt costs 0.3 and
    # the direct qs-qt arc 0.30000000000000004, one ulp above it
    square = [("qs", "qa", 0.1), ("qa", "qt", 0.2), ("qs", "qb", 0.15), ("qb", "qt", 0.15),
              ("qs", "qt", 0.1 + 0.2), ("c07", "qs", weight())]
    edges += [EdgeRecord(u, v, w, {"2010": w}) for u, v, w in square]
    nodes = [NodeRecord(node_id) for node_id in cloud + ["qs", "qa", "qb", "qt"]]
    base = build_graph(nodes, edges)
    # each detour is as long as c00's largest distance, which it stays
    far = {}
    for mode, epoch in (("km", None), ("time", "2010")):
        far[mode] = max(traverse(base, 0, base.costs(mode, epoch))[0])
    half = {mode: far[mode] / 2.0 for mode in far}
    for name, factor in MARGIN_FACTORS.items():
        nodes += [NodeRecord(f"x_{name}"), NodeRecord(f"q_{name}")]
        direct = {mode: far[mode] + factor * TIE_RTOL * far[mode] for mode in far}
        edges += [EdgeRecord("c00", f"x_{name}", half["km"], {"2010": half["time"]}),
                  EdgeRecord(f"x_{name}", f"q_{name}", half["km"], {"2010": half["time"]}),
                  EdgeRecord("c00", f"q_{name}", direct["km"], {"2010": direct["time"]})]
    return build_graph(nodes, edges)


def _unpruned_sweep(g, mode, epoch):
    """Closeness and path stats read off Dijkstra rows over every arc."""
    arcs = g.costs(mode, epoch)
    n = g.n
    close, total, diameter = {}, 0.0, 0.0
    for s, node_id in enumerate(g.node_ids):
        dist = traverse(g, s, arcs)[0]
        others = dist[:s] + dist[s + 1:]
        close[node_id] = math.fsum(others) / (n - 1)
        total += math.fsum(others)
        diameter = max(diameter, max(others))
    return close, PathStats(total / (n * (n - 1)), diameter)


def _unpruned_betweenness(g, mode):
    """Brandes dependencies over counted Dijkstra rows on every arc."""
    arcs = g.costs(mode)
    n = g.n
    raw = [0.0] * n
    for s in range(n):
        _, sigma, preds, order = traverse(g, s, arcs, True)
        delta = [0.0] * n
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                raw[w] += delta[w]
    pairs = (n - 1) * (n - 2) / 2.0
    return {node_id: value / 2.0 / pairs for node_id, value in zip(g.node_ids, raw)}


def test_adversarial_graph_prunes_the_arc_above_the_margin_only():
    g = _adversarial_graph()
    for mode, epoch in (("km", None), ("time", "2010")):
        arcs = list(map(list, g.costs(mode, epoch)))
        dist = traverse(g, 0, arcs)[0]
        drop_dominated_arcs(arcs, 0, dist, max(dist))
        left = {g.node_ids[v] for v, _ in arcs[0]}
        assert "q_below" in left and "q_above" not in left
        assert [v for v, _ in arcs[g.index["q_above"]]] == [g.index["x_above"]]


@pytest.mark.parametrize("mode, epoch", [("km", None), ("time", "2010")])
def test_pruned_distance_passes_equal_unpruned_rows(mode, epoch):
    g = _adversarial_graph()
    close, stats = _unpruned_sweep(g, mode, epoch)
    assert closeness(g, mode, epoch) == close
    assert path_length_and_diameter(g, mode, epoch) == stats


def test_counted_km_pass_keeps_the_arcs_that_pruning_drops():
    g = _adversarial_graph()
    # from c00's farthest node the direct c00-q_above arc is a float tie, so
    # a counted pass must still see it
    dist = traverse(g, 0, g.costs("km"))[0]
    far = g.node_ids[max(range(g.n), key=dist.__getitem__)]
    assert sorted(shortest_paths(g, far, "km").preds["q_above"]) == ["c00", "x_above"]
    assert betweenness(g, "km") == _unpruned_betweenness(g, "km")


def test_scale_covariance_of_km_measures():
    g = fixtures.synthetic_network()
    scaled = build_graph(
        g.nodes,
        [EdgeRecord(e.u, e.v, e.distance_km * 2.5, e.time_min) for e in g.edges],
    )
    base = measure_report(g)
    doubled = measure_report(scaled)
    for node_id in g.node_ids:
        assert doubled.per_node[node_id].strength_km == pytest.approx(
            2.5 * base.per_node[node_id].strength_km, rel=1e-9)
        assert doubled.per_node[node_id].betweenness == pytest.approx(
            base.per_node[node_id].betweenness, abs=1e-12)
        assert doubled.per_node[node_id].straightness == pytest.approx(
            base.per_node[node_id].straightness / 2.5, rel=1e-9)
    assert doubled.global_measures.avg_path_length_km == pytest.approx(
        2.5 * base.global_measures.avg_path_length_km, rel=1e-9)
    assert doubled.global_measures.diameter_km == pytest.approx(
        2.5 * base.global_measures.diameter_km, rel=1e-9)
    assert doubled.global_measures.avg_path_length_binary == \
        base.global_measures.avg_path_length_binary


def test_measure_report_includes_time_epoch():
    g = fixtures.synthetic_network()
    report = measure_report(g, epoch="2010")
    assert report.time_measures is not None
    assert report.time_measures.epoch == "2010"
    slow = measure_report(g, epoch="1988").time_measures
    assert slow.avg_path_length_min > report.time_measures.avg_path_length_min
