import functools
import json
import math
import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spatialnet import (EdgeRecord, NodeRecord, build_graph, cli, graph, measures, shared,
                        shortest_paths)
from spatialnet.exceptions import ComputeError, DisconnectedError
from spatialnet.graph import TIE_RTOL, UnknownEpochError, _drop_dominated_arcs, sweep
from spatialnet.io import ingest
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
from spatialnet.shared import SweepChildError

import fixtures
import oracles

DATA = Path(__file__).resolve().parent / "data"
SAMPLE, _ = ingest(DATA / "nodes.csv", DATA / "edges.csv")


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


def test_one_node_graph_measures():
    # _pass's n < 2 branch: binary closeness would otherwise divide by n - 1
    g = build_graph([NodeRecord("a", "A", 38.0, 22.0)], [])
    assert (closeness(g), betweenness(g), straightness(g)) == ({"a": 0.0}, {"a": 0.0}, {"a": 1.0})
    assert tuple(path_length_and_diameter(g)) == (0.0, 0.0)
    assert density(g) == 0.0


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


def _count_sweeps(monkeypatch):
    """Record each traversal in this process as (kernel, counted) and each
    arc table built as its cost mode."""
    traversals, tables = [], []

    def counting(name, kernel):
        def wrapped(*args):
            result = kernel(*args)
            traversals.append((name, result[1] is not None))  # counted: sigma returned
            return result
        return wrapped

    for name in ("_bfs", "_dijkstra", "_bucket_distances"):
        monkeypatch.setattr(graph, name, counting(name, getattr(graph, name)))
    costs = graph.SpatialGraph.costs
    monkeypatch.setattr(graph.SpatialGraph, "costs", lambda self, mode, epoch=None:
                        tables.append(mode) or costs(self, mode, epoch))
    return traversals, tables


def test_measure_report_sweeps_each_mode_once(monkeypatch):
    # binary, km and time: one traversal from each node per mode, not one
    # per measure; only the binary pass, which feeds betweenness, counts
    # shortest paths
    g = fixtures.synthetic_network()
    monkeypatch.setattr(shared, "can_fork", lambda: False)
    traversals, tables = _count_sweeps(monkeypatch)
    # and one arc table per cost mode; strength reads the edges themselves
    measure_report(g, epoch="2010")
    assert len(traversals) == 3 * g.n
    assert [call for call in traversals if call[1]] == [("_bfs", True)] * g.n
    assert sorted(tables) == ["binary", "km", "time"]


def test_forked_report_runs_each_pass_once(monkeypatch, tmp_path):
    # whichever process claims what: every item is claimed once, and the
    # traversals of both processes, logged through one O_APPEND descriptor
    # per mode, run each pass once, whole in the process that claimed it
    g = fixtures.synthetic_network()
    km_weights = {edge.distance_km for edge in g.edges}
    assert not km_weights & {edge.time_min["2010"] for edge in g.edges}
    monkeypatch.setattr(shared, "can_fork", lambda: True)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    sweep = measures.sweep
    with (fixtures.PidLog(tmp_path / "passes") as passes,
          fixtures.PidLog(tmp_path / "sources") as sources,
          fixtures.PidLog(tmp_path / "binary") as binary,
          fixtures.PidLog(tmp_path / "km") as km,
          fixtures.PidLog(tmp_path / "time") as time_sources):

        def logged(g, arcs, sources, count=False):
            # a sweep is handed the whole arc table, whose weights tell the mode
            log = (binary if arcs is None else km if arcs[0][0][1] in km_weights
                   else time_sources)
            for row in sweep(g, arcs, sources, count):
                log.write(row[0])
                yield row

        monkeypatch.setattr(measures, "sweep", logged)
        monkeypatch.setattr(measures, "_report_passes", passes.claims(measures._report_passes))
        monkeypatch.setattr(measures, "_time_rows", sources.claims(measures._time_rows))
        with fixtures.leaves_nothing_behind():
            measure_report(g, epoch="2010")
    assert len(forks) == 1
    assert passes.items() == [0, 1]
    assert sources.items() == list(range(g.n))
    owner = {item: pid for pid, item in passes.read()}
    pids = set(owner.values()) | {pid for pid, _ in sources.read()}
    assert len(pids - {os.getpid()}) <= 1  # this process and one child
    for item, log in ((0, binary), (1, km)):
        assert log.items() == list(range(g.n))
        assert {pid for pid, _ in log.read()} == {owner[item]}
    assert sorted(time_sources.read()) == sorted(sources.read())


@pytest.mark.parametrize("epoch", [None, "2010"])
def test_forked_report_equals_serial_report(monkeypatch, epoch):
    monkeypatch.setattr(shared, "can_fork", lambda: False)
    serial = measure_report(SAMPLE, epoch)
    monkeypatch.setattr(shared, "can_fork", lambda: True)
    with fixtures.leaves_nothing_behind():
        assert measure_report(SAMPLE, epoch) == serial


def test_forked_report_equals_serial_past_one_source_per_block(monkeypatch, tmp_path):
    # n = 300 sources in 255 time blocks, so some blocks hold two
    g = fixtures.geo_inputs(tmp_path, 300, 1)[1]
    monkeypatch.setattr(shared, "can_fork", lambda: False)
    serial = measure_report(g, "2010")
    monkeypatch.setattr(shared, "can_fork", lambda: True)
    with fixtures.leaves_nothing_behind():
        assert measure_report(g, "2010") == serial


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
        far[mode] = next(sweep(base, base.costs(mode, epoch), [0]))[2]
    half = {mode: far[mode] / 2.0 for mode in far}
    for name, factor in MARGIN_FACTORS.items():
        nodes += [NodeRecord(f"x_{name}"), NodeRecord(f"q_{name}")]
        direct = {mode: far[mode] + factor * TIE_RTOL * far[mode] for mode in far}
        edges += [EdgeRecord("c00", f"x_{name}", half["km"], {"2010": half["time"]}),
                  EdgeRecord(f"x_{name}", f"q_{name}", half["km"], {"2010": half["time"]}),
                  EdgeRecord("c00", f"q_{name}", direct["km"], {"2010": direct["time"]})]
    return build_graph(nodes, edges)


def _unpruned_sweep(g, mode, epoch):
    """Closeness and path stats read off distance-only rows over every
    arc: each a sweep from its source alone, on its own copy of the arcs."""
    arcs = g.costs(mode, epoch)
    n = g.n
    close, total, diameter = {}, 0.0, 0.0
    for s, node_id in enumerate(g.node_ids):
        dist = next(sweep(g, arcs, [s]))[1]
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
    for s, _, _, sigma, preds, order in sweep(g, arcs, range(n), True):
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
        _, dist, far, *_ = next(sweep(g, arcs, [0]))
        _drop_dominated_arcs(arcs, 0, dist, far)
        left = {g.node_ids[v] for v, _ in arcs[0]}
        assert "q_below" in left and "q_above" not in left
        assert [v for v, _ in arcs[g.index["q_above"]]] == [g.index["x_above"]]


@pytest.mark.parametrize("mode, epoch", [("km", None), ("time", "2010")])
def test_pruned_distance_passes_equal_unpruned_rows(mode, epoch):
    g = _adversarial_graph()
    close, stats = _unpruned_sweep(g, mode, epoch)
    assert closeness(g, mode, epoch) == close
    assert path_length_and_diameter(g, mode, epoch) == stats


@functools.cache
def _split_case(name):
    """A graph for the split time pass, and its unsplit rows."""
    if name == "geo200":
        with tempfile.TemporaryDirectory() as directory:
            g = fixtures.geo_inputs(Path(directory), 200, 1)[1]
    else:
        g = _adversarial_graph()
    return g, measures._traversals(g, g.costs("time", "2010"), range(g.n))[0]


@pytest.mark.parametrize("name", ["geo200", "margins"])
@fixtures.SETTINGS
@given(data=st.data())
def test_any_split_of_the_time_pass_gives_the_same_rows(name, data):
    # the time pass's sources cut into blocks, the blocks dealt to up to
    # three parts in shuffled order, and each part run on its own arc copy:
    # every source's (fsum, max) equals the unsplit pass's
    g, unsplit = _split_case(name)
    cuts = sorted(data.draw(st.sets(st.integers(1, g.n - 1), max_size=40)))
    blocks = [range(a, b) for a, b in zip([0] + cuts, cuts + [g.n])]
    parts = data.draw(st.integers(1, 3))
    owners = data.draw(st.lists(st.integers(0, parts - 1), min_size=len(blocks),
                                max_size=len(blocks)))
    rows = {}
    for part in range(parts):
        mine = data.draw(st.permutations([block for block, owner in zip(blocks, owners)
                                          if owner == part]))
        sources = (s for block in mine for s in block)
        rows.update(measures._traversals(g, g.costs("time", "2010"), sources)[0])
    assert rows == unsplit


def test_counted_km_pass_keeps_the_arcs_that_pruning_drops():
    g = _adversarial_graph()
    # from c00's farthest node the direct c00-q_above arc is a float tie, so
    # a counted pass must still see it; the detour ends tie that distance
    dist = next(sweep(g, g.costs("km"), [g.index["c00"]]))[1]
    hung = {f"{end}_{name}" for end in "xq" for name in MARGIN_FACTORS}
    far = max((v for v in g.node_ids if v not in hung), key=lambda v: dist[g.index[v]])
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


# --- the report's passes shared with a forked child (tests/test_shared.py) -----

def _allow_fork(monkeypatch, allowed=True):
    monkeypatch.setattr(shared, "can_fork", lambda: allowed)


@pytest.mark.parametrize("task", [fixtures.raise_memory_error, fixtures.exit_silently],
                         ids=["raises", "exits"])
def test_cli_exits_3_when_the_km_child_fails(monkeypatch, tmp_path, capsys, task):
    _allow_fork(monkeypatch)
    monkeypatch.setattr(measures, "_report_passes", fixtures.in_the_child(task))
    out = tmp_path / "out"
    with fixtures.leaves_nothing_behind():
        code = cli.main(["analyze", "--nodes", str(DATA / "nodes.csv"),
                         "--edges", str(DATA / "edges.csv"), "--out", str(out)])
    assert code == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "SweepChildError"
    assert not out.exists()


# the sample with one edge that has no 2010 time
ONE_EDGE_WITHOUT_2010 = build_graph(SAMPLE.nodes, [
    EdgeRecord(edge.u, edge.v, edge.distance_km, {"1988": edge.time_min["1988"]}) if k == 40
    else edge for k, edge in enumerate(SAMPLE.edges)])


@pytest.mark.parametrize("path", ["forked", "serial", "fork fails", "km child raises",
                                  "edge without the epoch"])
def test_report_leaves_no_descriptor_or_child_behind(monkeypatch, path):
    # a raw os.pipe descriptor left open raises no ResourceWarning, so the
    # task queue and the result pipe are counted on every way through; an
    # edge without the epoch fails before the fork
    monkeypatch.setattr(shared, "can_fork", lambda: False)
    serial = measure_report(SAMPLE, "2010")
    g, error = SAMPLE, None
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        if path == "fork fails":
            raise OSError("fork: resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(shared, "can_fork", lambda: path != "serial")
    if path == "km child raises":
        monkeypatch.setattr(measures, "_report_passes",
                            fixtures.in_the_child(fixtures.raise_memory_error))
        error = SweepChildError
    if path == "edge without the epoch":
        g, error = ONE_EDGE_WITHOUT_2010, UnknownEpochError
    with fixtures.leaves_nothing_behind():
        if error is None:
            assert measure_report(g, "2010") == serial
        else:
            with pytest.raises(error) as raised:
                measure_report(g, "2010")
    assert len(forks) == (path not in ("serial", "edge without the epoch"))
    if path == "edge without the epoch":
        monkeypatch.setattr(shared, "can_fork", lambda: False)
        with pytest.raises(UnknownEpochError) as unforked:
            measure_report(g, "2010")
        assert str(raised.value) == str(unforked.value)
        assert f"({SAMPLE.edges[40].u}, {SAMPLE.edges[40].v})" in str(raised.value)


def _allow_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def _sample_less(drop_coords=(), drop_edges=(), keep=None):
    """The shipped sample, less the coordinates of ``drop_coords``, less
    the edges numbered in ``drop_edges``, and cut to the nodes in
    ``keep`` when given."""
    nodes = [NodeRecord(node.id, node.label) if node.id in drop_coords else node
             for node in SAMPLE.nodes if keep is None or node.id in keep]
    ids = {node.id for node in nodes}
    edges = [edge for k, edge in enumerate(SAMPLE.edges)
             if k not in drop_edges and edge.u in ids and edge.v in ids]
    return build_graph(nodes, edges)


# the edges at the sample's first node, whose removal isolates it
ISOLATING = {k for k, edge in enumerate(SAMPLE.edges) if SAMPLE.nodes[0].id in (edge.u, edge.v)}
UNPLACED = {SAMPLE.nodes[5].id}
# case -> (graph, epoch, the error the serial report raises)
PRECONDITION_CASES = {
    "disconnected": (_sample_less(drop_edges=ISOLATING), "2010", DisconnectedError),
    "missing coordinates": (_sample_less(drop_coords=UNPLACED), "2010", MissingCoordinatesError),
    "n = 2": (_sample_less(keep={SAMPLE.edges[0].u, SAMPLE.edges[0].v}), "2010", TooFewNodesError),
    "unknown epoch": (SAMPLE, "1999", UnknownEpochError),
    "disconnected, missing coordinates": (
        _sample_less(drop_edges=ISOLATING, drop_coords=UNPLACED), "2010", DisconnectedError),
    "missing coordinates, n = 2": (
        _sample_less(drop_coords={SAMPLE.edges[0].u}, keep={SAMPLE.edges[0].u, SAMPLE.edges[0].v}),
        "2010", MissingCoordinatesError),
    "missing coordinates, unknown epoch": (
        _sample_less(drop_coords=UNPLACED), "1999", MissingCoordinatesError),
    "n = 1": (_sample_less(keep={SAMPLE.nodes[0].id}), "2010", IsolatedNodeError),
}


@pytest.mark.parametrize("case", list(PRECONDITION_CASES))
def test_failing_graphs_fail_alike_with_and_without_forking(monkeypatch, case):
    # every check runs before the fork, so a failing graph is never forked
    # for and raises the serial error whether or not the host allows a fork
    g, epoch, error = PRECONDITION_CASES[case]
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    raised = []
    with fixtures.leaves_nothing_behind():
        for cpus in (1, 2):
            _allow_cpus(monkeypatch, cpus)
            with pytest.raises(ComputeError) as info:
                measure_report(g, epoch)
            raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] is error
    assert forks == []


def test_sound_graph_forks_only_when_a_second_cpu_is_allowed(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    reports = []
    for cpus in (1, 2):
        _allow_cpus(monkeypatch, cpus)
        reports.append(measure_report(SAMPLE, "2010"))
        assert len(forks) == cpus - 1
    assert reports[0] == reports[1]
