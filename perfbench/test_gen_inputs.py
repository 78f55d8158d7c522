"""Checks on the benchmark's input generator (run with pytest)."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gen_inputs  # noqa: E402
from spatialnet import fitting  # noqa: E402
from spatialnet.io import ingest  # noqa: E402


@pytest.mark.parametrize("n", [100, 400])
def test_same_seed_same_bytes(n):
    first = gen_inputs.geo_graph(n, 11)
    assert first == gen_inputs.geo_graph(n, 11)
    assert first != gen_inputs.geo_graph(n, 12)


@pytest.mark.parametrize("seed", [1, 2])
def test_graph_is_connected_and_fits_find_degree_classes(tmp_path, seed):
    paths = gen_inputs.write_inputs(tmp_path, gen_inputs.geo_graph(400, seed))
    g, _ = ingest(paths["nodes.csv"], paths["edges.csv"])
    assert g.n == 400 and g.is_connected
    assert 2.4 * g.n < g.m < 3.0 * g.n
    for measure in fitting.SCALING_MEASURES:
        # raises InsufficientClassesError below 3 usable degree classes
        fitting.scaling_by_degree_class(g, measure)


def test_edge_costs_exceed_straight_line(tmp_path):
    paths = gen_inputs.write_inputs(tmp_path, gen_inputs.geo_graph(60, 5))
    g, _ = ingest(paths["nodes.csv"], paths["edges.csv"])
    coords = {node.id: (node.lat, node.lon) for node in g.nodes}
    from spatialnet.measures import haversine_km

    for edge in g.edges:
        assert edge.distance_km > haversine_km(*coords[edge.u], *coords[edge.v])
        assert set(edge.time_min) == {gen_inputs.EPOCH} and edge.time_min[gen_inputs.EPOCH] > 0
