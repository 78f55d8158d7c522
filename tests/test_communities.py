from pathlib import Path

import pytest

from spatialnet.communities import (
    IncompleteAssignmentError,
    find_communities,
    modularity,
)
from spatialnet.exceptions import DisconnectedError
from spatialnet.io import ingest

import fixtures
import oracles


def _bridged_triangles():
    return fixtures.graph_from_edges(
        [("a", "b"), ("b", "c"), ("a", "c"),
         ("d", "e"), ("e", "f"), ("d", "f"),
         ("c", "d")]
    )


def _two_triangles():
    return fixtures.graph_from_edges(
        [("a", "b"), ("b", "c"), ("a", "c"),
         ("d", "e"), ("e", "f"), ("d", "f")]
    )


def test_single_community_q_is_zero():
    g = _bridged_triangles()
    assignment = {node_id: 0 for node_id in g.node_ids}
    assert modularity(g, assignment) == pytest.approx(0.0, abs=1e-15)


def test_two_disjoint_triangles_q_half():
    g = _two_triangles()
    assignment = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
    assert modularity(g, assignment) == pytest.approx(0.5, abs=1e-12)


def test_singleton_partition_of_triangle_negative():
    g = fixtures.complete_graph(3)
    assignment = {node_id: i for i, node_id in enumerate(g.node_ids)}
    q = modularity(g, assignment)
    assert q == pytest.approx(-1 / 3, abs=1e-12)


def test_incomplete_assignment_rejected():
    g = fixtures.complete_graph(3)
    with pytest.raises(IncompleteAssignmentError):
        modularity(g, {"k0": 0, "k1": 0})
    with pytest.raises(IncompleteAssignmentError):
        modularity(g, {"k0": 0, "k1": 0, "k2": 0, "zzz": 1})


def test_modularity_matches_oracle_on_random_graphs():
    import random

    for seed in range(15):
        g = fixtures.random_connected_graph(seed + 300)
        rng = random.Random(seed)
        assignment = {node_id: rng.randrange(3) for node_id in g.node_ids}
        assert modularity(g, assignment) == pytest.approx(
            oracles.oracle_modularity(g, assignment), abs=1e-9)


def test_label_permutation_leaves_q_unchanged():
    g = _bridged_triangles()
    assignment = {"a": 0, "b": 0, "c": 0, "d": 1, "e": 1, "f": 1}
    relabeled = {node_id: 7 - label for node_id, label in assignment.items()}
    assert modularity(g, assignment) == pytest.approx(modularity(g, relabeled), abs=1e-15)


def test_find_communities_recovers_bridged_triangles():
    g = _bridged_triangles()
    partition = find_communities(g, seed=5)
    groups = {}
    for node_id, label in partition.assignment.items():
        groups.setdefault(label, set()).add(node_id)
    assert sorted(map(sorted, groups.values())) == [["a", "b", "c"], ["d", "e", "f"]]
    assert partition.q > 0.3
    best_q, _best_blocks = oracles.best_partition_exhaustive(g, oracles.oracle_modularity)
    assert partition.q == pytest.approx(best_q, abs=1e-9)


def test_find_communities_complete_graph_single_block():
    g = fixtures.complete_graph(5)
    partition = find_communities(g, seed=2)
    assert len(set(partition.assignment.values())) == 1
    assert partition.q == pytest.approx(0.0, abs=1e-12)
    best_q, _ = oracles.best_partition_exhaustive(g, oracles.oracle_modularity)
    assert best_q == pytest.approx(0.0, abs=1e-12)


def test_reported_q_recomputable_from_assignment():
    g = fixtures.synthetic_network()
    partition = find_communities(g, seed=11)
    assert partition.q == pytest.approx(modularity(g, partition.assignment), abs=1e-9)
    assert partition.q >= 0.0  # at least the one-community baseline
    assert -1.0 <= partition.q <= 1.0


def test_detection_deterministic_per_seed():
    g = fixtures.synthetic_network()
    a = find_communities(g, seed=11)
    b = find_communities(g, seed=11)
    assert a.assignment == b.assignment
    assert a.q == b.q


def test_disconnected_detection_rejected():
    from spatialnet import EdgeRecord, NodeRecord, build_graph

    g = build_graph(
        [NodeRecord(x) for x in "abxy"],
        [EdgeRecord("a", "b", 1.0), EdgeRecord("x", "y", 1.0)],
    )
    with pytest.raises(DisconnectedError):
        find_communities(g, seed=1)


def test_levels_recorded_and_final_matches():
    g = fixtures.synthetic_network()
    partition = find_communities(g, seed=11)
    assert len(partition.levels) >= 1
    assert partition.levels[-1] == partition.assignment


def test_levels_record_only_improving_passes():
    data = Path(__file__).parent / "data"
    sample, _ = ingest(data / "nodes.csv", data / "edges.csv")
    partition = find_communities(sample, seed=7)
    assert [len(set(level.values())) for level in partition.levels] == [10, 5]
    for g in (sample, fixtures.synthetic_network()):
        for seed in range(10):
            levels = find_communities(g, seed).levels
            assert all(a != b for a, b in zip(levels, levels[1:]))


def test_levels_keep_singletons_when_no_pass_improves():
    from spatialnet import NodeRecord, build_graph

    partition = find_communities(build_graph([NodeRecord("a")], []), seed=1)
    assert partition.levels == ({"a": 0},)
    assert partition.assignment == {"a": 0}
