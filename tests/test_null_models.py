import hashlib
import json
import os
import random
from functools import partial
from pathlib import Path

import pytest

from spatialnet import null_models, shared
from spatialnet.exceptions import DisconnectedError
from spatialnet.graph import build_graph
from spatialnet.io import ingest
from spatialnet.measures import clustering
from spatialnet.null_models import (
    ReplicateStats,
    _RingDeltas,
    _Rewirer,
    latticeize,
    randomize,
    ring_index_cost,
)
from spatialnet.shared import SweepChildError

import fixtures

DATA = Path(__file__).parent / "data"


def _edge_pairs(g):
    return sorted(tuple(sorted((e.u, e.v))) for e in g.edges)


def _degree_multiset(g):
    return sorted(g.degree(node_id) for node_id in g.node_ids)


def test_triangle_is_rigid_under_randomization():
    tri = fixtures.complete_graph(3)
    ensemble = randomize(tri, seed=3, swaps_per_edge=10, replicates=4)
    for replicate in ensemble.replicates:
        assert _edge_pairs(replicate) == _edge_pairs(tri)


def test_degree_multiset_preserved():
    g = fixtures.clustered_fixture(seed=1)
    for ensemble in (
        randomize(g, seed=9, swaps_per_edge=5, replicates=5),
        latticeize(g, seed=9, swaps_per_edge=5, replicates=5),
    ):
        for replicate in ensemble.replicates:
            assert _degree_multiset(replicate) == _degree_multiset(g)
            assert replicate.is_connected


def test_randomization_lowers_clustering_on_clustered_input():
    g = fixtures.clustered_fixture(seed=4, n=20)
    ensemble = randomize(g, seed=21, swaps_per_edge=10, replicates=20)
    assert ensemble.stats.mean_clustering <= clustering(g).average


def test_ring_lattice_is_fixed_point_of_latticeization():
    ring = fixtures.ring_lattice(10, 2)
    order = list(ring.node_ids)
    before = ring_index_cost(ring, order)
    ensemble = latticeize(ring, seed=6, swaps_per_edge=10, replicates=3)
    for replicate in ensemble.replicates:
        assert ring_index_cost(replicate, order) == before


def test_latticeization_never_increases_cost():
    for seed in range(5):
        g = fixtures.clustered_fixture(seed=seed)
        order = list(g.node_ids)
        before = ring_index_cost(g, order)
        ensemble = latticeize(g, seed=seed + 50, swaps_per_edge=5, replicates=3)
        for replicate in ensemble.replicates:
            assert ring_index_cost(replicate, order) <= before


def test_lattice_clustering_at_least_random():
    g = fixtures.clustered_fixture(seed=8, n=20)
    rand = randomize(g, seed=13, swaps_per_edge=8, replicates=10)
    latt = latticeize(g, seed=13, swaps_per_edge=8, replicates=10)
    assert latt.stats.mean_clustering >= rand.stats.mean_clustering


def test_path_length_ordering_on_clustered_fixtures():
    # randomization shortens paths, latticeization stretches them
    from spatialnet.measures import path_length_and_diameter

    for seed in range(4):
        g = fixtures.clustered_fixture(seed=seed, n=20)
        l_emp = path_length_and_diameter(g).average
        rand = randomize(g, seed=seed + 40, swaps_per_edge=5, replicates=10)
        latt = latticeize(g, seed=seed + 40, swaps_per_edge=5, replicates=10)
        assert rand.stats.mean_path_length <= l_emp <= latt.stats.mean_path_length


def test_determinism_same_seed_same_ensemble():
    g = fixtures.clustered_fixture(seed=2)
    a = randomize(g, seed=17, swaps_per_edge=5, replicates=4)
    b = randomize(g, seed=17, swaps_per_edge=5, replicates=4)
    assert [_edge_pairs(r) for r in a.replicates] == [_edge_pairs(r) for r in b.replicates]
    c = randomize(g, seed=18, swaps_per_edge=5, replicates=4)
    assert [_edge_pairs(r) for r in a.replicates] != [_edge_pairs(r) for r in c.replicates]


def test_zero_swaps_returns_copies():
    g = fixtures.clustered_fixture(seed=3)
    for builder in (randomize, latticeize):
        ensemble = builder(g, seed=5, swaps_per_edge=0, replicates=2)
        for replicate in ensemble.replicates:
            assert _edge_pairs(replicate) == _edge_pairs(g)
        for stats in ensemble.stats.per_replicate:
            assert (stats.accepted_swaps, stats.attempts) == (0, 0)
            # a zero target is reached; a zero step cap stops the descent
            # before it could certify anything
            assert stats.converged == (builder is randomize)


def test_randomize_replicates_pinned_on_sample():
    # the seed-1 edge lists, order and orientation included, as a full
    # BFS per candidate swap produced them: the early-exit check must
    # accept exactly the same swaps
    g, _ = ingest(DATA / "nodes.csv", DATA / "edges.csv")
    ensemble = randomize(g, seed=1)
    blob = json.dumps([[[e.u, e.v] for e in r.edges] for r in ensemble.replicates])
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "fad67371166bf5a8a940c3fc2959ee4ca7233895b68ebac5e7abf47f5903b904")
    assert all(stats.converged for stats in ensemble.stats.per_replicate)


def test_latticeize_replicates_pinned_on_sample():
    # the seed-1 edge lists as the full m x m re-scoring per descent step
    # produced them: the incremental delta table must give the same
    # candidate order and the same RNG draws
    g, _ = ingest(DATA / "nodes.csv", DATA / "edges.csv")
    ensemble = latticeize(g, seed=1)
    blob = json.dumps([[[e.u, e.v] for e in r.edges] for r in ensemble.replicates])
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "b79baaec44686e38402e757f967f083522d280a18a436060b926ffdf02e4ea90")
    assert all(stats.converged for stats in ensemble.stats.per_replicate)


def test_replicates_pinned_on_multiword_bitsets():
    # n = 160, so each node's neighbour bitset spans three 64-bit words;
    # the edge lists as the set-based swap engine produced them
    g = fixtures.ws_graph(160, 4, 0.2, seed=11)
    rand = randomize(g, seed=3, replicates=1)
    latt = latticeize(g, seed=3, replicates=2)
    blob = json.dumps([[[e.u, e.v] for e in r.edges] for r in rand.replicates + latt.replicates])
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "fd7810b531cc685c6a05129aaed14554b828da820c776cbd7c6b098647054e09")
    assert all(stats.converged for stats in rand.stats.per_replicate + latt.stats.per_replicate)


@pytest.mark.parametrize("rewire", [null_models._randomize_replicate,
                                    null_models._latticeize_replicate])
def test_replicates_assembled_as_build_graph_assembles_them(rewire):
    # replicates skip build_graph's checks and component count; they must
    # still be the graph that build_graph makes of their edge records
    sample, _ = ingest(DATA / "nodes.csv", DATA / "edges.csv")
    for g in (sample, fixtures.ws_graph(160, 4, 0.2, seed=11)):
        start = {} if rewire is null_models._randomize_replicate else {
            "start": _RingDeltas(_Rewirer(g).ends, g.n)}
        rewirer, accepted, _, _ = rewire(g, random.Random(5), 2, **start)
        assert accepted > 0
        replicate = null_models._assemble(g, rewirer.ends)
        expected = build_graph(g.nodes, null_models._edge_records(g, rewirer.ends))
        assert replicate.nodes == expected.nodes
        assert replicate.edges == expected.edges
        assert replicate.index == expected.index
        assert replicate.components == expected.components == 1
        assert replicate.adj_index == expected.adj_index


def test_lattice_descent_counters_on_sample():
    g, _ = ingest(DATA / "nodes.csv", DATA / "edges.csv")
    ensemble = latticeize(g, seed=1, swaps_per_edge=10, replicates=3)
    before = ring_index_cost(g, ensemble.node_order)
    for replicate, stats in zip(ensemble.replicates, ensemble.stats.per_replicate):
        assert stats.converged
        assert 0 < stats.accepted_swaps <= stats.attempts
        # every descent step lowers the integer cost by at least 1
        assert ring_index_cost(replicate, ensemble.node_order) <= before - stats.accepted_swaps


@pytest.mark.parametrize("g", [
    ingest(DATA / "nodes.csv", DATA / "edges.csv")[0],
    fixtures.ws_graph(160, 4, 0.2, seed=11),
], ids=["sample", "ws160"])
def test_lattice_replicates_start_from_the_input_alone(monkeypatch, g):
    # the ensemble builds one start state and each replicate descends on a
    # copy: replicate k, built after replicates 0 .. k-1 in this process,
    # must equal replicate k built from scratch on its own
    _allow_fork(monkeypatch, False)
    ensemble = latticeize(g, seed=3, swaps_per_edge=2, replicates=4)
    for k, (replicate, stats) in enumerate(zip(ensemble.replicates, ensemble.stats.per_replicate)):
        fresh = partial(null_models._latticeize_replicate, start=_RingDeltas(_Rewirer(g).ends, g.n))
        ends, *fields = null_models._replicates(iter([k]), g, fresh, 3, 2)[k]
        assert [(e.u, e.v) for e in replicate.edges] == [
            (g.node_ids[u], g.node_ids[v]) for u, v in ends]
        assert stats == ReplicateStats(*fields)
        assert stats.accepted_swaps > 0


def test_disconnected_input_rejected():
    from spatialnet import EdgeRecord, NodeRecord, build_graph

    g = build_graph(
        [NodeRecord(x) for x in "abxy"],
        [EdgeRecord("a", "b", 1.0), EdgeRecord("x", "y", 1.0)],
    )
    with pytest.raises(DisconnectedError):
        randomize(g, seed=1)


# --- an ensemble's replicates shared with a forked child -----------------------

def _allow_fork(monkeypatch, allowed):
    monkeypatch.setattr(shared, "can_fork", lambda: allowed)


def _counting_forks(monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize("builder", [randomize, latticeize])
def test_forked_ensembles_equal_serial_ones(monkeypatch, builder):
    g, _ = ingest(DATA / "nodes.csv", DATA / "edges.csv")
    forks = _counting_forks(monkeypatch)
    for seed in (1, 3, 7):
        for replicates in (1, 2, 3, 5, 20):
            _allow_fork(monkeypatch, False)
            serial = builder(g, seed=seed, replicates=replicates)
            _allow_fork(monkeypatch, True)
            del forks[:]
            forked = builder(g, seed=seed, replicates=replicates)
            assert len(forks) == (replicates > 1)
            assert ([[(e.u, e.v) for e in r.edges] for r in forked.replicates]
                    == [[(e.u, e.v) for e in r.edges] for r in serial.replicates])
            assert forked.stats.per_replicate == serial.stats.per_replicate
            assert forked.node_order == serial.node_order
            assert forked == serial


@pytest.mark.parametrize("replicates", [4, 20])
@pytest.mark.parametrize("allowed", [False, True], ids=["serial", "forked"])
def test_dense_ensemble_completes(monkeypatch, allowed, replicates):
    # er_gnm(9, 31, seed 1) at one swap per edge from seed 1: 20 of the
    # 1 922 draws are acceptable at the start, and replicates 2 and 3 take
    # over 3 100 attempts for their 31 swaps; forked, in the child with 4
    # replicates, here with 20, and the ensemble equals the serial one
    g = fixtures.er_gnm(9, 31, seed=1, connected=True)
    forks = _counting_forks(monkeypatch)
    _allow_fork(monkeypatch, allowed)
    with fixtures.leaves_nothing_behind():
        ensemble = randomize(g, seed=1, swaps_per_edge=1, replicates=replicates)
    assert len(forks) == allowed
    if allowed:
        _allow_fork(monkeypatch, False)
        assert ensemble == randomize(g, seed=1, swaps_per_edge=1, replicates=replicates)
    per_replicate = ensemble.stats.per_replicate
    assert {(stats.accepted_swaps, stats.converged) for stats in per_replicate} == {(31, True)}
    assert all(replicate.is_connected for replicate in ensemble.replicates)


def test_forked_ensemble_leaves_nothing_behind(monkeypatch):
    g, _ = ingest(DATA / "nodes.csv", DATA / "edges.csv")
    _allow_fork(monkeypatch, True)
    with fixtures.leaves_nothing_behind():
        ensemble = latticeize(g, seed=1, replicates=4)
    assert len(ensemble.replicates) == 4


@pytest.mark.parametrize("allowed", [False, True], ids=["serial", "forked"])
def test_each_replicate_graph_is_assembled_once(monkeypatch, allowed):
    # both halves send integer edge lists; this process assembles every
    # replicate graph once, after both halves, whichever built it
    g, _ = ingest(DATA / "nodes.csv", DATA / "edges.csv")
    assembled = []
    assemble = null_models._assemble
    monkeypatch.setattr(null_models, "_assemble",
                        lambda *args: assembled.append(1) or assemble(*args))
    _allow_fork(monkeypatch, allowed)
    for builder in (randomize, latticeize):
        del assembled[:]
        assert len(builder(g, seed=1, replicates=20).replicates) == 20
        assert len(assembled) == 20


def test_failed_fork_builds_the_upper_half_here(monkeypatch):
    g, _ = ingest(DATA / "nodes.csv", DATA / "edges.csv")
    _allow_fork(monkeypatch, False)
    serial = randomize(g, seed=3, replicates=5)

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    _allow_fork(monkeypatch, True)
    with fixtures.leaves_nothing_behind():
        assert randomize(g, seed=3, replicates=5) == serial


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_failure_on_one_side_leaves_nothing_behind(monkeypatch, failing):
    # work that raises as it starts in one process only, whatever either
    # claims: the child's failure is a SweepChildError naming the ensemble,
    # the parent's is its own error
    g, _ = ingest(DATA / "nodes.csv", DATA / "edges.csv")
    parent = os.getpid()
    replicates = null_models._replicates

    def failing_replicates(claims, *args):
        if (os.getpid() == parent) == (failing == "parent"):
            raise MemoryError("no room for the replicates")
        return replicates(claims, *args)

    monkeypatch.setattr(null_models, "_replicates", failing_replicates)
    _allow_fork(monkeypatch, True)
    error, message = {
        "child": (SweepChildError,
                  "the random ensemble failed in its child process: "
                  "MemoryError: no room for the replicates"),
        "parent": (MemoryError, "no room for the replicates"),
    }[failing]
    with fixtures.leaves_nothing_behind():
        with pytest.raises(error) as info:
            randomize(g, seed=1, replicates=4)
    assert str(info.value) == message


def test_forked_ensemble_equals_serial_past_one_replicate_per_block(monkeypatch):
    # 300 replicates in 255 blocks, so some blocks hold two
    g, _ = ingest(DATA / "nodes.csv", DATA / "edges.csv")
    _allow_fork(monkeypatch, False)
    serial = randomize(g, 3, swaps_per_edge=1, replicates=300)
    _allow_fork(monkeypatch, True)
    with fixtures.leaves_nothing_behind():
        assert randomize(g, 3, swaps_per_edge=1, replicates=300) == serial
