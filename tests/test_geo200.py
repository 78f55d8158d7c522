"""Oracles and byte pins on the seeded 200-node geometric graph.

The graph is ``perfbench/gen_inputs.geo_graph(200, 1)``, the benchmark's
own input generator, loaded read-only from its file. At this size the
package's sweeps, its random swap chain and its lattice descent must
still agree with the independent oracles, the measure report must be
the same whether or not its km pass runs in a forked child, both
ensembles the same whether or not their upper half does, and the
report bodies of two commands are pinned by sha256 so a refactor that
changes a byte fails in the test suite, not only in a hand comparison.
"""

import hashlib
import json
import random

import numpy as np
import pytest

from spatialnet import null_models, shared
from spatialnet.cli import AnalysisConfig, run
from spatialnet.graph import TIE_RTOL
from spatialnet.measures import (
    betweenness,
    closeness,
    measure_report,
    path_length_and_diameter,
    straightness,
)

import fixtures
import oracles

# sha256 of the report that write_bundle writes, with "provenance" removed
BYTE_PINS = [
    ("analyze", {"epoch": "2010"}, "measures",
     "e5f519d09d21cf8874f7c787044181a7d4e54798bcebd963e6f2ff6dadec6642"),
    ("communities", {"seed": 3}, "communities",
     "805ae66aa38a1252b64e55e72ec402b42b4f30291863d22117faccf28157172e"),
]


@pytest.fixture(scope="module")
def geo200(tmp_path_factory):
    return fixtures.geo_inputs(tmp_path_factory.mktemp("geo200"), 200, 1)


# cost mode -> (epoch, edge weight for the oracle); the time pass drops
# the most arcs as it goes
WEIGHTS = {
    "binary": (None, None),
    "km": (None, lambda edge: edge.distance_km),
    "time": ("2010", lambda edge: edge.time_min["2010"]),
}


@pytest.mark.parametrize("mode", list(WEIGHTS))
def test_closeness_and_path_stats_match_oracles(geo200, mode):
    _, g = geo200
    epoch, weight = WEIGHTS[mode]
    ids, dist = oracles.distances(g, weight)
    n = len(ids)
    close = closeness(g, mode, epoch)
    for i, node_id in enumerate(ids):
        assert close[node_id] == pytest.approx(dist[i].sum() / (n - 1), rel=1e-12)
    stats = path_length_and_diameter(g, mode, epoch)
    assert stats.average == pytest.approx(dist.sum() / (n * (n - 1)), rel=1e-12)
    assert stats.diameter == pytest.approx(dist.max(), rel=1e-12)


def test_straightness_matches_oracle(geo200):
    _, g = geo200
    expected = oracles.oracle_straightness(g)
    for node_id, value in straightness(g).items():
        assert value == pytest.approx(expected[node_id], abs=1e-12)


def _assert_pair_dependency_betweenness(g, mode, ids, dist, sigma, rtol=0.0):
    # v lies on a shortest s-t path when d(s, v) + d(v, t) = d(s, t), within
    # rtol times d(s, t), and carries sigma(s, v) sigma(v, t) / sigma(s, t)
    # of the pair's dependency
    assert sigma.max() < 2.0 ** 53  # every count is exact in float64
    n = len(ids)
    raw = np.zeros(n)
    for v in range(n):
        on_path = np.abs(dist[:, v, None] + dist[None, v, :] - dist) <= rtol * dist
        on_path[v, :] = on_path[:, v] = False
        raw[v] = np.sum(np.where(on_path, np.outer(sigma[:, v], sigma[v, :]) / sigma, 0.0))
    expected = raw / 2.0 / ((n - 1) * (n - 2) / 2.0)  # ordered pairs, halved
    got = betweenness(g, mode, WEIGHTS[mode][0])
    for i, node_id in enumerate(ids):
        assert got[node_id] == pytest.approx(expected[i], abs=1e-12)


def test_binary_betweenness_matches_pair_dependency_oracle(geo200):
    # sigma(s, t) = (A^d(s,t))_st: a walk of d(s, t) steps from s to t is a
    # shortest path, so A^L kept on the pairs at distance L gives each count,
    # and A^(L+1) on the pairs at distance L + 1 is that matrix times A
    _, g = geo200
    ids, a = oracles.adjacency_matrix(g)
    dist = oracles.distance_matrix_by_powers(a)
    n = len(ids)
    sigma = np.eye(n)
    power = np.eye(n)
    for length in range(1, int(dist.max()) + 1):
        power = np.where(dist == length, power @ a, 0.0)
        sigma += power
    _assert_pair_dependency_betweenness(g, "binary", ids, dist, sigma)


@pytest.mark.parametrize("mode", ["km", "time"])
def test_weighted_betweenness_matches_pair_dependency_oracle(geo200, mode):
    # on Floyd-Warshall distances, an arc u-v is tight from s when
    # d(s, u) + w = d(s, v) within TIE_RTOL; tight arcs form a DAG, as
    # weights are positive, so sigma(s, t) is the number of tight walks
    # from s to t, summed over the powers of its adjacency matrix
    _, g = geo200
    _, weight = WEIGHTS[mode]
    ids, dist = oracles.floyd_warshall(g, weight)
    n = len(ids)
    w = np.full((n, n), np.inf)
    for edge in g.edges:
        u, v = ids.index(edge.u), ids.index(edge.v)
        w[u, v] = w[v, u] = weight(edge)
    sigma = np.zeros((n, n))
    for s in range(n):
        tight = np.abs(dist[s, :, None] + w - dist[s, None, :]) <= TIE_RTOL * dist[s, None, :]
        walks = np.eye(n)[s]
        while walks.any():
            sigma[s] += walks
            walks = walks @ tight
    _assert_pair_dependency_betweenness(g, mode, ids, dist, sigma, TIE_RTOL)


def test_random_replicate_matches_the_plain_chain(geo200):
    # one swap per edge from seed 1: the same edges, counts and draws as the
    # plain randrange loop with a union-find per swap
    _, g = geo200
    rng, plain = random.Random(1), random.Random(1)
    rewirer, accepted, attempts, _ = null_models._randomize_replicate(g, rng, 1)
    expected = oracles.random_chain(g, plain, 1)
    assert (rewirer.ends, accepted, attempts) == expected
    assert rng.getstate() == plain.getstate()


def _improving_swaps(ends, n):
    """The improving ring-cost swaps of the integer edge list ``ends``, as
    (e1, e2, a, b, c, d) with e1 < e2, that keep the graph simple and
    connected: scored with numpy, then checked by union-find one by one,
    since the pure-Python ``oracles.improving_ring_swaps`` is slow here."""
    change, simple = oracles.ring_swap_changes(ends, n)
    for flipped, e1, e2 in np.argwhere((change < 0) & simple).tolist():
        if e1 < e2:
            (a, b), (c, d) = ends[e1], ends[e2]
            if flipped:
                c, d = d, c
            rest = [pair for k, pair in enumerate(ends) if k not in (e1, e2)]
            if oracles.is_connected(range(n), rest + [(a, d), (c, b)]):
                yield e1, e2, a, b, c, d


def test_converged_lattice_replicate_leaves_no_improving_swap(geo200):
    _, g = geo200
    ensemble = null_models.latticeize(g, seed=1, replicates=1)
    assert ensemble.stats.per_replicate[0].converged
    number = {node_id: i for i, node_id in enumerate(ensemble.node_order)}

    def ends(graph):
        return [(number[edge.u], number[edge.v]) for edge in graph.edges]

    assert next(_improving_swaps(ends(g), g.n), None) is not None  # the input has some
    assert list(_improving_swaps(ends(ensemble.replicates[0]), g.n)) == []


@pytest.mark.parametrize("command, flags, name, pin", BYTE_PINS,
                         ids=[command for command, *_ in BYTE_PINS])
def test_report_bytes_pinned(geo200, command, flags, name, pin):
    paths, _ = geo200
    report = dict(run(command, AnalysisConfig(paths["nodes.csv"], paths["edges.csv"], **flags))
                  .reports[name])
    del report["provenance"]
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pin


@pytest.mark.parametrize("epoch", [None, "2010"])
def test_forked_report_equals_serial_report(geo200, monkeypatch, epoch):
    _, g = geo200
    monkeypatch.setattr(shared, "can_fork", lambda: False)
    serial = measure_report(g, epoch)
    monkeypatch.setattr(shared, "can_fork", lambda: True)
    assert measure_report(g, epoch) == serial


def test_forked_ensembles_equal_serial_ensembles(geo200, monkeypatch):
    _, g = geo200
    for builder in (null_models.randomize, null_models.latticeize):
        monkeypatch.setattr(shared, "can_fork", lambda: False)
        serial = builder(g, seed=1, replicates=4)
        monkeypatch.setattr(shared, "can_fork", lambda: True)
        assert builder(g, seed=1, replicates=4) == serial
