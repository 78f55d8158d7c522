import math
import os

import pytest

from spatialnet.null_models import latticeize, randomize
from spatialnet.small_world import (
    ZeroClusteringError,
    classify,
    omega,
    omega_from_stats,
)

import fixtures


def test_reference_omega_value():
    result = omega_from_stats(4.580, 0.422, 2.889, 0.312)
    assert result.omega == pytest.approx(-0.7218, abs=5e-4)
    assert result.classification == "lattice-like"
    assert result.in_range


def test_omega_zero_is_small_world():
    result = omega_from_stats(3.0, 0.4, 3.0, 0.4)
    assert result.omega == 0.0
    assert result.classification == "small-world"


def test_vanishing_clustering_is_random_like():
    result = omega_from_stats(3.0, 1e-9, 3.0, 0.5)
    assert result.omega == pytest.approx(1.0, abs=1e-6)
    assert result.classification == "random-like"


def test_zero_lattice_clustering_rejected():
    with pytest.raises(ZeroClusteringError):
        omega_from_stats(3.0, 0.4, 3.0, 0.0)


def test_antisymmetry_of_ratio_terms():
    # omega = x - y with x = l_rand/l and y = c/c_latt; swapping the two
    # ratio terms negates the index
    a = omega_from_stats(4.0, 0.3, 2.0, 0.6)
    x, y = 2.0 / 4.0, 0.3 / 0.6
    assert a.omega == pytest.approx(x - y)
    b = omega_from_stats(1.0, y, x, 1.0)  # ratios swapped: x' = y, y' = x
    assert b.omega == pytest.approx(y - x)
    assert b.omega == pytest.approx(-a.omega)


def test_recompute_from_stored_inputs():
    result = omega_from_stats(4.580, 0.422, 2.889, 0.312)
    again = result.l_rand / result.l_emp - result.c_emp / result.c_latt
    assert abs(again - result.omega) < 1e-12


def test_out_of_range_flagged_not_clamped():
    result = omega_from_stats(10.0, 0.01, 25.0, 0.9)
    assert result.omega > 1.0
    assert not result.in_range


def test_classification_thresholds():
    assert classify(-0.31) == "lattice-like"
    assert classify(-0.29) == "small-world"
    assert classify(0.29) == "small-world"
    assert classify(0.31) == "random-like"
    assert classify(0.4, threshold=0.5) == "small-world"


def test_omega_on_near_lattice_graph_is_negative():
    g = fixtures.ws_graph(39, 4, 0.05, seed=11)
    rand = randomize(g, seed=5, swaps_per_edge=5, replicates=6)
    latt = latticeize(g, seed=5, swaps_per_edge=5, replicates=6)
    result = omega(g, rand, latt)
    assert result.omega < 0
    assert len(result.per_replicate_omegas) == 6
    assert all(math.isfinite(v) for v in result.per_replicate_omegas)


def test_omega_rejects_mismatched_ensembles():
    g = fixtures.ws_graph(20, 4, 0.1, seed=3)
    rand = randomize(g, seed=5, swaps_per_edge=3, replicates=2)
    latt = latticeize(g, seed=5, swaps_per_edge=3, replicates=2)
    with pytest.raises(ValueError):
        omega(g, latt, rand)
    other = fixtures.ws_graph(24, 4, 0.1, seed=4)
    other_rand = randomize(other, seed=5, swaps_per_edge=3, replicates=2)
    with pytest.raises(ValueError):
        omega(g, other_rand, latt)


def test_measure_report_holds_omega_empirical_inputs():
    # what lets `all` hand the report's values to omega in place of its own
    from spatialnet.measures import measure_report

    g = fixtures.synthetic_network()
    report = measure_report(g)
    rand = randomize(g, seed=3, swaps_per_edge=1, replicates=2)
    latt = latticeize(g, seed=3, swaps_per_edge=1, replicates=2)
    own = omega(g, rand, latt)
    assert (report.global_measures.avg_path_length_binary,
            report.global_measures.clustering_average) == (own.l_emp, own.c_emp)
    assert omega(g, rand, latt, l_emp=own.l_emp, c_emp=own.c_emp) == own


def _bfs_and_hop_calls(tmp_path, monkeypatch, fork):
    """BFS and hop-kernel calls made by ``all`` with 2 replicates per
    ensemble, by this process and its forked children together, and the
    number of forks."""
    from pathlib import Path

    from spatialnet import graph, measures, null_models, shared
    from spatialnet.cli import main

    data = Path(__file__).parent / "data"
    forks = []
    fork_ = os.fork
    bfs, hops = graph._bfs, measures.hop_distances
    monkeypatch.setattr(shared, "can_fork", lambda: fork)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork_())
    with (fixtures.PidLog(tmp_path / "bfs") as bfs_calls,
          fixtures.PidLog(tmp_path / "hops") as hop_calls):
        monkeypatch.setattr(graph, "_bfs", lambda *args: bfs_calls.write(1) or bfs(*args))
        for module in (measures, null_models):
            monkeypatch.setattr(module, "hop_distances",
                                lambda *args: hop_calls.write(1) or hops(*args))
        assert main(["all", "--nodes", str(data / "nodes.csv"), "--edges", str(data / "edges.csv"),
                     "--vars", str(data / "variables.csv"), "--epoch", "2010", "--seed", "1",
                     "--replicates", "2", "--out", str(tmp_path / "out")]) == 0
    return len(bfs_calls.read()), len(hop_calls.read()), len(forks)


def test_all_reads_omega_path_length_off_the_measure_report(tmp_path, monkeypatch):
    # 40 BFS: 39 for the report's Brandes pass and one for the input's
    # component count (replicates are assembled connected, without one),
    # and one hop-kernel call per replicate graph (2 random + 2 lattice);
    # omega runs no pass of its own
    assert _bfs_and_hop_calls(tmp_path, monkeypatch, fork=False) == (40, 4, 0)


def test_forked_ensembles_measure_each_replicate_once(tmp_path, monkeypatch):
    # the same run with the report and both ensembles shared with one forked
    # child: both processes together make the serial run's calls
    assert _bfs_and_hop_calls(tmp_path, monkeypatch, fork=True) == (40, 4, 1)
