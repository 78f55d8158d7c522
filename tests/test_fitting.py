import math
import random

import numpy as np
import pytest

from spatialnet.fitting import (
    InsufficientClassesError,
    InsufficientPointsError,
    NonPositiveValuesError,
    SCALING_MEASURES,
    degree_class_means,
    degree_histogram,
    fit_log_decay,
    fit_normal,
    fit_powerlaw,
    measure_values,
    scaling_by_degree_class,
)
from spatialnet.measures import measure_report

import fixtures


# --- histogram --------------------------------------------------------------

def test_histogram_star_and_cycle():
    assert degree_histogram(fixtures.star_graph(4)) == [(1, 4), (4, 1)]
    assert degree_histogram(fixtures.cycle_graph(5)) == [(2, 5)]


def test_histogram_synthetic_support():
    hist = degree_histogram(fixtures.synthetic_network())
    degrees = [k for k, _count in hist]
    assert min(degrees) >= 1
    assert max(degrees) <= 7
    assert sum(count for _k, count in hist) == 39


# --- exact recovery ---------------------------------------------------------

def test_powerlaw_exact_recovery():
    points = [(k, 5.0 * k ** -2) for k in range(1, 7)]
    fit = fit_powerlaw(points)
    assert fit.params["beta"] == pytest.approx(-2.0, abs=1e-9)
    assert fit.params["a"] == pytest.approx(5.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_normal_exact_recovery():
    points = [(k, 10.0 * math.exp(-((k - 3.0) ** 2) / 2.0)) for k in range(1, 7)]
    fit = fit_normal(points)
    assert fit.params["mu"] == pytest.approx(3.0, abs=1e-6)
    assert fit.params["sigma"] == pytest.approx(1.0, abs=1e-6)
    assert fit.params["a"] == pytest.approx(10.0, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_normal_without_a_peak_in_log_space_uses_weighted_moments():
    # ln y is convex on these points, so the quadratic in log space has no peak
    points = [(1, 40), (2, 10), (3, 5), (4, 4)]
    fit = fit_normal(points)
    total = math.fsum(y for _, y in points)
    mu = math.fsum(k * y for k, y in points) / total
    sigma = math.sqrt(math.fsum(y * (k - mu) ** 2 for k, y in points) / total)
    shape = [math.exp(-((k - mu) ** 2) / (2 * sigma ** 2)) for k, _ in points]
    a = math.fsum(y * s for (_, y), s in zip(points, shape)) / math.fsum(s * s for s in shape)
    assert mu == 91 / 59
    assert fit.params == pytest.approx({"a": a, "mu": mu, "sigma": sigma}, rel=1e-12)


def test_log_decay_exact_recovery():
    points = [(k, 0.9 - 0.2 * math.log(k)) for k in range(1, 8)]
    fit = fit_log_decay(points)
    assert fit.params["a"] == pytest.approx(0.9, abs=1e-6)
    assert fit.params["b"] == pytest.approx(0.2, abs=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


# --- validation -------------------------------------------------------------

def test_too_few_points_rejected():
    with pytest.raises(InsufficientPointsError):
        fit_powerlaw([(1, 1.0), (2, 0.5)])
    with pytest.raises(InsufficientPointsError):
        fit_normal([(1, 1.0), (2, 2.0)])


def test_nonpositive_values_rejected():
    with pytest.raises(NonPositiveValuesError):
        fit_powerlaw([(1, 1.0), (2, -0.5), (3, 0.2)])
    with pytest.raises(NonPositiveValuesError):
        fit_powerlaw([(0, 1.0), (2, 0.5), (3, 0.2)])


# --- normal vs powerlaw on peaked data ---------------------------------------

def test_peaked_histogram_prefers_normal():
    # Poisson-like counts at 39-node scale
    lam, scale = 3.5, 39
    points = []
    for k in range(1, 10):
        pmf = math.exp(-lam) * lam ** k / math.factorial(k)
        count = round(scale * pmf)
        if count > 0:
            points.append((float(k), float(count)))
    normal = fit_normal(points)
    powerlaw = fit_powerlaw(points)
    assert normal.r_squared > powerlaw.r_squared + 0.3


# --- invariances ------------------------------------------------------------

def test_r_squared_invariant_under_point_relabeling():
    points = [(k, 3.0 * k ** 1.5 + (0.1 * k) % 0.7) for k in range(1, 9)]
    shuffled = list(points)
    random.Random(3).shuffle(shuffled)
    assert fit_powerlaw(points).r_squared == pytest.approx(
        fit_powerlaw(shuffled).r_squared, abs=1e-12)


def test_powerlaw_beta_invariant_under_y_rescaling():
    points = [(k, 2.0 * k ** 1.3 * (1 + 0.05 * ((k * 7) % 3))) for k in range(1, 9)]
    scaled = [(k, 10.0 * y) for k, y in points]
    fit_a = fit_powerlaw(points)
    fit_b = fit_powerlaw(scaled)
    assert fit_b.params["beta"] == pytest.approx(fit_a.params["beta"], abs=1e-12)
    assert fit_b.params["a"] == pytest.approx(10.0 * fit_a.params["a"], rel=1e-9)


# --- degree-class scaling ----------------------------------------------------

def _varied_degree_graph():
    # degrees 1..4 present: a small tree plus chords
    return fixtures.graph_from_edges(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
         ("b", "f"), ("c", "f"), ("c", "g"), ("b", "g")]
    )


def test_scaling_betweenness_constructed_square_law():
    g = _varied_degree_graph()
    degrees = {node_id: g.degree(node_id) for node_id in g.node_ids}
    values = {node_id: float(k * k) for node_id, k in degrees.items()}
    fit = scaling_by_degree_class(g, "betweenness", degree_class_means(g, "betweenness", values))
    assert fit.family == "powerlaw"
    assert fit.params["beta"] == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_scaling_strength_constructed_linear_law():
    g = _varied_degree_graph()
    degrees = {node_id: g.degree(node_id) for node_id in g.node_ids}
    values = {node_id: 100.0 * k for node_id, k in degrees.items()}
    fit = scaling_by_degree_class(g, "strength", degree_class_means(g, "strength", values))
    assert fit.params["beta"] == pytest.approx(1.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-9)


def test_scaling_clustering_constructed_log_decay():
    g = _varied_degree_graph()
    degrees = {node_id: g.degree(node_id) for node_id in g.node_ids}
    values = {node_id: 0.9 - 0.2 * math.log(k) for node_id, k in degrees.items()}
    fit = scaling_by_degree_class(g, "clustering", degree_class_means(g, "clustering", values))
    assert fit.family == "log_decay"
    assert fit.params["a"] == pytest.approx(0.9, abs=1e-6)
    assert fit.params["b"] == pytest.approx(0.2, abs=1e-6)


def test_class_sizes_account_for_all_nodes():
    g = fixtures.synthetic_network()
    classes = degree_class_means(g, "strength")
    assert sum(size for _k, _mean, size in classes) == g.n


def test_measure_values_read_off_the_report_equal_those_computed():
    # all reads the values off its measure report, fit computes them; the
    # two must be the same floats for fits.json to be the same
    g = fixtures.synthetic_network()
    report = measure_report(g)
    for measure in SCALING_MEASURES:
        assert measure_values(g, measure, report) == dict(measure_values(g, measure))


def test_scaling_requires_three_usable_classes():
    g = fixtures.cycle_graph(6)  # single degree class
    with pytest.raises(InsufficientClassesError):
        scaling_by_degree_class(g, "strength")


def test_scaling_on_synthetic_network_runs():
    g = fixtures.synthetic_network()
    for measure in ("betweenness", "strength", "clustering"):
        fit = scaling_by_degree_class(g, measure)
        assert fit.points_used >= 3


def test_noisy_powerlaw_recovery_within_tolerance():
    # 5% multiplicative noise: exponent still recovered within +/- 0.1
    for seed in range(20):
        rng = np.random.default_rng(seed)
        points = [
            (float(k), 4.0 * k ** 2 * (1.0 + 0.05 * rng.standard_normal()))
            for k in range(1, 11)
        ]
        fit = fit_powerlaw(points)
        assert abs(fit.params["beta"] - 2.0) <= 0.1

