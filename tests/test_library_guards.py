"""Guards that only library callers meet: the CLI rejects each of these
inputs earlier, or never builds it, so no command test reaches them."""

import pytest

from spatialnet import empirical, fitting, measures, small_world
from spatialnet.empirical import Variable, build_variable_table
from spatialnet.exceptions import ComputeError
from spatialnet.fitting import FitResult, NonPositiveValuesError
from spatialnet.null_models import randomize

import fixtures

IDS = ("r0", "r1", "r2")


def _table():
    return build_variable_table(IDS, [Variable("y", "Y", (1.0, 2.0, 4.0)),
                                      Variable("s", "S", (3.0, 1.0, 2.0))])


GUARDS = {
    "costs, unknown mode": (
        lambda: fixtures.synthetic_network().costs("walk"), ValueError,
        "unknown mode 'walk'; expected one of ('binary', 'km', 'time')"),
    "density, unknown planarity": (
        lambda: measures.density(fixtures.cycle_graph(4), "spherical"), ValueError,
        "unknown planarity 'spherical'; expected 'planar' or 'nonplanar'"),
    "omega_from_stats, l_emp = 0": (
        lambda: small_world.omega_from_stats(0.0, 0.5, 2.0, 0.5), ComputeError,
        "empirical path length must be positive, got 0.0"),
    "randomize, no replicate": (
        lambda: randomize(fixtures.cycle_graph(5), seed=1, replicates=0), ValueError,
        "replicate count must be >= 1"),
    "incomplete beta, x > 1": (
        lambda: empirical.regularized_incomplete_beta(1.0, 1.0, 1.5), ValueError,
        "x must be in [0, 1], got 1.5"),
    "incomplete beta, x < 0": (
        lambda: empirical.regularized_incomplete_beta(1.0, 1.0, -0.25), ValueError,
        "x must be in [0, 1], got -0.25"),
    "incomplete beta, no convergence": (
        lambda: empirical.regularized_incomplete_beta(1e6, 1e6, 0.5), ComputeError,
        "incomplete beta did not converge for a=1000000.0, b=1000000.0, x=0.5"),
    "student t, df = 0": (
        lambda: empirical.student_t_two_tailed(1.0, 0), ValueError,
        "degrees of freedom must be >= 1, got 0"),
    "column, unknown name": (
        lambda: _table().column("z"), KeyError, "no variable named 'z'"),
    "variable table, unknown class": (
        lambda: build_variable_table(IDS, [Variable("q", "Q", (1.0, 2.0, 3.0))]), ValueError,
        "variable 'q' has unknown class 'Q'"),
    "variable table, short column": (
        lambda: build_variable_table(IDS, [Variable("y", "Y", (1.0, 2.0))]), ValueError,
        "variable 'y' has 2 values for 3 rows"),
    "ols, no predictor": (
        lambda: empirical.ols_regress(_table(), []), ValueError,
        "need at least one predictor"),
    "ols, response as predictor": (
        lambda: empirical.ols_regress(_table(), ["s", "y"]), ValueError,
        "'y' is the response; it cannot be a predictor"),
    "predict, unknown family": (
        lambda: fitting.predict(FitResult("cubic", {}, 1.0, 3), 2.0), ValueError,
        "unknown family 'cubic'"),
    "measure values, unknown measure": (
        lambda: fitting.measure_values(fixtures.cycle_graph(4), "closeness"), ValueError,
        "unknown measure 'closeness'; expected one of ('betweenness', 'strength', "
        "'clustering')"),
    "degree class means, unknown measure": (
        lambda: fitting.degree_class_means(fixtures.cycle_graph(4), "closeness"), ValueError,
        "unknown measure 'closeness'; expected one of ('betweenness', 'strength', "
        "'clustering')"),
    "normal fit, y = 0": (
        lambda: fitting.fit_normal([(1.0, 2.0), (2.0, 0.0), (3.0, 1.0)]),
        NonPositiveValuesError, "normal fit requires y > 0"),
    "log-decay fit, k = 0": (
        lambda: fitting.fit_log_decay([(0.0, 2.0), (1.0, 1.5), (2.0, 1.0)]),
        NonPositiveValuesError, "log-decay fit requires k > 0"),
}


@pytest.mark.parametrize("case", list(GUARDS))
def test_library_guard_raises_its_error_and_message(case):
    call, error, message = GUARDS[case]
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert info.value.args == (message,)
