"""Distribution and scaling fits.

Three curve families cover the degree-distribution and degree-scaling
analyses:

* powerlaw   y = a * k**beta        (linear least squares on ln k, ln y)
* normal     y = a * exp(-(k - mu)**2 / (2 sigma**2))
* log_decay  y = a - b * ln k

The normal fit solves the log-space quadratic exactly (ln y is quadratic
in k for a Gaussian), then refits the amplitude on the original scale;
noiseless Gaussian inputs are recovered exactly without an iterative
optimizer. When the log-space quadratic is not concave (the data has no
peak) the fit falls back to y-weighted moment estimates.

Every FitResult reports R-squared on the original (k, y) scale:
1 - SS_res / SS_tot. That value can go negative for a hopeless family,
which is exactly what makes the normal-vs-powerlaw comparison on peaked
data meaningful.

Under ``all``, ``measure_values`` reads a scaling measure's per-node values
off the command's ``MeasureReport`` (the ``SCALING_FIELDS`` field), and under
``fit`` computes them from the graph. Each measure's class table is built once.

Only ``null_models`` imports numpy at module level. Here the functions
that compute with it import it themselves, so importing this module
(as ``cli`` does for every command) does not load numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional

from .exceptions import ComputeError
from .graph import SpatialGraph
from . import measures as _measures

if TYPE_CHECKING:
    import numpy as np

SCALING_FIELDS = {"betweenness": "betweenness", "strength": "strength_km", "clustering": "clustering"}
SCALING_MEASURES = tuple(SCALING_FIELDS)


class InsufficientPointsError(ComputeError):
    pass


class NonPositiveValuesError(ComputeError):
    pass


class InsufficientClassesError(ComputeError):
    pass


class FitResult(NamedTuple):
    family: str
    params: Mapping[str, float]
    r_squared: float
    points_used: int


def predict(fit: FitResult, x: float) -> float:
    """Evaluate a fitted curve at x."""
    p = fit.params
    if fit.family == "powerlaw":
        return p["a"] * x ** p["beta"]
    if fit.family == "normal":
        return p["a"] * math.exp(-((x - p["mu"]) ** 2) / (2.0 * p["sigma"] ** 2))
    if fit.family == "log_decay":
        return p["a"] - p["b"] * math.log(x)
    raise ValueError(f"unknown family {fit.family!r}")


def _as_arrays(points: Iterable[tuple[float, float]], family: str) -> tuple[np.ndarray, np.ndarray]:
    """The x and y arrays of a ``family`` fit, which needs >= 3 points."""
    import numpy as np

    pts = list(points)
    if len(pts) < 3:
        raise InsufficientPointsError(f"{family} fit needs >= 3 points, got {len(pts)}")
    x, y = zip(*pts)
    return np.asarray(x, dtype=float), np.asarray(y, dtype=float)


def _r_squared(y: np.ndarray, fitted: np.ndarray) -> float:
    import numpy as np

    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def degree_histogram(g: SpatialGraph) -> list[tuple[int, int]]:
    """(degree, node count) pairs, ascending, zero counts omitted."""
    counts: dict[int, int] = {}
    for nbrs in g.adj_index:
        counts[len(nbrs)] = counts.get(len(nbrs), 0) + 1
    return sorted(counts.items())


def fit_powerlaw(points: Iterable[tuple[float, float]]) -> FitResult:
    """Least-squares fit of y = a * k**beta on log-log axes."""
    import numpy as np

    x, y = _as_arrays(points, "power-law")
    if np.any(x <= 0) or np.any(y <= 0):
        raise NonPositiveValuesError("power-law fit requires k > 0 and y > 0 for the log transform")
    coeffs = np.polyfit(np.log(x), np.log(y), 1)
    beta, ln_a = float(coeffs[0]), float(coeffs[1])
    a = math.exp(ln_a)
    fitted = a * x ** beta
    return FitResult("powerlaw", {"a": a, "beta": beta}, _r_squared(y, fitted), len(x))


def fit_normal(points: Iterable[tuple[float, float]]) -> FitResult:
    """Fit y = a * exp(-(k - mu)^2 / (2 sigma^2)) in closed form."""
    import numpy as np

    x, y = _as_arrays(points, "normal")
    if np.any(y <= 0):
        raise NonPositiveValuesError("normal fit requires y > 0")
    c2, c1, _c0 = np.polyfit(x, np.log(y), 2)
    if c2 < 0:
        sigma = math.sqrt(-1.0 / (2.0 * c2))
        mu = float(-c1 / (2.0 * c2))
    else:
        # no peak in log space; fall back to y-weighted moments
        weights = y / y.sum()
        mu = float(np.sum(weights * x))
        var = float(np.sum(weights * (x - mu) ** 2))
        if var <= 0:
            raise InsufficientPointsError("degenerate support: all mass at a single k")
        sigma = math.sqrt(var)
    shape = np.exp(-((x - mu) ** 2) / (2.0 * sigma ** 2))
    a = float(np.dot(y, shape) / np.dot(shape, shape))
    fitted = a * shape
    return FitResult(
        "normal", {"a": a, "mu": mu, "sigma": sigma}, _r_squared(y, fitted), len(x)
    )


def fit_log_decay(points: Iterable[tuple[float, float]]) -> FitResult:
    """Least-squares fit of y = a - b * ln k."""
    import numpy as np

    x, y = _as_arrays(points, "log-decay")
    if np.any(x <= 0):
        raise NonPositiveValuesError("log-decay fit requires k > 0")
    coeffs = np.polyfit(np.log(x), y, 1)
    slope, a = float(coeffs[0]), float(coeffs[1])
    fitted = a + slope * np.log(x)
    return FitResult("log_decay", {"a": a, "b": -slope}, _r_squared(y, fitted), len(x))


def measure_values(g: SpatialGraph, measure: str,
                   report: Optional[_measures.MeasureReport] = None) -> Mapping[str, float]:
    """Per-node values of one scaling measure: read off ``report`` when
    there is one (under ``all``), else computed from the graph (``fit``)."""
    if measure not in SCALING_FIELDS:
        raise ValueError(f"unknown measure {measure!r}; expected one of {SCALING_MEASURES}")
    if report is not None:
        return {node: getattr(nm, SCALING_FIELDS[measure]) for node, nm in report.per_node.items()}
    if measure == "betweenness":
        return _measures.betweenness(g)
    if measure == "strength":
        return _measures.degree_and_strength(g).strength_km
    return _measures.clustering(g).per_node


def degree_class_means(
    g: SpatialGraph,
    measure: str,
    values: Optional[Mapping[str, float]] = None,
) -> list[tuple[int, float, int]]:
    """Average a per-node measure within each degree class.

    Returns (degree, class mean, class size) sorted by degree. ``values``
    overrides the per-node measure; when omitted it is computed from the
    graph. Class sizes sum to the number of nodes carrying the measure.
    """
    if measure not in SCALING_MEASURES:
        raise ValueError(f"unknown measure {measure!r}; expected one of {SCALING_MEASURES}")
    if values is None:
        values = measure_values(g, measure)
    grouped: dict[int, list[float]] = {}
    for node, nbrs in zip(g.nodes, g.adj_index):
        if node.id in values:
            grouped.setdefault(len(nbrs), []).append(values[node.id])
    return [
        (k, math.fsum(vals) / len(vals), len(vals))
        for k, vals in sorted(grouped.items())
    ]


def scaling_by_degree_class(
    g: SpatialGraph,
    measure: str,
    classes: Optional[list[tuple[int, float, int]]] = None,
) -> FitResult:
    """Fit a measure's degree-class table (``degree_class_means``, built
    from the graph when ``classes`` is omitted). Betweenness and strength
    get a power-law fit; classes whose mean is not positive (or with k = 0)
    are excluded since they cannot enter the log transform. Clustering gets
    the log-decay fit with zero means retained.
    """
    if classes is None:
        classes = degree_class_means(g, measure)
    if measure == "clustering":
        usable = [(k, mean) for k, mean, _count in classes if k > 0]
        fitter = fit_log_decay
    else:
        usable = [(k, mean) for k, mean, _count in classes if k > 0 and mean > 0]
        fitter = fit_powerlaw
    if len(usable) < 3:
        raise InsufficientClassesError(
            f"{measure}: only {len(usable)} usable degree classes, need >= 3"
        )
    return fitter(usable)
