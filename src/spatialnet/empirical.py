"""Correlation-driven variable selection and multivariate regression.

The pipeline mirrors a three-step procedure for modeling commuter
counts from node variables:

1. Variables come pre-grouped into structural (S), functional (B), and
   ontological (O) classes; exactly one column, the commuter count Y, is
   the response.
2. For every variable, sum the squared Pearson correlations with the
   other variables, keeping only pairs whose two-tailed significance
   passes the alpha gate (default 0.10). Sums are computed within the
   variable's class and globally across all columns including Y. The
   within-class argmax per class is that class's representative; Y is
   exempt from being chosen.
3. Fit ordinary least squares of Y on a representative set, reporting
   unstandardized and standardized coefficients, standard errors, t
   statistics, and two-tailed p values.

Student-t tail probabilities come from the regularized incomplete beta
function (continued fractions), not a stats package. The tests hold them
within 1e-12 of the closed forms for df 1 and 2, and 1e-9 relative for tiny p.

Only ``null_models`` imports numpy at module level. Here
``pearson_matrix`` and ``ols_regress`` import it themselves, so reading a
variables file (``io`` imports this module) does not load numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Optional, Sequence

from .exceptions import ComputeError

if TYPE_CHECKING:
    import numpy as np

PREDICTOR_CLASSES = ("S", "B", "O")
RESPONSE_CLASS = "Y"
DEFAULT_ALPHA = 0.10


class ZeroVarianceError(ComputeError):
    pass


class EmptyClassError(ComputeError):
    pass


class RankDeficientError(ComputeError):
    pass


class TooFewRowsError(ComputeError):
    pass


class MissingValueError(ComputeError):
    pass


# ---------------------------------------------------------------------------
# Student-t numerics
# ---------------------------------------------------------------------------

def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 500):
        m2 = 2 * m
        # the even then the odd coefficient, one Lentz step each
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-14:
            return h
    raise ComputeError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def student_t_two_tailed(t: float, df: int) -> float:
    """P(|T| >= |t|) for a Student-t variable with df degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    t2 = t * t
    y = t2 / (df + t2)  # 1 - y = df / (df + t^2) would round to 1 for small |t|
    if y < 1.5 / (df / 2.0 + 2.5):  # where I_y(1/2, df/2) takes its direct fraction
        return 1.0 - regularized_incomplete_beta(0.5, df / 2.0, y)
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t2))  # the tail itself


# ---------------------------------------------------------------------------
# Variable table
# ---------------------------------------------------------------------------

class Variable(NamedTuple):
    """One named column: class "S"/"B"/"O" for predictors, "Y" response."""

    name: str
    klass: str
    values: tuple[float, ...]

    @property
    def is_response(self) -> bool:
        return self.klass == RESPONSE_CLASS


class VariableTable(NamedTuple):
    ids: tuple[str, ...]
    variables: tuple[Variable, ...]

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def response(self) -> Variable:
        return next(v for v in self.variables if v.is_response)

    def predictors(self) -> tuple[Variable, ...]:
        return tuple(v for v in self.variables if not v.is_response)

    def column(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(f"no variable named {name!r}")

    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)


def build_variable_table(ids: Sequence[str], variables: Iterable[Variable]) -> VariableTable:
    """Validate and freeze a variable table.

    Checks: unique names, one response, known classes, value vectors
    matching the id count, and no missing (non-finite) entries.
    """
    id_list = tuple(ids)
    var_list = tuple(variables)
    seen: set[str] = set()
    responses = 0
    for v in var_list:
        if v.name in seen:
            raise ValueError(f"duplicate variable name {v.name!r}")
        seen.add(v.name)
        if v.klass not in PREDICTOR_CLASSES + (RESPONSE_CLASS,):
            raise ValueError(f"variable {v.name!r} has unknown class {v.klass!r}")
        if v.is_response:
            responses += 1
        if len(v.values) != len(id_list):
            raise ValueError(
                f"variable {v.name!r} has {len(v.values)} values for {len(id_list)} rows"
            )
        bad = [i for i, value in enumerate(v.values) if not math.isfinite(value)]
        if bad:
            raise MissingValueError(
                f"variable {v.name!r} has missing values at rows {[id_list[i] for i in bad]}"
            )
    if responses != 1:
        raise ValueError(f"expected exactly one response variable, found {responses}")
    return VariableTable(id_list, var_list)


# ---------------------------------------------------------------------------
# Pearson correlation matrix
# ---------------------------------------------------------------------------

class PearsonMatrix(NamedTuple):
    names: tuple[str, ...]
    r: np.ndarray
    p: np.ndarray


def pearson_matrix(table: VariableTable) -> PearsonMatrix:
    """All-pairs Pearson r with two-tailed significance.

    p values come from t = r * sqrt((n - 2) / (1 - r^2)) with n - 2
    degrees of freedom; |r| = 1 maps to p = 0.
    """
    import numpy as np

    names = table.names()
    data = np.array([table.column(name).values for name in names], dtype=float)
    n = table.n
    if n < 3:
        raise TooFewRowsError(f"need at least 3 rows for correlation tests, got {n}")
    stds = data.std(axis=1)
    for name, sd in zip(names, stds):
        if sd == 0.0:
            raise ZeroVarianceError(f"variable {name!r} has zero variance")
    r = np.corrcoef(data)
    r = np.clip(r, -1.0, 1.0)
    p = np.zeros_like(r)
    count = len(names)
    for i in range(count):
        for j in range(i + 1, count):
            rij = r[i, j]
            if abs(rij) >= 1.0:
                pij = 0.0
            else:
                t = rij * math.sqrt((n - 2) / (1.0 - rij * rij))
                pij = student_t_two_tailed(t, n - 2)
            p[i, j] = p[j, i] = pij
    return PearsonMatrix(names, r, p)


# ---------------------------------------------------------------------------
# Representative selection
# ---------------------------------------------------------------------------

class VariableScore(NamedTuple):
    name: str
    klass: str
    within_sum: float
    within_rank: int
    global_sum: float
    global_rank: int
    is_response: bool


class SelectionReport(NamedTuple):
    alpha: float
    scores: tuple[VariableScore, ...]
    representatives: Mapping[str, str]  # class -> variable name


def _dense_ranks(names: Sequence[str], sums: Mapping[str, float]) -> dict[str, int]:
    """1-based dense ranking, descending by sum; tied sums share a rank."""
    distinct = sorted({sums[name] for name in names}, reverse=True)
    rank_of_value = {value: i + 1 for i, value in enumerate(distinct)}
    return {name: rank_of_value[sums[name]] for name in names}


def select_representatives(table: VariableTable, alpha: float = DEFAULT_ALPHA) -> SelectionReport:
    """Pick each class's representative by gated squared-correlation mass.

    A pair contributes r^2 only when its significance passes the alpha
    gate. Within-class sums run over same-class predictors; global sums
    run over every other column, response included. The response has no
    peers in its class, reports a zero within-class sum, and can never
    be a representative.
    """
    matrix = pearson_matrix(table)
    names = matrix.names
    by_class: dict[str, list[str]] = {}
    for v in table.variables:
        by_class.setdefault(v.klass, []).append(v.name)
    for klass in PREDICTOR_CLASSES:
        if not by_class.get(klass):
            raise EmptyClassError(f"class {klass!r} has no variables")

    idx = {name: i for i, name in enumerate(names)}
    klass_of = {v.name: v.klass for v in table.variables}

    def gated_sum(name: str, others: Iterable[str]) -> float:
        i = idx[name]
        total = 0.0
        for other in others:
            if other == name:
                continue
            j = idx[other]
            if matrix.p[i, j] <= alpha:
                total += float(matrix.r[i, j]) ** 2
        return total

    within_sums = {
        name: gated_sum(name, by_class[klass_of[name]]) for name in names
    }
    global_sums = {name: gated_sum(name, names) for name in names}

    global_ranks = _dense_ranks(names, global_sums)
    within_ranks: dict[str, int] = {}
    for klass, members in by_class.items():
        within_ranks.update(_dense_ranks(members, within_sums))

    representatives: dict[str, str] = {}
    for klass in PREDICTOR_CLASSES:
        members = by_class[klass]  # the response is class Y, never one of these
        top = max(within_sums[name] for name in members)
        # tie on sum -> lexicographic, for determinism
        representatives[klass] = sorted(name for name in members if within_sums[name] == top)[0]

    scores = tuple(
        VariableScore(
            name=name,
            klass=klass_of[name],
            within_sum=within_sums[name],
            within_rank=within_ranks[name],
            global_sum=global_sums[name],
            global_rank=global_ranks[name],
            is_response=klass_of[name] == RESPONSE_CLASS,
        )
        for name in names
    )
    return SelectionReport(alpha=alpha, scores=scores, representatives=representatives)


# ---------------------------------------------------------------------------
# Ordinary least squares
# ---------------------------------------------------------------------------

CONSTANT = "(constant)"  # name of the intercept's coefficient row


class Coefficient(NamedTuple):
    """One coefficient row: estimate, its standard error, the standardized
    coefficient (None for the intercept), t statistic and two-tailed p."""

    b: float
    se: float
    beta: Optional[float]
    t: float
    p: float


class RegressionModel(NamedTuple):
    predictors: tuple[str, ...]
    coefficients: Mapping[str, Coefficient]  # CONSTANT first, then the predictors in order
    r: float
    r_squared: float
    se_estimate: float
    n: int
    df_resid: int


def _t_and_p(b: float, se: float, df: int) -> tuple[float, float]:
    if se == 0.0:
        if b == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, b), 0.0  # infinite-significance sentinel
    t = b / se
    return t, student_t_two_tailed(t, df)


def ols_regress(table: VariableTable, predictors: Sequence[str]) -> RegressionModel:
    """Least squares of the response on the named predictor columns."""
    import numpy as np

    names = tuple(predictors)
    if not names:
        raise ValueError("need at least one predictor")
    y = np.asarray(table.response.values, dtype=float)
    columns = []
    for name in names:
        column = table.column(name)
        if column.is_response:
            raise ValueError(f"{name!r} is the response; it cannot be a predictor")
        columns.append(np.asarray(column.values, dtype=float))
    n = table.n
    q = len(names)
    df = n - q - 1
    if df < 1:
        raise TooFewRowsError(f"n = {n} rows cannot support {q} predictors plus an intercept")

    x = np.column_stack([np.ones(n)] + columns)
    if np.linalg.matrix_rank(x) < q + 1:
        raise RankDeficientError(f"design matrix for {names} is rank deficient")

    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    fitted = x @ coef
    resid = y - fitted
    sse = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))
    # an exact fit leaves only rounding residue; snap it to zero so the
    # infinite-significance sentinel path engages
    if sse <= 1e-14 * max(sst, 1e-300):
        sse = 0.0
    sigma2 = sse / df
    cov = sigma2 * np.linalg.inv(x.T @ x)
    se_all = np.sqrt(np.maximum(np.diag(cov), 0.0))

    sd_y = float(y.std(ddof=1))
    coefficients = {}
    for j, name in enumerate((CONSTANT,) + names):
        b, se = float(coef[j]), float(se_all[j])
        beta = None
        if j:
            beta = b * float(columns[j - 1].std(ddof=1)) / sd_y if sd_y > 0 else 0.0
        coefficients[name] = Coefficient(b, se, beta, *_t_and_p(b, se, df))
    r_squared = 1.0 - sse / sst if sst > 0 else 0.0

    return RegressionModel(
        predictors=names,
        coefficients=coefficients,
        r=math.sqrt(max(r_squared, 0.0)),
        r_squared=r_squared,
        se_estimate=math.sqrt(sigma2),
        n=n,
        df_resid=df,
    )
