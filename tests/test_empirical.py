import math
from fractions import Fraction

import numpy as np
import pytest

from spatialnet.empirical import (
    CONSTANT,
    EmptyClassError,
    RankDeficientError,
    TooFewRowsError,
    Variable,
    ZeroVarianceError,
    build_variable_table,
    ols_regress,
    pearson_matrix,
    regularized_incomplete_beta,
    select_representatives,
    student_t_two_tailed,
)

import fixtures
import oracles


def _table(columns, n=None):
    n = n or len(columns[0][2])
    ids = [f"r{i}" for i in range(n)]
    return build_variable_table(ids, [Variable(*c) for c in columns])


# --- Student-t numerics -------------------------------------------------------

@pytest.mark.parametrize("df", [5, 20, 37])
@pytest.mark.parametrize("t", [0.2, 0.8, 1.5, 2.3, 3.7, 6.0])
def test_t_two_tailed_matches_integration_oracle(df, t):
    ours = student_t_two_tailed(t, df)
    theirs = oracles.t_two_tailed_by_integration(t, df)
    assert ours == pytest.approx(theirs, abs=1e-6)


def test_t_edge_cases():
    assert student_t_two_tailed(0.0, 10) == 1.0
    assert student_t_two_tailed(math.inf, 10) == 0.0
    assert student_t_two_tailed(-2.0, 10) == student_t_two_tailed(2.0, 10)


def test_t_two_tailed_matches_closed_forms_for_small_t():
    # df 1 and 2 have closed forms; x = df / (df + t^2) rounds towards 1
    # for small |t|, so the tail must come from y = t^2 / (df + t^2)
    for k in range(-120, 31):
        t = 10.0 ** (k / 10)
        assert student_t_two_tailed(t, 1) == pytest.approx(
            1.0 - 2.0 / math.pi * math.atan(t), abs=1e-12)
        assert student_t_two_tailed(t, 2) == pytest.approx(
            1.0 - t / math.sqrt(2.0 + t * t), abs=1e-12)


@pytest.mark.parametrize("df, t", [(100, 8.0), (1000, 10.0), (1000, 30.0)])
def test_t_two_tailed_keeps_small_p_values_relatively_exact(df, t):
    # t^2 < df here, yet p is tiny: taken as 1 - I_y(1/2, df/2) it would
    # lose every digit below 1e-16
    assert student_t_two_tailed(t, df) == pytest.approx(
        oracles.t_two_tailed_by_integration(t, df), rel=1e-9, abs=0.0)


def test_incomplete_beta_basics():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1, 1) = x
    assert regularized_incomplete_beta(1.0, 1.0, 0.42) == pytest.approx(0.42, abs=1e-12)
    # symmetry: I_x(a, b) = 1 - I_{1-x}(b, a)
    val = regularized_incomplete_beta(3.5, 0.5, 0.3)
    assert val == pytest.approx(1.0 - regularized_incomplete_beta(0.5, 3.5, 0.7), abs=1e-12)


# --- Pearson matrix -----------------------------------------------------------

def _binomial_tail(a: int, b: int, x: float) -> float:
    """I_x(a, b) for integers a, b >= 1: the chance of at least a successes
    in a + b - 1 trials of probability x, summed in exact rationals."""
    trials, p = a + b - 1, Fraction(x)
    return float(sum(math.comb(trials, j) * p ** j * (1 - p) ** (trials - j)
                     for j in range(a, trials + 1)))


@pytest.mark.parametrize("a", [1, 2, 3, 5, 8, 13, 21, 30])
@pytest.mark.parametrize("b", [1, 2, 3, 5, 8, 13, 21, 30])
def test_incomplete_beta_matches_binomial_sum(a, b):
    # x on both sides of (a + 1) / (a + b + 2), where the continued fraction
    # switches to the I_x(a, b) = 1 - I_(1-x)(b, a) form
    pivot = (a + 1.0) / (a + b + 2.0)
    for x in (0.01 * pivot, 0.5 * pivot, 0.97 * pivot, pivot,
              pivot + 0.03 * (1.0 - pivot), pivot + 0.5 * (1.0 - pivot), 1.0 - 0.01 * (1.0 - pivot)):
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(_binomial_tail(a, b, x), abs=1e-12)


def test_pearson_self_and_antilinear():
    table = _table([
        ("x", "S", (1.0, 2.0, 3.0)),
        ("y", "B", (3.0, 2.0, 1.0)),
        ("z", "O", (1.0, 3.0, 2.0)),
        ("resp", "Y", (2.0, 4.0, 9.0)),
    ])
    matrix = pearson_matrix(table)
    x, y = matrix.names.index("x"), matrix.names.index("y")
    assert matrix.r[x, x] == pytest.approx(1.0)
    assert matrix.p[x, x] == 0.0
    assert matrix.r[x, y] == pytest.approx(-1.0)
    assert matrix.p[x, y] == 0.0  # |r| = 1 convention


def test_pearson_hand_example():
    table = _table([
        ("x", "S", (1.0, 2.0, 3.0, 4.0, 5.0)),
        ("y", "B", (2.0, 1.0, 4.0, 3.0, 5.0)),
        ("w", "O", (5.0, 1.0, 4.0, 2.0, 3.0)),
        ("resp", "Y", (1.0, 2.0, 2.0, 4.0, 3.0)),
    ])
    matrix = pearson_matrix(table)
    x, y = matrix.names.index("x"), matrix.names.index("y")
    assert matrix.r[x, y] == pytest.approx(0.8, abs=1e-12)
    assert matrix.p[x, y] == pytest.approx(0.104, abs=5e-4)
    assert matrix.p[x, y] == pytest.approx(
        oracles.pearson_p(0.8, 5), abs=1e-9)


def test_pearson_symmetry_and_diagonal():
    table = fixtures.planted_selection_table()
    matrix = pearson_matrix(table)
    assert np.allclose(matrix.r, matrix.r.T)
    assert np.allclose(np.diag(matrix.r), 1.0)
    assert np.allclose(matrix.p, matrix.p.T)


def test_zero_variance_named():
    table = _table([
        ("flat", "S", (2.0, 2.0, 2.0)),
        ("x", "B", (1.0, 2.0, 3.0)),
        ("z", "O", (1.0, 3.0, 2.0)),
        ("resp", "Y", (2.0, 4.0, 9.0)),
    ])
    with pytest.raises(ZeroVarianceError, match="flat"):
        pearson_matrix(table)


# --- representative selection --------------------------------------------------

def test_singleton_classes_are_their_own_representatives():
    rng = np.random.default_rng(0)
    table = _table([
        ("s_only", "S", tuple(rng.normal(0, 1, 12))),
        ("b_only", "B", tuple(rng.normal(0, 1, 12))),
        ("o_only", "O", tuple(rng.normal(0, 1, 12))),
        ("resp", "Y", tuple(rng.normal(0, 1, 12))),
    ])
    report = select_representatives(table)
    assert report.representatives == {"S": "s_only", "B": "b_only", "O": "o_only"}


def test_duplicate_dominates_uncorrelated():
    # dup_core tracks the factor tightly, dup_a/dup_b only loosely, so
    # dup_core holds the largest gated r-squared mass in its class
    rng = np.random.default_rng(1)
    base = rng.normal(0, 1, 30)
    table = _table([
        ("dup_core", "S", tuple(base + rng.normal(0, 0.05, 30))),
        ("dup_a", "S", tuple(base + rng.normal(0, 0.8, 30))),
        ("dup_b", "S", tuple(base + rng.normal(0, 0.8, 30))),
        ("loner", "S", tuple(rng.normal(0, 1, 30))),
        ("b_var", "B", tuple(rng.normal(0, 1, 30))),
        ("o_var", "O", tuple(rng.normal(0, 1, 30))),
        ("resp", "Y", tuple(rng.normal(0, 1, 30))),
    ])
    report = select_representatives(table)
    assert report.representatives["S"] == "dup_core"


def test_selection_matches_bruteforce_oracle():
    table = fixtures.planted_selection_table(seed=77)
    alpha = 0.10
    report = select_representatives(table, alpha=alpha)

    columns = {v.name: np.asarray(v.values) for v in table.variables}
    klass = {v.name: v.klass for v in table.variables}
    names = list(columns)
    n = table.n

    def gated(a, b):
        r = oracles.pearson_r(columns[a], columns[b])
        p = oracles.pearson_p(r, n)
        return r * r if p <= alpha else 0.0

    for score in report.scores:
        same_class = [m for m in names if klass[m] == klass[score.name] and m != score.name]
        expected_within = sum(gated(score.name, m) for m in same_class)
        expected_global = sum(gated(score.name, m) for m in names if m != score.name)
        assert score.within_sum == pytest.approx(expected_within, abs=1e-9)
        assert score.global_sum == pytest.approx(expected_global, abs=1e-9)

    for cls in ("S", "B", "O"):
        members = [m for m in names if klass[m] == cls]
        sums = {m: sum(gated(m, o) for o in members if o != m) for m in members}
        top = max(sums.values())
        # the documented tie rule: lexicographically first among the argmax
        assert report.representatives[cls] == min(m for m in members if sums[m] == top)

    [y_score] = [score for score in report.scores if score.name == "Y_flow"]
    assert y_score.is_response
    assert y_score.within_sum == 0.0  # no same-class peers
    assert "Y_flow" not in report.representatives.values()


def test_selection_invariant_under_affine_rescale():
    table = fixtures.planted_selection_table(seed=42)
    report_a = select_representatives(table)
    rescaled = build_variable_table(
        table.ids,
        [
            Variable(v.name, v.klass, tuple(3.7 * x + 11.0 for x in v.values))
            if v.name == "S_alpha" else v
            for v in table.variables
        ],
    )
    report_b = select_representatives(rescaled)
    assert report_a.representatives == report_b.representatives
    for a, b in zip(report_a.scores, report_b.scores):
        assert a.within_rank == b.within_rank
        assert a.global_rank == b.global_rank
        assert a.within_sum == pytest.approx(b.within_sum, abs=1e-9)


def test_empty_class_rejected():
    rng = np.random.default_rng(2)
    table = _table([
        ("s1", "S", tuple(rng.normal(0, 1, 10))),
        ("b1", "B", tuple(rng.normal(0, 1, 10))),
        ("resp", "Y", tuple(rng.normal(0, 1, 10))),
    ])
    with pytest.raises(EmptyClassError, match="O"):
        select_representatives(table)


def test_ranks_are_dense_and_one_based():
    table = fixtures.planted_selection_table(seed=5)
    report = select_representatives(table)
    global_ranks = sorted(s.global_rank for s in report.scores)
    assert global_ranks[0] == 1
    assert set(global_ranks) == set(range(1, max(global_ranks) + 1))


# --- regression ---------------------------------------------------------------

def test_exact_line_recovered():
    x = tuple(float(v) for v in range(1, 9))
    y = tuple(2.0 * v + 3.0 for v in x)
    table = _table([
        ("x", "S", x),
        ("b", "B", tuple(float(i % 3) for i in range(8))),
        ("o", "O", tuple(float((i * 5) % 7) for i in range(8))),
        ("resp", "Y", y),
    ])
    model = ols_regress(table, ["x"])
    assert model.coefficients["x"].b == pytest.approx(2.0, abs=1e-9)
    assert model.coefficients[CONSTANT].b == pytest.approx(3.0, abs=1e-9)
    assert model.r_squared == pytest.approx(1.0, abs=1e-12)
    assert model.se_estimate == pytest.approx(0.0, abs=1e-9)
    assert math.isinf(model.coefficients["x"].t)  # infinite-significance sentinel
    assert model.coefficients["x"].p == 0.0


def test_beta_recovery_on_planted_table():
    table = fixtures.exact_beta_table(seed=11)
    model = ols_regress(table, ["S6_population", "B6_cars", "O2_education"])
    betas = [model.coefficients[name].beta for name in model.predictors]
    for beta, target in zip(betas, (0.6, 0.3, 0.1)):
        assert beta == pytest.approx(target, abs=0.05)
    assert model.r_squared > 0.99
    assert betas[0] > betas[1] > betas[2]


def test_coefficients_match_normal_equations_oracle():
    table = fixtures.exact_beta_table(seed=23)
    predictors = ["S6_population", "B6_cars", "O2_education"]
    model = ols_regress(table, predictors)
    x = np.column_stack(
        [np.ones(table.n)] + [np.asarray(table.column(p).values) for p in predictors]
    )
    y = np.asarray(table.response.values)
    oracle = np.linalg.solve(x.T @ x, x.T @ y)
    assert list(model.coefficients) == [CONSTANT, *predictors]
    for row, expected in zip(model.coefficients.values(), oracle):
        assert row.b == pytest.approx(expected, abs=1e-8)


def test_residual_orthogonality():
    table = fixtures.exact_beta_table(seed=31)
    predictors = ["S6_population", "B6_cars", "O2_education"]
    model = ols_regress(table, predictors)
    x = np.column_stack([table.column(p).values for p in predictors])
    fitted = model.coefficients[CONSTANT].b + x @ np.asarray(
        [model.coefficients[p].b for p in predictors])
    resid = np.asarray(table.response.values) - fitted
    scale = float(np.abs(np.asarray(table.response.values)).mean())
    assert abs(resid.sum()) / scale < 1e-8
    for p in predictors:
        col = np.asarray(table.column(p).values)
        assert abs(float(resid @ (col - col.mean()))) / (scale * np.abs(col).sum()) < 1e-8


def test_standardization_identity():
    table = fixtures.exact_beta_table(seed=7)
    predictors = ["S6_population", "B6_cars", "O2_education"]
    model = ols_regress(table, predictors)
    y_sd = float(np.std(table.response.values, ddof=1))
    assert model.coefficients[CONSTANT].beta is None
    for p in predictors:
        x_sd = float(np.std(table.column(p).values, ddof=1))
        row = model.coefficients[p]
        assert row.beta == pytest.approx(row.b * x_sd / y_sd, rel=1e-12)


def test_rank_deficiency_detected():
    x = tuple(float(v) for v in range(10))
    table = _table([
        ("x1", "S", x),
        ("x2", "B", tuple(2.0 * v for v in x)),  # perfectly collinear
        ("o", "O", tuple(float((i * 3) % 5) for i in range(10))),
        ("resp", "Y", tuple(v + 1.0 for v in x)),
    ])
    with pytest.raises(RankDeficientError):
        ols_regress(table, ["x1", "x2"])


def test_too_few_rows_rejected():
    table = _table([
        ("x1", "S", (1.0, 2.0, 3.0)),
        ("x2", "B", (4.0, 1.0, 2.0)),
        ("x3", "O", (2.0, 5.0, 1.0)),
        ("resp", "Y", (1.0, 2.0, 4.0)),
    ])
    with pytest.raises(TooFewRowsError):
        ols_regress(table, ["x1", "x2", "x3"])


def test_constant_response_gives_zero_r_squared():
    table = _table([
        ("x", "S", (1.0, 2.0, 3.0, 4.0, 5.0)),
        ("b", "B", (2.0, 1.0, 3.0, 5.0, 4.0)),
        ("o", "O", (1.0, 1.0, 2.0, 2.0, 3.0)),
        ("resp", "Y", (7.0, 7.0, 7.0, 7.0, 7.0)),
    ])
    model = ols_regress(table, ["x"])
    assert model.coefficients["x"].b == pytest.approx(0.0, abs=1e-12)
    assert model.r_squared == 0.0


def test_table_validation():
    with pytest.raises(ValueError, match="response"):
        build_variable_table(["a", "b"], [Variable("x", "S", (1.0, 2.0))])
    with pytest.raises(ValueError, match="duplicate"):
        build_variable_table(
            ["a", "b"],
            [Variable("x", "S", (1.0, 2.0)), Variable("x", "B", (1.0, 2.0)),
             Variable("y", "Y", (1.0, 2.0))],
        )
