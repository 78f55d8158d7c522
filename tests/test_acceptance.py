"""Acceptance suite: ten numbered criteria, one test and one printed
PASS/FAIL line each (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 1 contains a sub-check that is arithmetically unsatisfiable:
the published nonplanar-density figure 0.097 cannot be produced from
n = 39, m = 71 under rho = 2m/(n(n-1)) = 0.09582, which misses the
stated +/-0.001 window by 0.0012. The check is asserted as stated and is
expected to fail; every other criterion passes.
"""

import json
import math
import random
import time
from pathlib import Path

import numpy as np

from spatialnet.cli import main
from spatialnet.communities import modularity
from spatialnet.empirical import CONSTANT, ols_regress, select_representatives
from spatialnet.fitting import fit_log_decay, fit_normal, fit_powerlaw
from spatialnet.measures import (
    betweenness,
    closeness,
    clustering,
    degree_and_strength,
    density,
    path_length_and_diameter,
)
from spatialnet.null_models import latticeize, randomize, ring_index_cost
from spatialnet.small_world import omega, omega_from_stats

import fixtures
import oracles

DATA = Path(__file__).parent / "data"


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:02d} [{status}] {description}{detail}")
    assert ok, f"criterion {num} failed: {description}{detail}"


def test_criterion_01_closed_form_density_checks():
    g = fixtures.synthetic_network()
    assert (g.n, g.m) == (39, 71)
    avg_k = degree_and_strength(g).average_degree
    rho_np = density(g, "nonplanar")
    rho_p = density(g, "planar")
    ok_k = abs(avg_k - 3.641) <= 1e-3
    ok_np = abs(rho_np - 0.097) <= 1e-3
    ok_p = abs(rho_p - 0.640) <= 1e-3
    detail = (
        f": <k>={avg_k:.4f} ({'ok' if ok_k else 'off'}), "
        f"planar={rho_p:.4f} ({'ok' if ok_p else 'off'}), "
        f"nonplanar={rho_np:.5f} vs 0.097±0.001 ({'ok' if ok_np else 'off by %.5f' % abs(rho_np - 0.097)})"
    )
    _report(1, "closed-form checks from (n=39, m=71)", ok_k and ok_np and ok_p, detail)


def test_criterion_02_omega_arithmetic():
    result = omega_from_stats(4.580, 0.422, 2.889, 0.312)
    ok = abs(result.omega - (-0.7218)) <= 5e-4 and result.classification == "lattice-like"
    _report(2, "omega from reference statistics",
            ok, f": omega={result.omega:.5f}, class={result.classification}")


def test_criterion_03_oracle_equivalence_suite():
    started = time.monotonic()
    rng = random.Random(314)
    checked = 0
    max_cb = 0.0  # guard against a degenerate all-zero sweep
    for seed in range(200):
        g = fixtures.random_connected_graph(seed + 1000)
        cc = closeness(g)
        cc_oracle = oracles.oracle_closeness(g)
        cb = betweenness(g)
        cb_oracle = oracles.oracle_betweenness(g)
        cl = clustering(g).per_node
        cl_oracle = oracles.oracle_clustering(g)
        for node_id in g.node_ids:
            assert abs(cc[node_id] - cc_oracle[node_id]) <= 1e-9
            assert abs(cb[node_id] - cb_oracle[node_id]) <= 1e-9
            assert abs(cl[node_id] - cl_oracle[node_id]) <= 1e-9
            max_cb = max(max_cb, cb[node_id])
        stats = path_length_and_diameter(g)
        avg_oracle, diam_oracle = oracles.oracle_path_stats(g)
        assert abs(stats.average - avg_oracle) <= 1e-9
        assert stats.diameter == diam_oracle  # integer count: exact
        assignment = {node_id: rng.randrange(3) for node_id in g.node_ids}
        assert abs(
            modularity(g, assignment) - oracles.oracle_modularity(g, assignment)
        ) <= 1e-9
        checked += 1
    elapsed = time.monotonic() - started
    ok = checked == 200 and elapsed < 10.0 and max_cb > 0.0
    _report(3, "oracle equivalence on 200 random graphs (n <= 8)",
            ok, f": {checked} graphs in {elapsed:.2f}s, max CB seen {max_cb:.3f}")


def test_criterion_04_null_model_invariants():
    violations = []
    for fixture_seed in range(10):
        g = fixtures.clustered_fixture(seed=fixture_seed)
        order = list(g.node_ids)
        base_degrees = sorted(g.degree(v) for v in g.node_ids)
        base_cost = ring_index_cost(g, order)
        base_clustering = clustering(g).average
        rand = randomize(g, seed=fixture_seed + 100, swaps_per_edge=3, replicates=20)
        latt = latticeize(g, seed=fixture_seed + 100, swaps_per_edge=3, replicates=20)
        for ensemble in (rand, latt):
            for replicate in ensemble.replicates:
                if sorted(replicate.degree(v) for v in replicate.node_ids) != base_degrees:
                    violations.append(f"degrees@{fixture_seed}")
                if not replicate.is_connected:
                    violations.append(f"connectivity@{fixture_seed}")
        for replicate in latt.replicates:
            if ring_index_cost(replicate, order) > base_cost:
                violations.append(f"cost@{fixture_seed}")
        if rand.stats.mean_clustering > base_clustering:
            violations.append(f"clustering@{fixture_seed}")
    ok = not violations
    _report(4, "null-model invariants over 20 replicates x 10 fixtures",
            ok, f": violations={violations or 'none'}")


def test_criterion_05_small_world_direction():
    levels = [0.05, 0.1, 0.2, 0.5, 1.0]
    omegas = []
    for p in levels:
        g = fixtures.ws_graph(39, 4, p, seed=11)
        rand = randomize(g, seed=5, swaps_per_edge=4, replicates=6)
        latt = latticeize(g, seed=5, swaps_per_edge=4, replicates=6)
        omegas.append(omega(g, rand, latt).omega)
    rho = oracles.spearman(levels, omegas)
    ok = omegas[0] < 0 and rho > 0.9
    _report(5, "omega sign and monotonicity on rewired ring fixtures",
            ok, f": omegas={['%.3f' % w for w in omegas]}, spearman={rho:.3f}")


def test_criterion_06_peaked_histogram_prefers_normal():
    lam, scale = 3.5, 39
    points = []
    for k in range(1, 10):
        count = round(scale * math.exp(-lam) * lam ** k / math.factorial(k))
        if count > 0:
            points.append((float(k), float(count)))
    normal = fit_normal(points)
    powerlaw = fit_powerlaw(points)
    gap = normal.r_squared - powerlaw.r_squared
    ok = gap >= 0.3
    _report(6, "normal fit beats power law on a peaked histogram",
            ok, f": R2_normal={normal.r_squared:.3f}, R2_powerlaw={powerlaw.r_squared:.3f}")


def test_criterion_07_scaling_fit_recovery():
    exact_cb = fit_powerlaw([(float(k), float(k * k)) for k in range(1, 8)])
    exact_s = fit_powerlaw([(float(k), 100.0 * k) for k in range(1, 8)])
    exact_c = fit_log_decay([(float(k), 0.9 - 0.2 * math.log(k)) for k in range(1, 8)])
    noiseless_ok = (
        abs(exact_cb.params["beta"] - 2.0) <= 1e-6 and abs(exact_cb.r_squared - 1.0) <= 1e-9
        and abs(exact_s.params["beta"] - 1.0) <= 1e-6 and abs(exact_s.r_squared - 1.0) <= 1e-9
        and abs(exact_c.params["a"] - 0.9) <= 1e-6 and abs(exact_c.params["b"] - 0.2) <= 1e-6
    )
    worst = 0.0
    for seed in range(20):
        gen = np.random.default_rng(seed)
        noisy_cb = fit_powerlaw([
            (float(k), float(k * k) * (1.0 + 0.05 * gen.standard_normal()))
            for k in range(1, 11)
        ])
        noisy_s = fit_powerlaw([
            (float(k), 100.0 * k * (1.0 + 0.05 * gen.standard_normal()))
            for k in range(1, 11)
        ])
        worst = max(worst, abs(noisy_cb.params["beta"] - 2.0),
                    abs(noisy_s.params["beta"] - 1.0))
    ok = noiseless_ok and worst <= 0.1
    _report(7, "scaling-fit recovery, noiseless and 5% noise over 20 seeds",
            ok, f": worst exponent deviation {worst:.4f}")


def test_criterion_08_regression_recovery():
    table = fixtures.exact_beta_table(seed=11)
    predictors = ["S6_population", "B6_cars", "O2_education"]
    model = ols_regress(table, predictors)
    betas = [model.coefficients[name].beta for name in predictors]
    beta_ok = all(
        abs(beta - target) <= 0.05
        for beta, target in zip(betas, (0.6, 0.3, 0.1))
    )
    x = np.column_stack(
        [np.ones(table.n)] + [np.asarray(table.column(p).values) for p in predictors]
    )
    y = np.asarray(table.response.values)
    oracle = np.linalg.solve(x.T @ x, x.T @ y)
    oracle_ok = abs(model.coefficients[CONSTANT].b - oracle[0]) <= 1e-8 and all(
        abs(model.coefficients[name].b - e) <= 1e-8 for name, e in zip(predictors, oracle[1:])
    )
    ok = beta_ok and model.r_squared > 0.99 and oracle_ok
    _report(8, "standardized-beta recovery and normal-equations agreement",
            ok, f": betas={['%.4f' % b for b in betas]}, R2={model.r_squared:.4f}")


def test_criterion_09_selection_matches_bruteforce():
    table = fixtures.planted_selection_table(seed=77)
    alpha = 0.10
    report = select_representatives(table, alpha=alpha)
    columns = {v.name: np.asarray(v.values) for v in table.variables}
    klass = {v.name: v.klass for v in table.variables}
    names = list(columns)
    n = table.n

    def gated(a, b):
        r = oracles.pearson_r(columns[a], columns[b])
        return r * r if oracles.pearson_p(r, n) <= alpha else 0.0

    mismatches = []
    for score in report.scores:
        within = sum(gated(score.name, m) for m in names
                     if klass[m] == klass[score.name] and m != score.name)
        overall = sum(gated(score.name, m) for m in names if m != score.name)
        if abs(score.within_sum - within) > 1e-9 or abs(score.global_sum - overall) > 1e-9:
            mismatches.append(score.name)
    for cls in ("S", "B", "O"):
        members = [m for m in names if klass[m] == cls]
        sums = {m: sum(gated(m, o) for o in members if o != m) for m in members}
        top = max(sums.values())
        expected = min(m for m in members if sums[m] == top)
        if report.representatives[cls] != expected:
            mismatches.append(f"rep:{cls}")
    if "Y_flow" in report.representatives.values():
        mismatches.append("response chosen")
    ok = not mismatches
    _report(9, "significance-gated selection matches brute force",
            ok, f": mismatches={mismatches or 'none'}")


def test_criterion_10_determinism(tmp_path):
    args = ["all",
            "--nodes", str(DATA / "nodes.csv"),
            "--edges", str(DATA / "edges.csv"),
            "--vars", str(DATA / "variables.csv"),
            "--seed", "99", "--swaps-per-edge", "3", "--replicates", "5"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    mismatched = []
    for path in sorted((tmp_path / "one").rglob("*")):
        if path.is_dir():
            continue
        rel = path.relative_to(tmp_path / "one")
        twin = tmp_path / "two" / rel
        if path.suffix == ".json":
            a = json.loads(path.read_text(encoding="utf-8"))
            b = json.loads(twin.read_text(encoding="utf-8"))
            a["provenance"].pop("generated_at")
            b["provenance"].pop("generated_at")
            same = json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        else:
            same = path.read_bytes() == twin.read_bytes()
        if not same:
            mismatched.append(str(rel))
    ok = not mismatched
    _report(10, "repeated `run all` identical modulo timestamp",
            ok, f": mismatched={mismatched or 'none'}")
