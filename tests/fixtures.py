"""Seeded graph and table generators, the property tests' Hypothesis
settings, a log of what each of two processes did, and a check that
forked work leaves nothing behind, shared by the test modules."""

from __future__ import annotations

import importlib.util
import math
import os
import random
import signal
from contextlib import contextmanager
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, settings

from spatialnet import EdgeRecord, NodeRecord, build_graph
from spatialnet.empirical import Variable, build_variable_table
from spatialnet.io import ingest
from spatialnet.measures import haversine_km

GEN_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "gen_inputs.py"

# no shrink phase: a failing example is reported as found, since shrinking
# one that re-runs a whole kernel per step took minutes to report it
SETTINGS = settings(max_examples=25, derandomize=True, deadline=None,
                    phases=[Phase.explicit, Phase.reuse, Phase.generate])


def graph_from_edges(edge_list, km=None, coords=None):
    """Unit-km graph from (u, v) pairs; km/coords override per node pair."""
    ids = sorted({u for u, v in edge_list} | {v for u, v in edge_list})
    nodes = []
    for node_id in ids:
        if coords and node_id in coords:
            lat, lon = coords[node_id]
            nodes.append(NodeRecord(node_id, node_id, lat, lon))
        else:
            nodes.append(NodeRecord(node_id, node_id))
    edges = [
        EdgeRecord(u, v, km[(u, v)] if km else 1.0)
        for u, v in edge_list
    ]
    return build_graph(nodes, edges)


def geo_inputs(directory, n, seed):
    """``perfbench/gen_inputs.geo_graph(n, seed)``, the benchmark's own
    input generator loaded read-only from its file, written to CSVs in
    ``directory`` and ingested: (paths by file name, graph)."""
    spec = importlib.util.spec_from_file_location("perfbench_gen_inputs", GEN_INPUTS)
    gen_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_inputs)
    paths = gen_inputs.write_inputs(directory, gen_inputs.geo_graph(n, seed))
    graph, _ = ingest(paths["nodes.csv"], paths["edges.csv"])
    return paths, graph


def path_graph(labels="abc"):
    return graph_from_edges([(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])


def cycle_graph(n):
    ids = [f"c{i}" for i in range(n)]
    return graph_from_edges([(ids[i], ids[(i + 1) % n]) for i in range(n)])


def star_graph(leaves=4):
    return graph_from_edges([("hub", f"leaf{i}") for i in range(leaves)])


def complete_graph(n):
    ids = [f"k{i}" for i in range(n)]
    return graph_from_edges(list(combinations(ids, 2)))


def ring_lattice(n, k):
    """Ring where every node links to its k nearest neighbors (k even)."""
    ids = [f"n{i:02d}" for i in range(n)]
    edges = set()
    for i in range(n):
        for j in range(1, k // 2 + 1):
            edges.add(tuple(sorted((ids[i], ids[(i + j) % n]))))
    return graph_from_edges(sorted(edges))


def ws_graph(n, k, p, seed):
    """Watts-Strogatz-style rewired ring; retries until connected."""
    ids = [f"n{i:02d}" for i in range(n)]
    base = set()
    for i in range(n):
        for j in range(1, k // 2 + 1):
            base.add(tuple(sorted((ids[i], ids[(i + j) % n]))))
    for attempt in range(100):
        rng = random.Random(seed * 1009 + attempt)
        present = {frozenset(e) for e in base}
        out = []
        for u, v in sorted(base):
            if rng.random() < p:
                candidates = [w for w in ids if w != u and frozenset((u, w)) not in present]
                if candidates:
                    w = rng.choice(candidates)
                    present.discard(frozenset((u, v)))
                    present.add(frozenset((u, w)))
                    out.append((u, w))
                    continue
            out.append((u, v))
        g = graph_from_edges(out)
        if g.is_connected:
            return g
    raise RuntimeError(f"no connected ws graph for n={n}, k={k}, p={p}, seed={seed}")


def er_gnm(n, m, seed, connected=False):
    """Uniform random graph with exactly m edges."""
    ids = [f"e{i:02d}" for i in range(n)]
    pairs = list(combinations(ids, 2))
    for attempt in range(200):
        rng = random.Random(seed * 1009 + attempt)
        chosen = rng.sample(pairs, m)
        g = graph_from_edges(chosen)
        if not connected or g.is_connected:
            return g
    raise RuntimeError(f"no connected G(n={n}, m={m}) for seed={seed}")


def random_connected_graph(seed, n_max=8):
    """Small connected graph for oracle sweeps: n in [3, n_max]."""
    rng = random.Random(seed)
    n = rng.randint(3, n_max)
    p = rng.uniform(0.3, 0.8)
    ids = [f"v{i}" for i in range(n)]
    for attempt in range(200):
        edges = [(u, v) for u, v in combinations(ids, 2) if rng.random() < p]
        if not edges:
            continue
        g = graph_from_edges(edges)
        if g.is_connected:
            return g
    # fall back to a path, which is always connected
    return graph_from_edges([(ids[i], ids[i + 1]) for i in range(n - 1)])


def clustered_fixture(seed, n=16):
    """Small-world-ish graph with high clustering, for null-model checks."""
    return ws_graph(n, 4, 0.1, seed)


# ---------------------------------------------------------------------------
# Synthetic 39-node spatial network and variable tables
# ---------------------------------------------------------------------------

def synthetic_network(seed=2024):
    """39 nodes, 71 edges: jittered grid, MST plus shortest infill links.

    Kilometric weights are haversine distances stretched by a detour
    factor > 1, so straightness stays in (0, 1]. Two time epochs mimic a
    slow historical network and a faster modern one.
    """
    return synthetic_network_with_population(seed)[0]


def synthetic_network_with_population(seed=2024):
    """``synthetic_network`` and each node's population (id -> float),
    which is drawn between the node and edge draws."""
    rng = random.Random(seed)
    ids = [f"R{i:02d}" for i in range(1, 40)]
    coords = {}
    i = 0
    for row in range(7):
        for col in range(6):
            if i >= 39:
                break
            lat = 36.8 + row * 0.55 + rng.uniform(-0.13, 0.13)
            lon = 21.2 + col * 0.62 + rng.uniform(-0.16, 0.16)
            coords[ids[i]] = (round(lat, 5), round(lon, 5))
            i += 1

    def straight(u, v):
        return haversine_km(*coords[u], *coords[v])

    pairs = sorted(combinations(ids, 2), key=lambda p: (straight(*p), p))
    parent = {node_id: node_id for node_id in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v))
        if len(chosen) == 38:
            break
    in_tree = {frozenset(e) for e in chosen}
    for u, v in pairs:
        if len(chosen) == 71:
            break
        if frozenset((u, v)) not in in_tree:
            chosen.append((u, v))
            in_tree.add(frozenset((u, v)))

    nodes = []
    population = {}
    for node_id in ids:
        lat, lon = coords[node_id]
        population[node_id] = float(round(math.exp(rng.gauss(10.6, 0.7))))
        nodes.append(NodeRecord(node_id, f"Region {node_id[1:]}", lat, lon))
    edges = []
    for u, v in chosen:
        km = round(straight(u, v) * rng.uniform(1.12, 1.38), 3)
        slow = round(km / 65.0 * 60.0 * rng.uniform(1.0, 1.18), 2)
        fast = round(km / 92.0 * 60.0 * rng.uniform(1.0, 1.10), 2)
        edges.append(EdgeRecord(u, v, km, {"1988": slow, "2010": fast}))
    return build_graph(nodes, edges), population


def sample_variable_table(g, population, seed=2024):
    """Variable table for the synthetic network: 10 predictors plus Y."""
    rng = np.random.default_rng(seed)
    ids = list(g.node_ids)
    n = len(ids)
    degree = np.array([g.degree(i) for i in ids], dtype=float)
    population = np.array([population[i] for i in ids])
    log_pop = np.log(population)

    def z(x):
        return (x - x.mean()) / x.std(ddof=1)

    closeness_proxy = z(degree) * -0.7 + rng.normal(0, 0.5, n)
    cars = population * rng.uniform(0.28, 0.36, n)
    buses = population * rng.uniform(0.001, 0.003, n) + rng.normal(0, 5, n)
    bus_freq = 20 + 6 * z(log_pop) + rng.normal(0, 3, n)
    education = 60 + 8 * z(log_pop) + rng.normal(0, 4, n)
    gdp = population * rng.uniform(9, 13, n)
    labor_share = 0.55 + 0.04 * z(log_pop) + rng.normal(0, 0.02, n)
    min_km = 30 + 20 * rng.random(n)

    y = (
        0.55 * z(population)
        + 0.3 * z(cars)
        + 0.1 * z(education)
        + rng.normal(0, 0.12, n)
    )
    commuters = np.round(4000 + 2500 * y).clip(min=200)

    def col(values):
        return tuple(float(x) for x in values)

    columns = [
        Variable("S1_road_degree", "S", col(degree)),
        Variable("S4_closeness", "S", col(np.round(closeness_proxy, 6))),
        Variable("S6_population", "S", col(population)),
        Variable("S8_min_distance_km", "S", col(np.round(min_km, 3))),
        Variable("B2_bus_frequency", "B", col(np.round(bus_freq, 3))),
        Variable("B6_cars", "B", col(np.round(cars, 1))),
        Variable("B7_buses", "B", col(np.round(buses, 2))),
        Variable("O1_labor_share", "O", col(np.round(labor_share, 5))),
        Variable("O2_education", "O", col(np.round(education, 3))),
        Variable("O3_gdp", "O", col(np.round(gdp, 0))),
        Variable("commuters", "Y", col(commuters)),
    ]
    return build_variable_table(ids, columns)


def planted_selection_table(seed=77, n=39):
    """12 columns (11 predictors + Y) with planted correlation blocks.

    Within S, the first variable nearly duplicates two others so its
    gated r-squared mass dominates; B contains a strong Y correlate; O
    mixes moderate and null correlations.
    """
    rng = np.random.default_rng(seed)
    f1 = rng.normal(0, 1, n)
    f2 = rng.normal(0, 1, n)
    f3 = rng.normal(0, 1, n)

    s1 = f1 + rng.normal(0, 0.2, n)
    s2 = f1 + rng.normal(0, 0.3, n)
    s3 = f1 + rng.normal(0, 0.4, n)
    s4 = rng.normal(0, 1, n)
    b1 = f2 + rng.normal(0, 0.25, n)
    b2 = f2 + rng.normal(0, 0.5, n)
    b3 = rng.normal(0, 1, n)
    b4 = 0.5 * f1 + 0.5 * f2 + rng.normal(0, 0.5, n)
    o1 = f3 + rng.normal(0, 0.3, n)
    o2 = f3 + rng.normal(0, 0.6, n)
    o3 = rng.normal(0, 1, n)
    y = 0.8 * f2 + 0.3 * f1 + rng.normal(0, 0.3, n)

    ids = [f"R{i:02d}" for i in range(1, n + 1)]
    columns = [
        Variable("S_alpha", "S", tuple(s1)),
        Variable("S_beta", "S", tuple(s2)),
        Variable("S_gamma", "S", tuple(s3)),
        Variable("S_noise", "S", tuple(s4)),
        Variable("B_alpha", "B", tuple(b1)),
        Variable("B_beta", "B", tuple(b2)),
        Variable("B_noise", "B", tuple(b3)),
        Variable("B_mixed", "B", tuple(b4)),
        Variable("O_alpha", "O", tuple(o1)),
        Variable("O_beta", "O", tuple(o2)),
        Variable("O_noise", "O", tuple(o3)),
        Variable("Y_flow", "Y", tuple(y)),
    ]
    return build_variable_table(ids, columns)


def exact_beta_table(seed=11, n=39, betas=(0.6, 0.3, 0.1), rho=0.99, noise_frac=0.05):
    """Regression fixture whose standardized coefficients are exact.

    Three predictors with an exact sample correlation matrix (uniform
    off-diagonal rho, mirroring the heavy collinearity of population-
    scale variables), response built from the standardized columns with
    the requested coefficients, and noise drawn orthogonal to the design
    so the planted values are exact in-sample.
    """
    rng = np.random.default_rng(seed)
    raw = rng.normal(0, 1, (n, 3))
    raw -= raw.mean(axis=0)
    q, _ = np.linalg.qr(raw)
    q = q[:, :3]
    corr = np.full((3, 3), rho)
    np.fill_diagonal(corr, 1.0)
    chol = np.linalg.cholesky(corr)
    x = math.sqrt(n - 1) * q @ chol.T  # columns: mean 0, sd(ddof=1) 1, corr exactly rho

    beta = np.asarray(betas)
    yhat = x @ beta
    var_yhat = float(yhat @ yhat) / (n - 1)
    # solve sigma = noise_frac * sd(Y) with var(Y) = var_yhat + sigma^2
    var_y = var_yhat / (1.0 - noise_frac**2)
    sigma = noise_frac * math.sqrt(var_y)
    e = rng.normal(0, 1, n)
    e -= e.mean()
    e -= q @ (q.T @ e)  # exactly orthogonal to all predictors
    e *= sigma * math.sqrt(n - 1) / np.linalg.norm(e)
    y = yhat + e

    ids = [f"R{i:02d}" for i in range(1, n + 1)]
    # modest units (tens of thousands etc.) keep the design well
    # conditioned; standardized coefficients are scale-free anyway
    pop = 8.0 + 2.5 * x[:, 0]
    cars = 3.0 + 0.9 * x[:, 1]
    edu = 6.0 + 0.7 * x[:, 2]
    commuters = 5.0 + 2.2 * y
    columns = [
        Variable("S6_population", "S", tuple(float(v) for v in pop)),
        Variable("B6_cars", "B", tuple(float(v) for v in cars)),
        Variable("O2_education", "O", tuple(float(v) for v in edu)),
        Variable("commuters", "Y", tuple(float(v) for v in commuters)),
    ]
    return build_variable_table(ids, columns)


def write_sample_csvs(directory, seed=2024):
    """Materialize the synthetic network + variables as CSV files."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    g, population = synthetic_network_with_population(seed)
    table = sample_variable_table(g, population, seed)

    nodes_path = directory / "nodes.csv"
    edges_path = directory / "edges.csv"
    vars_path = directory / "variables.csv"

    with nodes_path.open("w", encoding="utf-8") as handle:
        handle.write("id,label,lat,lon,population\n")
        for node in g.nodes:
            handle.write(
                f"{node.id},{node.label},{node.lat},{node.lon},{population[node.id]}\n"
            )
    with edges_path.open("w", encoding="utf-8") as handle:
        handle.write("source,target,distance_km,time_1988_min,time_2010_min\n")
        for edge in g.edges:
            handle.write(
                f"{edge.u},{edge.v},{edge.distance_km},"
                f"{edge.time_min['1988']},{edge.time_min['2010']}\n"
            )
    with vars_path.open("w", encoding="utf-8") as handle:
        header = ["id"] + [f"{v.name}:{v.klass}" for v in table.variables]
        handle.write(",".join(header) + "\n")
        for row, node_id in enumerate(table.ids):
            cells = [node_id] + [repr(v.values[row]) for v in table.variables]
            handle.write(",".join(cells) + "\n")
    return nodes_path, edges_path, vars_path


def _timed_out(signum, frame):
    raise TimeoutError("a forked task did not finish within 60 s")


@contextmanager
def leaves_nothing_behind():
    """Fail unless the block ends within 60 s and leaves no child process
    (reaped or not) and the same number of open descriptors."""
    before = len(os.listdir("/proc/self/fd"))
    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == before


class PidLog:
    """``pid item`` lines appended to ``path`` through one ``O_APPEND``
    descriptor, which a forked child shares, so the lines that this process
    and the child write never interleave; closed when the with-block ends."""

    def __init__(self, path):
        self.path = Path(path)
        self.fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self.fd)

    def write(self, item: int) -> None:
        os.write(self.fd, b"%d %d\n" % (os.getpid(), item))

    def claims(self, work):
        """``work``, a ``measures._shared`` work function, that logs each task
        as it claims it."""
        return lambda claims, *args: work(map(self.logged, claims), *args)

    def logged(self, item: int) -> int:
        self.write(item)
        return item

    def read(self) -> list[tuple[int, int]]:
        """The (pid, item) pairs written so far, in the order written."""
        return [tuple(map(int, line.split())) for line in self.path.read_text().splitlines()]

    def items(self) -> list[int]:
        """Every item written, by either process, sorted."""
        return sorted(item for _, item in self.read())
