"""Independent brute-force oracles used to verify the package.

Nothing here shares code paths with spatialnet: hop distances come from
boolean matrix powers, weighted distances from Floyd–Warshall over numpy
rows, path counts from explicit DFS enumeration in exact arithmetic,
clustering from triple loops, modularity from the raw double sum,
connectivity from union–find, the random swap chain from a plain loop
over ``randrange`` draws and a union–find per swap, lattice swaps from a
scan of every edge pair, swap cost changes from the swap's own four
endpoints over all edge pairs at once, and Student-t tails from
numerical quadrature of the density. Keep it that way — these are the
other side of every dual-route check.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np


def adjacency_matrix(g) -> tuple[list[str], np.ndarray]:
    ids = list(g.node_ids)
    index = {node_id: i for i, node_id in enumerate(ids)}
    a = np.zeros((len(ids), len(ids)), dtype=np.int64)
    for edge in g.edges:
        a[index[edge.u], index[edge.v]] = 1
        a[index[edge.v], index[edge.u]] = 1
    return ids, a


def distance_matrix_by_powers(a: np.ndarray) -> np.ndarray:
    """All-pairs binary distances: d(s,t) = min L with (A^L)_st > 0."""
    n = len(a)
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    reach = np.eye(n, dtype=bool)
    power = np.eye(n, dtype=np.int64)
    for length in range(1, n):
        power = (power @ a > 0).astype(np.int64)
        newly = (power > 0) & ~reach
        dist[newly] = length
        reach |= newly
        if reach.all():
            break
    return dist


def floyd_warshall(g, weight) -> tuple[list[str], np.ndarray]:
    """All-pairs least costs, with ``weight(edge)`` the cost of an edge."""
    ids = list(g.node_ids)
    index = {node_id: i for i, node_id in enumerate(ids)}
    dist = np.full((len(ids), len(ids)), np.inf)
    np.fill_diagonal(dist, 0.0)
    for edge in g.edges:
        dist[index[edge.u], index[edge.v]] = dist[index[edge.v], index[edge.u]] = weight(edge)
    for k in range(len(ids)):
        dist = np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :])
    return ids, dist


def distances(g, weight=None) -> tuple[list[str], np.ndarray]:
    """Hop distances by matrix powers when ``weight`` is None, else
    Floyd–Warshall over ``weight``."""
    if weight is None:
        ids, a = adjacency_matrix(g)
        return ids, distance_matrix_by_powers(a)
    return floyd_warshall(g, weight)


def enumerate_min_cost_paths(costs: dict, s, t, to_t: dict) -> list[tuple]:
    """Every simple s-t path of least total cost, by DFS.

    ``costs[u][v]`` is the cost of edge u-v and ``to_t[x]`` the least
    cost from x to t; costs must add exactly (integers). A branch is cut
    once its cost plus the remaining least cost exceeds the s-t least
    cost, so the walk only follows prefixes of shortest paths.
    """
    paths = []

    def walk(node, cost, path):
        if cost + to_t[node] > to_t[s]:
            return
        if node == t:
            paths.append(tuple(path))
            return
        for nxt in sorted(costs[node]):
            if nxt not in path:
                path.append(nxt)
                walk(nxt, cost + costs[node][nxt], path)
                path.pop()

    walk(s, 0, [s])
    return paths


def _edge_costs(g, weight=None) -> dict:
    """costs[u][v] for every edge, 1 when ``weight`` is None."""
    costs = {node_id: {} for node_id in g.node_ids}
    for edge in g.edges:
        costs[edge.u][edge.v] = costs[edge.v][edge.u] = 1 if weight is None else weight(edge)
    return costs


def shortest_path_lists(g, weight=None) -> dict:
    """Every shortest path of each connected pair (s, t), s before t in
    node order. ``weight(edge)`` must be an exact integer cost; hop counts
    when None."""
    ids, dist = distances(g, weight)
    costs = _edge_costs(g, weight)
    to = [dict(zip(ids, dist[:, j].tolist())) for j in range(len(ids))]
    return {
        (ids[i], ids[j]): enumerate_min_cost_paths(costs, ids[i], ids[j], to[j])
        for i, j in combinations(range(len(ids)), 2)
        if np.isfinite(dist[i, j])
    }


def oracle_betweenness(g, weight=None) -> dict:
    """Normalized betweenness by full shortest-path enumeration."""
    ids = list(g.node_ids)
    raw = {node_id: 0.0 for node_id in ids}
    for paths in shortest_path_lists(g, weight).values():
        sigma = len(paths)
        through = {node_id: 0 for node_id in ids}
        for path in paths:
            for node in path[1:-1]:
                through[node] += 1
        for node_id in ids:
            if through[node_id]:
                raw[node_id] += through[node_id] / sigma
    n = len(ids)
    pairs = (n - 1) * (n - 2) / 2.0
    if pairs <= 0:
        return {node_id: 0.0 for node_id in ids}
    return {node_id: value / pairs for node_id, value in raw.items()}


def oracle_sigma(g, s, t) -> int:
    """Number of shortest s-t paths (in hops), by enumeration."""
    ids, dist = distances(g)
    index = {node_id: i for i, node_id in enumerate(ids)}
    if not np.isfinite(dist[index[s], index[t]]):
        return 0
    to_t = dict(zip(ids, dist[:, index[t]].tolist()))
    return len(enumerate_min_cost_paths(_edge_costs(g), s, t, to_t))


def oracle_closeness(g, weight=None) -> dict:
    ids, dist = distances(g, weight)
    n = len(ids)
    return {
        node_id: float(sum(dist[i, j] for j in range(n) if j != i)) / (n - 1)
        for i, node_id in enumerate(ids)
    }


def oracle_path_stats(g, weight=None) -> tuple[float, float]:
    """(average ordered-pair distance, diameter)."""
    ids, dist = distances(g, weight)
    n = len(ids)
    values = [dist[i, j] for i in range(n) for j in range(n) if i != j]
    return float(sum(values)) / (n * (n - 1)), float(max(values))


def oracle_straightness(g) -> dict:
    """Mean great-circle over km route distance, great-circle distances
    by the haversine formula in numpy."""
    ids, dist = floyd_warshall(g, lambda edge: edge.distance_km)
    lat = np.radians([node.lat for node in g.nodes])
    lon = np.radians([node.lon for node in g.nodes])
    h = (np.sin((lat[:, None] - lat[None, :]) / 2.0) ** 2
         + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin((lon[:, None] - lon[None, :]) / 2.0) ** 2)
    straight = 6371.0 * 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    np.fill_diagonal(dist, 1.0)  # the diagonal then adds 0 / 1 to each row
    return dict(zip(ids, ((straight / dist).sum(axis=1) / (len(ids) - 1)).tolist()))


def oracle_clustering(g) -> dict:
    """Local clustering by triple loop over neighbor pairs, with the
    neighbor sets read off the edge list."""
    adj_sets = {node_id: set() for node_id in g.node_ids}
    for edge in g.edges:
        adj_sets[edge.u].add(edge.v)
        adj_sets[edge.v].add(edge.u)
    out = {}
    for node_id in g.node_ids:
        nbrs = sorted(adj_sets[node_id])
        k = len(nbrs)
        if k < 2:
            out[node_id] = 0.0
            continue
        links = sum(
            1 for x, y in combinations(nbrs, 2) if y in adj_sets[x]
        )
        out[node_id] = 2.0 * links / (k * (k - 1))
    return out


def is_connected(ids, pairs) -> bool:
    """Connectivity of the graph on ``ids`` with edges ``pairs``, by
    union–find."""
    parent = {node_id: node_id for node_id in ids}

    def root(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    parts = len(parent)
    for u, v in pairs:
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
    return parts == 1


def random_chain(g, rng, swaps_per_edge) -> tuple[list, int, int]:
    """The randomization chain as a plain loop. Each attempt draws two
    edges with ``rng.randrange(m)`` and, when they differ, one
    ``rng.random()`` that reverses the second edge above 0.5; the swap
    (a, b), (c, d) -> (a, d), (c, b) is kept when its four nodes are
    distinct, neither new pair is an edge and union–find finds the whole
    new edge set connected. A scan of every ordered edge pair in both
    orientations decides whether any swap is acceptable: none before the
    first draw sets the target to 0, and none after any max(200, 20 m)
    rejections in a row, accepted swaps or not, ends the chain, so a
    chain stuck after an acceptance would show. Returns (ends, accepted,
    attempts), ``ends`` the edges as pairs of positions in
    ``g.node_ids``, in edge order."""
    number = {node_id: i for i, node_id in enumerate(g.node_ids)}
    nodes = range(len(number))
    ends = [(number[edge.u], number[edge.v]) for edge in g.edges]
    present = {frozenset(pair) for pair in ends}  # kept up to date: dense chains are long
    m = len(ends)

    def acceptable(e1, e2, a, b, c, d):
        if len({a, b, c, d}) < 4 or {frozenset((a, d)), frozenset((c, b))} & present:
            return False
        rest = [pair for k, pair in enumerate(ends) if k not in (e1, e2)]
        return is_connected(nodes, rest + [(a, d), (c, b)])

    def any_acceptable():
        return any(acceptable(e1, e2, a, b, *cd)
                   for e1, (a, b) in enumerate(ends)
                   for e2, (c, d) in enumerate(ends) if e1 != e2
                   for cd in ((c, d), (d, c)))

    target = swaps_per_edge * m if any_acceptable() else 0
    stall_limit = max(200, 20 * m)
    accepted = attempts = stall = 0
    while accepted < target:
        if stall >= stall_limit:
            if not any_acceptable():
                break
            stall = 0
        e1 = rng.randrange(m)
        e2 = rng.randrange(m)
        attempts += 1
        if e1 == e2:
            stall += 1
            continue
        (a, b), (c, d) = ends[e1], ends[e2]
        if rng.random() > 0.5:
            c, d = d, c
        if acceptable(e1, e2, a, b, c, d):
            present.difference_update({frozenset((a, b)), frozenset((c, d))})
            present.update({frozenset((a, d)), frozenset((c, b))})
            ends[e1], ends[e2] = (a, d), (c, b)
            accepted += 1
            stall = 0
        else:
            stall += 1
    return ends, accepted, attempts


def improving_ring_swaps(g) -> list[tuple]:
    """Every double-edge swap (a, b), (c, d) -> (a, d), (c, b), over all
    edge pairs and both orientations of the second edge, that lowers the
    ring-index cost over the node order and leaves the graph simple and
    connected."""
    ids = list(g.node_ids)
    pos = {node_id: i for i, node_id in enumerate(ids)}
    n = len(ids)

    def ring(u, v):
        gap = abs(pos[u] - pos[v])
        return min(gap, n - gap)

    edges = [(edge.u, edge.v) for edge in g.edges]
    present = {frozenset(edge) for edge in edges}
    found = []
    for (a, b), (c0, d0) in combinations(edges, 2):
        for c, d in ((c0, d0), (d0, c0)):
            new = {frozenset((a, d)), frozenset((c, b))}
            if any(len(pair) < 2 or pair in present for pair in new):
                continue
            if ring(a, d) + ring(c, b) >= ring(a, b) + ring(c, d):
                continue
            after = present - {frozenset((a, b)), frozenset((c, d))} | new
            if is_connected(ids, [tuple(pair) for pair in after]):
                found.append((a, b, c, d))
    return found


def ring_swap_changes(ends, n) -> tuple[np.ndarray, np.ndarray]:
    """Full recomputation over an integer edge list ``ends`` on nodes
    0..n-1: for every ordered edge pair (e1, e2) and both readings of e2,
    entry [0, e1, e2] for (c, d) = e2 and [1, e1, e2] for (c, d) read
    the other way round, the ring-index cost change of the swap
    (a, b), (c, d) -> (a, d), (c, b) with (a, b) = e1, and whether that
    swap is simple (no self-loop, no new pair that is already an edge)."""
    ends = np.array(ends, dtype=np.int64)
    present = np.zeros((n, n), dtype=bool)
    present[ends[:, 0], ends[:, 1]] = present[ends[:, 1], ends[:, 0]] = True

    def ring(x, y):
        gap = np.abs(x - y)
        return np.minimum(gap, n - gap)

    a, b = ends[:, 0, None], ends[:, 1, None]
    change, simple = [], []
    for c, d in ((ends[None, :, 0], ends[None, :, 1]), (ends[None, :, 1], ends[None, :, 0])):
        change.append(ring(a, d) + ring(c, b) - ring(a, b) - ring(c, d))
        simple.append((a != d) & (c != b) & ~present[a, d] & ~present[c, b])
    return np.stack(change), np.stack(simple)


def oracle_modularity(g, assignment) -> float:
    """Q by the raw double sum over ordered node pairs."""
    ids, a = adjacency_matrix(g)
    index = {node_id: i for i, node_id in enumerate(ids)}
    k = a.sum(axis=1).astype(float)
    two_m = k.sum()
    if two_m == 0:
        return 0.0
    total = 0.0
    for u in ids:
        for v in ids:
            if assignment[u] == assignment[v]:
                i, j = index[u], index[v]
                total += a[i, j] - k[i] * k[j] / two_m
    return total / two_m


def set_partitions(items):
    """All partitions of a sequence into nonempty blocks."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [partition[i] + [first]] + partition[i + 1:]
        yield partition + [[first]]


def best_partition_exhaustive(g, modularity_fn) -> tuple[float, list]:
    """Max-modularity partition by exhaustive search (n <= 8 only)."""
    best_q, best = -math.inf, None
    for blocks in set_partitions(list(g.node_ids)):
        assignment = {}
        for label, block in enumerate(blocks):
            for node_id in block:
                assignment[node_id] = label
        q = modularity_fn(g, assignment)
        if q > best_q:
            best_q, best = q, blocks
    return best_q, best


def _ranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    rx, ry = _ranks(list(xs)), _ranks(list(ys))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.sqrt(sum((a - mx) ** 2 for a in rx))
    vy = math.sqrt(sum((b - my) ** 2 for b in ry))
    return cov / (vx * vy)


def t_two_tailed_by_integration(t: float, df: int) -> float:
    """P(|T| >= |t|) by Simpson quadrature of the t density.

    Substituting u = |t| + tan(theta) maps the tail onto [0, pi/2), so
    no truncation error enters.
    """
    t = abs(t)
    log_norm = (
        math.lgamma((df + 1) / 2.0)
        - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )

    def integrand(theta: float) -> float:
        if theta >= math.pi / 2.0:
            return 0.0
        u = t + math.tan(theta)
        sec2 = 1.0 + math.tan(theta) ** 2
        log_pdf = log_norm - (df + 1) / 2.0 * math.log1p(u * u / df)
        return math.exp(log_pdf) * sec2

    steps = 4000  # even
    h = (math.pi / 2.0) / steps
    total = integrand(0.0) + integrand(math.pi / 2.0)
    for i in range(1, steps):
        total += integrand(i * h) * (4 if i % 2 else 2)
    return min(1.0, 2.0 * total * h / 3.0)


def pearson_r(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    return float(np.dot(xc, yc) / math.sqrt(np.dot(xc, xc) * np.dot(yc, yc)))


def pearson_p(r: float, n: int) -> float:
    if abs(r) >= 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return t_two_tailed_by_integration(t, n - 2)
