"""Seeded synthetic spatial graphs for the benchmark's ``geo*`` workloads.

A graph of n places is built the way regional road networks look:

* points drawn uniformly in a latitude/longitude box;
* each point linked to its K nearest neighbours (great-circle distance),
  plus a chain through all points in longitude order, so the graph is
  always connected;
* an edge's length is the haversine distance times a random detour
  factor above 1, and its one travel-time epoch (``time_2010_min``)
  comes from a random road speed.

With K = 3 this gives m of about 2.7 n, close to the shipped sample.

All draws come from ``random.Random(seed)`` and every number is written
with a fixed format, so the same seed always gives the same bytes.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

K_NEAREST = 3
LAT_BOX = (35.0, 41.5)
LON_BOX = (20.0, 26.5)
DETOUR = (1.15, 1.6)
SPEED_KMH = (45.0, 100.0)
EARTH_RADIUS_KM = 6371.0
EPOCH = "2010"


def _haversine_matrix(lat: np.ndarray, lon: np.ndarray) -> np.ndarray:
    rlat, rlon = np.radians(lat), np.radians(lon)
    dlat = rlat[:, None] - rlat[None, :]
    dlon = rlon[:, None] - rlon[None, :]
    a = np.sin(dlat / 2.0) ** 2 + np.cos(rlat)[:, None] * np.cos(rlat)[None, :] * np.sin(dlon / 2.0) ** 2
    return EARTH_RADIUS_KM * 2.0 * np.arctan2(np.sqrt(a), np.sqrt(np.clip(1.0 - a, 0.0, None)))


def geo_graph(n: int, seed: int) -> dict[str, str]:
    """CSV texts keyed by file name: nodes.csv and edges.csv."""
    if n < K_NEAREST + 2:
        raise ValueError(f"need n >= {K_NEAREST + 2}, got {n}")
    rng = random.Random(seed)
    ids = [f"G{i:04d}" for i in range(n)]
    lat = [round(rng.uniform(*LAT_BOX), 5) for _ in range(n)]
    lon = [round(rng.uniform(*LON_BOX), 5) for _ in range(n)]
    population = [round(math.exp(rng.gauss(10.5, 0.8))) for _ in range(n)]

    straight = _haversine_matrix(np.array(lat), np.array(lon))
    pairs: set[tuple[int, int]] = set()
    np.fill_diagonal(straight, np.inf)
    nearest = np.argsort(straight, axis=1, kind="stable")[:, :K_NEAREST]
    for i in range(n):
        for j in nearest[i]:
            j = int(j)
            pairs.add((min(i, j), max(i, j)))
    by_lon = sorted(range(n), key=lambda i: (lon[i], lat[i], i))
    for i, j in zip(by_lon, by_lon[1:]):
        pairs.add((min(i, j), max(i, j)))

    edge_lines = [f"source,target,distance_km,time_{EPOCH}_min"]
    for i, j in sorted(pairs):
        km = max(0.001, round(float(straight[i, j]) * rng.uniform(*DETOUR), 3))
        minutes = max(0.01, round(km / rng.uniform(*SPEED_KMH) * 60.0, 2))
        edge_lines.append(f"{ids[i]},{ids[j]},{km:.3f},{minutes:.2f}")

    node_lines = ["id,label,lat,lon,population"]
    for i in range(n):
        node_lines.append(f"{ids[i]},Place {i:04d},{lat[i]:.5f},{lon[i]:.5f},{population[i]:.1f}")

    return {
        "nodes.csv": "\n".join(node_lines) + "\n",
        "edges.csv": "\n".join(edge_lines) + "\n",
    }


def write_inputs(out_dir: Path, files: dict[str, str]) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, text in files.items():
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths
