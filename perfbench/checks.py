"""Output checks for one workload's report bundles.

Every check reads the inputs with its own CSV parsing and recomputes the
reported figures independently: measures with networkx, omega from its
four inputs, modularity of the reported assignment with networkx, and
OLS coefficients with numpy.linalg.lstsq. Bundles of repeated runs must
match the first byte for byte once ``provenance.generated_at`` is masked.

Each function returns a list of failure messages; empty means passed.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import networkx as nx
import numpy as np

REL_TOL = 1e-9
# Reports each benchmarked CLI command must write. fits.json is only
# required to exist (and, like every file, to repeat byte for byte).
REQUIRED_REPORTS = {
    "analyze": ("measures",),
    "all": ("measures", "omega", "communities", "fits", "regression"),
}
_GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')


def _read_rows(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _input_graph(inputs) -> nx.Graph:
    g = nx.Graph()
    for row in _read_rows(inputs["nodes"]):
        g.add_node(row["id"], lat=float(row["lat"]), lon=float(row["lon"]))
    for row in _read_rows(inputs["edges"]):
        g.add_edge(row["source"], row["target"], km=float(row["distance_km"]),
                   time=float(row["time_2010_min"]))
    return g


def _close(a, b, tol=REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def _haversine_km(lat1, lon1, lat2, lon2) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    a = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2)
    return 6371.0 * 2.0 * math.atan2(math.sqrt(a), math.sqrt(1.0 - a))


def _path_stats(g: nx.Graph, weight) -> tuple[float, float, dict]:
    n = g.number_of_nodes()
    lengths = dict(nx.all_pairs_dijkstra_path_length(g, weight=weight) if weight
                   else nx.all_pairs_shortest_path_length(g))
    values = [d for src, row in lengths.items() for dst, d in row.items() if src != dst]
    return math.fsum(values) / (n * (n - 1)), max(values), lengths


def check_measures(report: dict, g: nx.Graph) -> list[str]:
    errors = []
    n = g.number_of_nodes()
    per_node = report["per_node"]
    closeness = nx.closeness_centrality(g)
    betweenness = nx.betweenness_centrality(g, normalized=True)
    km_avg, km_diameter, km_lengths = _path_stats(g, "km")
    for node in g.nodes:
        got = per_node[node]
        if not _close(got["closeness"], 1.0 / closeness[node]):
            errors.append(f"closeness of {node}: {got['closeness']} vs {1.0 / closeness[node]}")
        if not _close(got["betweenness"], betweenness[node]):
            errors.append(f"betweenness of {node}: {got['betweenness']} vs {betweenness[node]}")
        a = g.nodes[node]
        straight = math.fsum(
            _haversine_km(a["lat"], a["lon"], g.nodes[o]["lat"], g.nodes[o]["lon"]) / d
            for o, d in km_lengths[node].items() if o != node
        ) / (n - 1)
        if not _close(got["straightness"], straight):
            errors.append(f"straightness of {node}: {got['straightness']} vs {straight}")

    glob = report["global"]
    expected = {
        "clustering_average": nx.average_clustering(g),
        "clustering_global": nx.transitivity(g),
    }
    avg, diameter, _ = _path_stats(g, None)
    expected.update(avg_path_length_binary=avg, diameter_binary=diameter,
                    avg_path_length_km=km_avg, diameter_km=km_diameter)
    for key, value in expected.items():
        if not _close(glob[key], value):
            errors.append(f"global {key}: {glob[key]} vs {value}")
    if report["time"] is not None:
        avg, diameter, _ = _path_stats(g, "time")
        for key, value in (("avg_path_length_min", avg), ("diameter_min", diameter)):
            if not _close(report["time"][key], value):
                errors.append(f"time {key}: {report['time'][key]} vs {value}")
    return errors


def check_omega(report: dict, measures: dict) -> list[str]:
    errors = []
    inputs = report["inputs"]
    value = inputs["l_rand"] / inputs["l_emp"] - inputs["c_emp"] / inputs["c_latt"]
    if not _close(report["omega"], value, 1e-12):
        errors.append(f"omega {report['omega']} vs l_rand/l_emp - c_emp/c_latt = {value}")
    for kind, key, field in (("random", "l_rand", "path_length"),
                             ("lattice", "c_latt", "clustering")):
        per_replicate = report["ensembles"][kind]["per_replicate"]
        mean = math.fsum(r[field] for r in per_replicate) / len(per_replicate)
        if not _close(inputs[key], mean, 1e-12):
            errors.append(f"{key} {inputs[key]} is not the {kind} replicate mean {mean}")
    glob = measures["global"]
    if inputs["l_emp"] != glob["avg_path_length_binary"]:
        errors.append(f"l_emp {inputs['l_emp']} != avg_path_length_binary "
                      f"{glob['avg_path_length_binary']}")
    if inputs["c_emp"] != glob["clustering_average"]:
        errors.append(f"c_emp {inputs['c_emp']} != clustering_average "
                      f"{glob['clustering_average']}")
    return errors


def check_communities(report: dict, g: nx.Graph) -> list[str]:
    groups: dict[int, set] = {}
    for node, label in report["assignment"].items():
        groups.setdefault(label, set()).add(node)
    if set(report["assignment"]) != set(g.nodes):
        return ["community assignment does not cover exactly the input nodes"]
    q = nx.community.modularity(g, list(groups.values()), weight=None)
    if not _close(report["q"], q):
        return [f"modularity q {report['q']} vs recomputed {q}"]
    return []


def check_regression(report: dict, variables_path) -> list[str]:
    rows = _read_rows(variables_path)
    columns = {}
    response = None
    for header in rows[0]:
        if header == "id":
            continue
        name, _, klass = header.rpartition(":")
        columns[name] = np.array([float(row[header]) for row in rows])
        if klass == "Y":
            response = name
    errors = []
    for model in report["models"]:
        names = model["predictors"]
        x = np.column_stack([np.ones(len(rows))] + [columns[name] for name in names])
        coef, *_ = np.linalg.lstsq(x, columns[response], rcond=None)
        got = [model["coefficients"]["(constant)"]["b"]] + [
            model["coefficients"][name]["b"] for name in names
        ]
        for name, a, b in zip(["(constant)", *names], got, coef):
            if not math.isclose(a, float(b), rel_tol=1e-8, abs_tol=1e-8 * max(1.0, abs(float(b)))):
                errors.append(f"OLS coefficient {name}: {a} vs lstsq {float(b)}")
    return errors


def check_bundle(out_dir: Path, inputs: dict, command: str) -> list[str]:
    """Check that the bundle holds every report ``command`` must write,
    and each checked report against independent recomputation."""
    reports = {path.stem: json.loads(path.read_text(encoding="utf-8"))
               for path in sorted(out_dir.glob("*.json"))}
    missing = [name for name in REQUIRED_REPORTS[command] if name not in reports]
    if missing:
        return [f"{out_dir}: {command} wrote no {', '.join(missing)} report"]
    g = _input_graph(inputs)
    errors = check_measures(reports["measures"], g)
    if command == "all":
        errors += check_omega(reports["omega"], reports["measures"])
        errors += check_communities(reports["communities"], g)
        errors += check_regression(reports["regression"], inputs["variables"])
    return errors


def masked_bundle(out_dir: Path) -> dict[str, bytes]:
    """Every file of a bundle, with the generation timestamp masked."""
    return {
        str(path.relative_to(out_dir)): _GENERATED_AT.sub(b'"generated_at": ""', path.read_bytes())
        for path in sorted(out_dir.rglob("*")) if path.is_file()
    }


def check_same_bytes(reference: dict[str, bytes], out_dir: Path) -> list[str]:
    got = masked_bundle(out_dir)
    if got.keys() != reference.keys():
        return [f"{out_dir}: files {sorted(got)} differ from {sorted(reference)}"]
    return [f"{out_dir}/{name}: bytes differ from the first run"
            for name in sorted(got) if got[name] != reference[name]]
