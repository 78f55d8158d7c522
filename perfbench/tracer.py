"""Per-layer tracing of the spatialnet package, applied from outside it.

The tracer wraps public functions of each layer module and records one
span per call: (name, start, end, parent span, run id). Spans and counts
live in memory and are written to a trace file when the run ends. A
function is patched under every module attribute that refers to it, so
by-name imports such as ``measures.shortest_paths`` and
``null_models.path_length_and_diameter`` are traced too, wherever the
caller looks them up.

A few boundaries carry hooks that read work counts off the result (swap
attempts, community levels, bytes in and out) and check invariants of
the null-model replicates. A hook runs inside its own ``trace.check``
span, so its time is charged to tracing rather than to a layer.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

# (module, function) pairs that get a span. Hot leaf helpers such as
# measures.haversine_km (called n^2 times per run) are left out: wrapping
# them would cost more than the work they do.
TRACED = {
    "io": ("ingest", "read_nodes_csv", "read_edges_csv", "read_variables_csv"),
    "graph": ("build_graph", "shortest_paths"),
    "measures": ("measure_report", "degree_and_strength", "closeness", "betweenness",
                 "straightness", "path_length_and_diameter", "clustering",
                 "avg_nearest_neighbor"),
    "null_models": ("randomize", "latticeize"),
    "small_world": ("omega",),
    "communities": ("find_communities", "modularity"),
    "fitting": ("degree_histogram", "fit_normal", "fit_powerlaw", "fit_log_decay",
                "degree_class_means", "scaling_by_degree_class"),
    "empirical": ("pearson_matrix", "select_representatives", "ols_regress",
                  "student_t_two_tailed"),
    "cli": ("run", "write_bundle"),
}

# Modules whose spans are the program's layers; cli spans are the shell
# around them and trace spans are the tracer's own work.
LAYERS = tuple(module for module in TRACED if module != "cli")


def _shortest_paths_name(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "binary")
    return f"graph.shortest_paths.{mode}"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Optional[tuple[str, float, float, Optional[int]]]] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.errors: list[str] = []
        self.lattice_cost_ratio: Optional[float] = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _call(self, name: str, fn: Callable, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        span_id = len(self.spans)
        self.spans.append(None)
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[span_id] = (name, start, end, parent)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        namer = _shortest_paths_name if name == "graph.shortest_paths" else None

        def traced(*args, **kwargs):
            result = self._call(namer(args, kwargs) if namer else name, fn, args, kwargs)
            if hook is not None:
                self._call("trace.check", hook, (args, kwargs, result), {})
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Patch every traced function under every spatialnet module
        attribute that refers to it."""
        import spatialnet.cli  # noqa: F401  (loads every layer module)

        hooks = {
            "io.ingest": self._ingest_hook,
            "null_models.randomize": self._ensemble_hook,
            "null_models.latticeize": self._ensemble_hook,
            "communities.find_communities": self._communities_hook,
            "cli.write_bundle": self._bundle_hook,
        }
        wrappers = {}
        for module_name, functions in TRACED.items():
            module = sys.modules[f"spatialnet.{module_name}"]
            for fn_name in functions:
                fn = getattr(module, fn_name)
                span_name = f"{module_name}.{fn_name}"
                wrappers[id(fn)] = self.wrap(span_name, fn, hooks.get(span_name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spatialnet" and not mod_name.startswith("spatialnet."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- boundary hooks --------------------------------------------------------

    def _ingest_hook(self, args, kwargs, result) -> None:
        paths = list(args) + list(kwargs.values())
        self.counts["io.input_bytes"] += sum(os.path.getsize(p) for p in paths if p is not None)

    def _ensemble_hook(self, args, kwargs, ensemble) -> None:
        g = args[0] if args else kwargs["g"]
        kind = "randomize" if ensemble.kind == "random" else "latticeize"
        degrees = {node.id: g.degree(node.id) for node in g.nodes}
        for i, replicate in enumerate(ensemble.replicates):
            if {node.id: replicate.degree(node.id) for node in replicate.nodes} != degrees:
                self.errors.append(f"{kind} replicate {i} changed the degree sequence")
            if not replicate.is_connected:
                self.errors.append(f"{kind} replicate {i} is disconnected")
        per_replicate = ensemble.stats.per_replicate
        self.counts[f"null_models.{kind}.attempts"] += sum(r.attempts for r in per_replicate)
        self.counts[f"null_models.{kind}.accepted"] += sum(r.accepted_swaps for r in per_replicate)
        self.counts[f"null_models.{kind}.target"] += ensemble.swaps_per_edge * g.m * len(per_replicate)
        if kind == "latticeize":
            self.lattice_cost_ratio = lattice_cost_ratio(g, ensemble)

    def _communities_hook(self, args, kwargs, partition) -> None:
        self.counts["communities.find_communities.levels"] += len(partition.levels)

    def _bundle_hook(self, args, kwargs, written) -> None:
        self.counts["cli.output_bytes"] += sum(os.path.getsize(p) for p in written)

    # -- results ---------------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-name calls, inclusive seconds (``.s``) and self seconds,
        the hook counts, and the share of ``wall_s`` covered by spans of
        the layers directly under the CLI."""
        child_time = defaultdict(float)
        for span in self.spans:
            name, start, end, parent = span
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        covered = 0.0
        for span_id, (name, start, end, parent) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[span_id]
            layer = name.split(".", 1)[0]
            parent_layer = self.spans[parent][0].split(".", 1)[0] if parent is not None else None
            if layer in LAYERS and parent_layer in (None, "cli"):
                covered += end - start
        out.update(self.counts)
        out["trace.coverage"] = covered / wall_s if wall_s > 0 else 0.0
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "run_id": self.run_id,
                "columns": ["name", "start", "end", "parent"],
                "spans": self.spans,
                "counts": dict(self.counts),
                "errors": self.errors,
            }, handle)
            handle.write("\n")


def lattice_cost_ratio(g, ensemble) -> float:
    """Mean ring-index cost of the lattice replicates over the input's."""
    from spatialnet.null_models import ring_index_cost

    order = ensemble.node_order
    costs = [ring_index_cost(replicate, order) for replicate in ensemble.replicates]
    return sum(costs) / len(costs) / ring_index_cost(g, order)
