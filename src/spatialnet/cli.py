"""Command-line surface and report bundling.

Commands: analyze, omega, communities, fit, regress, all. Every command
reads the node/edge CSVs (regress additionally needs the variables CSV),
computes in memory, and only then writes its JSON reports — a failing
command never leaves a partial bundle behind: every file is written to a
temporary sibling first and renamed into place only once all are
complete, and if writing fails part way, what was written is removed.
A SIGTERM ends a command the same way, and then the process, by the
signal's default action.
Stochastic commands (omega, communities, all) require --seed so runs are
reproducible. Any command given --models checks it against --vars.

Each report is its result object passed once through ``io.sanitize``,
plus the provenance block: measures.json is the ``MeasureReport``,
communities.json the ``CommunityPartition``, and regression.json the
``SelectionReport`` with one ``RegressionModel`` per predictor set. Only
omega.json and fits.json are assembled here from several results.

Exit codes: 0 success, 2 schema/input error, 3 compute error. Errors,
flags that argparse cannot read among them, are reported to stderr as a
one-line JSON record.

``run`` plans each job it may share with a forked child (the report's
passes and both ensembles' replicates) in the serial order, runs them
under one ``shared.run`` call, and finishes them in that order.

Only ``null_models`` imports numpy at module level, and this module
imports it only for omega and all; ``fitting`` and ``empirical``
import numpy inside the functions that compute with it. So ``analyze``
and ``communities`` run without loading numpy, and only omega, fit,
regress and all pay for it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import sys
import threading
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from . import __version__
from . import communities as communities_mod
from . import empirical, fitting, measures, shared, small_world
from .exceptions import SchemaError, SpatialNetError
from .graph import SpatialGraph
from .io import ingest, sanitize

if TYPE_CHECKING:
    from .null_models import NullModelEnsemble

# CPython's own sha256, as the random module does for sha512: hashlib loads
# OpenSSL, which adds about 3.5 MiB of resident memory to every command
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

COMMANDS = ("analyze", "omega", "communities", "fit", "regress", "all")
SEEDED_COMMANDS = ("omega", "communities", "all")
INPUT_FILES = ("nodes", "edges", "variables")


class ConfigError(SchemaError):
    pass


class BundleWriteError(SchemaError):
    pass


class _Terminated(BaseException):
    """A SIGTERM that arrived while ``main`` ran."""


class _ConfigFields(NamedTuple):
    nodes: Path
    edges: Path
    variables: Optional[Path] = None
    epoch: Optional[str] = None
    seed: Optional[int] = None
    swaps_per_edge: int = small_world.DEFAULT_SWAPS_PER_EDGE
    replicates: int = small_world.DEFAULT_REPLICATES
    omega_threshold: float = small_world.DEFAULT_THRESHOLD
    alpha: float = empirical.DEFAULT_ALPHA
    model_sets: tuple[tuple[str, ...], ...] = ()
    out_dir: Path = Path("reports")


class AnalysisConfig(_ConfigFields):
    """One command's inputs and flags, checked when it is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # random.Random seeds from |seed|, so -7 would replay seed 7
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if self.swaps_per_edge < 0:
            raise ConfigError(f"swaps_per_edge must be >= 0, got {self.swaps_per_edge}")
        if not 0 < self.alpha < 1:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not 0 <= self.omega_threshold < 1:
            raise ConfigError(f"omega_threshold must lie in [0, 1), got {self.omega_threshold}")
        return self

    def echo(self) -> dict:
        # analysis inputs only; out_dir is run bookkeeping, not input. Input
        # files are echoed by name and content hash, not by the path typed,
        # so the same inputs reached by two paths give the same bundle.
        echoed = self._asdict()
        del echoed["out_dir"]
        for name in INPUT_FILES:
            if echoed[name] is not None:
                path = Path(echoed[name])
                echoed[name] = {"name": path.name,
                                "sha256": sha256(path.read_bytes()).hexdigest()}
        return echoed


class ReportBundle(NamedTuple):
    """A command's reports and plot data by file name."""

    reports: dict[str, dict]
    plotdata: dict[str, list[list]]


def _provenance(config: AnalysisConfig) -> dict:
    return {
        "tool": "spatialnet",
        "version": __version__,
        "seed": config.seed,
        "config": config.echo(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def _ensemble_summary(ensemble: NullModelEnsemble) -> dict:
    # the ensemble's fields and its stats' fields, with the replicate graphs
    # reported as their count
    summary = {**ensemble._asdict(), **ensemble.stats._asdict(),
               "replicates": len(ensemble.stats.per_replicate)}
    del summary["stats"]
    return summary


def _omega_payload(g: SpatialGraph, report: Optional[measures.MeasureReport],
                   config: AnalysisConfig, random_done: dict, lattice_done: dict) -> dict:
    from . import null_models
    ensemble = (g, config.seed, config.swaps_per_edge, config.replicates)
    rand = null_models.randomize(*ensemble, done=random_done)
    latt = null_models.latticeize(*ensemble, done=lattice_done)
    l_emp = c_emp = None
    if report is not None:  # under `all`, reuse what the measure report read
        l_emp = report.global_measures.avg_path_length_binary
        c_emp = report.global_measures.clustering_average
    result = small_world.omega(g, rand, latt, config.omega_threshold, l_emp, c_emp)
    payload = result._asdict()  # run sanitizes the whole payload
    payload["inputs"] = {key: payload.pop(key) for key in ("l_emp", "c_emp", "l_rand", "c_latt")}
    payload["ensembles"] = {
        "random": _ensemble_summary(rand),
        "lattice": _ensemble_summary(latt),
    }
    return payload


def _fits_payload(g: SpatialGraph, report: Optional[measures.MeasureReport]
                  ) -> tuple[dict, dict[str, list[list]]]:
    """fits.json's payload, and its plot tables by file name."""
    histogram = fitting.degree_histogram(g)
    points = [(float(k), float(count)) for k, count in histogram]
    normal = fitting.fit_normal(points)
    powerlaw = fitting.fit_powerlaw(points)
    plotdata = {"degree_distribution.csv": [
        ["k", "count", "fitted_normal", "fitted_powerlaw"],
        *[
            [k, count, fitting.predict(normal, k), fitting.predict(powerlaw, k)]
            for k, count in points
        ],
    ]}
    scaling: dict[str, fitting.FitResult] = {}
    for measure_name in fitting.SCALING_MEASURES:
        classes = fitting.degree_class_means(
            g, measure_name, fitting.measure_values(g, measure_name, report))
        fit = scaling[measure_name] = fitting.scaling_by_degree_class(g, measure_name, classes)
        plotdata[f"scaling_{measure_name}.csv"] = [
            ["k", "class_mean", "class_size", "fitted"],
            *[
                [k, mean, size, fitting.predict(fit, k) if k > 0 else None]
                for k, mean, size in classes
            ],
        ]
    return {
        "degree_histogram": histogram,
        "distribution_fits": {"normal": normal, "powerlaw": powerlaw},
        "scaling_fits": scaling,
    }, plotdata


def _regression_payload(table: empirical.VariableTable, config: AnalysisConfig) -> dict:
    selection = empirical.select_representatives(table, alpha=config.alpha)
    model_sets = config.model_sets
    if not model_sets:
        model_sets = (tuple(
            selection.representatives[klass] for klass in empirical.PREDICTOR_CLASSES
        ),)
    return {"selection": selection,
            "models": [empirical.ols_regress(table, names) for names in model_sets]}


def run(command: str, config: AnalysisConfig) -> ReportBundle:
    """Execute one command and return its full bundle (nothing written)."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    if command in SEEDED_COMMANDS and config.seed is None:
        raise ConfigError(f"command {command!r} is stochastic; --seed is required")

    needs_table = command in ("regress", "all")
    if needs_table and config.variables is None:
        raise ConfigError(f"command {command!r} requires --vars")
    if config.model_sets and config.variables is None:
        raise ConfigError("--models requires --vars")

    graph, table = ingest(config.nodes, config.edges, config.variables)
    if config.epoch is not None and config.epoch not in graph.epochs():
        raise ConfigError(
            f"epoch {config.epoch!r} not present in the edge file; "
            f"declared epochs: {list(graph.epochs())}"
        )
    if config.model_sets:
        predictors = {variable.name for variable in table.predictors()}
        unknown = sorted({name for names in config.model_sets for name in names} - predictors)
        if unknown:
            raise ConfigError(f"--models names {unknown} are not predictor columns")
        repeated = sorted({name for names in config.model_sets for name in names
                           if names.count(name) > 1})
        if repeated:
            raise ConfigError(f"--models names {repeated} repeat within one predictor set")

    jobs = []  # the report's two jobs, then the random and the lattice ensemble's
    if command in ("analyze", "all"):
        jobs, finish_report = measures.plan_report(graph, config.epoch)
    if command in ("omega", "all"):
        from . import null_models  # the one module that loads numpy
        jobs += [null_models.ensemble_job(graph, kind, config.seed, config.swaps_per_edge,
                                          config.replicates) for kind in ("random", "lattice")]
    done = shared.run(jobs)

    payloads = {}
    plotdata = {}
    report = None
    if command in ("analyze", "all"):
        report = payloads["measures"] = finish_report(done[:2])
    if command in ("omega", "all"):
        payloads["omega"] = _omega_payload(graph, report, config, *done[-2:])
    if command in ("communities", "all"):
        payloads["communities"] = communities_mod.find_communities(graph, config.seed)
    if command in ("fit", "all"):
        payloads["fits"], plotdata = _fits_payload(graph, report)
    if needs_table:
        payloads["regression"] = _regression_payload(table, config)

    provenance = sanitize(_provenance(config))
    return ReportBundle({name: {"provenance": provenance, **sanitize(payload)}
                         for name, payload in payloads.items()}, plotdata)


def write_bundle(bundle: ReportBundle, out_dir: Path) -> list[Path]:
    """Write every report and plotdata file; returns the paths written.

    Each file is first written whole to a hidden temporary sibling, and
    only when every one is complete are they renamed into place, so a
    write that fails part way leaves no truncated file and no part of
    the new bundle. On any exception, removes what it wrote and the
    directories it created; an I/O error is raised as BundleWriteError.
    """
    out_dir = Path(out_dir)
    texts = {
        out_dir / f"{name}.json":
            json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        for name, payload in sorted(bundle.reports.items())
    }
    for name, rows in sorted(bundle.plotdata.items()):
        texts[out_dir / "plotdata" / name] = "\n".join(
            ",".join("" if cell is None else str(cell) for cell in row) for row in rows
        ) + "\n"
    staged: list[tuple[Path, Path]] = []
    placed: list[Path] = []
    created: list[Path] = []  # directories this call made, shallowest first
    try:
        for path, text in texts.items():
            missing = []
            directory = path.parent
            while not directory.is_dir():
                missing.append(directory)
                directory = directory.parent
            for directory in reversed(missing):
                directory.mkdir()
                created.append(directory)
            temp = path.with_name(f".{path.name}.tmp")
            staged.append((temp, path))
            temp.write_text(text, encoding="utf-8")
        for temp, path in staged:
            os.replace(temp, path)
            placed.append(path)
    except BaseException as exc:
        for path in [temp for temp, _ in staged] + placed:
            path.unlink(missing_ok=True)
        for directory in reversed(created):
            with contextlib.suppress(OSError):  # left alone if not empty
                directory.rmdir()
        if isinstance(exc, OSError):
            raise BundleWriteError(f"cannot write the bundle to {out_dir}: {exc}") from None
        raise
    return list(texts)


def _parse_model_sets(raw: str) -> tuple[tuple[str, ...], ...]:
    sets = tuple(tuple(name.strip() for name in chunk.split(",") if name.strip())
                 for chunk in raw.split(";"))
    if not all(sets):
        raise ConfigError(f"--models {raw!r} has a predictor set that names no predictor")
    return sets


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # a malformed or missing flag is a flag error: exit 2 with one JSON line
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    # a flag left out is left out of the namespace too, so AnalysisConfig
    # holds the one copy of every default
    parser = _ArgumentParser(
        prog="spatialnet",
        description="Spatial network analysis: measures, small-world omega, "
                    "communities, distribution fits, and commuter regression.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--nodes", required=True, type=Path, help="nodes CSV")
    parser.add_argument("--edges", required=True, type=Path, help="edges CSV")
    parser.add_argument("--vars", dest="variables", type=Path, help="variables CSV")
    parser.add_argument("--epoch", help="time epoch label, e.g. 2010")
    parser.add_argument("--seed", type=int, help="RNG seed (required for omega/communities/all)")
    parser.add_argument("--swaps-per-edge", type=int)
    parser.add_argument("--replicates", type=int)
    parser.add_argument("--omega-threshold", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--models", dest="model_sets", type=_parse_model_sets,
                        help="semicolon-separated predictor sets, e.g. 'a,b,c;a,b,d'")
    parser.add_argument("--out", dest="out_dir", type=Path, help="output directory")
    return parser


def _terminated(signum, frame):
    signal.signal(signum, signal.SIG_IGN)  # a second SIGTERM cannot cut the cleanup short
    raise _Terminated


def main(argv: Optional[Sequence[str]] = None) -> int:
    # on the main thread a SIGTERM ends the command as an exception would (the
    # child is reaped, nothing written), then the process by its default action
    on_main_thread = threading.current_thread() is threading.main_thread()
    if on_main_thread:
        previous = signal.signal(signal.SIGTERM, _terminated)
    try:
        try:
            args = vars(build_parser().parse_args(argv))
            command = args.pop("command")
            config = AnalysisConfig(**args)
            bundle = run(command, config)
            written = write_bundle(bundle, config.out_dir)
        except SpatialNetError as exc:
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
            return 2 if isinstance(exc, SchemaError) else 3
    except _Terminated:  # also while the failure record is printed
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.raise_signal(signal.SIGTERM)
        raise
    finally:
        if on_main_thread:
            signal.signal(signal.SIGTERM, previous)
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
