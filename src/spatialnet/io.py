"""File formats: CSV ingestion and JSON report payloads.

CSV schemas (UTF-8 with or without a byte-order mark, decimal point,
no column named twice):

* nodes.csv      id,label,lat,lon[,<extra>...]; extra columns are ignored
* edges.csv      source,target,distance_km[,time_<epoch>_min...]
* variables.csv  id,<name:class>... with class one of S/B/O and exactly
                 one column tagged :Y (the response); no id on two rows,
                 no empty name and no name ``(constant)``

Schema violations raise CsvSchemaError with the file and line number; so
do files that cannot be read (missing, not UTF-8, malformed CSV) and a
nodes file with no rows. An edges file with no rows is valid. Edge
weights must be finite and positive: the reader rejects nonpositive ones
by line, and ``build_graph`` rejects nan and inf by edge.

Reports are the result records (``MeasureReport``,
``CommunityPartition``, ``RegressionModel`` and the others they hold,
each a ``typing.NamedTuple``): ``sanitize`` turns each into a dict keyed
by its field names, so the records are the report schema.
REPORT_RENAMES lists the few fields whose report key differs. Non-finite numbers are emitted as null. Every
report carries a provenance block; the timestamp lives in the single
field provenance.generated_at so determinism checks can mask it.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterator, Mapping, Optional

from .empirical import CONSTANT, MissingValueError, Variable, VariableTable, build_variable_table
from .exceptions import SchemaError
from .graph import EdgeRecord, NodeRecord, SpatialGraph, build_graph

NODE_COLUMNS = ("id", "label", "lat", "lon")
EDGE_COLUMNS = ("source", "target", "distance_km")
TIME_PREFIX = "time_"
TIME_SUFFIX = "_min"


class CsvSchemaError(SchemaError):
    def __init__(self, path, line: Optional[int], message: str):
        where = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{where}: {message}")


class MissingResponseError(CsvSchemaError):
    pass


def _parse_float(raw: str, path, line: int, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise CsvSchemaError(path, line, f"{what}: {raw!r} is not a number") from None


def _read_csv(path) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Read a CSV file into its stripped header and its (line, cells)
    rows. A leading byte-order mark is dropped and a header that repeats
    a column is rejected. Blank rows are skipped and each row's cell
    count is checked as the rows are consumed, so callers report errors
    in file order."""
    try:
        with path.open(newline="", encoding="utf-8") as handle:
            # skip a byte-order mark as utf-8-sig would, without its Python-level decoder
            if handle.read(1) != "\ufeff":
                handle.seek(0)
            records = list(csv.reader(handle))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise CsvSchemaError(path, None, f"cannot read file: {exc}") from None
    if not records:
        raise CsvSchemaError(path, 1, "empty file")
    header = [cell.strip() for cell in records[0]]
    repeated = [cell for i, cell in enumerate(header) if cell in header[:i]]
    if repeated:
        raise CsvSchemaError(path, 1, f"column {repeated[0]!r} appears more than once")

    def rows():
        for line, row in enumerate(records[1:], start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvSchemaError(path, line, f"expected {len(header)} cells, got {len(row)}")
            yield line, row

    return header, rows()


def read_nodes_csv(path) -> list[NodeRecord]:
    path = Path(path)
    header, rows = _read_csv(path)
    if tuple(header[:4]) != NODE_COLUMNS:
        raise CsvSchemaError(path, 1, f"header must start with {','.join(NODE_COLUMNS)}")
    nodes = []
    for line, row in rows:
        lat = _parse_float(row[2], path, line, "lat")
        lon = _parse_float(row[3], path, line, "lon")
        nodes.append(NodeRecord(row[0].strip(), row[1].strip(), lat, lon))
    if not nodes:
        raise CsvSchemaError(path, None, "no node rows")
    return nodes


def read_edges_csv(path) -> list[EdgeRecord]:
    path = Path(path)
    header, rows = _read_csv(path)
    if tuple(header[:3]) != EDGE_COLUMNS:
        raise CsvSchemaError(path, 1, f"header must start with {','.join(EDGE_COLUMNS)}")
    epochs = []
    for cell in header[3:]:
        if not (cell.startswith(TIME_PREFIX) and cell.endswith(TIME_SUFFIX)):
            raise CsvSchemaError(path, 1, f"time column {cell!r} must match time_<epoch>_min")
        epochs.append(cell[len(TIME_PREFIX):-len(TIME_SUFFIX)])
    edges = []
    for line, row in rows:
        km = _parse_float(row[2], path, line, "distance_km")
        if km <= 0:
            raise CsvSchemaError(path, line, f"distance_km must be positive, got {km}")
        times = {}
        for epoch, cell in zip(epochs, row[3:]):
            minutes = _parse_float(cell, path, line, f"time_{epoch}_min")
            if minutes <= 0:
                raise CsvSchemaError(path, line, f"time_{epoch}_min must be positive, got {minutes}")
            times[epoch] = minutes
        edges.append(EdgeRecord(row[0].strip(), row[1].strip(), km, times))
    return edges


def read_variables_csv(path) -> VariableTable:
    path = Path(path)
    header, rows = _read_csv(path)
    if not header or header[0] != "id":
        raise CsvSchemaError(path, 1, "first column must be 'id'")
    names: list[str] = []
    classes: list[str] = []
    for cell in header[1:]:
        if ":" not in cell:
            raise CsvSchemaError(path, 1, f"column {cell!r} is missing its ':<class>' tag")
        name, _, klass = cell.rpartition(":")
        if klass not in ("S", "B", "O", "Y"):
            raise CsvSchemaError(path, 1, f"column {cell!r} has unknown class {klass!r}")
        if name in ("", CONSTANT):  # CONSTANT names the intercept's coefficient row
            raise CsvSchemaError(path, 1, f"column {cell!r}: a variable may not be named {name!r}")
        names.append(name)
        classes.append(klass)
    if classes.count("Y") == 0:
        raise MissingResponseError(path, 1, "no column tagged ':Y' (the response)")
    if classes.count("Y") > 1:
        raise CsvSchemaError(path, 1, "more than one column tagged ':Y'")
    lines: dict[str, int] = {}  # row id -> its line, in file order
    columns: list[list[float]] = [[] for _ in names]
    for line, row in rows:
        row_id = row[0].strip()
        if row_id in lines:
            raise CsvSchemaError(path, line, f"row id {row_id!r} repeats line {lines[row_id]}")
        lines[row_id] = line
        for j, cell in enumerate(row[1:]):
            columns[j].append(_parse_float(cell, path, line, f"variable {names[j]!r}"))
    variables = [
        Variable(name, klass, tuple(column))
        for name, klass, column in zip(names, classes, columns)
    ]
    try:
        return build_variable_table(list(lines), variables)
    except (ValueError, MissingValueError) as exc:  # a nan or inf cell is an input fault
        raise CsvSchemaError(path, None, str(exc)) from exc


def ingest(
    nodes_path,
    edges_path,
    variables_path=None,
) -> tuple[SpatialGraph, Optional[VariableTable]]:
    """Read and validate the input files into a graph and optional table.

    When a variables file is given, its row ids must be exactly the
    graph's node ids.
    """
    nodes = read_nodes_csv(nodes_path)
    edges = read_edges_csv(edges_path)
    graph = build_graph(nodes, edges)
    table = None
    if variables_path is not None:
        table = read_variables_csv(variables_path)
        graph_ids = set(graph.node_ids)
        table_ids = set(table.ids)
        if graph_ids != table_ids:
            missing = sorted(graph_ids - table_ids)
            extra = sorted(table_ids - graph_ids)
            raise CsvSchemaError(
                variables_path, None,
                f"row ids do not match the node set (missing {missing}, unknown {extra})",
            )
    return graph, table


# ---------------------------------------------------------------------------
# Report payloads
# ---------------------------------------------------------------------------

# Record fields whose report key differs from the field name.
REPORT_RENAMES: Mapping[str, str] = {
    "average_strength": "average_strength_km",
    "klass": "class",
    "within_sum": "within_sum_r2",
    "global_sum": "global_sum_r2",
    "global_measures": "global",
    "time_measures": "time",
}


def sanitize(obj):
    """Convert a report payload into JSON-ready values: records (the
    package's NamedTuples) become dicts keyed by field name (see
    REPORT_RENAMES), mappings and sequences recurse and non-finite floats
    become None. The builtin types are matched exactly first, since a
    report holds little else."""
    kind = type(obj)
    if kind is float:
        return obj if math.isfinite(obj) else None
    if kind is str or kind is int or kind is bool or obj is None:
        return obj
    if kind is dict:
        return {key: sanitize(value) for key, value in obj.items()}
    if kind is list or kind is tuple:
        return [sanitize(value) for value in obj]
    if isinstance(obj, tuple) and hasattr(kind, "_fields"):
        return {REPORT_RENAMES.get(name, name): sanitize(value)
                for name, value in zip(kind._fields, obj)}
    if isinstance(obj, Mapping):
        return {key: sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(value) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj
