"""Module boundaries of the package, read off its source with ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spatialnet"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_fork_protocol_and_private_names_stay_in_their_modules():
    # only ``shared`` forks, leaves by os._exit and uses marshal, and no
    # module reads another's underscore names, by attribute or by import
    paths = sorted(PACKAGE.glob("*.py"))
    modules = {path.stem for path in paths}
    protocol, foreign = [], []
    for path in paths:
        here = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}  # local name -> the package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "marshal":
                        protocol.append(f"{here}: import marshal")
                    if alias.name.startswith("spatialnet."):
                        aliases[alias.asname or alias.name] = alias.name.split(".")[1]
            elif isinstance(node, ast.ImportFrom):
                if node.module == "marshal":
                    protocol.append(f"{here}: from marshal import")
                source = node.module or ""
                if node.level == 0 and source.split(".")[0] != "spatialnet":
                    continue
                source = source.removeprefix("spatialnet").lstrip(".")
                for alias in node.names:
                    if not source and alias.name in modules:  # from . import measures
                        aliases[alias.asname or alias.name] = alias.name
                    elif source and source != here and _private(alias.name):
                        foreign.append(f"{here}: from .{source} import {alias.name}")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "os" and node.attr in ("fork", "_exit")):
                protocol.append(f"{here}: os.{node.attr}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and aliases.get(node.value.id, here) != here and _private(node.attr)):
                foreign.append(f"{here}: {node.value.id}.{node.attr}")
    assert [hit for hit in protocol if not hit.startswith("shared:")] == []
    assert foreign == []


def test_no_module_imports_the_heavy_standard_modules():
    # shared forks by hand rather than through multiprocessing, marshal
    # stands in for pickle, and cli reads CPython's own sha256 before it
    # falls back to hashlib: multiprocessing costs about 2.5 MiB of peak
    # RSS and hashlib about 3.5 MiB
    heavy = {"multiprocessing", "pickle", "concurrent", "hashlib"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.stem}: {name}" for name in names
                      if name.split(".")[0] in heavy]
    assert found == ["cli: hashlib"]


def test_only_graph_reads_edge_record_fields():
    # graph turns edge records into integer ends and cost columns and back;
    # every other module reads the columns, by node number
    fields = {"u", "v", "distance_km", "time_min"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "graph":
            found += [f"{path.stem}:{node.lineno} .{node.attr}"
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, ast.Attribute) and node.attr in fields]
    assert found == []
