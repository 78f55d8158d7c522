import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures
from spatialnet import EdgeRecord, build_graph, cli, shared
from spatialnet.cli import AnalysisConfig, ConfigError, main, run
from spatialnet.empirical import VariableScore
from spatialnet.io import (
    CsvSchemaError,
    MissingResponseError,
    ingest,
    read_variables_csv,
    sanitize,
)

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
NODES = DATA / "nodes.csv"
EDGES = DATA / "edges.csv"
VARIABLES = DATA / "variables.csv"
SRC = Path(__file__).resolve().parent.parent / "src"


# --- ingestion ----------------------------------------------------------------

def test_ingest_sample_files():
    g, table = ingest(NODES, EDGES, VARIABLES)
    assert (g.n, g.m) == (39, 71)
    assert g.is_connected
    assert table.n == 39
    assert table.response.name == "commuters"


def test_missing_response_column(tmp_path):
    path = tmp_path / "vars.csv"
    path.write_text("id,pop:S,cars:B,gdp:O\nR01,1,2,3\n", encoding="utf-8")
    with pytest.raises(MissingResponseError):
        read_variables_csv(path)


def test_negative_km_rejected_with_line(tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("id,label,lat,lon\na,A,0,0\nb,B,0,1\n", encoding="utf-8")
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target,distance_km\na,b,-5\n", encoding="utf-8")
    with pytest.raises(CsvSchemaError, match=r"edges\.csv:2"):
        ingest(nodes, edges)


def test_bad_header_rejected(tmp_path):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text("identifier,label,lat,lon\na,A,0,0\n", encoding="utf-8")
    with pytest.raises(CsvSchemaError, match="header"):
        ingest(nodes, EDGES)


def test_variable_ids_must_match_nodes(tmp_path):
    path = tmp_path / "vars.csv"
    path.write_text(
        "id,pop:S,cars:B,gdp:O,flow:Y\nNOPE,1,2,3,4\n", encoding="utf-8"
    )
    with pytest.raises(CsvSchemaError, match="NOPE"):
        ingest(NODES, EDGES, path)


def test_unknown_class_tag_rejected(tmp_path):
    path = tmp_path / "vars.csv"
    path.write_text("id,pop:Q\nR01,1\n", encoding="utf-8")
    with pytest.raises(CsvSchemaError, match="Q"):
        read_variables_csv(path)


# --- report payloads ------------------------------------------------------------

def test_sanitize_maps_nonfinite_to_none():
    score = VariableScore("pop", "S", float("nan"), 1, 2.5, 3, False)
    payload = {
        "a": float("inf"), "b": [1.0, float("nan")], "c": {"d": 2.0},
        "score": score, "pair": (1, float("-inf")),
    }
    clean = sanitize(payload)
    assert clean == {
        "a": None, "b": [1.0, None], "c": {"d": 2.0},
        "score": {
            "name": "pop", "class": "S", "within_sum_r2": None, "within_rank": 1,
            "global_sum_r2": 2.5, "global_rank": 3, "is_response": False,
        },
        "pair": [1, None],
    }


# --- run() and the CLI ----------------------------------------------------------

def _config(out, **overrides):
    defaults = dict(
        nodes=NODES, edges=EDGES, variables=VARIABLES,
        seed=42, swaps_per_edge=3, replicates=4, out_dir=out,
    )
    defaults.update(overrides)
    return AnalysisConfig(**defaults)


def test_run_all_produces_five_reports(tmp_path):
    bundle = run("all", _config(tmp_path))
    assert sorted(bundle.reports) == [
        "communities", "fits", "measures", "omega", "regression"]
    assert "degree_distribution.csv" in bundle.plotdata
    assert "scaling_betweenness.csv" in bundle.plotdata


def test_stochastic_commands_require_seed(tmp_path):
    with pytest.raises(ConfigError, match="seed"):
        run("omega", _config(tmp_path, seed=None))
    # deterministic command is fine without one
    bundle = run("analyze", _config(tmp_path, seed=None))
    assert "measures" in bundle.reports


def test_regress_requires_vars(tmp_path):
    with pytest.raises(ConfigError, match="vars"):
        run("regress", _config(tmp_path, variables=None))


def test_unknown_epoch_rejected(tmp_path):
    with pytest.raises(ConfigError, match="1999"):
        run("analyze", _config(tmp_path, epoch="1999"))


def test_epoch_feeds_time_section(tmp_path):
    bundle = run("analyze", _config(tmp_path, epoch="2010"))
    time_block = bundle.reports["measures"]["time"]
    assert time_block["epoch"] == "2010"
    assert time_block["avg_path_length_min"] > 0


def test_regression_report_mirrors_model_table(tmp_path):
    bundle = run("regress", _config(tmp_path))
    report = bundle.reports["regression"]
    assert report["selection"]["representatives"].keys() == {"S", "B", "O"}
    model = report["models"][0]
    assert set(model["coefficients"]) == {"(constant)", *model["predictors"]}
    for name, row in model["coefficients"].items():
        assert {"b", "se", "beta", "t", "p"} <= set(row)
    assert model["coefficients"]["(constant)"]["beta"] is None


def test_explicit_model_sets(tmp_path):
    config = _config(tmp_path, model_sets=(
        ("S6_population", "B6_cars", "O2_education"),
        ("S6_population", "B6_cars", "O3_gdp"),
    ))
    bundle = run("regress", config)
    models = bundle.reports["regression"]["models"]
    assert [m["predictors"] for m in models] == [
        ["S6_population", "B6_cars", "O2_education"],
        ["S6_population", "B6_cars", "O3_gdp"],
    ]


def test_cli_exit_codes(tmp_path, capsys):
    ok = main([
        "analyze", "--nodes", str(NODES), "--edges", str(EDGES),
        "--out", str(tmp_path / "ok"),
    ])
    assert ok == 0
    assert (tmp_path / "ok" / "measures.json").exists()

    missing = main([
        "omega", "--nodes", str(NODES), "--edges", str(EDGES),
        "--out", str(tmp_path / "bad"),
    ])
    assert missing == 2  # stochastic command without --seed
    err = capsys.readouterr().err.strip().splitlines()[-1]
    record = json.loads(err)
    assert record["error"] == "ConfigError"
    assert not (tmp_path / "bad").exists()  # nothing written on failure


@pytest.mark.parametrize("command, flags, message", [
    ("all", ["--replicates", "0"], "replicates"),
    ("regress", ["--models", "S6_population,nosuch"], "nosuch"),
    ("all", ["--swaps-per-edge", "-3"], "swaps_per_edge"),
    ("all", ["--alpha", "7"], "alpha"),
    ("all", ["--omega-threshold", "-1"], "omega_threshold"),
    ("communities", ["--seed", "-7"], "seed"),
    ("regress", ["--models", "S1_road_degree,S1_road_degree"], "S1_road_degree"),
    # flags argparse cannot read go through the same one-line record
    ("analyze", ["--seed", "x"], "argument --seed: invalid int value: 'x'"),
    ("regress", ["--alpha", ""], "argument --alpha: invalid float value: ''"),
    # --models is checked whenever it is given, not only where it is read
    ("analyze", ["--models", "nosuch"], "nosuch"),
    ("fit", ["--models", "S6_population;nosuch"], "nosuch"),
    ("analyze", ["--models", "S1_road_degree,S1_road_degree"], "S1_road_degree"),
    ("omega", ["--models", "B6_cars,B6_cars"], "B6_cars"),
    ("analyze", ["--seed", "-1"], "seed"),
    # every ;-separated predictor set names at least one predictor
    ("regress", ["--models", ""], "names no predictor"),
    ("regress", ["--models", ";"], "names no predictor"),
    ("regress", ["--models", " , "], "names no predictor"),
    ("regress", ["--models", "S6_population;"], "names no predictor"),
    ("analyze", ["--models", ""], "names no predictor"),
])
def test_cli_rejects_bad_config(tmp_path, capsys, command, flags, message):
    code = main([
        command, "--nodes", str(NODES), "--edges", str(EDGES),
        "--vars", str(VARIABLES), "--seed", "1", *flags,
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ConfigError"
    assert message in record["message"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "omega", "communities", "fit"])
def test_models_without_vars_rejected(tmp_path, capsys, command):
    code = main([command, "--nodes", str(NODES), "--edges", str(EDGES), "--seed", "1",
                 "--models", "S6_population", "--out", str(tmp_path / "out")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert json.loads(lines[-1]) == {"error": "ConfigError", "message": "--models requires --vars"}
    assert len(lines) == 1 and not (tmp_path / "out").exists()


def test_empty_models_without_vars_rejected(tmp_path, capsys):
    code = main(["analyze", "--nodes", str(NODES), "--edges", str(EDGES),
                 "--models", "", "--out", str(tmp_path / "out")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and not (tmp_path / "out").exists()
    assert json.loads(lines[0])["message"] == "--models '' has a predictor set that names no predictor"


def test_config_boundary_values_accepted():
    config = AnalysisConfig(NODES, EDGES, swaps_per_edge=0, replicates=1, omega_threshold=0.0)
    assert (config.swaps_per_edge, config.replicates, config.omega_threshold) == (0, 1, 0.0)


def test_cli_schema_error_exit_2(tmp_path, capsys):
    edges = tmp_path / "edges.csv"
    edges.write_text("source,target,distance_km\nR01,R02,-3\n", encoding="utf-8")
    code = main([
        "analyze", "--nodes", str(NODES), "--edges", str(edges),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "distance_km" in record["message"]


@pytest.mark.parametrize("header, row, what", [
    ("source,target,distance_km", "b,c,inf", "distance_km"),
    ("source,target,distance_km,time_2010_min", "b,c,5,inf", "time"),
], ids=["km", "time"])
def test_nonfinite_edge_weight_exit_2(tmp_path, capsys, header, row, what):
    nodes = _write(tmp_path / "nodes.csv", b"id,label,lat,lon\na,A,38,22\nb,B,38,23\nc,C,38,24\n")
    first = "a,b,5" + (",4" if "time" in header else "")
    edges = _write(tmp_path / "edges.csv", f"{header}\n{first}\n{row}\n".encode())
    code = main(["analyze", "--nodes", str(nodes), "--edges", str(edges),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "NonFiniteWeightError"
    assert "(b, c)" in record["message"] and what in record["message"]
    assert not (tmp_path / "out").exists()


def _write(path: Path, data: bytes) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    return path


def _repeat_column(source: Path, column: int, path: Path) -> Path:
    """A copy of ``source`` with the given column written twice on every line."""
    rows = [line.split(",") for line in source.read_text(encoding="utf-8").splitlines()]
    return _write(path, "".join(",".join(row[:column + 1] + row[column:]) + "\n"
                                for row in rows).encode())


@pytest.mark.parametrize("command, flag, make, message", [
    ("analyze", "--edges", lambda tmp: tmp / "nonexistent.csv", "cannot read file"),
    ("analyze", "--nodes", lambda tmp: DATA, "cannot read file"),
    ("analyze", "--nodes", lambda tmp: _write(tmp / "nodes.csv", b"\xff\xfe"), "cannot read file"),
    # an unclosed quote makes a cell longer than the csv module's field limit
    ("analyze", "--nodes",
     lambda tmp: _write(tmp / "nodes.csv", b'id,label,lat,lon\na,"' + b"x" * 2**18),
     "cannot read file"),
    ("analyze", "--nodes", lambda tmp: _write(tmp / "nodes.csv", b"id,label,lat,lon\n"),
     "no node rows"),
    ("analyze", "--out", lambda tmp: _write(tmp / "out", b""), "cannot write"),
    ("fit", "--out", lambda tmp: _write(tmp / "out" / "plotdata", b"").parent, "cannot write"),
    ("regress", "--vars",
     lambda tmp: _write(tmp / "variables.csv", VARIABLES.read_bytes().replace(b",3279.0\n", b",nan\n")),
     "missing values at rows ['R01']"),
    ("analyze", "--edges", lambda tmp: _repeat_column(EDGES, 4, tmp / "edges.csv"),
     "column 'time_2010_min' appears more than once"),
    ("analyze", "--nodes", lambda tmp: _repeat_column(NODES, 4, tmp / "nodes.csv"),
     "column 'population' appears more than once"),
    ("regress", "--vars", lambda tmp: _repeat_column(VARIABLES, 1, tmp / "variables.csv"),
     "column 'S1_road_degree:S' appears more than once"),
    # the first row again at the end: the id sets still match the nodes
    ("regress", "--vars",
     lambda tmp: _write(tmp / "variables.csv", VARIABLES.read_bytes()
                        + VARIABLES.read_bytes().splitlines(keepends=True)[1]),
     "variables.csv:41: row id 'R01' repeats line 2"),
    # a predictor named like the intercept row would replace it in regression.json
    ("regress", "--vars",
     lambda tmp: _write(tmp / "variables.csv", VARIABLES.read_bytes()
                        .replace(b"S1_road_degree:S", b"(constant):S", 1)),
     "variables.csv:1: column '(constant):S': a variable may not be named '(constant)'"),
    ("regress", "--vars",
     lambda tmp: _write(tmp / "variables.csv", VARIABLES.read_bytes()
                        .replace(b"S1_road_degree:S", b":S", 1)),
     "variables.csv:1: column ':S': a variable may not be named ''"),
], ids=["missing-file", "directory", "not-utf8", "oversized-cell", "no-node-rows",
        "out-is-file", "plotdata-is-file", "nan-variable-cell", "repeated-edges-column",
        "repeated-nodes-column", "repeated-variables-column", "repeated-variables-id",
        "constant-variable-name", "empty-variable-name"])
def test_unusable_input_or_output_exit_2(tmp_path, capsys, command, flag, make, message):
    flags = {"--nodes": NODES, "--edges": EDGES, "--out": tmp_path / "out"}
    flags[flag] = make(tmp_path)
    code = main([command, *(str(part) for item in flags.items() for part in item)])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert message in json.loads(lines[0])["message"]
    assert not (tmp_path / "out" / "fits.json").exists()  # no partial bundle


def test_byte_order_mark_is_accepted(tmp_path):
    # spreadsheet exports start a UTF-8 file with a byte-order mark
    for source in (NODES, EDGES, VARIABLES):
        _write(tmp_path / "bom" / source.name, b"\xef\xbb\xbf" + source.read_bytes())
    marked = run("all", _config(tmp_path, epoch="2010", nodes=tmp_path / "bom" / "nodes.csv",
                                edges=tmp_path / "bom" / "edges.csv",
                                variables=tmp_path / "bom" / "variables.csv"))
    plain = run("all", _config(tmp_path, epoch="2010"))
    for bundle in (marked, plain):
        for report in bundle.reports.values():
            report.pop("provenance")
    assert (marked.reports, marked.plotdata) == (plain.reports, plain.plotdata)


def _fit_with_second_write_failing(out: Path, capsys, monkeypatch) -> None:
    # the second file's write puts half its text on disk and then fails,
    # as on a full disk
    write_text = Path.write_text
    calls = []

    def failing_write_text(path, text, *args, **kwargs):
        calls.append(path)
        if len(calls) == 2:
            write_text(path, text[: len(text) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")
        return write_text(path, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write_text)
    code = main(["fit", "--nodes", str(NODES), "--edges", str(EDGES), "--out", str(out)])
    monkeypatch.undo()
    assert code == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert "No space left on device" in json.loads(lines[0])["message"]
    assert [path.parent for path in calls] == [out, out / "plotdata"]


def test_write_failing_part_way_leaves_no_partial_file(tmp_path, capsys, monkeypatch):
    # the bundle already in --out stays as it was, and the plotdata/
    # directory the write created is removed again
    out = tmp_path / "out"
    out.mkdir()
    (out / "measures.json").write_text("earlier run\n", encoding="utf-8")
    _fit_with_second_write_failing(out, capsys, monkeypatch)
    assert sorted(str(path.relative_to(out)) for path in out.rglob("*")) == ["measures.json"]
    assert (out / "measures.json").read_text(encoding="utf-8") == "earlier run\n"


def test_write_failing_part_way_removes_the_out_dir_it_created(tmp_path, capsys, monkeypatch):
    # --out and its parent did not exist before the run, so neither is left
    _fit_with_second_write_failing(tmp_path / "new" / "out", capsys, monkeypatch)
    assert list(tmp_path.iterdir()) == []


def test_write_interrupted_part_way_leaves_nothing(tmp_path, monkeypatch):
    # not only an OSError: any exception removes what was staged and placed,
    # and is raised as it came
    bundle = run("fit", _config(tmp_path / "unused"))
    out = tmp_path / "out"
    out.mkdir()
    replace, calls = os.replace, []

    def interrupted_replace(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise KeyboardInterrupt
        replace(src, dst)

    monkeypatch.setattr(os, "replace", interrupted_replace)
    with pytest.raises(KeyboardInterrupt):
        cli.write_bundle(bundle, out)
    monkeypatch.undo()
    assert len(calls) == 2
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["analyze", "regress"])
def test_main_restores_the_sigterm_handler(tmp_path, capsys, command):
    # main runs many times in one process (tests, the benchmark), and
    # regress fails here for want of --vars
    before = signal.getsignal(signal.SIGTERM)
    main([command, "--nodes", str(NODES), "--edges", str(EDGES), "--out", str(tmp_path)])
    assert signal.getsignal(signal.SIGTERM) is before


def test_sigterm_leaves_no_process_and_no_file(tmp_path):
    # omega on geo200 runs for seconds, most of them shared with its forked
    # child; the command runs in a session of its own, so its process group
    # holds exactly the command and that child
    paths, _ = fixtures.geo_inputs(tmp_path / "inputs", 200, 1)
    out = tmp_path / "out"
    code = "import sys\nfrom spatialnet import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    command = subprocess.Popen(
        [sys.executable, "-c", code, "omega", "--nodes", str(paths["nodes.csv"]),
         "--edges", str(paths["edges.csv"]), "--seed", "1", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    try:
        # wait until the child has been forked, where the kernel lists
        # children and the command can fork at all
        children = Path(f"/proc/{command.pid}/task/{command.pid}/children")
        watched = children.exists() and shared.can_fork()
        time.sleep(0.5)
        deadline = time.monotonic() + 10.0
        while watched and not children.read_text() and time.monotonic() < deadline:
            time.sleep(0.05)
        forked = watched and bool(children.read_text().strip())
        command.send_signal(signal.SIGTERM)
        stdout, stderr = command.communicate(timeout=30)
        assert command.returncode == -signal.SIGTERM, stderr.decode()
        assert (stdout, stderr) == (b"", b"")  # no path printed and no JSON line
        time.sleep(1.0)
        with pytest.raises(ProcessLookupError):  # neither the command nor its child
            os.killpg(command.pid, 0)
    finally:  # a failing run leaves nothing running either
        with contextlib.suppress(ProcessLookupError):
            os.killpg(command.pid, signal.SIGKILL)
        command.wait()
    assert not out.exists()
    assert not [path for path in tmp_path.rglob("*") if path.name.endswith(".tmp")]
    assert forked or not watched


def test_sigterm_while_a_failure_is_reported_ends_by_the_signal(tmp_path):
    # the failure record's json.dumps sends the signal, so it arrives in
    # main's handler for the missing nodes file
    code = ("import json, os, signal, sys\n"
            "from spatialnet import cli\n"
            "dumps = json.dumps\n"
            "def terminating_dumps(*args, **kwargs):\n"
            "    os.kill(os.getpid(), signal.SIGTERM)\n"
            "    return dumps(*args, **kwargs)\n"
            "json.dumps = terminating_dumps\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    result = subprocess.run(
        [sys.executable, "-c", code, "analyze", "--nodes", str(tmp_path / "missing.csv"),
         "--edges", str(EDGES), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == -signal.SIGTERM, result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "out").exists()


# --- start-up imports ------------------------------------------------------------

_SAMPLE = ["--nodes", str(NODES), "--edges", str(EDGES)]


@pytest.mark.parametrize("code, loads_numpy", [
    (f"from spatialnet import cli\n"
     f"assert cli.main(['analyze', '--epoch', '2010', *{_SAMPLE}, '--out', 'a']) == 0\n"
     f"assert cli.main(['communities', '--seed', '7', *{_SAMPLE}, '--out', 'c']) == 0\n",
     False),
    (f"from spatialnet import io\n"
     f"io.ingest({str(NODES)!r}, {str(EDGES)!r}, {str(VARIABLES)!r})\n",
     False),
    (f"from spatialnet import cli\n"
     f"assert cli.main(['omega', '--seed', '3', '--replicates', '1', *{_SAMPLE}]) == 0\n",
     True),
], ids=["analyze-communities", "ingest", "omega"])
def test_numpy_loaded_only_by_commands_that_compute_with_it(tmp_path, code, loads_numpy):
    # a fresh process, so no earlier import in this one decides the answer
    code += "import sys\nprint('numpy' in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == str(loads_numpy)


@pytest.mark.parametrize("code", [
    "from spatialnet import cli\n",
    f"from spatialnet import io\n"
    f"io.ingest({str(NODES)!r}, {str(EDGES)!r}, {str(VARIABLES)!r})\n",
], ids=["import-cli", "ingest"])
def test_set_up_imports_neither_dataclasses_nor_inspect(tmp_path, code):
    # the records are NamedTuples, so neither module is needed; importing
    # them cost about a fifth of a command's set-up
    code += "import sys\nprint('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False False"


def test_cli_compute_error_exit_3(tmp_path, capsys):
    # a disconnected graph passes the schema but fails the analysis
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(
        "id,label,lat,lon\na,A,0,0\nb,B,0,1\nx,X,1,0\ny,Y,1,1\n", encoding="utf-8")
    edges = tmp_path / "edges.csv"
    edges.write_text(
        "source,target,distance_km\na,b,5\nx,y,5\n", encoding="utf-8")
    code = main([
        "analyze", "--nodes", str(nodes), "--edges", str(edges),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 3
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "DisconnectedError"


def _completes_on_a_dense_graph(tmp_path, capsys, monkeypatch, allowed, *flags,
                                command="omega"):
    # a dense graph where acceptable swaps are rare (20 of the 1 922 draws
    # at the start): the random chain still reaches its target in every
    # replicate, the command exits 0, and forked, its bundle equals the
    # serial one
    g = fixtures.er_gnm(9, 31, seed=1, connected=True)
    nodes = _write(tmp_path / "nodes.csv", ("id,label,lat,lon\n" + "".join(
        f"{node.id},{node.id},38,{20 + i}\n" for i, node in enumerate(g.nodes))).encode())
    edges = _write(tmp_path / "edges.csv", ("source,target,distance_km\n" + "".join(
        f"{edge.u},{edge.v},1\n" for edge in g.edges)).encode())
    if command == "all":
        flags += ("--vars", str(_write(tmp_path / "variables.csv", (
            "id,a:S,b:B,c:O,y:Y\n" + "".join(f"{node.id},{i},{i * i},{i % 4},{2 * i}\n"
                                             for i, node in enumerate(g.nodes))).encode())))
    bundles = []
    for forked in sorted({False, allowed}):
        forks = _counting_forks(monkeypatch, forked)
        out = tmp_path / str(forked)
        with fixtures.leaves_nothing_behind():
            code = main([command, "--nodes", str(nodes), "--edges", str(edges), "--seed", "1",
                         "--swaps-per-edge", "1", *flags, "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert len(forks) == forked
        per_replicate = json.loads((out / "omega.json").read_text())["ensembles"]["random"][
            "per_replicate"]
        assert {(r["accepted_swaps"], r["converged"]) for r in per_replicate} == {(31, True)}
        bundles.append(_raw_bundle_bytes(out))
    assert bundles[0] == bundles[-1]


@pytest.mark.parametrize("flags", [(), ("--replicates", "4")],
                         ids=["20 replicates", "4 replicates"])
@pytest.mark.parametrize("allowed", [False, True], ids=["serial", "forked"])
def test_omega_completes_on_a_dense_graph(tmp_path, capsys, monkeypatch, allowed, flags):
    # replicate 2, which takes 3 126 attempts: forked, among this process's
    # 10 of the default 20, or as the child's first of 4
    _completes_on_a_dense_graph(tmp_path, capsys, monkeypatch, allowed, *flags)


# --- one fork per command -------------------------------------------------------

def _counting_forks(monkeypatch, allowed):
    monkeypatch.setattr(shared, "can_fork", lambda: allowed)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


SAMPLE_FLAGS = ["--nodes", str(NODES), "--edges", str(EDGES), "--vars", str(VARIABLES),
                "--epoch", "2010"]


@pytest.mark.parametrize("allowed", [False, True], ids=["serial", "forked"])
@pytest.mark.parametrize("command", ["analyze", "omega", "communities", "fit", "regress", "all"])
def test_each_command_forks_at_most_once(tmp_path, capsys, monkeypatch, command, allowed):
    # the report and both ensembles share one fork; the other commands have
    # nothing to share
    forks = _counting_forks(monkeypatch, allowed)
    with fixtures.leaves_nothing_behind():
        assert main([command, *SAMPLE_FLAGS, "--seed", "1", "--replicates", "2",
                     "--out", str(tmp_path / "out")]) == 0
    assert len(forks) == (allowed and command in ("analyze", "omega", "all"))


@pytest.mark.parametrize("argv", [
    ["all", *SAMPLE_FLAGS, "--seed", "1"],
    ["all", *SAMPLE_FLAGS, "--seed", "7"],
    ["omega", "--nodes", str(NODES), "--edges", str(EDGES), "--seed", "3"],
], ids=["all seed 1", "all seed 7", "omega seed 3"])
def test_bundle_is_the_same_forked_and_serial(tmp_path, capsys, monkeypatch, argv):
    bundles = []
    for allowed in (False, True):
        forks = _counting_forks(monkeypatch, allowed)
        out = tmp_path / str(allowed)
        assert main([*argv, "--out", str(out)]) == 0
        assert len(forks) == allowed
        bundles.append(_raw_bundle_bytes(out))
    assert bundles[0] == bundles[1]


@pytest.mark.parametrize("allowed", [False, True], ids=["serial", "forked"])
def test_all_completes_on_a_dense_graph(tmp_path, capsys, monkeypatch, allowed):
    _completes_on_a_dense_graph(tmp_path, capsys, monkeypatch, allowed, command="all")


def _without_edge_40_in_2010(nodes, edges, variables):
    graph, table = ingest(nodes, edges, variables)
    return build_graph(graph.nodes, [
        EdgeRecord(edge.u, edge.v, edge.distance_km, {"1988": edge.time_min["1988"]}) if k == 40
        else edge for k, edge in enumerate(graph.edges)]), table


@pytest.mark.parametrize("fault", ["disconnected", "edge without the epoch"])
def test_all_fails_on_a_bad_input_as_serially_and_never_forks(tmp_path, capsys, monkeypatch,
                                                               fault):
    # every check runs before the one fork, in the serial order
    edges = EDGES
    if fault == "disconnected":  # no edge at the first node
        first = NODES.read_text(encoding="utf-8").splitlines()[1].split(",")[0]
        edges = _write(tmp_path / "edges.csv", "".join(
            line + "\n" for line in EDGES.read_text(encoding="utf-8").splitlines()
            if first not in line.split(",")[:2]).encode())
    else:
        monkeypatch.setattr(cli, "ingest", _without_edge_40_in_2010)
    records = []
    for allowed in (False, True):
        forks = _counting_forks(monkeypatch, allowed)
        with fixtures.leaves_nothing_behind():
            assert main(["all", "--nodes", str(NODES), "--edges", str(edges),
                         "--vars", str(VARIABLES), "--epoch", "2010", "--seed", "1",
                         "--out", str(tmp_path / "out")]) == 3
        assert forks == []
        assert not (tmp_path / "out").exists()
        records.append(json.loads(capsys.readouterr().err))
    assert records[0] == records[1]
    assert records[0]["error"] == {"disconnected": "DisconnectedError",
                                   "edge without the epoch": "UnknownEpochError"}[fault]


def test_all_names_the_lattice_ensemble_when_its_child_fails(tmp_path, capsys, monkeypatch):
    from spatialnet import null_models

    parent = os.getpid()
    replicates = null_models._replicates

    def failing_lattice(claims, g, rewire, *args):
        if os.getpid() != parent and rewire is not null_models._randomize_replicate:
            raise MemoryError("no room for the lattice")
        return replicates(claims, g, rewire, *args)

    monkeypatch.setattr(null_models, "_replicates", failing_lattice)
    forks = _counting_forks(monkeypatch, True)
    with fixtures.leaves_nothing_behind():
        assert main(["all", *SAMPLE_FLAGS, "--seed", "1", "--out", str(tmp_path / "out")]) == 3
    assert len(forks) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "SweepChildError",
        "message": "the lattice ensemble failed in its child process: "
                   "MemoryError: no room for the lattice"}
    assert not (tmp_path / "out").exists()


# --- contract fuzzing ---------------------------------------------------------

SAMPLE = {path.stem: [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
          for path in (NODES, EDGES, VARIABLES)}
BAD_CELLS = ("", "x", "nan", "inf", "-1")
# per file: the columns a reader cannot do without (the fuzzed runs pass
# --epoch 2010, so edges.csv needs time_2010_min, column 4), how many lead
# the header in a fixed order, the numeric columns and the id columns
NEEDED = {"nodes": {0, 1, 2, 3}, "edges": {0, 1, 2, 4}, "variables": {0, 11}}
LEADING = {"nodes": 4, "edges": 3, "variables": 1}
NUMERIC = {"nodes": {2, 3}, "edges": {2, 3, 4}, "variables": set(range(1, 12))}
IDS = {"nodes": {0}, "edges": {0, 1}, "variables": {0}}
FLAG_FAULTS = [("--seed", "-1"), ("--seed", "x"), ("--replicates", "0"),
               ("--replicates", "1.5"), ("--swaps-per-edge", "-1"), ("--alpha", "1"),
               ("--alpha", "nan"), ("--alpha", ""), ("--omega-threshold", "1"),
               ("--omega-threshold", "-0.5"), ("--epoch", "1999"),
               ("--models", "B6_cars,B6_cars"), ("--models", "nosuch"),
               ("--models", ";")]
# what each command needs to run on the sample, kept small for speed; the
# fault's flag comes after these, so it overrides them
COMMAND_FLAGS = {"analyze": [], "regress": [], "fit": [], "communities": ["--seed", "1"],
                 "omega": ["--seed", "1", "--replicates", "1", "--swaps-per-edge", "1"]}


def _is_input_error(name: str, fault: tuple) -> bool:
    """Whether the README calls this one fault in ``name``.csv an input
    error (exit 2); every other fault leaves valid input (exit 0)."""
    kind, column = fault[0], fault[-1]
    if kind == "drop":
        return column in NEEDED[name]
    if kind == "swap":  # columns column and column + 1
        return column < LEADING[name]
    if kind == "cell":
        value = fault[2]
        if column in IDS[name]:  # a renamed id leaves edges or variables unmatched
            return True
        if column in NUMERIC[name]:
            return value != "-1" or name == "edges"
        return False  # a label or an ignored extra column
    return kind in ("repeat-column", "repeat-row")  # not "bom"


@st.composite
def _contract_cases(draw):
    """One command and one fault: in a header or a cell of one sample CSV,
    or one flag value out of range, not a number or naming bad models."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    if draw(st.integers(0, 3)) == 0:
        return command, None, draw(st.sampled_from(FLAG_FAULTS)), True
    name = draw(st.sampled_from(sorted(SAMPLE)))
    width = len(SAMPLE[name][0])
    column = draw(st.integers(0, width - 1))
    kind = draw(st.sampled_from(("drop", "repeat-column", "swap", "cell", "repeat-row", "bom")))
    if kind == "swap":
        column = min(column, width - 2)
    if kind == "cell":
        fault = (kind, draw(st.integers(1, 3)), draw(st.sampled_from(BAD_CELLS)), column)
    elif kind == "repeat-row":
        fault = (kind, draw(st.integers(1, 3)), 0)
    else:
        fault = (kind, column)
    return command, (name, fault), None, _is_input_error(name, fault)


def _corrupt(name: str, fault: tuple) -> bytes:
    rows = [list(row) for row in SAMPLE[name]]
    kind, column = fault[0], fault[-1]
    if kind == "drop":
        rows = [row[:column] + row[column + 1:] for row in rows]
    elif kind == "repeat-column":
        rows = [row[:column + 1] + row[column:] for row in rows]
    elif kind == "swap":
        for row in rows:
            row[column], row[column + 1] = row[column + 1], row[column]
    elif kind == "cell":
        rows[fault[1]][column] = fault[2]
    elif kind == "repeat-row":  # an edge comes back as the reversed pair
        copy = list(rows[fault[1]])
        if name == "edges":
            copy[0], copy[1] = copy[1], copy[0]
        rows.append(copy)
    text = "".join(",".join(row) + "\n" for row in rows).encode()
    return b"\xef\xbb\xbf" + text if kind == "bom" else text


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_contract_cases())
def test_cli_contract_under_one_fault(case):
    # exit 0, 2 or 3; a failure prints one JSON line and writes no bundle;
    # an input or flag fault exits 2, and a harmless change exits 0
    command, file_fault, flag, input_error = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        files = {"--nodes": NODES, "--edges": EDGES, "--vars": VARIABLES}
        if file_fault is not None:
            name, fault = file_fault
            files[{"nodes": "--nodes", "edges": "--edges", "variables": "--vars"}[name]] = _write(
                tmp / f"{name}.csv", _corrupt(name, fault))
        argv = [command, *(str(part) for item in files.items() for part in item),
                "--epoch", "2010", *COMMAND_FLAGS[command], *(flag or ()),
                "--out", str(tmp / "out")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert code == (2 if input_error else 0), err.getvalue()
        if code:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1
            assert set(json.loads(lines[0])) == {"error", "message"}
            assert not (tmp / "out").exists()


def _masked_bundle_bytes(out_dir: Path) -> dict:
    blobs = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_dir():
            continue
        rel = path.relative_to(out_dir)
        if path.suffix == ".json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            payload["provenance"].pop("generated_at")
            blobs[str(rel)] = json.dumps(payload, sort_keys=True)
        else:
            blobs[str(rel)] = path.read_text(encoding="utf-8")
    return blobs


def test_run_all_deterministic_modulo_timestamp(tmp_path):
    args = ["all", "--nodes", str(NODES), "--edges", str(EDGES),
            "--vars", str(VARIABLES), "--seed", "7",
            "--swaps-per-edge", "3", "--replicates", "4"]
    assert main(args + ["--out", str(tmp_path / "one")]) == 0
    assert main(args + ["--out", str(tmp_path / "two")]) == 0
    assert _masked_bundle_bytes(tmp_path / "one") == _masked_bundle_bytes(tmp_path / "two")


def _raw_bundle_bytes(out_dir: Path) -> dict:
    return {
        str(path.relative_to(out_dir)): re.sub(rb'"generated_at": "[^"]*"', b"", path.read_bytes())
        for path in sorted(out_dir.rglob("*")) if path.is_file()
    }


def test_bundle_independent_of_input_paths(tmp_path, monkeypatch):
    # the same input bytes reached by an absolute and a relative path of
    # different lengths give the same bundle
    for where in ("a", "deeper/copy/b"):
        (tmp_path / where).mkdir(parents=True)
        for source in (NODES, EDGES, VARIABLES):
            (tmp_path / where / source.name).write_bytes(source.read_bytes())
    common = ["--epoch", "2010", "--seed", "7", "--swaps-per-edge", "1", "--replicates", "2"]
    first = tmp_path / "a"
    assert main(["all", "--nodes", str(first / "nodes.csv"), "--edges", str(first / "edges.csv"),
                 "--vars", str(first / "variables.csv"), *common,
                 "--out", str(tmp_path / "one")]) == 0
    monkeypatch.chdir(tmp_path / "deeper")
    assert main(["all", "--nodes", "copy/b/nodes.csv", "--edges", "copy/b/edges.csv",
                 "--vars", "copy/b/variables.csv", *common, "--out", str(tmp_path / "two")]) == 0
    assert _raw_bundle_bytes(tmp_path / "one") == _raw_bundle_bytes(tmp_path / "two")
    config = json.loads((tmp_path / "one" / "measures.json").read_text())["provenance"]["config"]
    assert config["nodes"] == {"name": "nodes.csv",
                               "sha256": hashlib.sha256(NODES.read_bytes()).hexdigest()}


def test_different_seed_changes_omega(tmp_path):
    a = run("omega", _config(tmp_path, seed=1))
    b = run("omega", _config(tmp_path, seed=2))
    assert a.reports["omega"]["omega"] != b.reports["omega"]["omega"]


# --- golden reports -----------------------------------------------------------

def _assert_matches(actual, expected, where="$"):
    """Exact keys, types, strings, ints and None; floats to rel 1e-12."""
    assert type(actual) is type(expected), f"{where}: {actual!r} vs {expected!r}"
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), where
        for key in expected:
            _assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            _assert_matches(a, e, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(actual, expected, rel_tol=1e-12, abs_tol=0.0), \
            f"{where}: {actual!r} vs {expected!r}"
    else:
        assert actual == expected, f"{where}: {actual!r} vs {expected!r}"


def _csv_cell(cell: str):
    if cell == "":
        return None
    for parse in (int, float):
        try:
            return parse(cell)
        except ValueError:
            pass
    return cell


def _read_csv(path: Path) -> list[list]:
    with path.open(newline="", encoding="utf-8") as handle:
        return [[_csv_cell(cell) for cell in row] for row in csv.reader(handle)]


def test_matches_golden_omega_at_default_ensemble_sizes(tmp_path):
    # `all --epoch 2010 --seed 7` with the default 20 + 20 replicates and
    # 10 swaps per edge, without provenance: pins every replicate's
    # counters, path length and clustering
    out = tmp_path / "out"
    assert main([
        "all", "--nodes", str(NODES), "--edges", str(EDGES), "--vars", str(VARIABLES),
        "--epoch", "2010", "--seed", "7", "--out", str(out),
    ]) == 0
    actual = json.loads((out / "omega.json").read_text(encoding="utf-8"))
    actual.pop("provenance")
    expected = json.loads((GOLDEN / "omega.json").read_text(encoding="utf-8"))
    _assert_matches(actual, expected, "omega")


@pytest.mark.parametrize("command, reports", [
    ("all", ("measures", "communities", "fits", "regression")),
    ("fit", ("fits",)),  # fits computed without a measure report
])
def test_matches_golden_reports(tmp_path, command, reports):
    # The golden files hold `all --epoch 2010 --seed 7` on the sample,
    # without provenance. Omega is left out, so the null-model ensembles
    # (which only feed omega) are kept small here.
    out = tmp_path / "out"
    assert main([
        command, "--nodes", str(NODES), "--edges", str(EDGES), "--vars", str(VARIABLES),
        "--epoch", "2010", "--seed", "7", "--swaps-per-edge", "1", "--replicates", "2",
        "--out", str(out),
    ]) == 0
    for name in reports:
        actual = json.loads((out / f"{name}.json").read_text(encoding="utf-8"))
        actual.pop("provenance")
        expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        _assert_matches(actual, expected, name)
    golden_plots = sorted(path.name for path in (GOLDEN / "plotdata").glob("*.csv"))
    assert sorted(path.name for path in (out / "plotdata").glob("*.csv")) == golden_plots
    for name in golden_plots:
        _assert_matches(
            _read_csv(out / "plotdata" / name), _read_csv(GOLDEN / "plotdata" / name), name
        )
