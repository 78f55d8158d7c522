"""The benchmark tracer patches spatialnet functions by name, in modules
it finds loaded after importing the CLI; a rename or a lazy import in the
package must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
DATA = Path(__file__).resolve().parent / "data"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    tracer = _load_tracer()
    missing = []
    for module_name, functions in tracer.TRACED.items():
        module = importlib.import_module(f"spatialnet.{module_name}")
        missing += [f"{module_name}.{name}" for name in functions
                    if not callable(getattr(module, name, None))]
    assert not missing


# What perfbench/worker.py does in a traced run: import the CLI and
# null_models, load the tracer from its own directory, then install and
# uninstall it. Printed as JSON: the spatialnet modules that importing the
# CLI loaded, and the traced functions left unpatched after install and
# left patched after uninstall. argv holds the src and perfbench paths.
_WORKER_STEPS = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from spatialnet import cli
loaded = sorted(name for name in sys.modules if name.startswith("spatialnet."))
from spatialnet import null_models
import tracer as tracing

pairs = [(module, name) for module, names in tracing.TRACED.items() for name in names]

def patched():
    return {f"{module}.{name}" for module, name in pairs
            if hasattr(getattr(sys.modules["spatialnet." + module], name), "__wrapped__")}

tracer = tracing.Tracer("t")
tracer.install()
unpatched = sorted({f"{module}.{name}" for module, name in pairs} - patched())
tracer.uninstall()
print(json.dumps({"loaded": loaded, "unpatched": unpatched,
                  "still_patched": sorted(patched())}))
"""


def test_tracer_installs_in_a_worker_process():
    # a lazy import in the package must not leave a traced module out of
    # sys.modules when the tracer installs (KeyError), or a function unpatched
    src = TRACER.parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", _WORKER_STEPS, str(src), str(TRACER.parent)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    state = json.loads(result.stdout.splitlines()[-1])
    traced = _load_tracer().TRACED
    assert set(state["loaded"]) >= {f"spatialnet.{module}" for module in traced
                                    if module != "null_models"}
    assert state["unpatched"] == []
    assert state["still_patched"] == []


def test_traced_omega_runs_the_hooks_in_a_worker_process(tmp_path):
    # the hooks read the graph API (degree, nodes, edges, is_connected) and
    # the ensembles; a narrowed API must fail here, not in a traced run
    spec = {
        "inputs": {"nodes": str(DATA / "nodes.csv"), "edges": str(DATA / "edges.csv")},
        "argv": ["omega", "--nodes", str(DATA / "nodes.csv"), "--edges", str(DATA / "edges.csv"),
                 "--seed", "1", "--replicates", "1", "--swaps-per-edge", "1",
                 "--out", str(tmp_path / "out")],
        "trace": True,
        "run_id": "traced-omega",
        "trace_file": str(tmp_path / "trace.json"),
    }
    result = subprocess.run([sys.executable, str(TRACER.parent / "worker.py"), json.dumps(spec)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert record["rc"] == 0
    assert record["errors"] == []
    assert 0 < record["lattice_cost_ratio"] <= 1
    assert record["layers"]["null_models.randomize.attempts"] > 0


def test_untraced_worker_probes_the_lattice_cost_ratio(tmp_path):
    # an untraced run replaces null_models.latticeize by attribute to read
    # the gated lattice_cost_ratio; a cli that bound latticeize by name
    # would drop the metric from every untraced run
    spec = {
        "inputs": {"nodes": str(DATA / "nodes.csv"), "edges": str(DATA / "edges.csv")},
        "argv": ["omega", "--nodes", str(DATA / "nodes.csv"), "--edges", str(DATA / "edges.csv"),
                 "--seed", "1", "--replicates", "1", "--swaps-per-edge", "1",
                 "--out", str(tmp_path / "out")],
        "trace": False,
        "run_id": "untraced-omega",
    }
    result = subprocess.run([sys.executable, str(TRACER.parent / "worker.py"), json.dumps(spec)],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert record["rc"] == 0
    assert 0 < record["lattice_cost_ratio"] <= 1
    assert "layers" not in record
