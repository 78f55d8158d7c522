"""The benchmark tracer patches spatialnet functions by name; a rename
in the package must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
