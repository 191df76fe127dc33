"""perfbench/tracer.py wraps sepal functions by name.  A renamed or deleted
function makes its layer read as missing in the benchmark, so every name
the tracer lists must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import sepal.cli  # noqa: F401  the tracer installs after this import

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_name_resolves():
    missing = []
    for layer, targets in tracer_layers().items():
        for mod_name, attr in targets:
            obj = importlib.import_module(f"sepal.{mod_name}")
            for part in attr.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}: sepal.{mod_name}.{attr}")
    assert not missing
