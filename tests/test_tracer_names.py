"""perfbench/tracer.py wraps sepal functions by name.  A renamed or deleted
function makes its layer read as missing in the benchmark, so every name
the tracer lists must still resolve.  Those names are also the only
top-level functions and classes of the package that no sepal module has
to name: anything else that only the tests call is a helper to delete."""

import ast
import importlib
import importlib.util
from pathlib import Path

import sepal.cli  # noqa: F401  the tracer installs after this import

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_every_package_name_is_used_by_the_package():
    defined, named = set(), set()
    for path in sorted((ROOT / "src" / "sepal").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update((path.stem, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef,
                                            ast.AsyncFunctionDef,
                                            ast.ClassDef)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    traced = {target for targets in tracer_layers().values()
              for target in targets}
    unused = sorted(f"sepal.{module}.{name}" for module, name in defined
                    if name not in named and (module, name) not in traced)
    assert not unused
