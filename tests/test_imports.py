"""Every name a ``bitbit`` module imports is used in that module, every
module-level function or class is named somewhere in the code, and every
function the benchmark's tracer looks up by name exists.

The package ``__init__`` is exempt from the import check: its imports are the
public API. An import line that carries ``# noqa: F401`` is kept on purpose.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bitbit"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by ``import`` statements in ``source`` that nothing else in it reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = "import os\nimport sys\nfrom a import b, c as d\nfrom e import f  # noqa: F401\nprint(sys.argv, d)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: b"]


def unnamed_definitions(definitions: dict[str, str], sources: list[str]) -> list[str]:
    """Module-level functions and classes of the ``definitions`` modules (file
    name to source) that no name, attribute or import in ``sources`` mentions;
    a definition itself is not a mention."""
    named = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
    return [f"{module}: {node.name}" for module, source in sorted(definitions.items())
            for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name not in named]


def test_every_definition_is_named():
    definitions = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    sources = [p.read_text(encoding="utf-8") for folder in ("src", "tests", "demos")
               for p in (ROOT / folder).rglob("*.py")]
    assert unnamed_definitions(definitions, sources) == []


def test_checker_finds_an_unnamed_definition():
    module = "def _write_json(path, doc):\n    pass\n\ndef _write_report(report, output):\n    pass\n"
    caller = "import json\nfrom m import _write_json\n_write_json('r.json', {})\n"
    assert unnamed_definitions({"m.py": module}, [module, caller]) == ["m.py: _write_report"]


def test_benchmark_hook_names_resolve():
    """Every ``module:qualname`` the benchmark's tracer hangs a counter on, and
    the sweep whose time it reads as ``cli.parallelism``, names a function in
    ``bitbit``; a renamed one would make its metric come out absent."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    keys = {key for targets in tracer.COUNTERS.values() for key, _ in targets} | {"coverage:sweep_curve"}
    missing = []
    for key in sorted(keys):
        module, _, qualname = key.partition(":")
        owner = importlib.import_module(f"bitbit.{module}")
        for part in qualname.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(key)
    assert missing == []
