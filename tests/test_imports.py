"""Every name a ``bitbit`` module imports is used in that module.

The package ``__init__`` is exempt: its imports are the public API. An import
line that carries ``# noqa: F401`` is kept on purpose.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bitbit"
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
