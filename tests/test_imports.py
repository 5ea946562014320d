"""Every module-level import in ``src/roughwave`` is used by its module.

Lines marked ``# noqa`` are deliberate re-exports.  ``__init__`` exists to
re-export, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "roughwave"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            if alias.name == "*" or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            if "# noqa" not in lines[alias.lineno - 1]:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_checker_flags_an_unused_import(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\n"
                      "print(dumps({}))\n")
    assert unused_imports(module) == ["loads (line 3)", "os (line 1)"]
