"""Every top-level function and class in ``src/roughwave``, and every
non-dunder method, is named somewhere besides its own definition line.

The search covers the package, the tests, the benchmark harness and the
README, so a helper whose last caller went fails here.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "roughwave").glob("*.py"))
SEARCHED = [*MODULES, *sorted(ROOT.glob("tests/**/*.py")), *sorted(ROOT.glob("perfbench/**/*.py")),
            ROOT / "README.md"]
WORD = re.compile(r"\w+")


def definitions(path: Path) -> list[tuple[str, int]]:
    """(name, line) of top-level functions and classes and of non-dunder methods."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (*functions, ast.ClassDef)):
            found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [(m.name, m.lineno) for m in node.body
                      if isinstance(m, functions) and not re.fullmatch(r"__\w+__", m.name)]
    return found


def orphans(modules: list[Path], searched: list[Path]) -> list[str]:
    """Definitions in ``modules`` named nowhere in ``searched`` but on their own line."""
    words = Counter(w for path in searched for w in WORD.findall(path.read_text()))
    out = []
    for path in modules:
        lines = path.read_text().splitlines()
        for name, line in definitions(path):
            if words[name] == WORD.findall(lines[line - 1]).count(name):
                out.append(f"{path.name}:{line} {name}")
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_definition_is_named_elsewhere(path):
    assert orphans([path], SEARCHED) == []


def test_checker_flags_an_orphan(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def used():\n    pass\n\n\ndef orphan():\n    pass\n\n\n"
                      "class Thing:\n    def __repr__(self):\n        return helper()\n\n"
                      "    def lone(self):\n        pass\n\n    def called(self):\n        pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text("used()\nThing().called()\n")
    assert orphans([module], [module, caller]) == ["mod.py:5 orphan", "mod.py:13 lone"]
