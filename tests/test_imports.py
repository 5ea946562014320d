"""Every module-level import in ``src/roughwave`` is used by its module,
``import roughwave`` loads no scipy subpackage that the solver does not run,
no module imports a concurrency library, every module imports only the
package modules below it in ``LAYERS``, and no module but ``fields`` names
``TabulatedKernel`` or ``prony_fit``.

Lines marked ``# noqa`` are deliberate re-exports.  ``__init__`` exists to
re-export, so it is not checked.
"""

import ast
import os
import subprocess
import sys
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


def test_package_import_loads_no_quadrature_optimization_or_special_functions():
    # the solver needs scipy.sparse and scipy.linalg; quadrature is for test oracles
    unwanted = ("scipy.integrate", "scipy.optimize", "scipy.special")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    probe = f"import sys, roughwave; print(*(m for m in {unwanted!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == []


def imported_modules(path: Path) -> set[str]:
    """Every module an ``import`` statement anywhere in the file names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_no_module_imports_a_concurrency_library():
    # shots step together as the columns of one solve, so the package runs on one thread
    banned = ("concurrent", "threading", "multiprocessing")
    offenders = {p.name: sorted(m for m in imported_modules(p) if m.split(".")[0] in banned)
                 for p in sorted(SRC.glob("*.py"))}
    assert {name: mods for name, mods in offenders.items() if mods} == {}


def test_concurrency_check_sees_nested_imports(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def f():\n    from concurrent.futures import ThreadPoolExecutor\n"
                      "    import threading, json\n")
    assert imported_modules(module) == {"concurrent.futures", "threading", "json"}


# the package's modules from the bottom up: each may import only those before it
LAYERS = ("errors", "fields", "operators", "evolution", "forward", "physics", "sensitivity",
          "experiments", "checks", "cli", "__main__")


def package_imports(path: Path) -> set[str]:
    """The ``roughwave`` modules that an import anywhere in the file names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module.split(".")[0]] if node.module
                         else (alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("roughwave."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("roughwave."))
    return names


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in MODULES) == sorted(LAYERS)


@pytest.mark.parametrize("layer", range(len(LAYERS)), ids=LAYERS)
def test_module_imports_only_lower_layers(layer):
    above = package_imports(SRC / f"{LAYERS[layer]}.py") - set(LAYERS[:layer])
    assert sorted(above) == []


def test_layer_check_sees_nested_and_absolute_imports(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from . import fields, cli\nfrom .errors import RoughwaveError\n"
                      "def f():\n    from .experiments import fit_slope\n"
                      "    import roughwave.physics, json\n    from roughwave.forward import x\n")
    assert package_imports(module) == {"fields", "cli", "errors", "experiments", "physics",
                                       "forward"}


# the names that turn a sampled kernel into a Prony sum, which only ``fields`` may use
SAMPLED_KERNEL_NAMES = ("TabulatedKernel", "prony_fit")


def sampled_kernel_names(path: Path) -> set[str]:
    """The names of ``SAMPLED_KERNEL_NAMES`` that the file imports or reads, as a bare
    name or as an attribute of any module."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names & set(SAMPLED_KERNEL_NAMES)


def test_only_fields_turns_samples_into_a_prony_sum():
    # fields, models and systems hold a PronyKernel; ``__init__`` only re-exports
    offenders = {p.stem: sorted(sampled_kernel_names(p)) for p in MODULES if p.stem != "fields"}
    assert {name: used for name, used in offenders.items() if used} == {}


def test_sampled_kernel_check_sees_imports_and_attributes(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("from . import fields\nfrom .fields import TabulatedKernel as T\n"
                      "def f(k, g):\n    return fields.prony_fit(k, g.dt, g.dt)\n")
    assert sampled_kernel_names(module) == {"TabulatedKernel", "prony_fit"}
