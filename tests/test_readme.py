import ast
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src" / "roughwave"
MODULES = ("fields", "operators", "evolution", "physics", "forward", "sensitivity", "experiments",
           "checks", "cli")


def test_python_quickstart_runs(capsys):
    text = README.read_text()
    block = re.search(r"## Python quickstart\s+```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Python quickstart block"
    exec(compile(block.group(1), f"{README}:quickstart", "exec"), {})
    objective, dot_residual = map(float, capsys.readouterr().out.split())
    assert objective > 0
    assert dot_residual <= 1e-12


def defined_names(body) -> set[str]:
    """Functions, classes and assigned names of one module or class body."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def stale_names(readme: pathlib.Path) -> list[str]:
    """Names that a README's backticked prose uses and src/roughwave does not define.

    Outside code fences: `module.name` must be defined in that module, a call
    `name(...)` somewhere in the package (or in the class it is called on), and a
    bare CamelCase name such as `PronyKernel` somewhere in the package.  One-letter
    math such as `q(t)` and calls on other prefixes such as `u.reshape(...)` are
    not package names.
    """
    top, members = {}, {}
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        top[path.stem] = defined_names(tree.body)
        members.update((node.name, defined_names(node.body)) for node in ast.walk(tree)
                       if isinstance(node, ast.ClassDef))
    everything = set().union(*top.values(), *members.values())
    prose = re.sub(r"```.*?```", "", readme.read_text(), flags=re.S)
    stale = []
    for span in re.findall(r"`([^`]+)`", prose):
        for module, name in re.findall(rf"(?<![\w.])({'|'.join(MODULES)})\.(\w+)", span):
            if name not in top[module]:
                stale.append(f"{module}.{name}")
        for chain, name in re.findall(r"(?<![\w.])((?:\w+\.)*)(\w+)\(", span):
            owner = chain[:-1].rpartition(".")[2]
            unknown = (name not in members[owner] if owner in members
                       else not owner and len(name) > 1 and name not in everything)
            if unknown:
                stale.append(f"{chain}{name}(...)")
        if re.fullmatch(r"[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]+)+", span) and span not in everything:
            stale.append(span)
    return stale


def test_backticked_names_are_defined():
    stale = stale_names(README)
    assert not stale, f"README names what src/roughwave does not define: {stale}"


def test_a_deleted_class_named_bare_is_stale(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("No memory is `PronyKernel()`, a `PronyKernel` with no terms, not a\n"
                      "`ZeroKernel`; `DiscreteSystem` holds it.  `NaN`, `CamelCase prose` and\n"
                      "```\nZeroKernel\n```\n fenced code are not names.\n")
    assert stale_names(readme) == ["ZeroKernel"]
