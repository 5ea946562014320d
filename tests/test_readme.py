import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_quickstart_runs(capsys):
    text = README.read_text()
    block = re.search(r"## Python quickstart\s+```python\n(.*?)```", text, re.S)
    assert block is not None, "README has no Python quickstart block"
    exec(compile(block.group(1), f"{README}:quickstart", "exec"), {})
    objective, dot_residual = map(float, capsys.readouterr().out.split())
    assert objective > 0
    assert dot_residual <= 1e-12
