import sys

import pytest

import roughwave.operators


def count_calls(monkeypatch, name):
    """Record the arguments of every call of ``operators.<name>``, through
    whichever module binds it."""
    original = getattr(roughwave.operators, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "roughwave" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def energy_calls(monkeypatch):
    return count_calls(monkeypatch, "energy")


@pytest.fixture
def interval_weight_calls(monkeypatch):
    return count_calls(monkeypatch, "exp_interval_weights")
