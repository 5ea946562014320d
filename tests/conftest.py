import sys

import pytest

import roughwave.operators


@pytest.fixture
def energy_calls(monkeypatch):
    """Record every call of ``operators.energy``, through whichever module binds it."""
    original = roughwave.operators.energy
    calls = []

    def counted(mass, u):
        calls.append(u.shape)
        return original(mass, u)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "roughwave" and getattr(module, "energy", None) is original:
            monkeypatch.setattr(module, "energy", counted)
    return calls
