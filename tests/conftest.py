import sys
import tracemalloc
from dataclasses import replace

import numpy as np
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


def time_reversed_system(system):
    """System with the spatial operator negated (the substitution t -> T - t)."""
    skew = replace(system.skew, matrix=(-system.skew.matrix).tocsr(),
                   p_matrices=tuple(-p for p in system.skew.p_matrices))
    return replace(system, skew=skew)


def traced_peak(fn, *args):
    """Peak bytes that Python and numpy allocate while ``fn(*args)`` runs, result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def eigvalsh_rows(monkeypatch):
    """Number of matrices in each stack that reaches ``np.linalg.eigvalsh``."""
    original = np.linalg.eigvalsh
    rows = []

    def counted(a, *args, **kwargs):
        rows.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return rows


@pytest.fixture
def energy_calls(monkeypatch):
    return count_calls(monkeypatch, "energy")


@pytest.fixture
def interval_weight_calls(monkeypatch):
    return count_calls(monkeypatch, "exp_interval_weights")
