"""The benchmark harness's step probe runs on the package's step operators.

``perfbench/run.py`` probes ``StepOperators(system, dt)``: it reads ``lu.L``,
``lu.U``, ``lu.solve(rhs)``, ``c_matrix`` and ``n_state``.  This loads the
harness and runs its ``probe_step`` on a small 1D and a small 2D system (about
1 s), so a change to that API fails here and not only in a per-layer run.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import roughwave as rw

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HARNESS_MODULES = ("workloads", "speed", "tracing")


@pytest.fixture
def harness(monkeypatch):
    """``perfbench/run.py`` loaded as a module; the BLAS variables it sets on import
    and the harness modules it imports go when the test ends."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(os, "environ", dict(os.environ))
    loaded = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in HARNESS_MODULES:
        if name not in loaded:
            sys.modules.pop(name, None)


@pytest.mark.parametrize("cells", [[200], [16, 16]], ids=["1d", "2d"])
def test_probe_step_runs_on_the_step_operators(harness, cells):
    dim = len(cells)
    g = rw.build_grid(dim, cells, 1.0, 1e-3, 0.01)
    system = rw.acoustics_system(rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.5))
    probe = harness.probe_step(system, g.dt)
    assert set(probe) == {"lu_nnz", "matvec_s", "solve_s", "bytes"}
    lu = system.step_operators.lu
    assert probe["lu_nnz"] == lu.L.nnz + lu.U.nnz > system.n_state
    assert probe["matvec_s"] > 0 and probe["solve_s"] > 0 and probe["bytes"] > 0
