import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import roughwave as rw
import roughwave.operators
from roughwave.evolution import step_residuals
from roughwave.fields import PronyKernel, TabulatedKernel, kernel_values
from roughwave.sensitivity import adjoint_solve, dot_product_test


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


def _dense_block_diagonal(blocks):
    """Block-diagonal BSR matrix that stores every entry of each k-by-k cell block, zeros too."""
    n, k, _ = blocks.shape
    return sp.bsr_matrix((np.ascontiguousarray(blocks), np.arange(n), np.arange(n + 1)),
                         shape=(n * k, n * k))


def zero_keeping_step_matrix(system):
    """The midpoint step matrix C summed from dense cell blocks, so that it keeps their
    stored zeros: the assembly the zero-free ``StepOperators`` replaced."""
    ops = system.step_operators
    k_mat = system.skew.matrix
    if system.b_blocks is not None:
        k_mat = k_mat + _dense_block_diagonal(system.b_blocks)
    c = (_dense_block_diagonal(system.mass.blocks) / ops.dt + 0.5 * k_mat).tocsc()
    if isinstance(system.kernel, PronyKernel):
        for w, (_, _, w_new_half) in zip(system.kernel.weights, ops.half_weights):
            c = (c + w_new_half * _dense_block_diagonal(w)).tocsc()
    elif isinstance(system.kernel, TabulatedKernel):
        q0 = kernel_values(system.kernel, np.zeros(1), system.grid.n_cells, system.k)[0]
        c = (c + _dense_block_diagonal((ops.dt / 8.0) * q0)).tocsc()
    return c


def oracle_system(system):
    """Copy of ``system`` whose step operator solves with splu's default (COLAMD) factor
    of the zero-keeping C.  Its C has the same values as the zero-free one."""
    oracle = replace(system)
    c = zero_keeping_step_matrix(oracle)
    assert abs(c - oracle.step_operators.c_matrix).max() == 0
    oracle.step_operators.lu = spla.splu(c)
    return oracle


def assert_matches_oracle(system, src, sampler, rng):
    """Forward states (and, with a sampler, adjoint states) within 1e-13 relative of the
    oracle, step residuals at round-off, and the dot test on the new factor <= 1e-13."""
    oracle = oracle_system(system)
    traj = rw.solve_causal(system, src)
    ref = rw.solve_causal(oracle, src)
    scale = np.abs(ref.states).max()
    assert scale > 0
    assert np.abs(traj.states - ref.states).max() <= 1e-13 * scale
    assert step_residuals(traj, system, src).max() <= 1e-12 * scale
    if sampler is None:
        return
    data = rng.standard_normal((sampler.n_channels, traj.times.size))
    residual = rw.SeismogramData(times=traj.times, data=data, receivers=sampler.receivers)
    w = adjoint_solve(system, residual, sampler).states
    w_ref = adjoint_solve(oracle, residual, sampler).states
    assert np.abs(w - w_ref).max() <= 1e-13 * np.abs(w_ref).max()
    assert dot_product_test(system, traj, sampler, rng) <= 1e-13


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
