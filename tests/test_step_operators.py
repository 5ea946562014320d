"""The midpoint step operator is built once per system and shared.

Forward solves, step residuals, the adjoint and the dot-product test all
read ``DiscreteSystem.step_operators``; copies of a system build their own.
"""

import dataclasses
import gc
import json
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import roughwave as rw
from conftest import count_calls
from roughwave.cli import parse_config, run_checks
from roughwave.evolution import step_residuals, time_reversed_system
from roughwave.fields import PronyKernel, TabulatedKernel
from roughwave.forward import build_sampler, forward_map_shots, sample_trajectory
from roughwave.operators import memory_series
from roughwave.sensitivity import misfit_gradient, perturbed_system, random_perturbation


@pytest.fixture
def splu_calls(monkeypatch):
    calls = []
    original = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


def prony_2d(cells=10, t_end=0.08):
    g = rw.build_grid(2, [cells, cells], 1.0, 4e-3, t_end)
    model = rw.two_layer_acoustic(g, 1.0, 3.0, interface=0.5)
    kernel = PronyKernel(weights=tuple(np.tile(s * np.eye(3), (g.n_cells, 1, 1)) for s in (0.3, 0.1)),
                         taus=(0.05, 0.4))
    system = rw.acoustics_system(model, kernel=kernel)
    src = rw.make_ricker_source(g, 3, [0.3, 0.5], peak_frequency=8.0)
    sampler = build_sampler([[0.7, 0.4], [0.2, 0.6]], "pressure", g, 3)
    return system, src, sampler


def observed_for(system, src, sampler):
    seis = sample_trajectory(sampler, rw.solve_causal(system, src))
    return rw.SeismogramData(times=seis.times, data=0.8 * seis.data, receivers=seis.receivers)


class TestFactorCount:
    def test_gradient_with_dot_test_factors_once(self, splu_calls):
        system, src, sampler = prony_2d()
        observed = observed_for(system, src, sampler)
        report = misfit_gradient(system, src, sampler, observed,
                                 dot_test_rng=np.random.default_rng(0))
        assert report.diagnostics["dot_product_residual"] <= 1e-12
        assert len(splu_calls) == 1

    def test_check_suite_factors_once(self, tmp_path, splu_calls):
        path = tmp_path / "check.json"
        path.write_text(json.dumps({
            "command": "check",
            "model": {"type": "acoustic",
                      "grid": {"dim": 2, "cells": [16, 16], "extent": 1.0, "dt": 2e-3, "t_end": 0.2},
                      "kappa": {"two_layer": {"left": 1.0, "right": 3.0, "interface": 0.5}},
                      "rho": 1.0},
            "sampler": {"tag": "pressure", "receivers": [[0.7, 0.5]]},
            "seed": 3,
        }))
        results = run_checks(parse_config(str(path)))
        assert all(ok for _, ok, _ in results)
        assert len(splu_calls) == 1


class TestPronyWeights:
    def test_built_once_per_step_operator(self, interval_weight_calls):
        # two terms, a whole-step and a half-step triple each
        system, src, sampler = prony_2d()
        ops = system.step_operators
        assert len(interval_weight_calls) == 4
        assert len(ops.step_weights) == len(ops.half_weights) == len(ops.weight_matrices) == 2
        traj = rw.solve_causal(system, src)
        step_residuals(traj, system)
        observed = rw.SeismogramData(times=traj.times, data=np.zeros((2, traj.times.size)),
                                     receivers=sampler.receivers)
        report = misfit_gradient(system, src, sampler, observed,
                                 dot_test_rng=np.random.default_rng(0))
        assert report.diagnostics["dot_product_residual"] <= 1e-12
        assert len(interval_weight_calls) == 4


class TestTabulatedKernel:
    def test_evaluated_once_per_operator_and_per_convolution(self, monkeypatch):
        # 1D 50 cells, 100 steps; evaluating per step would read 100, 99 and 100
        g = rw.build_grid(1, [50], 1.0, 2e-3, 0.2)
        rng = np.random.default_rng(4)
        q = rng.standard_normal((60, g.n_cells, 2, 2))
        kernel = TabulatedKernel(times=3e-3 * np.arange(60), samples=0.1 * (q + q.swapaxes(2, 3)))
        system = rw.acoustics_system(rw.two_layer_acoustic(g, 1.0, 3.0), kernel=kernel)
        src = rw.make_ricker_source(g, 2, [0.4], peak_frequency=8.0)
        calls = count_calls(monkeypatch, "kernel_values")
        traj = rw.solve_causal(system, src)
        assert g.n_steps == 100 and 1 <= len(calls) <= 2
        del calls[:]
        assert np.abs(step_residuals(traj, system)).max() <= 1e-12
        assert len(calls) == 0
        memory_series(kernel, traj.states, g.dt)
        assert len(calls) == 1


class TestCopies:
    def test_replaced_copy_starts_empty_and_matches(self):
        system, src, sampler = prony_2d()
        observed = observed_for(system, src, sampler)
        ref = misfit_gradient(system, src, sampler, observed, dot_test_rng=np.random.default_rng(5))
        traj = rw.solve_causal(system, src)

        copy = dataclasses.replace(system)
        assert "step_operators" not in vars(copy)
        got = misfit_gradient(copy, src, sampler, observed, dot_test_rng=np.random.default_rng(5))
        assert copy.step_operators is not system.step_operators
        np.testing.assert_array_equal(rw.solve_causal(copy, src).states, traj.states)
        np.testing.assert_array_equal(got.g_a, ref.g_a)
        np.testing.assert_array_equal(got.g_b, ref.g_b)
        assert len(got.g_q) == len(ref.g_q) == 2
        for a, b in zip(got.g_q, ref.g_q):
            np.testing.assert_array_equal(a, b)
        assert got.diagnostics["dot_product_residual"] == ref.diagnostics["dot_product_residual"]

    @pytest.mark.parametrize("derive", [
        lambda s: perturbed_system(s, random_perturbation(s, np.random.default_rng(1)), 0.1),
        time_reversed_system,
    ], ids=["perturbed", "time_reversed"])
    def test_derived_systems_build_their_own(self, derive):
        system, src, _ = prony_2d(cells=8)
        parent_ops = system.step_operators
        derived = derive(system)
        assert "step_operators" not in vars(derived)
        assert derived.step_operators is not parent_ops
        assert (derived.step_operators.c_matrix != parent_ops.c_matrix).nnz > 0
        traj = rw.solve_causal(derived, src)
        assert np.abs(step_residuals(traj, derived, src)).max() <= 1e-10

    def test_no_reference_cycle(self):
        system, _, _ = prony_2d(cells=8)
        gc.collect()
        gc.disable()
        try:
            ref = weakref.ref(system.step_operators)
            assert ref() is not None
            del system
            assert ref() is None
        finally:
            gc.enable()


def test_threads_share_one_factor():
    system, _, sampler = prony_2d(cells=8)
    sources = [rw.make_ricker_source(system.grid, 3, [x, 0.5], peak_frequency=8.0)
               for x in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)]
    serial = forward_map_shots(dataclasses.replace(system), sources, sampler, jobs=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = forward_map_shots(system, sources, sampler, jobs=4)
    finally:
        sys.setswitchinterval(interval)
    assert len(parallel) == len(sources)
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a.data, b.data)
