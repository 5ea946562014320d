"""The midpoint step operator is built once per system and shared.

Forward solves, step residuals, the adjoint and the dot-product test all
read ``DiscreteSystem.step_operators``; copies of a system build their own.
"""

import dataclasses
import gc
import json
import weakref
from collections import deque

import numpy as np
import pytest

import roughwave as rw
import roughwave.fields
from roughwave import evolution
from conftest import (
    adjoint_solve,
    damped_oscillation,
    fitted,
    per_term_adjoint,
    per_term_solve,
    time_reversed_system,
    traced_peak,
    two_relaxations,
)
from oracles import perturbed_system
from roughwave.cli import main
from roughwave.errors import (
    GridMismatchError,
    InvalidArgumentError,
    SolverError,
    UnsupportedConfigurationError,
)
from roughwave.evolution import _midpoint_solve, _midpoint_steps, step_residuals
from roughwave.fields import PronyKernel, kernel_values
from roughwave.forward import build_sampler, forward_map_shots, sample_trajectory
from roughwave.operators import StepFactor, memory_series, replay_carries
from roughwave.physics import ViscoelasticModel
from roughwave.sensitivity import (
    BLOCK_STEPS,
    misfit_gradient,
    random_perturbation,
)


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


def stacked_step_case(dim, boundary, kernel):
    """Random acoustic medium, 20 steps, with no memory, a two-term Prony kernel or the
    fit of a tabulated one; a Ricker source and two pressure receivers."""
    cells = {1: [30], 2: [9, 7], 3: [4, 5, 3]}[dim]
    rng = np.random.default_rng(dim)
    dt = 0.5 / max(cells)
    g = rw.build_grid(dim, cells, 1.0, dt, 20 * dt)
    model = rw.AcousticModel(grid=g, kappa=rng.uniform(0.5, 4.0, g.n_cells),
                             rho=rng.uniform(0.5, 2.0, g.n_cells))
    eye = np.eye(dim + 1)
    if kernel == "prony":
        kernel = PronyKernel(weights=tuple(rng.uniform(0, 1, g.n_cells)[:, None, None] * eye
                                           for _ in range(2)), taus=(0.05, 0.5))
    elif kernel == "tabulated":
        kernel = fitted(two_relaxations(dt * np.arange(30), rng.uniform(0, 1, g.n_cells),
                                        dim + 1), g)
    else:
        kernel = PronyKernel()
    system = rw.acoustics_system(model, boundary=boundary, kernel=kernel)
    src = rw.make_ricker_source(g, dim + 1, [0.4] * dim, peak_frequency=1 / (4 * dt), delay=6 * dt)
    sampler = build_sampler(rng.uniform(0.05, 0.95, (2, dim)).tolist(), "pressure", g, dim + 1)
    return system, src, sampler, rng


class TestStackedStep:
    """One sparse product per step against the per-term oracles of ``conftest``."""

    @pytest.mark.parametrize("kernel", [None, "prony", "tabulated"])
    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_forward_and_adjoint_match_per_term_oracle(self, dim, boundary, kernel):
        system, src, sampler, rng = stacked_step_case(dim, boundary, kernel)
        states = rw.solve_causal(system, src).states
        ref = per_term_solve(system, src)
        scale = np.abs(ref).max()
        assert scale > 0
        assert np.abs(states - ref).max() <= 1e-13 * scale
        if kernel is None:
            assert np.array_equal(states, ref)
        residual = rw.SeismogramData(times=system.grid.times(), receivers=sampler.receivers,
                                     data=rng.standard_normal((2, system.grid.n_steps + 1)))
        w = adjoint_solve(system, residual, sampler).states
        w_ref = per_term_adjoint(system, residual, sampler)
        assert np.abs(w - w_ref).max() <= 1e-13 * np.abs(w_ref).max()
        if kernel is None:
            assert np.array_equal(w, w_ref)

    @pytest.mark.parametrize("kernel", [None, "prony"])
    def test_transposed_product_equals_the_stored_transpose(self, kernel):
        # the adjoint's product with the CSC view rhs_matrix.T, bit for bit that of
        # the transpose stored in CSR form, on random lam
        system, _, _, rng = stacked_step_case(2, "periodic", kernel)
        ops = system.step_operators
        n_terms = 2 if kernel else 0
        assert ops.rhs_matrix.shape == (ops.n_state, (1 + n_terms) * ops.n_state)
        stored = ops.rhs_matrix.T.tocsr()
        for _ in range(5):
            lam = rng.standard_normal(ops.n_state)
            assert np.array_equal(ops.rhs_matrix.T @ lam, stored @ lam)

    @pytest.mark.parametrize("kernel", [None, "prony", "tabulated"])
    def test_forced_solve_matches_per_term_oracle(self, kernel):
        system, *_ = stacked_step_case(1, "periodic", kernel)
        forcing = np.random.default_rng(4).standard_normal((system.grid.n_steps, system.n_state))
        forced = rw.solve_causal(system, None, forcing=forcing).states  # forcing only
        ref = per_term_solve(system, None, forcing)
        assert np.abs(forced - ref).max() <= 1e-13 * np.abs(ref).max()
        if kernel is None:
            assert np.array_equal(forced, ref)

    def test_non_finite_step_names_the_step(self):
        system, src, *_ = stacked_step_case(2, "periodic", "prony")
        forcing = np.zeros((system.grid.n_steps, system.n_state))
        forcing[3, 5] = np.nan
        with pytest.raises(SolverError, match="at step 3$"):
            rw.solve_causal(system, src, forcing=forcing)

    @pytest.mark.parametrize("kernel", [None, "prony", "tabulated"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sampled_solve_equals_sampling_the_stored_states(self, dim, kernel):
        # the step loop keeps only the sampled columns
        system, src, sampler, _ = stacked_step_case(dim, "periodic", kernel)
        got = rw.forward_map(system, src, sampler)
        ref = sample_trajectory(sampler, rw.solve_causal(system, src))
        assert np.abs(ref.data).max() > 0
        np.testing.assert_array_equal(got.data, ref.data)
        np.testing.assert_array_equal(got.times, ref.times)


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
        assert main(["check", "--config", str(path)]) == 0
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
    def test_evaluated_once_when_it_is_fitted(self, monkeypatch):
        # a system holds the kernel's Prony fit: a solve, its residuals and the
        # convolution of the system's kernel read no tabulated value
        g = rw.build_grid(1, [50], 1.0, 2e-3, 0.2)
        kernel = damped_oscillation(3e-3 * np.arange(80), np.linspace(0.1, 1.0, g.n_cells), 2)
        calls = []
        monkeypatch.setattr(roughwave.fields, "kernel_values",
                            lambda *args: calls.append(args) or kernel_values(*args))
        system = rw.acoustics_system(rw.two_layer_acoustic(g, 1.0, 3.0), kernel=fitted(kernel, g))
        assert len(calls) == 1 and isinstance(system.kernel, PronyKernel)
        src = rw.make_ricker_source(g, 2, [0.4], peak_frequency=8.0)
        traj = rw.solve_causal(system, src)
        assert np.abs(step_residuals(traj, system)).max() <= 1e-12
        list(memory_series(system.kernel, traj.states, g.dt))
        assert dataclasses.replace(system).kernel is system.kernel
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


class TestShots:
    """Shots step together as the columns of one midpoint solve."""

    @pytest.mark.parametrize("kernel", [None, "prony", "tabulated"])
    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_equal_to_one_forward_map_per_shot(self, dim, boundary, kernel):
        system, src, sampler, _ = stacked_step_case(dim, boundary, kernel)
        sources = [dataclasses.replace(src, footprint=scale * src.footprint)
                   for scale in (1.0, -0.5, 2.0)]
        sources.append(rw.make_ricker_source(system.grid, dim + 1, [0.7] * dim,
                                             peak_frequency=1 / (4 * system.grid.dt)))
        shots = forward_map_shots(system, sources, sampler)
        assert len(shots) == len(sources)
        for seis, source in zip(shots, sources):
            alone = rw.forward_map(system, source, sampler)
            assert np.array_equal(seis.data, alone.data)
            assert np.array_equal(seis.times, alone.times)

    @pytest.mark.parametrize("n_shots", [1, 2, 5])
    def test_one_factor_and_one_solve_per_step(self, splu_calls, n_shots):
        system, _, sampler = prony_2d(cells=8)
        lu, solves = system.step_operators.lu, []
        solve = lu.solve

        def counting(rhs, trans="N", component=None):
            solves.append(rhs.shape)
            return solve(rhs, trans, component)

        lu.solve = counting
        sources = [rw.make_ricker_source(system.grid, 3, [x, 0.5], peak_frequency=8.0)
                   for x in np.linspace(0.2, 0.7, n_shots)]
        forward_map_shots(system, sources, sampler)
        assert len(splu_calls) == 1
        assert solves == [(system.n_state, n_shots)] * system.grid.n_steps

    def test_no_sources_no_solve(self, splu_calls):
        system, _, sampler = prony_2d(cells=8)
        assert forward_map_shots(system, [], sampler) == []
        assert splu_calls == []

    def test_each_rough_source_warns(self):
        system, _, sampler = prony_2d(cells=8)
        sources = [rw.make_burst_source(system.grid, 3, [x, 0.5], frequency=8.0, smoothness=s)
                   for x, s in ((0.3, 1), (0.5, 3), (0.6, 1))]
        with pytest.warns(UserWarning, match="not differentiable") as record:
            forward_map_shots(system, sources, sampler)
        assert len(record) == 2
        assert {w.filename for w in record} == {__file__}


class TestMidpointSteps:
    """``_midpoint_steps`` yields the carries (u_n, s_j(t_n)) one step at a time and can
    resume from any of them; ``_midpoint_solve`` collects all states or only some of
    their rows."""

    @pytest.mark.parametrize("kernel", [None, "prony", "tabulated"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_columns_only_solve_equal_to_the_full_one(self, dim, kernel):
        system, src, sampler, _ = stacked_step_case(dim, "acoustic_free", kernel)
        sources = [src, None, dataclasses.replace(src, footprint=-2.0 * src.footprint)]
        u0 = np.zeros((system.n_state, len(sources)))
        full = _midpoint_solve(system, sources, u0, None)
        cols = sampler.gathered[0]
        assert np.array_equal(_midpoint_solve(system, sources, u0, None, cols), full[:, cols])
        steps = list(_midpoint_steps([system], sources, u0, None))
        assert len(steps) == system.grid.n_steps
        assert all(np.array_equal(z[0, 0], row) for z, row in zip(steps, full[1:]))
        assert np.array_equal(full[..., 0], rw.solve_causal(system, src).states)
        assert np.abs(full[..., 0]).max() > 0

    @pytest.mark.parametrize("kernel", [None, "prony", "tabulated"])
    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_resumes_bit_for_bit_from_a_yielded_carry(self, dim, boundary, kernel):
        system, src, _, rng = stacked_step_case(dim, boundary, kernel)
        n_steps, n_terms = system.grid.n_steps, system.step_operators.n_terms
        sources = [src, None]
        u0 = np.zeros((system.n_state, len(sources)))
        forcing = rng.standard_normal((n_steps, system.n_state))
        carries = [np.zeros((1, 1 + n_terms, *u0.shape)),
                   *_midpoint_steps([system], sources, u0, forcing)]
        assert carries[-1].shape == (1, 1 + {None: 0, "prony": 2, "tabulated": n_terms}[kernel],
                                     *u0.shape)
        assert np.all(np.abs(carries[-1]).max(axis=(0, 2, 3)) > 0)
        for start in (0, 1, BLOCK_STEPS, n_steps - 1):
            rows = iter(forcing[start:])
            for resumed in (_midpoint_steps([system], sources, carries[start], forcing, start),
                            _midpoint_steps([system], sources, carries[start], rows, start)):
                resumed = list(resumed)
                assert len(resumed) == n_steps - start
                assert all(np.array_equal(z, ref) for z, ref in zip(resumed, carries[start + 1:]))

    @pytest.mark.parametrize("kernel", [None, "prony"])
    @pytest.mark.parametrize("cells, centers, reach", [
        ([40], [[0.5]], 1), ([40], [[0.5], [0.49]], 2), ([10, 8], [[0.3, 0.5]], 1),
        ([6, 5, 4], [[0.3] * 3], 1),
    ], ids=["1d_one_class", "1d_both_classes", "2d", "3d"])
    def test_fused_columns_are_each_column_solved_alone(self, cells, centers, reach, kernel):
        # a source, three times it and two columns driven by their own forcing rows step
        # as one solve to the floats of four solves; in 1D a lone source column that
        # reaches one parity class solves that component alone, the fused solve all
        dim = len(cells)
        dt = 0.5 / max(cells)
        g = rw.build_grid(dim, cells, 1.0, dt, 30 * dt)
        kern = PronyKernel()
        if kernel == "prony":
            kern = PronyKernel(weights=tuple(np.tile(s * np.eye(dim + 1), (g.n_cells, 1, 1))
                                             for s in (0.3, 0.1)), taus=(0.05, 0.4))
        system = rw.acoustics_system(rw.two_layer_acoustic(g, 1.0, 3.0, interface=0.55),
                                     kernel=kern)
        src, *more = (rw.make_ricker_source(g, dim + 1, c, peak_frequency=8.0) for c in centers)
        src = dataclasses.replace(src, footprint=sum((s.footprint for s in more), src.footprint))
        labels = system.step_operators.lu.labels
        assert np.unique(labels[src.footprint != 0]).size == reach
        n = system.n_state
        forcing = np.random.default_rng(dim).standard_normal((g.n_steps, n, 4))
        forcing[..., :2] = 0.0
        sources = [src, dataclasses.replace(src, footprint=3.0 * src.footprint), None, None]
        fused = np.array([z[0, 0] for z in _midpoint_steps([system], sources, np.zeros((n, 4)),
                                                           iter(forcing))])
        for col, source in enumerate(sources):
            rows = None if source is not None else forcing[..., col]
            alone = [z[0, 0, :, 0] for z in _midpoint_steps([system], [source], np.zeros((n, 1)),
                                                            rows)]
            assert np.array_equal(fused[..., col], alone)
            assert np.abs(fused[..., col]).max() > 0

    @pytest.mark.parametrize("kernel", [None, "prony"])
    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    @pytest.mark.parametrize("cells", [[40], [41], [10, 8]])
    def test_replayed_carries_are_the_yielded_ones(self, cells, boundary, kernel):
        dim = len(cells)
        dt = 0.5 / max(cells)
        g = rw.build_grid(dim, cells, 1.0, dt, 30 * dt)
        eye = np.eye(dim + 1)
        kern = PronyKernel()
        if kernel == "prony":
            kern = PronyKernel(weights=tuple(np.tile(s * eye, (g.n_cells, 1, 1)) for s in (0.3, 0.1)),
                               taus=(0.05, 0.4))
        system = rw.acoustics_system(rw.two_layer_acoustic(g, 1.0, 3.0, interface=0.55),
                                     boundary, kernel=kern)
        src = rw.make_ricker_source(g, dim + 1, [0.3] * dim, peak_frequency=8.0)
        u0 = np.zeros((system.n_state, 1))
        yielded = [z[0, ..., 0] for z in _midpoint_steps([system], [src], u0, None)]
        states = np.array([u0[:, 0], *(z[0] for z in yielded)])
        replayed = list(replay_carries(states, system.step_operators.step_weights))
        assert len(replayed) == len(yielded) + 1 == g.n_steps + 1
        assert replayed[0].shape == yielded[0].shape and not replayed[0].any()
        assert all(np.array_equal(z, ref) for z, ref in zip(replayed[1:], yielded))
        assert np.abs(yielded[-1]).max(axis=1).min() > 0

    @pytest.mark.parametrize("kind", [None, "prony", "tabulated"])
    def test_keeps_no_past_states(self, kind):
        g = rw.build_grid(1, [400], 1.0, 2.5e-3, 0.5)
        eye = np.eye(2)
        kernel = {"prony": PronyKernel(weights=(0.3 * np.tile(eye, (g.n_cells, 1, 1)),),
                                       taus=(0.1,)),
                  "tabulated": fitted(two_relaxations(0.05 * np.arange(12),
                                                      np.full(g.n_cells, 0.3), 2), g),
                  }.get(kind, PronyKernel())
        system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0), kernel=kernel)
        src = rw.make_ricker_source(g, 2, [0.4], peak_frequency=6.0)
        system.step_operators  # built outside the traced steps
        series_bytes = (g.n_steps + 1) * system.n_state * 8
        u0 = np.zeros((system.n_state, 1))
        peak = traced_peak(lambda: deque(_midpoint_steps([system], [src], u0, None), maxlen=0))
        if kind == "tabulated":
            # the fit's carry holds 1 + n_terms states (11 here), a stored series 201
            carry_bytes = (1 + system.step_operators.n_terms) * system.n_state * 8
            assert peak <= 10 * carry_bytes < series_bytes
        else:
            assert peak <= 0.1 * series_bytes


def batch_case(case, kernel, n_systems=3):
    """``n_systems`` random acoustic media on one grid, 12 steps, each with no memory, a
    two-term Prony kernel (shared relaxation times) or the fit of a tabulated one on one
    sample grid (the fits share theirs), and a Ricker
    source.  ``restricted-1d`` is periodic with an even count and a point source, so a
    batch steps one parity class; ``free-odd-1d`` (acoustic_free, odd count, smooth
    footprint), ``free-1d`` (acoustic_free), ``odd-1d`` (periodic, odd count) and ``2d``
    step every unknown, and so does ``mixed-labels-1d``, whose last system couples each
    cell's pressure and velocity through b, which joins the parity classes that the
    others keep apart."""
    dim = 2 if case == "2d" else 1
    cells = {"restricted-1d": [40], "free-odd-1d": [41], "free-1d": [40], "odd-1d": [41],
             "2d": [8, 6], "mixed-labels-1d": [40]}[case]
    boundary = "acoustic_free" if case.startswith("free") else "periodic"
    rng = np.random.default_rng(len(case))
    dt = 0.5 / max(cells)
    g = rw.build_grid(dim, cells, 1.0, dt, 12 * dt)
    eye = np.eye(dim + 1)
    systems = []
    for _ in range(n_systems):
        model = rw.AcousticModel(grid=g, kappa=rng.uniform(0.5, 4.0, g.n_cells),
                                 rho=rng.uniform(0.5, 2.0, g.n_cells))
        memory = PronyKernel()
        if kernel == "prony":
            memory = PronyKernel(weights=tuple(rng.uniform(0, 1, g.n_cells)[:, None, None] * eye
                                               for _ in range(2)), taus=(0.05, 0.5))
        elif kernel == "tabulated":
            memory = fitted(two_relaxations(dt * np.arange(20), rng.uniform(0, 1, g.n_cells),
                                            dim + 1), g)
        systems.append(rw.acoustics_system(model, boundary=boundary, kernel=memory))
    if case == "mixed-labels-1d":
        coupling = np.tile([[0.2, 0.1], [0.1, 0.2]], (g.n_cells, 1, 1))
        systems[-1] = dataclasses.replace(systems[-1], b_blocks=coupling)
    width = 0.05 if case == "free-odd-1d" else None
    src = rw.make_ricker_source(g, dim + 1, [0.4] * dim, peak_frequency=1 / (4 * dt),
                                delay=4 * dt, footprint_width=width)
    return systems, src, rng


def recording_solvers(monkeypatch):
    """Every ``StepFactor`` that a solve runs on, once per call."""
    solvers, solve = [], StepFactor.solve
    monkeypatch.setattr(StepFactor, "solve",
                        lambda self, *args, **kwargs: solvers.append(self)
                        or solve(self, *args, **kwargs))
    return solvers


class TestBatchedSteps:
    """Independent systems stepped as one batch yield, bit for bit, the carries of
    stepping each system alone."""

    CASES = ["restricted-1d", "free-odd-1d", "free-1d", "odd-1d", "2d", "mixed-labels-1d"]

    @pytest.mark.parametrize("kernel", [None, "prony", "tabulated"])
    @pytest.mark.parametrize("case", CASES)
    def test_equal_to_one_generator_per_system(self, monkeypatch, splu_calls, case, kernel):
        systems, src, _ = batch_case(case, kernel)
        sources = [src, None, src]  # two columns of one source: one evaluation per step
        u0 = np.zeros((systems[0].n_state, len(sources)))
        alone = [list(_midpoint_steps([s], sources, u0, None)) for s in systems]
        factored_alone = len(splu_calls)
        solvers = recording_solvers(monkeypatch)
        evaluations, evaluate = [], rw.SourceTerm.evaluate
        monkeypatch.setattr(rw.SourceTerm, "evaluate",
                            lambda *args: evaluations.append(args) or evaluate(*args))
        products, block_diagonal = [], evolution._block_diagonal_rows

        def recording(matrices):
            matrix = block_diagonal(matrices)
            products.append(matrix.shape)
            return matrix

        monkeypatch.setattr(evolution, "_block_diagonal_rows", recording)
        batch = list(_midpoint_steps(systems, sources, u0, None))
        n_steps, n_terms = systems[0].grid.n_steps, systems[0].step_operators.n_terms
        assert len(batch) == n_steps
        assert len(evaluations) == n_steps
        for i, steps in enumerate(alone):
            assert all(np.array_equal(z[i:i + 1], ref) for z, ref in zip(batch, steps))
        assert batch[-1].shape == (len(systems), 1 + n_terms, systems[0].n_state, len(sources))
        assert np.all(np.abs(batch[-1][:, 0, :, 0]).max(axis=1) > 0)
        assert np.array_equal(batch[-1][..., 0], batch[-1][..., 2])
        assert not batch[-1][..., 1].any()
        # the point source reaches one parity class: when the systems label their
        # classes alike, the batch forms that class's rows of
        # the full-size carries alone and solves them on one factor of the block
        # diagonal of their class blocks; every other batch solves on the systems' own
        # factors, which stepping alone has already made
        one_class = case == "restricted-1d"
        n_state = systems[0].n_state
        n_rows = n_state // (2 if one_class else 1)
        assert products == [(len(systems) * n_rows, len(systems) * (1 + n_terms) * n_state)]
        assert len(splu_calls) - factored_alone == (1 if one_class else 0)
        own = {id(s.step_operators.lu) for s in systems}
        assert ({id(lu) for lu in solvers} & own) == (set() if one_class else own)
        assert len(set(solvers)) == (1 if one_class else len(systems))

    @pytest.mark.parametrize("kernel", [None, "prony", "tabulated"])
    @pytest.mark.parametrize("case", CASES)
    def test_per_column_forcing_and_resuming(self, case, kernel):
        systems, src, rng = batch_case(case, kernel)
        n_steps, n_state = systems[0].grid.n_steps, systems[0].n_state
        sources = [src, None]
        u0 = np.zeros((n_state, 2))
        rows = list(rng.standard_normal((n_steps, n_state, 2)))
        for forcing in (None, rows):
            def feed(start=0):
                return None if forcing is None else iter(forcing[start:])

            batch = [np.zeros((len(systems), 1 + systems[0].step_operators.n_terms, n_state, 2)),
                     *_midpoint_steps(systems, sources, u0, feed())]
            for i, system in enumerate(systems):
                alone = _midpoint_steps([system], sources, u0, feed())
                assert all(np.array_equal(z[i:i + 1], ref) for z, ref in zip(batch[1:], alone))
            # the second column is driven by the forcing alone
            assert (np.abs(batch[-1][:, 0, :, 1]).max() > 0) == (forcing is not None)
            for start in (1, 5, n_steps - 1):
                resumed = list(_midpoint_steps(systems, sources, batch[start], feed(start), start))
                assert len(resumed) == n_steps - start
                assert all(np.array_equal(z, ref) for z, ref in zip(resumed, batch[start + 1:]))

    def test_systems_must_share_grid_and_relaxation_times(self):
        systems, src, _ = batch_case("restricted-1d", "prony", n_systems=2)
        u0 = np.zeros((systems[0].n_state, 1))
        g = systems[0].grid
        other_grid = rw.build_grid(1, [40], 1.0, 0.5 * g.dt, g.n_steps * g.dt)
        on_other_grid = rw.acoustics_system(rw.AcousticModel(grid=other_grid, kappa=1.0, rho=1.0))
        with pytest.raises(GridMismatchError, match="systems of a batch differ in grid"):
            next(_midpoint_steps([systems[0], on_other_grid], [src], u0, None))
        kernel = systems[1].kernel
        slower = dataclasses.replace(systems[1], kernel=PronyKernel(kernel.weights, (0.05, 0.6)))
        no_memory = dataclasses.replace(systems[1], kernel=PronyKernel())
        for other in (slower, no_memory):
            with pytest.raises(UnsupportedConfigurationError, match="Prony relaxation times"):
                next(_midpoint_steps([systems[0], other], [src], u0, None))

    def test_a_solve_with_no_columns_rejected(self, splu_calls):
        systems, _, _ = batch_case("restricted-1d", None, n_systems=2)
        with pytest.raises(InvalidArgumentError, match="u0 has no columns"):
            next(_midpoint_steps(systems, [], np.zeros((systems[0].n_state, 0)), None))
        assert splu_calls == []

    def test_more_sources_than_columns_rejected(self, splu_calls):
        systems, src, _ = batch_case("restricted-1d", None, n_systems=2)
        with pytest.raises(InvalidArgumentError, match="sources has 3 entries for the 1 columns"):
            next(_midpoint_steps(systems, [src] * 3, np.zeros((systems[0].n_state, 1)), None))
        assert splu_calls == []

    def test_fewer_sources_than_carry_columns_rejected(self):
        # a carry's columns are its last axis, whatever its leading ones
        systems, src, _ = batch_case("restricted-1d", None, n_systems=2)
        carry = next(_midpoint_steps(systems, [src, None], np.zeros((systems[0].n_state, 2)),
                                     None))
        with pytest.raises(InvalidArgumentError, match="sources has 1 entries for the 2 columns"):
            next(_midpoint_steps(systems, [None], carry, None, start=1))


def parity_batch(cells, kernel, medium, n_systems=3):
    """``n_systems`` 1D media on a periodic grid of an even number of ``cells``, 16
    steps of dt = 2.5 h, and a point Ricker source, which reaches one parity class.
    ``medium`` is ``two_layer`` or ``random`` acoustics, with no memory or a two-term
    Prony kernel (shared relaxation times), or ``viscoelastic``: random Prony
    relaxation of the stress, whose damping acts on the stress alone and keeps the
    classes apart."""
    rng = np.random.default_rng(cells)
    # past the CFL step: partial pivoting then leaves negative pivots in U, which
    # turn a zero right-hand side into -0.0 unless the solve is skipped
    dt = 2.5 / cells
    g = rw.build_grid(1, [cells], 1.0, dt, 16 * dt)
    taus = (0.05, 0.5)
    systems = []
    for i in range(n_systems):
        if medium == "viscoelastic":
            weights = tuple(rng.uniform(0.1, 0.5, (g.n_cells, 1, 1)) for _ in taus)
            model = ViscoelasticModel(grid=g, rho=rng.uniform(0.5, 2.0, g.n_cells),
                                      gamma_elastic=rng.uniform(1.0, 3.0, (g.n_cells, 1, 1)),
                                      gamma_kernel=PronyKernel(weights=weights, taus=taus))
            systems.append(rw.viscoelastic_system(model))
            continue
        if medium == "two_layer":
            model = rw.two_layer_acoustic(g, 1.0 + i, 4.0 - i, interface=0.55)
        else:
            model = rw.AcousticModel(grid=g, kappa=rng.uniform(0.5, 4.0, g.n_cells),
                                     rho=rng.uniform(0.5, 2.0, g.n_cells))
        memory = PronyKernel()
        if kernel == "prony":
            memory = PronyKernel(weights=tuple(rng.uniform(0, 1, g.n_cells)[:, None, None]
                                               * np.eye(2) for _ in taus), taus=taus)
        systems.append(rw.acoustics_system(model, kernel=memory))
    src = rw.make_ricker_source(g, 2, [0.4], peak_frequency=1 / (4 * dt), delay=4 * dt)
    return systems, src


class TestBatchFactor:
    """A batch that steps one parity class solves it on one factor of the block
    diagonal of the systems' class blocks, and yields the carries of stepping each
    system alone, bit for bit; a single system solves on its own factor."""

    @pytest.mark.parametrize("cells, kernel, medium", [
        *((cells, kernel, medium) for cells in (4, 10, 64) for kernel in (None, "prony")
          for medium in ("two_layer", "random")),
        (4, "prony", "viscoelastic"), (30, "prony", "viscoelastic")])
    def test_equal_to_each_system_alone(self, splu_calls, monkeypatch, cells, kernel, medium):
        systems, src = parity_batch(cells, kernel, medium,
                                    n_systems=2 if medium == "viscoelastic" else 3)
        solvers = recording_solvers(monkeypatch)
        sources = [src, None, src]
        u0 = np.zeros((systems[0].n_state, len(sources)))
        batch = list(_midpoint_steps(systems, sources, u0, None))
        # one factor and one solve per step, on none of the systems' own factors
        assert len(splu_calls) == 1 and len(solvers) == len(batch) and len(set(solvers)) == 1
        assert all(solvers[0] is not s.step_operators.lu for s in systems)
        for i, system in enumerate(systems):
            alone = list(_midpoint_steps([system], sources, u0, None))
            assert all(np.array_equal(z[i:i + 1], ref) for z, ref in zip(batch, alone))
        assert np.abs(batch[-1][:, 0, :, 0]).max(axis=1).min() > 0
        # resumed from a carry in which the second system is all zero and no source
        # drives it: its block stays +0.0 while the others step on
        start = len(batch) // 2
        carry = batch[start - 1].copy()
        carry[1] = 0.0
        resumed = list(_midpoint_steps(systems, [None] * 3, carry, None, start))
        for i, system in enumerate(systems):
            alone = _midpoint_steps([system], [None] * 3, carry[i:i + 1], None, start)
            assert all(np.array_equal(z[i:i + 1], ref) for z, ref in zip(resumed, alone))
        assert all(not z[1].any() and not np.signbit(z[1]).any() for z in resumed)
        assert np.abs(resumed[-1][0]).max() > 0

    @pytest.mark.parametrize("case", ["restricted-1d", "2d"])
    def test_a_single_system_solves_on_its_own_factor(self, splu_calls, monkeypatch, case):
        systems, src, _ = batch_case(case, "prony", n_systems=1)
        solvers = recording_solvers(monkeypatch)
        _midpoint_solve(systems[0], [src], np.zeros((systems[0].n_state, 1)), None)
        assert len(splu_calls) == 1
        assert solvers and all(lu is systems[0].step_operators.lu for lu in solvers)
