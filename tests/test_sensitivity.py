import itertools
import json
import warnings

import numpy as np
import pytest
from conftest import (
    adjoint_solve,
    assert_forcing_matches_per_step,
    assert_gradient_matches_per_step,
    count_calls,
    per_step_forcing,
    traced_peak,
)
from oracles import (
    dot_product_test,
    finite_difference_table,
    quotient_study,
    stored_derivative,
    stored_misfit_gradient,
)

import roughwave as rw
from roughwave.errors import InvalidArgumentError, SolverError, UnsupportedConfigurationError
from roughwave.evolution import _midpoint_steps, step_residuals
from roughwave.fields import PronyKernel
from roughwave.forward import build_sampler, sample_trajectory
from roughwave.sensitivity import (
    BLOCK_STEPS,
    CoefficientPerturbation,
    GradientReport,
    adjoint_gradient,
    derivative_steps,
    linearized_forcing,
    misfit_gradient,
    objective_from_data,
    perturbed_system,
    random_perturbation,
    save_gradient_report,
)


def acoustic_setup(cells=120, t_end=0.3, with_memory=True, seed=0, amplitude=20.0):
    rng = np.random.default_rng(seed)
    g = rw.build_grid(1, [cells], 1.0, 1e-3, t_end)
    model = rw.AcousticModel(grid=g, kappa=1.0 + 0.3 * rng.random(g.n_cells),
                             rho=1.0 + 0.2 * rng.random(g.n_cells))
    kernel = None
    if with_memory:
        kernel = PronyKernel(weights=(np.tile(0.2 * np.eye(2), (g.n_cells, 1, 1)),), taus=(0.4,))
    system = rw.acoustics_system(model, kernel=kernel)
    src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=8.0, amplitude=amplitude)
    sampler = build_sampler([[0.7], [0.55]], "pressure", g, 2)
    return g, system, src, sampler


class TestDirectionalDerivative:
    def test_zero_perturbation(self):
        g, system, src, sampler = acoustic_setup()
        base = rw.solve_causal(system, src)
        du = stored_derivative(system, base, CoefficientPerturbation())
        assert np.abs(du.states).max() == 0.0

    def test_linearity_in_perturbation(self):
        g, system, src, sampler = acoustic_setup()
        base = rw.solve_causal(system, src)
        rng = np.random.default_rng(1)
        pert = random_perturbation(system, rng)
        pert2 = CoefficientPerturbation(
            delta_a=2 * pert.delta_a, delta_b=2 * pert.delta_b,
            delta_weights=tuple(2 * w for w in pert.delta_weights))
        du = stored_derivative(system, base, pert)
        du2 = stored_derivative(system, base, pert2)
        assert np.abs(du2.states - 2 * du.states).max() <= 1e-11 * np.abs(du2.states).max()

    def test_step_residuals_see_the_perturbation_forcing(self):
        # the derivative solve is driven by the forcing alone, so its step
        # residuals are round-off with the forcing and large without it
        g = rw.build_grid(2, [12, 12], 1.0, 5e-3, 0.1)
        model = rw.two_layer_acoustic(g, kappa_left=1.0, kappa_right=3.0, interface=0.6)
        kernel = PronyKernel(weights=(np.tile(0.4 * np.eye(3), (g.n_cells, 1, 1)),
                                      np.tile(0.15 * np.eye(3), (g.n_cells, 1, 1))),
                             taus=(0.07, 0.3))
        system = rw.acoustics_system(model, kernel=kernel)
        src = rw.make_ricker_source(g, 3, [0.4, 0.5], peak_frequency=6.0)
        base = rw.solve_causal(system, src)
        pert = random_perturbation(system, np.random.default_rng(2))
        forcing = per_step_forcing(system, base, pert)
        du = stored_derivative(system, base, pert)
        scale = np.abs(du.states).max()
        assert step_residuals(du, system, forcing=forcing).max() <= 1e-12 * scale
        assert step_residuals(du, system).max() > 1e-3 * scale

    def test_newton_quotient_converges(self):
        g, system, src, sampler = acoustic_setup(with_memory=False)
        bump = np.zeros((g.n_cells, 2, 2))
        bump[60] = np.diag([0.3, 0.1])
        study = quotient_study(system, CoefficientPerturbation(delta_a=bump), src,
                               [1e-1, 1e-2, 1e-3])
        rem = study.remainders
        assert all(b < a for a, b in zip(rem, rem[1:]))
        assert rem[-1] <= 0.01 * study.derivative_norm
        assert study.slope >= 0.9  # first-order remainder decay


class TestObjective:
    def test_perfect_fit(self):
        g, system, src, sampler = acoustic_setup(with_memory=False, t_end=0.2)
        data = rw.forward_map(system, src, sampler)
        assert objective_from_data(data, data) == 0.0

    def test_single_sample_arithmetic(self):
        # F = 0, one sample d = 2, dt = 1: J = 0.5 * 1 * (0 - 2)^2 = 2
        times = np.array([0.0, 1.0])
        f = rw.SeismogramData(times=times, data=np.zeros((1, 2)), receivers=np.zeros((1, 1)))
        d = rw.SeismogramData(times=times, data=np.array([[0.0, 2.0]]),
                              receivers=np.zeros((1, 1)))
        assert objective_from_data(f, d) == pytest.approx(2.0)

    def test_quadratic_scaling(self):
        g, system, src, sampler = acoustic_setup(with_memory=False, t_end=0.2)
        data = rw.forward_map(system, src, sampler)
        zero = rw.SeismogramData(times=data.times, data=np.zeros_like(data.data),
                                 receivers=data.receivers)
        scaled = rw.SeismogramData(times=data.times, data=3.0 * data.data,
                                    receivers=data.receivers)
        j1 = objective_from_data(zero, data)
        j3 = objective_from_data(zero, scaled)
        assert j3 == pytest.approx(9.0 * j1, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_sample_in_either_series_rejected(self, bad):
        times = np.array([0.0, 1.0, 2.0])
        clean = rw.SeismogramData(times=times, data=np.ones((2, 3)), receivers=np.zeros((2, 1)))
        dirty = rw.SeismogramData(times=times, data=np.ones((2, 3)), receivers=np.zeros((2, 1)))
        dirty.data[1, 2] = bad
        with pytest.raises(InvalidArgumentError, match="observed data hold a non-finite"):
            objective_from_data(clean, dirty)
        with pytest.raises(InvalidArgumentError, match="predicted data hold a non-finite"):
            objective_from_data(dirty, clean)


class TestAdjoint:
    def test_zero_residual_sweep_gives_zero_gradient(self):
        g, system, src, sampler = acoustic_setup(t_end=0.2)
        base = rw.solve_causal(system, src)
        residual = rw.SeismogramData(times=g.times(), data=np.zeros((2, g.n_steps + 1)),
                                     receivers=sampler.receivers)
        report = adjoint_gradient(system, base, residual, sampler)
        for grad in (report.g_a, report.g_b, *report.g_q):
            assert np.abs(grad).max() == 0.0

    def test_oracle_terminal_condition(self):
        g, system, src, sampler = acoustic_setup(t_end=0.2)
        rng = np.random.default_rng(0)
        residual = rw.SeismogramData(times=g.times(),
                                     data=rng.standard_normal((2, g.n_steps + 1)),
                                     receivers=sampler.receivers)
        w = adjoint_solve(system, residual, sampler)
        assert np.abs(w.states[-1]).max() == 0.0

    @pytest.mark.parametrize("with_memory", [False, True])
    def test_dot_product_identity(self, with_memory):
        g, system, src, sampler = acoustic_setup(with_memory=with_memory, t_end=0.25)
        base = rw.solve_causal(system, src)
        rng = np.random.default_rng(3)
        for _ in range(3):
            assert dot_product_test(system, base, sampler, rng) <= 1e-10

    def test_dot_product_identity_2d(self):
        rng = np.random.default_rng(4)
        g = rw.build_grid(2, [20, 20], 1.0, 2e-3, 0.12)
        model = rw.AcousticModel(grid=g, kappa=1.0 + 0.2 * rng.random(g.n_cells), rho=1.0)
        kern = PronyKernel(weights=(np.tile(0.1 * np.eye(3), (g.n_cells, 1, 1)),), taus=(0.5,))
        system = rw.acoustics_system(model, kernel=kern)
        src = rw.make_ricker_source(g, 3, [0.4, 0.5], peak_frequency=6.0)
        base = rw.solve_causal(system, src)
        sampler = build_sampler([[0.7, 0.6]], "pressure", g, 3)
        assert dot_product_test(system, base, sampler, rng) <= 1e-10

    def test_dot_product_identity_acoustic_free_boundary(self):
        rng = np.random.default_rng(6)
        g = rw.build_grid(1, [100], 1.0, 1e-3, 0.25)
        model = rw.AcousticModel(grid=g, kappa=1.0 + 0.2 * rng.random(100), rho=1.0)
        system = rw.acoustics_system(model, boundary="acoustic_free")
        src = rw.make_ricker_source(g, 2, [0.4], peak_frequency=8.0)
        base = rw.solve_causal(system, src)
        sampler = build_sampler([[0.7]], "pressure", g, 2)
        assert dot_product_test(system, base, sampler, rng) <= 1e-10

    def test_tabulated_kernel_rejected(self):
        g = rw.build_grid(1, [16], 1.0, 1e-3, 0.05)
        times = np.linspace(0, 0.2, 21)
        samples = np.exp(-times)[:, None, None, None] * np.ones((1, 16, 2, 2))
        field = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0).coefficient_field(
            kernel=rw.TabulatedKernel(times=times, samples=samples))
        system = rw.assemble_system(field)
        residual = rw.SeismogramData(times=g.times(), data=np.zeros((1, g.n_steps + 1)),
                                     receivers=np.zeros((1, 1)))
        sampler = build_sampler([[0.5]], "pressure", g, 2)
        base = rw.Trajectory(grid=g, times=g.times(), a_blocks=system.a_blocks,
                             states=np.zeros((g.n_steps + 1, system.n_state)))
        with pytest.raises(UnsupportedConfigurationError):
            rw.adjoint_gradient(system, base, residual, sampler)


class TestGradient:
    def test_one_cell_one_step_arithmetic(self):
        # one step: lam_0 = C^-T S^T r_1, g_a = sym(lam_0 (x) (u_1 - u_0)) and
        # g_b = dt lam_0 (x) (u_0 + u_1)/2, per cell
        g = rw.build_grid(1, [2], 1.0, 0.1, 0.1)
        model = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0)
        system = rw.acoustics_system(model)
        times = g.times()
        u = np.zeros((2, system.n_state))
        u[1, 0] = 0.3  # (u1 - u0)/dt = 3 in cell 0, component 0
        base = rw.Trajectory(grid=g, times=times, states=u, a_blocks=system.a_blocks)
        sampler = build_sampler([[0.25]], "pressure", g, system.k)  # cell 0's center
        residual = rw.SeismogramData(times=times, data=np.array([[0.0, 2.0]]),
                                     receivers=sampler.receivers)
        lam0 = np.linalg.solve(system.step_operators.c_matrix.toarray().T, [2.0, 0.0, 0.0, 0.0])
        assert lam0[0] != 0.0
        report = rw.adjoint_gradient(system, base, residual, sampler)
        assert report.g_a[0, 0, 0] == pytest.approx(0.3 * lam0[0], rel=1e-14)
        assert report.g_b[0, 0, 0] == pytest.approx(0.1 * 0.15 * lam0[0], rel=1e-14)
        assert report.g_a[0, 1, 0] == pytest.approx(0.5 * 0.3 * lam0[1], rel=1e-14)

    def test_gradient_symmetry_exact(self):
        g, system, src, sampler = acoustic_setup(t_end=0.2)
        traj = rw.solve_causal(system, src)
        observed = sample_trajectory(sampler, traj)
        shifted = rw.SeismogramData(times=observed.times, data=0.7 * observed.data,
                                    receivers=observed.receivers)
        report = misfit_gradient(system, src, sampler, shifted)
        assert np.abs(report.g_a - np.swapaxes(report.g_a, 1, 2)).max() == 0.0
        for gq in report.g_q:
            assert np.abs(gq - np.swapaxes(gq, 1, 2)).max() == 0.0

    def test_zero_residual_zero_gradient(self):
        g, system, src, sampler = acoustic_setup(t_end=0.2)
        observed = rw.forward_map(system, src, sampler)
        report = misfit_gradient(system, src, sampler, observed)
        assert report.objective == 0.0
        assert np.abs(report.g_a).max() == 0.0
        assert np.abs(report.g_b).max() == 0.0
        assert report.diagnostics.get("zero_residual") is True

    def test_matches_finite_differences(self):
        g, system, src, sampler = acoustic_setup(t_end=0.7, with_memory=True)
        traj = rw.solve_causal(system, src)
        observed = sample_trajectory(sampler, traj)
        observed = rw.SeismogramData(times=observed.times, data=0.5 * observed.data,
                                     receivers=observed.receivers)
        report = misfit_gradient(system, src, sampler, observed)
        rows = finite_difference_table(system, src, sampler, observed, report,
                                       n_bumps=4, rng=np.random.default_rng(7))
        for row in rows:
            assert row["rel_error"] <= 1e-3

    def test_gradient_with_dot_test_computes_no_energy(self, energy_calls):
        g, system, src, sampler = acoustic_setup(cells=60, t_end=0.1)
        traj = rw.solve_causal(system, src)
        observed = sample_trajectory(sampler, traj)
        observed = rw.SeismogramData(times=observed.times, data=0.8 * observed.data,
                                     receivers=observed.receivers)
        report = misfit_gradient(system, src, sampler, observed,
                                 dot_test_rng=np.random.default_rng(2))
        assert report.diagnostics["dot_product_residual"] <= 1e-10
        assert energy_calls == []

    def test_adjoint_energies_on_read(self, energy_calls):
        g, system, src, sampler = acoustic_setup(cells=60, t_end=0.1)
        data = np.random.default_rng(3).standard_normal((sampler.n_channels, g.n_steps + 1))
        residual = rw.SeismogramData(times=g.times(), data=data, receivers=sampler.receivers)
        w = adjoint_solve(system, residual, sampler)
        assert energy_calls == []
        assert np.array_equal(w.energies, [rw.energy(system.a_blocks, g.cell_volume, u)
                                           for u in w.states])

    def test_report_export(self, tmp_path):
        g, system, src, sampler = acoustic_setup(t_end=0.2)
        traj = rw.solve_causal(system, src)
        observed = sample_trajectory(sampler, traj)
        observed = rw.SeismogramData(times=observed.times, data=0.9 * observed.data,
                                     receivers=observed.receivers)
        report = misfit_gradient(system, src, sampler, observed,
                                 dot_test_rng=np.random.default_rng(0))
        base = str(tmp_path / "grad")
        save_gradient_report(report, system, base)
        from roughwave.fields import read_field_array

        _, _, _, ga = read_field_array(f"{base}_grad_a.rwf")
        np.testing.assert_allclose(ga.reshape(report.g_a.shape), report.g_a)
        side = json.loads((tmp_path / "grad_diagnostics.json").read_text())
        assert side["objective"] == report.objective
        assert side["diagnostics"]["dot_product_residual"] <= 1e-8


def random_case(dim, boundary, prony, n_steps, seed=0):
    """A random medium with n_steps steps, zero or two-term Prony memory, a random base
    trajectory (the sweep reads any state series), two pressure receivers and a random
    residual."""
    rng = np.random.default_rng(seed)
    g = rw.build_grid(dim, {1: [20], 2: [6, 5], 3: [3, 4, 3]}[dim], 1.0, 0.01, n_steps * 0.01)
    assert g.n_steps == n_steps
    model = rw.AcousticModel(grid=g, kappa=rng.uniform(0.5, 4.0, g.n_cells),
                             rho=rng.uniform(0.5, 2.0, g.n_cells))
    kernel = None
    if prony:
        eye = np.eye(dim + 1)
        kernel = PronyKernel(weights=tuple(rng.uniform(0.0, 1.0, g.n_cells)[:, None, None] * eye
                                           for _ in range(2)), taus=(0.05, 0.4))
    system = rw.acoustics_system(model, boundary=boundary, kernel=kernel)
    base = rw.Trajectory(grid=g, times=g.times(), a_blocks=system.a_blocks,
                         states=rng.standard_normal((n_steps + 1, system.n_state)))
    sampler = build_sampler(rng.uniform(0.05, 0.95, (2, dim)).tolist(), "pressure", g, dim + 1)
    residual = rw.SeismogramData(times=g.times(), receivers=sampler.receivers,
                                 data=rng.standard_normal((2, n_steps + 1)))
    return system, base, residual, sampler, rng


STEP_COUNTS = [1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1, 2 * BLOCK_STEPS + 3]
BOUNDARIES = ["periodic", "acoustic_free"]


class TestAdjointGradient:
    """``adjoint_gradient`` forms the regrouped coefficients in its sweep and sums blocks
    of ``BLOCK_STEPS`` steps; the per-step contraction of the stored adjoint series
    (``conftest.per_step_gradient`` of ``conftest.adjoint_solve``) is its oracle, and
    ``conftest.per_step_forcing`` that of ``linearized_forcing``."""

    @pytest.mark.parametrize("n_steps", STEP_COUNTS)
    @pytest.mark.parametrize("prony", [False, True], ids=["zero", "prony"])
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_per_step_oracle(self, dim, boundary, prony, n_steps):
        system, base, residual, sampler, _ = random_case(dim, boundary, prony, n_steps)
        report = adjoint_gradient(system, base, residual, sampler)
        assert len(report.g_q) == (2 if prony else 0)
        assert_gradient_matches_per_step(system, base, residual, sampler, report)

    @pytest.mark.parametrize("n_steps", STEP_COUNTS)
    @pytest.mark.parametrize("prony", [False, True], ids=["zero", "prony"])
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_forcing_rows_match_per_step_formula(self, dim, boundary, prony, n_steps):
        system, base, _, _, rng = random_case(dim, boundary, prony, n_steps)
        assert_forcing_matches_per_step(system, base, random_perturbation(system, rng))

    @pytest.mark.parametrize("prony", [False, True], ids=["zero", "prony"])
    def test_forcing_reads_the_carried_prony_states(self, prony):
        # the rows from the carries a solve yields equal those from its stored
        # trajectory, whose Prony states are replayed
        system, _, _, _, rng = random_case(2, "acoustic_free", prony, BLOCK_STEPS + 1)
        src = rw.make_ricker_source(system.grid, 3, [0.4, 0.5], peak_frequency=6.0)
        base = rw.solve_causal(system, src)
        pert = random_perturbation(system, rng)
        u0 = np.zeros((system.n_state, 1))
        carries = itertools.chain(
            [np.zeros((1 + system.step_operators.n_terms, system.n_state))],
            (z[0, ..., 0] for z in _midpoint_steps([system], [src], u0, None)))
        stored = list(linearized_forcing(system, base, pert))
        streamed = list(linearized_forcing(system, carries, pert))
        assert len(streamed) == len(stored) == BLOCK_STEPS + 1
        assert np.abs(stored[-1]).max() > 0
        assert all(np.array_equal(a, b) for a, b in zip(streamed, stored))

    def test_sweep_reuses_the_system_factor(self, splu_calls):
        for prony in (False, True):
            system, base, residual, sampler, _ = random_case(2, "periodic", prony, BLOCK_STEPS + 1)
            adjoint_gradient(system, base, residual, sampler)
            adjoint_gradient(system, base, residual, sampler)
        assert len(splu_calls) == 2

    def test_rejects_a_trajectory_from_another_grid(self):
        system, base, residual, sampler, rng = random_case(1, "periodic", False, 3)
        other, _, _, other_sampler, _ = random_case(1, "periodic", False, 4)
        foreign = rw.Trajectory(grid=other.grid, times=base.times, states=base.states,
                                a_blocks=base.a_blocks)
        with pytest.raises(rw.GridMismatchError):
            adjoint_gradient(system, foreign, residual, sampler)
        with pytest.raises(rw.GridMismatchError):
            linearized_forcing(system, foreign, random_perturbation(system, rng))
        src = rw.make_ricker_source(system.grid, 2, [0.4], peak_frequency=6.0)
        with pytest.raises(rw.GridMismatchError, match="system and sampler grids differ"):
            misfit_gradient(system, src, other_sampler, residual)

    @pytest.mark.parametrize("step", [0, BLOCK_STEPS, 2 * BLOCK_STEPS + 3])
    def test_non_finite_base_state_names_the_step(self, step):
        system, base, residual, sampler, _ = random_case(2, "periodic", True, 2 * BLOCK_STEPS + 3)
        base.states[step, 7] = np.nan
        with pytest.raises(SolverError, match=f"non-finite state at step {step}$"):
            adjoint_gradient(system, base, residual, sampler)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_residual_sample_named_before_solving(self, bad, monkeypatch):
        system, base, residual, sampler, _ = random_case(1, "periodic", True, 2 * BLOCK_STEPS + 3)
        residual.data[1, 9] = residual.data[1, 30] = bad
        monkeypatch.setattr(system.step_operators, "lu", None)  # any solve would raise
        with pytest.raises(InvalidArgumentError, match="sample at channel 1, time index 9$"):
            adjoint_gradient(system, base, residual, sampler)

    def test_dot_tested_gradient_advances_prony_states_only_as_it_solves(self, monkeypatch):
        # once per step of the forward solve, whose second column is the linearized
        # solve, once for the latter's last step, and once per step recomputed from a
        # carry below the top block: the forcing reads the carried base states, so
        # nothing is replayed
        g, system, src, sampler = acoustic_setup(cells=40, t_end=0.05)
        observed = rw.forward_map(system, src, sampler)
        observed = rw.SeismogramData(times=observed.times, data=0.5 * observed.data,
                                     receivers=observed.receivers)
        calls = count_calls(monkeypatch, "prony_advance")
        report = misfit_gradient(system, src, sampler, observed,
                                 dot_test_rng=np.random.default_rng(1))
        assert report.diagnostics["dot_product_residual"] <= 1e-12
        n_blocks = -(-(g.n_steps + 1) // BLOCK_STEPS)
        assert (g.n_steps, n_blocks) == (50, 4)
        recomputed = g.n_steps + 1 - BLOCK_STEPS - (n_blocks - 1)
        assert len(calls) == g.n_steps + 1 + recomputed


class TestCheckpointedGradient:
    """``misfit_gradient`` keeps one carry per block, recomputes each block below the top
    one once for both adjoint sweeps and steps the dot test's derivative with its forward
    solve; the gradient of a stored forward trajectory (``oracles.stored_misfit_gradient``)
    is its oracle, bit for bit."""

    @pytest.mark.parametrize("n_steps", STEP_COUNTS)
    @pytest.mark.parametrize("prony", [False, True], ids=["zero", "prony"])
    @pytest.mark.parametrize("boundary", BOUNDARIES)
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_the_stored_trajectory_gradient(self, dim, boundary, prony, n_steps):
        system, base, residual, sampler, _ = random_case(dim, boundary, prony, n_steps)
        src = rw.make_ricker_source(system.grid, dim + 1, [0.4] * dim, peak_frequency=6.0)
        observed = rw.SeismogramData(times=base.times, data=residual.data,
                                     receivers=residual.receivers)
        for dot in (None, 3):
            rngs = [None if dot is None else np.random.default_rng(dot) for _ in range(2)]
            got = misfit_gradient(system, src, sampler, observed, rngs[0])
            want = stored_misfit_gradient(system, src, sampler, observed, rngs[1])
            assert len(got.g_q) == len(want.g_q) == (2 if prony else 0)
            for a, b in zip((got.g_a, got.g_b, *got.g_q), (want.g_a, want.g_b, *want.g_q)):
                assert np.abs(b).max() > 0
                assert np.array_equal(a, b)
            assert got.objective == want.objective > 0
            assert got.diagnostics == want.diagnostics
            assert ("dot_product_residual" in got.diagnostics) == (dot is not None)


class TestQuotientStudy:
    def test_zero_perturbation_all_zero(self):
        g, system, src, sampler = acoustic_setup(with_memory=False, t_end=0.15)
        study = quotient_study(system, CoefficientPerturbation(), src, [1e-1, 1e-2])
        assert all(r == 0.0 for r in study.remainders)

    def test_bound_exit_flagged_not_fatal(self):
        g, system, src, sampler = acoustic_setup(with_memory=False, t_end=0.15)
        bump = np.zeros((g.n_cells, 2, 2))
        bump[10] = -2.0 * system.a_blocks[10]  # h = 1 destroys positivity
        study = quotient_study(system, CoefficientPerturbation(delta_a=bump), src,
                               [1.0, 1e-2])
        assert study.flagged[0] is True
        assert study.flagged[1] is False
        assert np.isnan(study.remainders[0])

    def test_rough_wavelet_degrades_quotient(self):
        # loss-of-derivative: an s = 1 wavelet slows the remainder decay
        # relative to a smooth s = 4 wavelet (qualitative comparison)
        g = rw.build_grid(1, [100], 1.0, 1e-3, 0.3)
        model = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0)
        system = rw.acoustics_system(model)
        bump = np.zeros((g.n_cells, 2, 2))
        bump[55] = np.diag([0.4, 0.2])
        pert = CoefficientPerturbation(delta_a=bump)
        h_sched = [1e-1, 1e-2]
        rel_remainders = {}
        for s in (1, 4):
            src = rw.make_burst_source(g, 2, [0.3], frequency=5.0, smoothness=s,
                                       amplitude=10.0)
            study = quotient_study(system, pert, src, h_sched)
            rel_remainders[s] = study.remainders[-1] / study.derivative_norm
        assert rel_remainders[4] <= rel_remainders[1] * 1.5


class TestDerivativeSteps:
    def test_equal_the_stored_derivative_and_warn_on_a_rough_source(self):
        g, system, _, _ = acoustic_setup()
        src = rw.make_burst_source(g, 2, [0.3], frequency=5.0, smoothness=1, amplitude=10.0)
        base = rw.solve_causal(system, src)
        pert = random_perturbation(system, np.random.default_rng(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            du = stored_derivative(system, base, pert)
        with pytest.warns(UserWarning, match="smoothness < 2"):
            steps = list(derivative_steps(system, src, base, pert))
        assert len(steps) == g.n_steps
        assert all(np.array_equal(u[:, 0], ref) for u, ref in zip(steps, du.states[1:]))


class TestPerturbedSystem:
    def test_shares_stencil_and_updates_mass(self):
        g, system, src, sampler = acoustic_setup()
        rng = np.random.default_rng(2)
        pert = random_perturbation(system, rng, scale=0.01)
        newsys = perturbed_system(system, pert, 0.5)
        assert newsys.skew is system.skew
        np.testing.assert_allclose(newsys.a_blocks, system.a_blocks + 0.5 * pert.delta_a)
        kern = newsys.kernel
        np.testing.assert_allclose(
            kern.weights[0],
            system.kernel.weights[0] + 0.5 * pert.delta_weights[0])


class TestGradientReportPair:
    @pytest.mark.parametrize("pert, name", [
        (CoefficientPerturbation(delta_weights=(np.ones((4, 2, 2)),)), "delta_weights"),
        (CoefficientPerturbation(delta_weights=(np.ones((4, 2, 2)),) * 3), "delta_weights"),
        (CoefficientPerturbation(delta_a=np.ones((1, 2, 2))), "delta_a"),
        (CoefficientPerturbation(delta_b=np.ones((4, 2))), "delta_b"),
        (CoefficientPerturbation(delta_weights=(np.ones((4, 2, 2)), np.ones((2, 2)))),
         r"delta_weights\[1\]"),
    ], ids=["one_term", "three_terms", "one_cell_delta_a", "flat_delta_b", "flat_weight"])
    def test_rejects_a_perturbation_that_does_not_fit(self, pert, name):
        # a two-term report on 4 cells: an unchecked zip or broadcast would pair 16.0 or 32.0
        g = np.ones((4, 2, 2))
        with pytest.raises(InvalidArgumentError, match=name):
            GradientReport(g_a=g, g_b=g, g_q=(g, g)).pair(pert)


class TestMemory:
    """A gradient stores no state series, only a carry per block of its forward solve:
    peak allocations, in units of one stored trajectory, stay near what each function
    returns."""

    @pytest.fixture(scope="class")
    def prony_1d(self):
        g = rw.build_grid(1, [400], 1.0, 1e-3, 0.4)
        rng = np.random.default_rng(4)
        model = rw.AcousticModel(grid=g, kappa=1.0 + rng.random(g.n_cells),
                                 rho=1.0 + 0.5 * rng.random(g.n_cells))
        kernel = PronyKernel(weights=(np.tile(0.4 * np.eye(2), (g.n_cells, 1, 1)),
                                      np.tile(0.15 * np.eye(2), (g.n_cells, 1, 1))),
                             taus=(0.07, 0.3))
        system = rw.acoustics_system(model, kernel=kernel)
        src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=8.0)
        sampler = build_sampler([[0.7], [0.55]], "pressure", g, 2)
        traj = rw.solve_causal(system, src)
        residual = rw.SeismogramData(times=traj.times,
                                     data=rng.standard_normal((2, traj.times.size)),
                                     receivers=sampler.receivers)
        adjoint_gradient(system, traj, residual, sampler)  # builds the sampler's cached columns
        assert g.n_steps == 400
        return system, traj, sampler, residual

    def test_forward_map(self, prony_1d):
        system, traj, sampler, _ = prony_1d
        peak = traced_peak(rw.forward_map, system, traj.source, sampler)
        assert peak <= 0.1 * traj.states.nbytes

    def test_adjoint_gradient(self, prony_1d):
        system, traj, sampler, residual = prony_1d
        peak = traced_peak(adjoint_gradient, system, traj, residual, sampler)
        assert peak <= 0.25 * traj.states.nbytes

    def test_directional_derivative(self, prony_1d):
        # the derivative's states and nothing of its size beside them
        system, traj, *_ = prony_1d
        pert = random_perturbation(system, np.random.default_rng(5))
        peak = traced_peak(stored_derivative, system, traj, pert)
        assert peak <= 1.25 * traj.states.nbytes

    def test_misfit_gradient_with_dot_test(self, prony_1d):
        # the carries, 3 / BLOCK_STEPS of a series, the two sweeps' coefficient buffer and
        # recomputed block, and the sampled data: 0.58 series measured
        system, traj, sampler, residual = prony_1d
        observed = rw.SeismogramData(times=traj.times, data=residual.data,
                                     receivers=residual.receivers)
        peak = traced_peak(misfit_gradient, system, traj.source, sampler, observed,
                           np.random.default_rng(6))
        assert peak <= 0.8 * traj.states.nbytes

    def test_misfit_gradient(self, prony_1d):
        # the same without the derivative column and the second sweep: 0.49 series measured
        system, traj, sampler, residual = prony_1d
        observed = rw.SeismogramData(times=traj.times, data=residual.data,
                                     receivers=residual.receivers)
        peak = traced_peak(misfit_gradient, system, traj.source, sampler, observed)
        assert peak <= 0.6 * traj.states.nbytes
