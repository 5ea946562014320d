import json

import numpy as np
import pytest

import roughwave as rw
from roughwave.errors import UnsupportedConfigurationError
from roughwave.fields import PronyKernel
from roughwave.forward import build_sampler, sample_trajectory
from roughwave.sensitivity import (
    CoefficientPerturbation,
    dot_product_test,
    finite_difference_table,
    misfit_gradient,
    objective_from_data,
    perturbed_system,
    quotient_study,
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
        du = rw.directional_derivative(system, base, CoefficientPerturbation())
        assert np.abs(du.states).max() == 0.0

    def test_linearity_in_perturbation(self):
        g, system, src, sampler = acoustic_setup()
        base = rw.solve_causal(system, src)
        rng = np.random.default_rng(1)
        pert = random_perturbation(system, rng)
        pert2 = CoefficientPerturbation(
            delta_a=2 * pert.delta_a, delta_b=2 * pert.delta_b,
            delta_weights=tuple(2 * w for w in pert.delta_weights))
        du = rw.directional_derivative(system, base, pert)
        du2 = rw.directional_derivative(system, base, pert2)
        assert np.abs(du2.states - 2 * du.states).max() <= 1e-11 * np.abs(du2.states).max()

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


class TestAdjoint:
    def test_zero_residual_zero_adjoint(self):
        g, system, src, sampler = acoustic_setup(t_end=0.2)
        residual = rw.SeismogramData(times=g.times(), data=np.zeros((2, g.n_steps + 1)),
                                     receivers=sampler.receivers)
        w = rw.adjoint_solve(system, residual, sampler)
        assert np.abs(w.states).max() == 0.0

    def test_terminal_condition(self):
        g, system, src, sampler = acoustic_setup(t_end=0.2)
        rng = np.random.default_rng(0)
        residual = rw.SeismogramData(times=g.times(),
                                     data=rng.standard_normal((2, g.n_steps + 1)),
                                     receivers=sampler.receivers)
        w = rw.adjoint_solve(system, residual, sampler)
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
        with pytest.raises(UnsupportedConfigurationError):
            rw.adjoint_solve(system, residual, sampler)


class TestGradient:
    def test_one_cell_one_step_arithmetic(self):
        # u' = 3, w = 2, dt = 0.1: g_a = dt * w * u' = 0.6
        g = rw.build_grid(1, [2], 1.0, 0.1, 0.1)
        model = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0)
        system = rw.acoustics_system(model)
        k = system.k
        times = g.times()
        u = np.zeros((2, system.n_state))
        u[1, 0] = 0.3  # (u1 - u0)/dt = 3 in cell 0, component 0
        w = np.zeros((2, system.n_state))
        w[0, 0] = 2.0
        base = rw.Trajectory(grid=g, times=times, states=u, mass=system.mass)
        adj = rw.Trajectory(grid=g, times=times, states=w, mass=system.mass)
        report = rw.assemble_gradient(base, adj, system)
        assert report.g_a[0, 0, 0] == pytest.approx(0.6)

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
        w = rw.adjoint_solve(system, residual, sampler)
        assert energy_calls == []
        assert np.array_equal(w.energies, [rw.energy(system.mass, u) for u in w.states])

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


class TestQuotientStudy:
    def test_zero_perturbation_all_zero(self):
        g, system, src, sampler = acoustic_setup(with_memory=False, t_end=0.15)
        study = quotient_study(system, CoefficientPerturbation(), src, [1e-1, 1e-2])
        assert all(r == 0.0 for r in study.remainders)

    def test_bound_exit_flagged_not_fatal(self):
        g, system, src, sampler = acoustic_setup(with_memory=False, t_end=0.15)
        bump = np.zeros((g.n_cells, 2, 2))
        bump[10] = -2.0 * system.mass.blocks[10]  # h = 1 destroys positivity
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
        import warnings

        for s in (1, 4):
            src = rw.make_burst_source(g, 2, [0.3], frequency=5.0, smoothness=s,
                                       amplitude=10.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # s = 1 is deliberate
                study = quotient_study(system, pert, src, h_sched)
            rel_remainders[s] = study.remainders[-1] / study.derivative_norm
        assert rel_remainders[4] <= rel_remainders[1] * 1.5


class TestPerturbedSystem:
    def test_shares_stencil_and_updates_mass(self):
        g, system, src, sampler = acoustic_setup()
        rng = np.random.default_rng(2)
        pert = random_perturbation(system, rng, scale=0.01)
        newsys = perturbed_system(system, pert, 0.5)
        assert newsys.skew is system.skew
        np.testing.assert_allclose(newsys.mass.blocks,
                                   system.mass.blocks + 0.5 * pert.delta_a)
        kern = newsys.memory.kernel
        np.testing.assert_allclose(
            kern.weights[0],
            system.memory.kernel.weights[0] + 0.5 * pert.delta_weights[0])
