import numpy as np
import pytest

import roughwave as rw
from roughwave.errors import StabilityError, UnsupportedConfigurationError
from roughwave.evolution import (
    IntegratorConfig,
    energy_bound_constant,
    graph_norm_series,
    export_energy_csv,
    export_snapshots,
    smooth_trajectory,
    solve_ivp,
    step_residuals,
    time_derivative_bound,
    time_reversed_system,
)
from roughwave.experiments import advection_oracle, dalembert_pressure, fit_slope
from roughwave.fields import CoefficientField, PronyKernel, ricker_wavelet
from roughwave.operators import assemble_system, energy


def homogeneous_acoustics(cells=120, dt=1e-3, t_end=0.3, kappa=1.0, rho=1.0, extent=1.0):
    g = rw.build_grid(1, [cells], extent, dt, t_end)
    model = rw.AcousticModel(grid=g, kappa=kappa, rho=rho)
    return g, rw.acoustics_system(model)


def advection_system(cells, c=1.0, t_end=0.25, extent=1.0, dt_factor=0.5):
    g = rw.build_grid(1, [cells], extent, dt_factor * extent / cells / c, t_end)
    f = CoefficientField(grid=g, k=1, a=np.full((g.n_cells, 1, 1), 1.0 / c))
    return g, assemble_system(f, [np.array([[-1.0]])], "periodic")


class TestCausalSolve:
    def test_zero_source_zero_solution(self):
        g, system = homogeneous_acoustics()
        traj = rw.solve_causal(system, None)
        assert np.abs(traj.states).max() == 0.0
        assert np.abs(traj.energies).max() == 0.0

    def test_exact_causality_before_onset(self):
        g, system = homogeneous_acoustics(t_end=0.4)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0, onset=0.15)
        traj = rw.solve_causal(system, src)
        before = traj.times < src.onset
        assert before.sum() > 10
        assert np.abs(traj.states[before]).max() == 0.0

    def test_determinism(self):
        g, system = homogeneous_acoustics()
        src = rw.make_ricker_source(g, 2, [0.4], peak_frequency=8.0)
        t1 = rw.solve_causal(system, src)
        t2 = rw.solve_causal(system, src)
        assert np.abs(t1.states - t2.states).max() == 0.0

    def test_advection_matches_characteristics_oracle(self):
        # u[c, f](t, x) = c int f(s, x + c (t - s)) ds, second-order in h
        c, fp, x0, width, tpk = 1.0, 6.0, 0.7, 0.04, 0.1
        errs, hs = [], []
        for cells in (100, 200):
            g, system = advection_system(cells, c=c)
            src = rw.make_ricker_source(g, 1, [x0], peak_frequency=fp, delay=tpk,
                                        footprint_width=width)
            traj = rw.solve_causal(system, src)

            def rhs(s, y):
                return float(ricker_wavelet(s, fp, tpk)
                             * np.exp(-0.5 * (y - x0) ** 2 / width**2)) if s >= 0 else 0.0

            x = g.axis_centers(0)
            oracle = np.array([advection_oracle(c, rhs, traj.times[-1], xi) for xi in x])
            errs.append(float(np.sqrt(g.cell_volume) * np.linalg.norm(traj.states[-1] - oracle)))
            hs.append(g.h[0])
        assert np.log2(errs[0] / errs[1]) >= 1.9

    def test_acoustics_matches_dalembert_oracle(self):
        # homogeneous medium: pressure equals the two-way characteristic
        # splitting of the source convolution
        g = rw.build_grid(1, [900], 1.5, 5e-4, 0.45)
        system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0))
        fp, x0, width = 6.0, 0.75, 0.02
        src = rw.make_ricker_source(g, 2, [x0], peak_frequency=fp, footprint_width=width)
        traj = rw.solve_causal(system, src)
        tpk = 1.5 / fp

        def g_fn(s, y):
            return float(ricker_wavelet(s, fp, tpk)
                         * np.exp(-0.5 * (y - x0) ** 2 / width**2)) if s >= 0 else 0.0

        x = g.axis_centers(0)
        idx = np.arange(0, 900, 9)
        p_num = traj.states[-1].reshape(-1, 2)[:, 0][idx]
        p_ref = np.array([dalembert_pressure(1.0, 1.0, g_fn, traj.times[-1], float(xi),
                                             points=801) for xi in x[idx]])
        rel = np.linalg.norm(p_num - p_ref) / np.linalg.norm(p_ref)
        assert rel < 0.03

    def test_half_step_equation_residual_small(self):
        g, system = homogeneous_acoustics(cells=80, t_end=0.2)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0)
        traj = rw.solve_causal(system, src)
        res = step_residuals(traj, system, src)
        assert res.max() <= 1e-12


class TestTabulatedMidpoint:
    @staticmethod
    def gap_to_prony(cells, steps, t_end=0.3):
        """Tabulated and Prony solves of the kernel 2 exp(-t / 0.1) I sampled at
        the step times: their relative gap, then the tabulated system, solve
        and source."""
        dt = t_end / steps
        g = rw.build_grid(1, [cells], 1.0, dt, t_end)
        model = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.6)
        weight = np.tile(2.0 * np.eye(2), (cells, 1, 1))
        times = dt * np.arange(steps + 2)
        tabulated = rw.TabulatedKernel(
            times=times, samples=np.exp(-times / 0.1)[:, None, None, None] * weight[None])
        src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=6.0)
        prony = rw.solve_causal(
            rw.acoustics_system(model, kernel=PronyKernel(weights=(weight,), taus=(0.1,))), src)
        system = rw.acoustics_system(model, kernel=tabulated)
        traj = rw.solve_causal(system, src)
        gap = np.abs(traj.states - prony.states).max() / np.abs(prony.states).max()
        return gap, system, traj, src

    def test_converges_to_prony_of_the_same_kernel(self):
        coarse, system, traj, src = self.gap_to_prony(100, 150)
        fine, *_ = self.gap_to_prony(200, 300)
        assert coarse <= 1e-5
        assert fine <= coarse / 3
        assert step_residuals(traj, system, src).max() <= 1e-12


class TestRK4:
    def test_matches_midpoint_on_smooth_run(self):
        g, system = homogeneous_acoustics(cells=100, dt=0.4 / 100, t_end=0.2)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=5.0)
        t_mid = rw.solve_causal(system, src)
        t_rk = rw.solve_causal(system, src, IntegratorConfig(scheme="rk4"))
        scale = np.abs(t_mid.states).max()
        assert np.abs(t_mid.states[-1] - t_rk.states[-1]).max() < 2e-3 * scale

    def test_prony_memory_matches_midpoint(self):
        gaps = []
        for cells in (100, 200):
            g, _ = homogeneous_acoustics(cells=cells, dt=0.4 / cells, t_end=0.2)
            kernel = PronyKernel(weights=(np.tile(5.0 * np.eye(2), (cells, 1, 1)),
                                          np.tile(10.0 * np.eye(2), (cells, 1, 1))),
                                 taus=(0.1, 0.02))
            system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0),
                                         kernel=kernel)
            src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=5.0)
            t_mid = rw.solve_causal(system, src)
            t_rk = rw.solve_causal(system, src, IntegratorConfig(scheme="rk4"))
            scale = np.abs(t_mid.states).max()
            gaps.append(np.abs(t_mid.states[-1] - t_rk.states[-1]).max() / scale)
        # halving the memory moves the state by 1e-3 of its scale, so a wrong
        # stage recursion would not shrink the gap on refinement
        assert gaps[0] < 2e-3
        assert gaps[1] <= gaps[0] / 3

    def test_cfl_violation_raises_with_suggestion(self):
        g, system = homogeneous_acoustics(cells=100, dt=8e-3, t_end=0.1)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=5.0)
        with pytest.raises(StabilityError) as err:
            rw.solve_causal(system, src, IntegratorConfig(scheme="rk4"))
        assert err.value.suggested_dt == pytest.approx(0.5 * g.h[0])

    def test_forcing_array_drives_the_solution(self):
        g, system = homogeneous_acoustics(cells=60, dt=0.4 / 60, t_end=0.2)
        rng = np.random.default_rng(3)
        forcing = np.zeros((g.n_steps, system.n_state))
        forcing[5:15, 40] = 1.0
        mid = rw.solve_causal(system, None, forcing=forcing)
        rk = rw.solve_causal(system, None, IntegratorConfig(scheme="rk4"), forcing=forcing)
        assert np.abs(mid.states).max() > 0
        scale = np.abs(mid.states).max()
        assert np.abs(mid.states[-1] - rk.states[-1]).max() < 0.05 * scale

    def test_tabulated_memory_unsupported(self):
        g = rw.build_grid(1, [16], 1.0, 1e-3, 0.05)
        times = np.linspace(0, 0.2, 21)
        samples = np.exp(-times)[:, None, None, None] * np.ones((1, 16, 2, 2))
        field = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0).coefficient_field(
            kernel=rw.TabulatedKernel(times=times, samples=samples))
        system = assemble_system(field)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=5.0)
        with pytest.raises(UnsupportedConfigurationError):
            rw.solve_causal(system, src, IntegratorConfig(scheme="rk4"))


class TestInitialValue:
    def test_zero_data_zero_solution(self):
        g, system = homogeneous_acoustics(cells=40, t_end=0.1)
        traj = solve_ivp(system, np.zeros(system.n_state))
        assert np.abs(traj.states).max() == 0.0

    def test_midpoint_conserves_energy(self):
        g, system = homogeneous_acoustics(cells=100, dt=1e-3, t_end=1.0)
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(system.n_state)
        traj = solve_ivp(system, u0)
        drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
        assert drift <= 1e-10

    def test_time_reversal_returns_to_start(self):
        g, system = homogeneous_acoustics(cells=60, t_end=0.15)
        rng = np.random.default_rng(1)
        u0 = rng.standard_normal(system.n_state)
        fwd = solve_ivp(system, u0)
        back = solve_ivp(time_reversed_system(system), fwd.states[-1])
        assert np.abs(back.states[-1] - u0).max() <= 1e-10

    def test_memory_kernel_rejected(self):
        g = rw.build_grid(1, [16], 1.0, 1e-3, 0.05)
        kern = PronyKernel(weights=(np.tile(0.1 * np.eye(2), (16, 1, 1)),), taus=(1.0,))
        system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0), kernel=kern)
        with pytest.raises(UnsupportedConfigurationError):
            solve_ivp(system, np.zeros(system.n_state))


class TestEnergyIdentity:
    def test_zero_trajectory(self):
        g, system = homogeneous_acoustics(cells=40, t_end=0.1)
        traj = rw.solve_causal(system, None)
        res = rw.energy_identity_residual(traj, system)
        assert np.abs(res).max() == 0.0

    def test_exact_conservation_without_lower_order_terms(self):
        # B = R = 0 and f = 0 after onset: per-step residuals at round-off
        g, system = homogeneous_acoustics(cells=100, dt=5e-4, t_end=0.6)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=25.0)
        traj = rw.solve_causal(system, src)
        res = rw.energy_identity_residual(traj, system, src)
        quiet = traj.times[:-1] > 0.3  # wavelet has fully decayed here
        assert np.abs(res[quiet]).max() <= 1e-12

    def test_residual_second_order_in_dt(self):
        maxima, dts = [], [4e-3, 2e-3, 1e-3]
        for dt in dts:
            g = rw.build_grid(1, [80], 1.0, dt, 0.6)
            kern = PronyKernel(weights=(np.tile(0.4 * np.eye(2), (80, 1, 1)),), taus=(0.3,))
            system = rw.acoustics_system(
                rw.AcousticModel(grid=g, kappa=1.2, rho=0.9), kernel=kern)
            src = rw.make_ricker_source(g, 2, [0.45], peak_frequency=4.0)
            traj = rw.solve_causal(system, src)
            maxima.append(np.abs(rw.energy_identity_residual(traj, system, src)).max())
        assert fit_slope(dts, maxima) >= 1.9

    def test_energy_bound_constant_stable_under_refinement(self):
        ratios = []
        for cells, dt in ((100, 2e-3), (200, 1e-3)):
            g = rw.build_grid(1, [cells], 1.0, dt, 0.4)
            system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0))
            src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=6.0)
            traj = rw.solve_causal(system, src)
            ratios.append(energy_bound_constant(traj, src))
        assert ratios[1] <= 2.0 * ratios[0]


class TestEnergiesOnRead:
    @pytest.mark.parametrize("scheme", ["implicit_midpoint", "rk4"])
    def test_energies_computed_on_first_read(self, energy_calls, scheme):
        g, system = homogeneous_acoustics(cells=40, dt=2e-3, t_end=0.05)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0)
        traj = rw.solve_causal(system, src, IntegratorConfig(scheme=scheme))
        assert energy_calls == []
        energies = traj.energies
        assert len(energy_calls) == traj.n_steps + 1
        assert traj.energies is energies
        assert np.array_equal(energies, [energy(system.mass, u) for u in traj.states])

    def test_smoothed_energies_use_the_system_mass(self, energy_calls):
        g, system = homogeneous_acoustics(cells=40, dt=2e-3, t_end=0.05)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0)
        out = smooth_trajectory(rw.solve_causal(system, src), 3)
        assert energy_calls == []
        assert np.array_equal(out.energies, [energy(system.mass, u) for u in out.states])


class TestSmoothing:
    def test_window_one_is_identity(self):
        g, system = homogeneous_acoustics(cells=40, t_end=0.1)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0)
        traj = rw.solve_causal(system, src)
        out = smooth_trajectory(traj, 1)
        np.testing.assert_array_equal(out.states, traj.states)

    def test_constant_tail_unchanged_on_interior(self):
        g, system = homogeneous_acoustics(cells=30, t_end=0.1)
        traj = rw.solve_causal(system, None)  # identically zero: constant tail
        states = traj.states.copy()
        states[:] = 1.5
        frozen = rw.Trajectory(grid=traj.grid, times=traj.times, states=states,
                               mass=system.mass)
        out = smooth_trajectory(frozen, 4)
        np.testing.assert_allclose(out.states[5:-5], 1.5, rtol=1e-14)

    def test_graph_norm_bounded_under_refinement(self):
        # fixed physical smoothing window; the graph norm of the smoothed
        # trajectory stays bounded as dt refines
        window_time = 0.02
        maxima = []
        for cells, dt in ((100, 2e-3), (200, 1e-3)):
            g = rw.build_grid(1, [cells], 1.0, dt, 0.4)
            system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0))
            src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=6.0)
            traj = rw.solve_causal(system, src)
            smoothed = smooth_trajectory(traj, max(2, int(window_time / dt)))
            maxima.append(graph_norm_series(smoothed, system).max())
        assert maxima[1] <= 1.3 * maxima[0]

    def test_time_derivative_surrogate_bounded(self):
        # wavelet with s derivatives: finite-difference du/dt stays bounded
        maxima = []
        for cells, dt in ((100, 2e-3), (200, 1e-3)):
            g = rw.build_grid(1, [cells], 1.0, dt, 0.4)
            system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0))
            src = rw.make_burst_source(g, 2, [0.5], frequency=5.0, smoothness=3)
            traj = rw.solve_causal(system, src)
            maxima.append(time_derivative_bound(traj, 2))
        assert maxima[1] <= 1.3 * maxima[0]


class TestExports:
    def test_energy_csv(self, tmp_path):
        g, system = homogeneous_acoustics(cells=30, t_end=0.05)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0)
        traj = rw.solve_causal(system, src)
        path = tmp_path / "energy.csv"
        export_energy_csv(traj, path)
        raw = np.genfromtxt(path, delimiter=",", skip_header=1)
        np.testing.assert_allclose(raw[:, 0], traj.times)
        np.testing.assert_allclose(raw[:, 1], traj.energies)

    def test_snapshots(self, tmp_path):
        from roughwave.fields import read_field_array

        g, system = homogeneous_acoustics(cells=30, t_end=0.05)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0)
        traj = rw.solve_causal(system, src)
        written = export_snapshots(traj, tmp_path / "snaps", system.k, every=10)
        assert len(written) == 6
        _, k, shape, data = read_field_array(written[-1])
        assert (k, shape) == (2, (30,))
        np.testing.assert_array_equal(data, traj.states[50])
