from dataclasses import replace

import numpy as np
import pytest

import roughwave as rw
from conftest import damped_oscillation, time_reversed_system, traced_peak, two_relaxations
from oracles import advection_oracle, dalembert_pressure, smooth_trajectory, trapezoid_solve
from roughwave.errors import UnsupportedConfigurationError
from roughwave.evolution import export_energy_csv, export_snapshots, solve_ivp, step_residuals
from roughwave.experiments import fit_slope
from roughwave.fields import CoefficientField, PronyKernel, ricker_wavelet
from roughwave.operators import assemble_system, block_apply, energy
from roughwave.physics import (
    ViscoelasticModel,
    isotropic_inverse_hooke,
    kelvin_dim,
    ve_kernel_split,
)


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
    """A tabulated kernel steps as the Prony fit that its system made; the trapezoid
    stepper of ``oracles.trapezoid_solve`` is the reference."""

    @staticmethod
    def gap_to_prony(cells, steps, t_end=0.3):
        """The kernel 2 exp(-t / 0.1) I sampled at the step times: the relative gaps of
        the fitted solve and of the trapezoid oracle to the Prony solve, then the
        fitted system, its solve and the source."""
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
        scale = np.abs(prony.states).max()
        trapezoid = trapezoid_solve(rw.acoustics_system(model), tabulated, src)
        return (np.abs(traj.states - prony.states).max() / scale,
                np.abs(trapezoid - prony.states).max() / scale, system, traj, src)

    def test_converges_to_prony_of_the_same_kernel(self):
        fit, coarse, system, traj, src = self.gap_to_prony(100, 150)
        _, fine, *_ = self.gap_to_prony(200, 300)
        assert coarse <= 1e-5
        assert fine <= coarse / 3
        assert fit <= coarse / 10
        assert step_residuals(traj, system, src).max() <= 1e-12

    @pytest.mark.parametrize("case", [
        "acoustic-1d", "acoustic-2d", "acoustic-3d", "exponential-1d", "unit-exponential-1d",
        "two-relaxations-2d", "viscoelastic-1d", "viscoelastic-2d", "viscoelastic-3d",
        "viscoelastic-exponential-2d"])
    def test_within_a_tenth_of_the_trapezoid_dt_halving(self, case):
        # the fitted solve's gap to the trapezoid oracle, against the gap between the
        # oracle at dt and at dt / 2; two layers (kappa 1 | 3, or lambda 2 | 6)
        kind, dim = case.rsplit("-", 1)
        dim = int(dim[0])
        cells, dt, t_end = {1: (100, 5e-3, 0.5), 2: (12, 1e-2, 0.3), 3: (6, 2e-2, 0.3)}[dim]
        states = []
        for step in (dt, dt / 2):
            system, kernel, src = tabulated_case(kind, dim, cells, step, t_end)
            if step == dt:
                fitted = rw.solve_causal(system, src)
                residual = step_residuals(fitted, system, src).max()
            states.append(trapezoid_solve(replace(system, kernel=rw.PronyKernel()), kernel, src))
        scale = np.abs(states[0]).max()
        halving = np.abs(states[1][::2] - states[0]).max() / scale
        assert halving > 0
        assert np.abs(fitted.states - states[0]).max() / scale <= halving / 10
        assert residual <= 1e-12 * scale


def tabulated_case(kind, dim, cells, dt, t_end):
    """A system made from a tabulated kernel sampled every 0.01, the kernel as the
    trapezoid oracle reads it (the split kernel of a viscoelastic gamma, embedded in
    the stress block) and a Ricker source.  Acoustic kernels, with kappa 1 | 3:
    ``acoustic`` 0.5 e^{-t/0.2} (1 + 0.5 cos 12 t) I, ``exponential`` 2 e^{-t/0.1} I,
    ``unit-exponential`` e^{-t} I and ``two-relaxations`` e^{-t/0.05} + e^{-t/0.5} I.
    Viscoelastic, with lambda 2 | 6 and mu 1: ``viscoelastic`` gamma(t) = 0.3
    e^{-t/0.2} (1 + 0.5 cos 12 t) I and ``viscoelastic-exponential`` 0.3 e^{-t/0.2} I."""
    g = rw.build_grid(dim, [cells] * dim, 1.0, dt, t_end)
    t = 0.01 * np.arange(round(t_end / 0.01) + 3)
    right = g.centers()[:, 0] >= 0.5
    if kind.startswith("viscoelastic"):
        m = kelvin_dim(dim)
        profile = np.exp(-t / 0.2) * (1.0 if kind.endswith("exponential") else
                                      1.0 + 0.5 * np.cos(12 * t))
        gamma = rw.TabulatedKernel(times=t, samples=0.3 * profile[:, None, None, None]
                                   * np.tile(np.eye(m), (t.size, g.n_cells, 1, 1)))
        ge = np.stack([isotropic_inverse_hooke(lam, 1.0, dim) for lam in np.where(right, 6.0, 2.0)])
        model = ViscoelasticModel(grid=g, rho=1.0, gamma_elastic=ge, gamma_kernel=gamma)
        system = rw.viscoelastic_system(model)
        q = ve_kernel_split(model)[1]
        samples = np.zeros((t.size, g.n_cells, system.k, system.k))
        samples[:, :, :m, :m] = q.samples
        kernel = rw.TabulatedKernel(times=t, samples=samples)
        src = rw.make_ricker_source(g, system.k, [0.3] * dim, peak_frequency=6.0, component=m)
        return system, kernel, src
    if kind == "acoustic":
        kernel = damped_oscillation(t, np.full(g.n_cells, 0.5), dim + 1)
    elif kind == "two-relaxations":
        kernel = two_relaxations(t, np.ones(g.n_cells), dim + 1)
    else:
        scale, tau = (2.0, 0.1) if kind == "exponential" else (1.0, 1.0)
        kernel = rw.TabulatedKernel(times=t, samples=scale * np.exp(-t / tau)[:, None, None, None]
                                    * np.tile(np.eye(dim + 1), (t.size, g.n_cells, 1, 1)))
    model = rw.AcousticModel(grid=g, kappa=np.where(right, 3.0, 1.0), rho=1.0)
    src = rw.make_ricker_source(g, dim + 1, [0.3] * dim, peak_frequency=6.0)
    return rw.acoustics_system(model, kernel=kernel), kernel, src


def rk4_oracle(system, source, forcing=None):
    """States of classical RK4 on the augmented ODE of a Prony system,

        A u' = f - K u - B u - sum_j W_j s_j,   s_j' = u - s_j / tau_j,

    from u = s_j = 0, with ``forcing[n]`` held over step n.  It uses neither
    ``prony_advance`` nor the interval weights, so it checks the midpoint
    Prony recursion independently."""
    grid, kernel = system.grid, system.kernel
    taus = np.array(getattr(kernel, "taus", ()))
    weights = kernel.weights if taus.size else ()
    dt = grid.dt
    a_inv = np.linalg.inv(system.a_blocks)

    def rate(t, y, f_extra):
        u, s = y[0], y[1:]
        f = np.zeros(system.n_state) if source is None else source.evaluate(t)
        if f_extra is not None:
            f = f + f_extra
        f = f - system.skew @ u - system.apply_b(u) - sum(
            block_apply(w, s_j) for w, s_j in zip(weights, s))
        return np.vstack([block_apply(a_inv, f), u - s / taus[:, None]])

    y = np.zeros((1 + taus.size, system.n_state))
    states = [y[0]]
    for n, t in enumerate(grid.times()[:-1]):
        f_extra = None if forcing is None else forcing[n]
        k1 = rate(t, y, f_extra)
        k2 = rate(t + dt / 2, y + dt / 2 * k1, f_extra)
        k3 = rate(t + dt / 2, y + dt / 2 * k2, f_extra)
        k4 = rate(t + dt, y + dt * k3, f_extra)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(y[0])
    return np.array(states)


class TestRK4:
    """The midpoint solve against the test-only RK4 oracle."""

    def test_matches_midpoint_on_smooth_run(self):
        g, system = homogeneous_acoustics(cells=100, dt=0.4 / 100, t_end=0.2)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=5.0)
        t_mid = rw.solve_causal(system, src)
        rk = rk4_oracle(system, src)
        scale = np.abs(t_mid.states).max()
        assert np.abs(t_mid.states[-1] - rk[-1]).max() < 2e-3 * scale

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
            rk = rk4_oracle(system, src)
            scale = np.abs(t_mid.states).max()
            gaps.append(np.abs(t_mid.states[-1] - rk[-1]).max() / scale)
        # halving the memory moves the state by 1e-3 of its scale, so a wrong
        # midpoint recursion would not shrink the gap on refinement
        assert gaps[0] < 2e-3
        assert gaps[1] <= gaps[0] / 3

    def test_forcing_array_drives_the_solution(self):
        g, system = homogeneous_acoustics(cells=60, dt=0.4 / 60, t_end=0.2)
        rng = np.random.default_rng(3)
        forcing = np.zeros((g.n_steps, system.n_state))
        forcing[5:15, 40] = 1.0
        mid = rw.solve_causal(system, None, forcing=forcing)
        rk = rk4_oracle(system, None, forcing)
        assert np.abs(mid.states).max() > 0
        scale = np.abs(mid.states).max()
        assert np.abs(mid.states[-1] - rk[-1]).max() < 0.05 * scale


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

    def test_residual_shrinks_with_a_tabulated_kernel(self):
        # the kernel 2 exp(-t / 0.1) I sampled at the step times
        relative = []
        for dt in (4e-3, 2e-3):
            g = rw.build_grid(1, [100], 1.0, dt, 0.3)
            t = dt * np.arange(g.n_steps + 2)
            kern = rw.TabulatedKernel(times=t, samples=(2.0 * np.exp(-t / 0.1))[:, None, None, None]
                                      * np.tile(np.eye(2), (t.size, g.n_cells, 1, 1)))
            system = rw.acoustics_system(rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.6),
                                         kernel=kern)
            src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=6.0)
            traj = rw.solve_causal(system, src)
            res = rw.energy_identity_residual(traj, system, src)
            relative.append(np.abs(res).max() / traj.energies.max())
        assert relative[1] <= relative[0] / 3

    @pytest.mark.parametrize("prony", [False, True], ids=["zero", "prony"])
    def test_holds_no_memory_series(self, prony):
        # R(t_n) is read one row at a time, none stacked (the energies are read first)
        g = rw.build_grid(1, [400], 1.0, 1e-3, 0.4)
        kern = PronyKernel(weights=(np.tile(0.4 * np.eye(2), (400, 1, 1)),), taus=(0.3,))
        system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.2, rho=0.9),
                                     kernel=kern if prony else PronyKernel())
        src = rw.make_ricker_source(g, 2, [0.45], peak_frequency=4.0)
        traj = rw.solve_causal(system, src)
        assert traj.energies.size == 401
        assert traced_peak(rw.energy_identity_residual, traj, system, src) <= 0.1 * traj.states.nbytes

    def test_energy_bound_constant_stable_under_refinement(self):
        ratios = []
        for cells, dt in ((100, 2e-3), (200, 1e-3)):
            g = rw.build_grid(1, [cells], 1.0, dt, 0.4)
            system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0))
            src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=6.0)
            traj = rw.solve_causal(system, src)
            # the realized constant in E(t_n) <= C sum_m dt ||f(t_m)||^2
            forced = np.cumsum([dt * g.cell_volume * np.sum(src.evaluate(t) ** 2)
                                for t in traj.times])
            ratios.append(np.max(traj.energies[forced > 0] / forced[forced > 0]))
        assert ratios[1] <= 2.0 * ratios[0]


class TestEnergiesOnRead:
    def test_energies_computed_on_first_read(self, energy_calls):
        g, system = homogeneous_acoustics(cells=40, dt=2e-3, t_end=0.05)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0)
        traj = rw.solve_causal(system, src)
        assert energy_calls == []
        energies = traj.energies
        assert len(energy_calls) == traj.n_steps + 1
        assert traj.energies is energies
        assert np.array_equal(energies, [energy(system.a_blocks, g.cell_volume, u)
                                         for u in traj.states])

    def test_smoothed_energies_use_the_system_mass(self, energy_calls):
        g, system = homogeneous_acoustics(cells=40, dt=2e-3, t_end=0.05)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0)
        out = smooth_trajectory(rw.solve_causal(system, src), 3)
        assert energy_calls == []
        assert np.array_equal(out.energies, [energy(system.a_blocks, g.cell_volume, u)
                                             for u in out.states])


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
                               a_blocks=system.a_blocks)
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
            # ||u|| + ||P u|| in the volume-weighted norm
            graph_norm = np.linalg.norm(smoothed.states, axis=1) + np.linalg.norm(
                system.skew @ smoothed.states.T, axis=0)
            maxima.append(np.sqrt(g.cell_volume) * graph_norm.max())
        assert maxima[1] <= 1.3 * maxima[0]

    def test_time_derivative_surrogate_bounded(self):
        # wavelet with s derivatives: finite-difference du/dt stays bounded
        maxima = []
        for cells, dt in ((100, 2e-3), (200, 1e-3)):
            g = rw.build_grid(1, [cells], 1.0, dt, 0.4)
            system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0))
            src = rw.make_burst_source(g, 2, [0.5], frequency=5.0, smoothness=3)
            traj = rw.solve_causal(system, src)
            d2u = np.diff(traj.states, n=2, axis=0) / dt**2
            maxima.append(np.sqrt(g.cell_volume) * np.linalg.norm(d2u, axis=1).max())
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
