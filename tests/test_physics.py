import numpy as np
import pytest

import roughwave as rw
from conftest import (
    per_direction_pencil_min_eig,
    per_direction_viscoelastic_speed,
    symbol_test_system,
    viscoelastic_test_model,
)
from oracles import dot_product_test
from roughwave.errors import InvalidCoefficientError, UnsupportedConfigurationError
from roughwave.fields import PronyKernel, TabulatedKernel, ZeroKernel
from roughwave.forward import build_sampler, sample_trajectory
from roughwave.physics import (
    ViscoelasticModel,
    elastic_p_matrices,
    isotropic_hooke_kelvin,
    isotropic_inverse_hooke,
    kelvin_dim,
    kernel_split_reconstruction_error,
    load_model,
    save_model,
    slowness_pencil_min_eig,
    strain_projector,
    ve_kernel_split,
)
from roughwave.evolution import step_residuals
from roughwave.operators import EIG_STACK_ROWS, block_apply, unit_directions
from roughwave.experiments import fit_slope


class TestAcoustics:
    def test_unit_medium_gives_identity_mass(self):
        g = rw.build_grid(2, [6, 6], 1.0, 1e-3, 0.01)
        system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0))
        u = np.random.default_rng(0).standard_normal(system.n_state)
        np.testing.assert_array_equal(block_apply(system.a_blocks, u), u)
        assert system.b_blocks is None
        assert isinstance(system.kernel, ZeroKernel)

    @pytest.mark.parametrize("dim,cells,k", [(1, [4], 2), (2, [3, 3], 3), (3, [2, 2, 2], 4)])
    def test_state_width(self, dim, cells, k):
        g = rw.build_grid(dim, cells, 1.0, 1e-3, 0.01)
        model = rw.AcousticModel(grid=g, kappa=2.0, rho=1.0)
        assert model.k == k
        assert rw.acoustics_system(model).k == k

    def test_bound_violation_names_cell(self):
        g = rw.build_grid(1, [10], 1.0, 1e-3, 0.01)
        kappa = np.ones(10)
        kappa[4] = 9.0
        with pytest.raises(InvalidCoefficientError, match="cell 4"):
            rw.AcousticModel(grid=g, kappa=kappa, rho=1.0, c_lo=0.5, c_hi=4.0)

    def test_nonpositive_density_rejected(self):
        g = rw.build_grid(1, [10], 1.0, 1e-3, 0.01)
        rho = np.ones(10)
        rho[2] = -1.0
        with pytest.raises(InvalidCoefficientError, match="cell 2"):
            rw.AcousticModel(grid=g, kappa=1.0, rho=rho)

    def test_two_layer_reflection_coefficient(self):
        # normal-incidence pressure reflection (Z2 - Z1)/(Z2 + Z1) from the
        # impedance formula, measured on a receiver between source and
        # interface, within 2% at desk resolution
        g = rw.build_grid(1, [1000], 3.0, 0.3 * 3.0 / 1000, 1.42)
        model = rw.two_layer_acoustic(g, 1.0, 4.0, interface=1.6)
        system = rw.acoustics_system(model)
        src = rw.make_ricker_source(g, 2, [0.8], peak_frequency=8.0, footprint_width=0.025)
        traj = rw.solve_causal(system, src)
        seis = sample_trajectory(build_sampler([[1.2]], "pressure", g, 2), traj).data[0]
        t = traj.times
        delay = 1.5 / 8.0
        incident = np.abs(seis[(t > delay + 0.1) & (t < delay + 0.75)]).max()
        reflected = np.abs(seis[t >= delay + 0.78]).max()
        z1, z2 = 1.0, 2.0
        expected = (z2 - z1) / (z2 + z1)
        assert abs(reflected / incident - expected) / expected < 0.02


class TestWavespeedAcoustic:
    def test_unit_speed(self):
        g = rw.build_grid(1, [8], 1.0, 1e-3, 0.01)
        assert rw.max_wavespeed(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0)) == 1.0

    def test_single_fast_cell(self):
        g = rw.build_grid(1, [8], 1.0, 1e-3, 0.01)
        kappa = np.ones(8)
        kappa[3] = 4.0
        assert rw.max_wavespeed(rw.AcousticModel(grid=g, kappa=kappa, rho=1.0)) == 2.0

    def test_system_dispatch_matches_model(self):
        g = rw.build_grid(2, [5, 5], 1.0, 1e-3, 0.01)
        model = rw.AcousticModel(grid=g, kappa=3.0, rho=1.2)
        system = rw.acoustics_system(model)
        assert rw.max_wavespeed(system) == pytest.approx(rw.max_wavespeed(model), rel=1e-8)


class TestSlownessPencil:
    def test_two_sided_threshold_at_medium_slowness(self):
        # PSD just below the slowness bound, a negative eigenvalue just above
        g = rw.build_grid(1, [8], 1.0, 1e-3, 0.01)
        model = rw.AcousticModel(grid=g, kappa=4.0, rho=1.0)
        system = rw.acoustics_system(model)
        tau_star = 1.0 / rw.max_wavespeed(model)
        assert slowness_pencil_min_eig(system, 0.95 * tau_star) > 0
        assert slowness_pencil_min_eig(system, 1.05 * tau_star) < 0
        assert abs(slowness_pencil_min_eig(system, tau_star)) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_threshold_sits_at_the_fastest_layer(self, dim):
        # speeds 1 and 2: the sign change is at 1/2, not at the slow layer's 1
        g = rw.build_grid(dim, [10] * dim, 1.0, 1e-3, 0.01)
        model = rw.two_layer_acoustic(g, kappa_left=1.0, kappa_right=4.0, interface=0.6)
        system = rw.acoustics_system(model)
        tau_star = 1.0 / rw.max_wavespeed(model)
        assert tau_star == 0.5
        assert slowness_pencil_min_eig(system, 0.95 * tau_star) > 0
        assert slowness_pencil_min_eig(system, 1.05 * tau_star) < 0
        assert abs(slowness_pencil_min_eig(system, tau_star)) < 1e-12

    @pytest.mark.parametrize("dim", [1, 2])
    def test_solves_distinct_cell_blocks_only(self, dim, eigvalsh_rows):
        g = rw.build_grid(dim, [16] * dim, 1.0, 1e-3, 0.01)
        model = rw.two_layer_acoustic(g, kappa_left=1.0, kappa_right=4.0, interface=0.6)
        system = rw.acoustics_system(model)
        eigvalsh_rows.clear()
        assert slowness_pencil_min_eig(system, 0.45) > 0
        assert sum(eigvalsh_rows) == 2 * len(unit_directions(dim))

    @pytest.mark.parametrize("medium", ["two_layer", "random"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacked_directions_equal_the_per_direction_loop(self, dim, medium):
        system = symbol_test_system(dim, medium)
        for tau in (0.3, 0.9):
            assert slowness_pencil_min_eig(system, tau) == per_direction_pencil_min_eig(system, tau)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacks_stay_within_the_row_cap(self, dim, eigvalsh_rows):
        system = symbol_test_system(dim, "random")
        eigvalsh_rows.clear()
        slowness_pencil_min_eig(system, 0.45)
        assert sum(eigvalsh_rows) == system.grid.n_cells * len(unit_directions(dim))
        assert len(eigvalsh_rows) > 1
        assert max(eigvalsh_rows) <= EIG_STACK_ROWS


class TestKelvinElasticity:
    def test_kelvin_dims(self):
        assert [kelvin_dim(d) for d in (1, 2, 3)] == [1, 3, 6]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_elastic_symbols_symmetric(self, dim):
        for p in elastic_p_matrices(dim):
            np.testing.assert_array_equal(p, p.T)

    def test_hooke_inverse_roundtrip(self):
        # applying the inverse Hooke operator then Hooke recovers the stress
        for dim in (2, 3):
            c = isotropic_hooke_kelvin(2.0, 1.5, dim)
            g = isotropic_inverse_hooke(2.0, 1.5, dim)
            rng = np.random.default_rng(dim)
            sigma = rng.standard_normal(kelvin_dim(dim))
            back = c @ (g @ sigma)
            assert np.abs(back - sigma).max() <= 1e-12 * np.abs(sigma).max()

    def test_strain_projector_matches_symbols(self):
        # p(xi) = -[[0, L(xi)], [L(xi)^T, 0]] in Kelvin blocks
        for dim in (2, 3):
            m = kelvin_dim(dim)
            rng = np.random.default_rng(dim)
            xi = rng.standard_normal(dim)
            xi /= np.linalg.norm(xi)
            p = sum(x * pm for x, pm in zip(xi, elastic_p_matrices(dim)))
            np.testing.assert_allclose(p[:m, m:], -strain_projector(xi), atol=1e-14)


class TestViscoelastic:
    def make_model(self, kernel=None, dim=2, cells=None):
        cells = cells or [4] * dim
        g = rw.build_grid(dim, cells, 1.0, 1e-3, 0.01)
        ge = np.tile(isotropic_inverse_hooke(2.0, 1.0, dim), (g.n_cells, 1, 1))
        return ViscoelasticModel(grid=g, rho=1.25, gamma_elastic=ge, gamma_kernel=kernel)

    def test_pure_elastic_has_no_lower_order_terms(self):
        system = rw.viscoelastic_system(self.make_model())
        assert system.b_blocks is None
        assert isinstance(system.kernel, ZeroKernel)

    def test_prony_split_closed_form(self):
        # gamma(t) = c exp(-t/tau) I: b = c I and q(t) = -(c/tau) exp(-t/tau) I
        dim, c0, tau = 2, 0.7, 0.4
        m = kelvin_dim(dim)
        model = self.make_model(kernel=PronyKernel(
            weights=(np.tile(c0 * np.eye(m), (16, 1, 1)),), taus=(tau,)), dim=dim)
        b, q = ve_kernel_split(model)
        np.testing.assert_allclose(b[0], c0 * np.eye(m), rtol=1e-14)
        assert isinstance(q, PronyKernel)
        np.testing.assert_allclose(q.weights[0][0], -(c0 / tau) * np.eye(m), rtol=1e-14)
        assert q.taus == (tau,)

    def test_prony_reconstruction_exact(self):
        m = kelvin_dim(2)
        kern = PronyKernel(
            weights=(np.tile(0.3 * np.eye(m), (16, 1, 1)),
                     np.tile(0.1 * np.eye(m), (16, 1, 1))),
            taus=(0.5, 1.5))
        assert kernel_split_reconstruction_error(self.make_model(kernel=kern)) <= 1e-8

    @pytest.mark.parametrize("n_samples", [2, 3])
    def test_tabulated_gamma_needs_three_samples(self, n_samples):
        # the split's one-sided differences read three samples
        m = kelvin_dim(2)
        kern = TabulatedKernel(times=0.01 * np.arange(n_samples),
                               samples=np.tile(0.3 * np.eye(m), (n_samples, 16, 1, 1)))
        if n_samples < 3:
            with pytest.raises(InvalidCoefficientError, match="at least 3 samples, got 2"):
                self.make_model(kernel=kern)
        else:
            model = self.make_model(kernel=kern)
            assert kernel_split_reconstruction_error(model) == 0.0  # constant: q = 0
            assert rw.viscoelastic_system(model).kernel.times.size == 3

    def test_tabulated_reconstruction_second_order(self):
        m = kelvin_dim(2)
        errs, deltas = [], [0.02, 0.01, 0.005]
        for d in deltas:
            times = d * np.arange(int(2.0 / d) + 1)
            gamma_t = 0.3 * np.exp(-times / 0.5)
            samples = gamma_t[:, None, None, None] * np.tile(np.eye(m), (1, 16, 1, 1))
            kern = TabulatedKernel(times=times, samples=samples)
            errs.append(kernel_split_reconstruction_error(self.make_model(kernel=kern)))
        assert fit_slope(deltas, errs) >= 1.9

    def test_quasi_p_speed_isotropic(self):
        lam, mu, rho = 2.0, 1.0, 1.25
        expected = np.sqrt((lam + 2 * mu) / rho)
        for dim in (2, 3):
            g = rw.build_grid(dim, [3] * dim, 1.0, 1e-3, 0.01)
            ge = np.tile(isotropic_inverse_hooke(lam, mu, dim), (g.n_cells, 1, 1))
            model = ViscoelasticModel(grid=g, rho=rho, gamma_elastic=ge)
            assert rw.max_wavespeed(model) == pytest.approx(expected, rel=5e-3)

    @pytest.mark.parametrize("medium", ["homogeneous", "two_layer", "random"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacked_speed_equals_the_per_direction_loop(self, dim, medium):
        model = viscoelastic_test_model(dim, medium)
        assert rw.max_wavespeed(model) == per_direction_viscoelastic_speed(model)

    @pytest.mark.parametrize("medium, n_distinct", [("homogeneous", 1), ("two_layer", 2)])
    def test_speed_solves_distinct_cells_only(self, medium, n_distinct, eigvalsh_rows):
        model = viscoelastic_test_model(2, medium)
        eigvalsh_rows.clear()
        rw.max_wavespeed(model)
        assert sum(eigvalsh_rows) == n_distinct * len(unit_directions(2))

    def test_state_widths(self):
        for dim, k in ((1, 2), (2, 5), (3, 9)):
            model = self.make_model(dim=dim, cells=[3] * dim)
            assert model.k == k
            if dim < 3:
                assert rw.viscoelastic_system(model).k == k

    def test_system_skew_and_energy_conservation(self):
        model = self.make_model(dim=2)
        system = rw.viscoelastic_system(model)
        assert abs(system.skew + system.skew.T).max() == 0.0
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(system.n_state)
        traj = rw.solve_ivp(system, u0)
        drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
        assert drift <= 1e-11

    def test_two_term_prony_steps_and_adjoint(self):
        # b and the Prony memory both act on the embedded stress block
        m = kelvin_dim(2)
        g = rw.build_grid(2, [12, 12], 1.0, 2e-3, 0.06)
        ge = np.tile(isotropic_inverse_hooke(2.0, 1.0, 2), (g.n_cells, 1, 1))
        kern = PronyKernel(weights=(np.tile(0.3 * np.eye(m), (g.n_cells, 1, 1)),
                                    np.tile(0.1 * np.eye(m), (g.n_cells, 1, 1))),
                           taus=(0.5, 0.05))
        system = rw.viscoelastic_system(
            ViscoelasticModel(grid=g, rho=1.25, gamma_elastic=ge, gamma_kernel=kern))
        assert system.b_blocks is not None and system.kernel.n_terms == 2
        src = rw.make_ricker_source(g, system.k, [0.5, 0.5], peak_frequency=10.0, component=m)
        traj = rw.solve_causal(system, src)
        res = step_residuals(traj, system, src).max()
        assert res <= 1e-12 * np.abs(traj.states).max()
        velocity = np.zeros((2, system.k))
        velocity[0, m] = velocity[1, m + 1] = 1.0
        with pytest.warns(UserWarning, match="custom sampler"):
            sampler = build_sampler([[0.7, 0.5], [0.3, 0.6]], "custom", g, system.k,
                                    weights=velocity)
        assert dot_product_test(system, traj, sampler, np.random.default_rng(0)) <= 1e-12

    def test_tabulated_gamma_embeds_the_split_kernel(self):
        m = kelvin_dim(2)
        g = rw.build_grid(2, [8, 8], 1.0, 5e-3, 0.1)
        ge = np.tile(isotropic_inverse_hooke(2.0, 1.0, 2), (g.n_cells, 1, 1))
        t = g.dt * np.arange(g.n_steps + 3)
        gamma = TabulatedKernel(times=t, samples=(0.3 * np.exp(-t / 0.2))[:, None, None, None]
                                * np.tile(np.eye(m), (t.size, g.n_cells, 1, 1)))
        model = ViscoelasticModel(grid=g, rho=1.25, gamma_elastic=ge, gamma_kernel=gamma)
        system = rw.viscoelastic_system(model)
        _, q = ve_kernel_split(model)
        assert isinstance(system.kernel, TabulatedKernel)
        np.testing.assert_array_equal(system.kernel.times, q.times)
        np.testing.assert_array_equal(system.kernel.samples[:, :, :m, :m], q.samples)
        outside = system.kernel.samples.copy()
        outside[:, :, :m, :m] = 0.0
        assert not outside.any()
        src = rw.make_ricker_source(g, system.k, [0.5, 0.5], peak_frequency=10.0, component=m)
        traj = rw.solve_causal(system, src)
        assert step_residuals(traj, system, src).max() <= 1e-12 * np.abs(traj.states).max()

    def test_ellipticity_violation_rejected(self):
        g = rw.build_grid(2, [4, 4], 1.0, 1e-3, 0.01)
        ge = np.tile(isotropic_inverse_hooke(2.0, 1.0, 2), (16, 1, 1))
        ge[7] *= -1.0
        with pytest.raises(InvalidCoefficientError, match="elliptic"):
            ViscoelasticModel(grid=g, rho=1.0, gamma_elastic=ge)

    def test_symmetry_violation_rejected(self):
        g = rw.build_grid(2, [4, 4], 1.0, 1e-3, 0.01)
        ge = np.tile(isotropic_inverse_hooke(2.0, 1.0, 2), (16, 1, 1))
        ge[3, 0, 1] += 0.2
        with pytest.raises(InvalidCoefficientError, match="cell 3"):
            ViscoelasticModel(grid=g, rho=1.0, gamma_elastic=ge)

    def test_only_periodic_boundary(self):
        with pytest.raises(UnsupportedConfigurationError):
            rw.viscoelastic_system(self.make_model(), boundary="acoustic_free")


class TestModelFiles:
    def test_acoustic_roundtrip(self, tmp_path):
        g = rw.build_grid(1, [12], 1.0, 1e-3, 0.05)
        rng = np.random.default_rng(0)
        model = rw.AcousticModel(grid=g, kappa=1 + rng.random(12), rho=1 + rng.random(12),
                                 s_kappa=2.0)
        base = str(tmp_path / "model")
        save_model(model, base)
        back = load_model(base)
        np.testing.assert_allclose(back.kappa, model.kappa)
        np.testing.assert_allclose(back.rho, model.rho)
        assert back.s_kappa == 2.0
        assert back.grid == model.grid

    def test_viscoelastic_roundtrip(self, tmp_path):
        g = rw.build_grid(2, [3, 3], 1.0, 1e-3, 0.05)
        m = kelvin_dim(2)
        ge = np.tile(isotropic_inverse_hooke(2.0, 1.0, 2), (9, 1, 1))
        kern = PronyKernel(weights=(np.tile(0.2 * np.eye(m), (9, 1, 1)),), taus=(0.6,))
        model = ViscoelasticModel(grid=g, rho=1.1, gamma_elastic=ge, gamma_kernel=kern)
        base = str(tmp_path / "ve")
        save_model(model, base)
        back = load_model(base)
        np.testing.assert_allclose(back.gamma_elastic, ge)
        assert isinstance(back.gamma_kernel, PronyKernel)
        assert back.gamma_kernel.taus == (0.6,)
