import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughwave as rw
from conftest import count_calls, damped_oscillation, per_direction_symbol_speed, symbol_test_system
from oracles import stacked_memory_series
from roughwave.errors import (
    GridMismatchError,
    InvalidArgumentError,
    InvalidCoefficientError,
    UnsupportedConfigurationError,
)
from roughwave.fields import (
    CoefficientField,
    PronyKernel,
    TabulatedKernel,
    kernel_values,
    prony_fit,
)
from roughwave.operators import (
    EIG_STACK_ROWS,
    acoustic_p_matrices,
    block_apply,
    block_diagonal,
    energy,
    exp_interval_weights,
    max_symbol_speed,
    memory_series,
    prony_advance,
    prony_steps,
    unit_directions,
)


def random_spd_field(n_cells, k, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n_cells, k, k)))
    vals = 1.0 + rng.random((n_cells, k))
    a = np.einsum("cik,ck,cjk->cij", q, vals, q)
    a = 0.5 * (a + np.swapaxes(a, 1, 2))
    g = rw.build_grid(1, [n_cells], 1.0, 1e-3, 0.1)
    return CoefficientField(grid=g, k=k, a=a)


class TestMass:
    def test_identity_coefficients(self):
        f = CoefficientField(grid=rw.build_grid(1, [16], 1.0, 1e-3, 0.1), k=2,
                             a=np.tile(np.eye(2), (16, 1, 1)))
        a = rw.assemble_mass(f)
        assert a is f.a  # the field's blocks, checked, not copied
        u = np.arange(32.0)
        np.testing.assert_array_equal(block_apply(a, u), u)

    def test_acoustic_cell_block(self):
        # kappa = 4, rho = 1 maps to the cell block diag(0.25, 1, 1, 1)
        g = rw.build_grid(3, [2, 2, 2], 1.0, 1e-3, 0.01)
        model = rw.AcousticModel(grid=g, kappa=4.0, rho=1.0)
        a = rw.assemble_mass(model.coefficient_field())
        np.testing.assert_allclose(a[0], np.diag([0.25, 1.0, 1.0, 1.0]))

    def test_non_spd_names_cell(self):
        g = rw.build_grid(1, [8], 1.0, 1e-3, 0.1)
        a = np.tile(np.eye(2), (8, 1, 1))
        f = CoefficientField(grid=g, k=2, a=a)
        f.a[3] = np.diag([1.0, -1.0])  # corrupt after validation
        with pytest.raises(InvalidCoefficientError, match="cell 3"):
            rw.assemble_mass(f)

    def test_acoustic_spectrum_is_inverse_kappa_and_rho(self):
        g = rw.build_grid(1, [12], 1.0, 1e-3, 0.1)
        rng = np.random.default_rng(3)
        kappa = 1.0 + rng.random(12)
        rho = 0.5 + rng.random(12)
        a = rw.assemble_mass(rw.AcousticModel(grid=g, kappa=kappa, rho=rho).coefficient_field())
        eigs = np.sort(np.linalg.eigvalsh(a), axis=1)
        expect = np.sort(np.stack([1.0 / kappa, rho], axis=1), axis=1)
        np.testing.assert_allclose(eigs, expect, rtol=1e-13)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_rayleigh_quotients_within_bounds(self, seed):
        f = random_spd_field(20, 2, seed=seed)
        a = rw.assemble_mass(f)
        rng = np.random.default_rng(seed + 1)
        u = rng.standard_normal(f.grid.state_size(2))
        q = float(u @ block_apply(a, u)) / float(u @ u)
        eigs = np.linalg.eigvalsh(a)
        assert eigs.min() - 1e-10 <= q <= eigs.max() + 1e-10


class TestSkew:
    def test_1d_periodic_centered_difference_exact_antisymmetry(self):
        g = rw.build_grid(1, [32], 1.0, 1e-3, 0.1)
        sk = rw.assemble_skew([np.array([[1.0]])], g, "periodic")
        dense = sk.toarray()
        np.testing.assert_array_equal(dense, -dense.T)
        # interior stencil is the plain centered difference
        assert dense[5, 6] == pytest.approx(0.5 / g.h[0])
        assert dense[5, 4] == pytest.approx(-0.5 / g.h[0])

    def test_constant_state_in_kernel(self):
        g = rw.build_grid(2, [8, 8], 1.0, 1e-3, 0.1)
        sk = rw.assemble_skew(acoustic_p_matrices(2), g, "periodic")
        u = np.tile(np.array([3.0, -1.0, 2.0]), g.n_cells)
        assert np.abs(sk @ u).max() == 0.0

    def test_plane_wave_symbol(self):
        # discrete Fourier modes are exact eigenvectors of the circulant
        # difference: eigenvalues +/- i sin(2 pi m h)/h for the k=2 pair
        g = rw.build_grid(1, [64], 1.0, 1e-3, 0.1)
        sk = rw.assemble_skew(acoustic_p_matrices(1), g, "periodic")
        x = g.axis_centers(0)
        for mode in (1, 5, 11):
            wave = np.exp(2j * np.pi * mode * x)
            for pol, lam_sign in ((np.array([1.0, -1.0]), +1), (np.array([1.0, 1.0]), -1)):
                state = (wave[:, None] * pol).ravel()
                out = sk @ state.real + 1j * (sk @ state.imag)
                lam = lam_sign * 1j * np.sin(2 * np.pi * mode * g.h[0]) / g.h[0]
                assert np.abs(out - lam * state).max() < 1e-11

    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    @pytest.mark.parametrize("dim,cells", [(1, [48]), (2, [12, 10])])
    def test_skew_symmetry_random_vectors(self, boundary, dim, cells):
        g = rw.build_grid(dim, cells, 1.0, 1e-3, 0.1)
        sk = rw.assemble_skew(acoustic_p_matrices(dim), g, boundary)
        rng = np.random.default_rng(42)
        for _ in range(10):
            u = rng.standard_normal(sk.shape[0])
            v = rng.standard_normal(sk.shape[0])
            s = abs(math.fsum((sk @ u * v).tolist()) + math.fsum((u * (sk @ v)).tolist()))
            assert s <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v)

    def test_stored_matrix_exactly_antisymmetric(self):
        g = rw.build_grid(2, [9, 7], 1.0, 1e-3, 0.1)
        for boundary in ("periodic", "acoustic_free"):
            sk = rw.assemble_skew(acoustic_p_matrices(2), g, boundary)
            assert abs(sk + sk.T).max() == 0.0

    def test_rejects_asymmetric_symbol(self):
        g = rw.build_grid(1, [16], 1.0, 1e-3, 0.1)
        with pytest.raises(InvalidArgumentError):
            rw.assemble_skew([np.array([[0.0, 1.0], [0.0, 0.0]])], g)

    def test_acoustic_free_requires_acoustic_structure(self):
        g = rw.build_grid(1, [16], 1.0, 1e-3, 0.1)
        with pytest.raises(UnsupportedConfigurationError):
            rw.assemble_skew([np.array([[1.0]])], g, "acoustic_free")


class TestMemory:
    def test_zero_kernel(self):
        op = rw.PronyKernel()
        hist = np.ones((21, 8))
        rows = list(memory_series(op, hist, 1e-2))
        assert len(rows) == 21 and all(np.abs(row).max() == 0.0 for row in rows)

    def test_prony_step_response_closed_form(self):
        # q = exp(-t) I, u = 1 for t >= 0: R(t) = 1 - exp(-t), exact for the
        # recursion at grid times
        op = PronyKernel(weights=(np.ones((4, 1, 1)),), taus=(1.0,))
        hist = np.ones((101, 4))
        rows = list(memory_series(op, hist, 0.01))
        for idx in (10, 50, 100):
            r = rows[idx]
            assert r[0] == pytest.approx(1.0 - np.exp(-0.01 * idx), abs=1e-13)

    def test_trapezoid_oracle_matches_prony_second_order(self):
        # the trapezoid convolution of a tabulated kernel, the reference of its fit
        prony = PronyKernel(weights=(np.ones((4, 1, 1)),), taus=(1.0,))
        errs, dts = [], [0.04, 0.02, 0.01]
        rng = np.random.default_rng(0)
        for dt in dts:
            m = int(round(0.6 / dt))
            t = dt * np.arange(m + 1)
            hist = np.sin(3 * t)[:, None] * np.ones((1, 4))
            tab = TabulatedKernel(times=dt * np.arange(2 * m + 1),
                                  samples=np.exp(-dt * np.arange(2 * m + 1))[:, None, None, None]
                                  * np.ones((1, 4, 1, 1)))
            r1 = list(memory_series(prony, hist, dt))[m]
            r2 = stacked_memory_series(tab, hist, dt)[m]
            errs.append(np.abs(r1 - r2).max())
        slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
        assert slope >= 1.9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trapezoid_oracle_rows_match_the_per_index_trapezoid(self, seed):
        rng = np.random.default_rng(seed)
        n, k, dt = 5, 2, 0.01
        q = rng.standard_normal((17, n, k, k))
        # samples at 0.7 dt cover 11 steps of the 25-step history; q is zero beyond
        kernel = TabulatedKernel(times=0.7 * dt * np.arange(17), samples=q + q.swapaxes(2, 3))
        states = rng.standard_normal((26, n * k))
        got = stacked_memory_series(kernel, states, dt)
        assert np.abs(got[0]).max() == 0.0
        for m in range(1, states.shape[0]):
            row = np.zeros(n * k)
            for i in range(m + 1):
                weight = 0.5 * dt if i in (0, m) else dt
                q_lag = kernel_values(kernel, np.array([dt * (m - i)]), n, k)[0]
                row += weight * block_apply(q_lag, states[i])
            assert np.array_equal(got[m], row), m

    @pytest.mark.parametrize("kind", ["zero", "prony", "tabulated"])
    def test_rows_equal_the_stacked_series(self, kind):
        # a tabulated kernel convolves as its fit, the kernel a system holds
        rng = np.random.default_rng(3)
        n, k, dt = 6, 2, 0.01
        q = rng.standard_normal((17, n, k, k))
        q = q + q.swapaxes(2, 3)
        kernel = {"zero": rw.PronyKernel,
                  "prony": lambda: PronyKernel(weights=(q[0], q[1]), taus=(0.05, 0.4)),
                  "tabulated": lambda: prony_fit(damped_oscillation(
                      0.7 * dt * np.arange(50), rng.uniform(0, 1, n), k), dt, 29 * dt)}[kind]()
        states = rng.standard_normal((30, n * k))
        rows = list(memory_series(kernel, states, dt))
        stacked = stacked_memory_series(kernel, states, dt)
        assert len(rows) == len(stacked)
        for row, ref in zip(rows, stacked):
            assert np.array_equal(row, ref)

    def test_causality_wrt_future_history(self):
        op = PronyKernel(weights=(np.ones((4, 1, 1)),), taus=(0.5,))
        rng = np.random.default_rng(1)
        hist = rng.standard_normal((40, 4))
        r = list(memory_series(op, hist, 0.01))[20]
        hist2 = hist.copy()
        hist2[21:] = 99.0
        r2 = list(memory_series(op, hist2, 0.01))[20]
        np.testing.assert_array_equal(r, r2)

    def test_system_rejects_a_kernel_of_the_wrong_cell_shape(self):
        model = rw.AcousticModel(grid=rw.build_grid(1, [4], 1.0, 0.01, 0.1), kappa=1.0, rho=1.0)
        with pytest.raises(InvalidCoefficientError, match="Prony weight 0 has wrong shape"):
            rw.acoustics_system(model, kernel=PronyKernel(weights=(np.ones((3, 2, 2)),), taus=(1.0,)))
        with pytest.raises(InvalidCoefficientError, match="tabulated kernel has wrong per-cell shape"):
            rw.acoustics_system(model, kernel=TabulatedKernel(times=np.array([0.0, 0.01]),
                                                              samples=np.ones((2, 4, 1, 1))))


class TestDiscreteSystem:
    def test_holds_the_field_blocks_and_one_stencil_matrix(self):
        f = random_spd_field(6, 2)
        system = rw.assemble_system(f)
        assert system.a_blocks is f.a
        assert system.skew.shape == (12, 12)
        np.testing.assert_array_equal(system.p_matrices[0], acoustic_p_matrices(1)[0])

    def test_rejects_coefficients_of_the_wrong_shape(self):
        system = rw.assemble_system(random_spd_field(6, 2))
        with pytest.raises(GridMismatchError, match=r"a_blocks has shape \(5, 2, 2\)"):
            dataclasses.replace(system, a_blocks=system.a_blocks[:5])
        with pytest.raises(GridMismatchError, match=r"a_blocks has shape \(6, 3, 3\)"):
            dataclasses.replace(system, a_blocks=np.tile(np.eye(3), (6, 1, 1)))
        with pytest.raises(GridMismatchError, match=r"skew has shape \(10, 10\)"):
            dataclasses.replace(system, skew=system.skew[:10, :10])


class TestIntervalWeights:
    @staticmethod
    def reference(alpha: float) -> tuple[float, float, float]:
        """(E, w_old, w_new) for length alpha and tau 1, to 60 digits."""
        with localcontext() as ctx:
            ctx.prec = 60
            a = Decimal(alpha)
            e = (-a).exp()
            return float(e), float((1 - (1 + a) * e) / a), float((a - 1 + e) / a)

    def test_weights_match_60_digit_references(self):
        # both sides of the series switch at alpha = 0.5, and the old one at 1e-4
        alphas = np.concatenate([np.logspace(-9, 3, 241), [1.03e-4, 0.4999, 0.5, 0.5001]])
        worst = 0.0
        for alpha in alphas:
            got = exp_interval_weights(float(alpha), 1.0)
            for value, ref in zip(got, self.reference(float(alpha))):
                # E underflows to 0 for large alpha, in both
                worst = max(worst, abs(value - ref) / ref if ref else abs(value))
        assert worst <= 4e-15

    def test_weights_sum_to_the_interval_integral(self):
        for alpha in (1e-6, 1e-3, 0.3, 2.0):
            e, w_old, w_new = exp_interval_weights(alpha, 1.0)
            assert w_old + w_new == pytest.approx(1.0 - e, rel=1e-14)


class TestPronyAdvance:
    def test_zero_history(self):
        aux = [np.zeros(6)]
        out = prony_advance(aux, np.zeros(6), np.zeros(6), [exp_interval_weights(0.01, 1.0)])
        assert np.abs(out[0]).max() == 0.0

    def test_geometric_closed_form(self):
        aux = [np.zeros(3)]
        dt, n = 0.02, 80
        for _ in range(n):
            aux = prony_advance(aux, np.ones(3), np.ones(3), [exp_interval_weights(dt, 1.0)])
        assert aux[0][0] == pytest.approx(1.0 - np.exp(-n * dt), abs=1e-13)

    def test_converges_to_continuous_convolution(self):
        # fine-trapezoid oracle for s(t) = int exp(-(t-s)/tau) u(s) ds
        tau, t_end = 0.3, 0.5
        u_fn = lambda t: np.cos(4 * t)
        s_fine = np.linspace(0, t_end, 20001)
        oracle = np.trapezoid(np.exp(-(t_end - s_fine) / tau) * u_fn(s_fine), s_fine)
        errs, dts = [], [0.01, 0.005, 0.0025]
        for dt in dts:
            n = int(round(t_end / dt))
            aux = [np.zeros(1)]
            for i in range(n):
                aux = prony_advance(aux, np.array([u_fn(i * dt)]),
                                    np.array([u_fn((i + 1) * dt)]), [exp_interval_weights(dt, tau)])
            errs.append(abs(aux[0][0] - oracle))
        assert errs[-1] < errs[0]
        assert errs[-1] < 5e-6

    def test_steps_chain_the_recursion_advancing_once_per_step(self, monkeypatch):
        rng = np.random.default_rng(0)
        states = rng.standard_normal((6, 4))
        weights = np.array([exp_interval_weights(0.01, tau) for tau in (0.05, 1.0)])
        calls = count_calls(monkeypatch, "prony_advance")
        steps = list(prony_steps(states, weights))
        assert len(steps) == len(calls) == 5
        aux = np.zeros((2, 4))
        for (s_now, s_next), u_prev, u_next in zip(steps, states[:-1], states[1:]):
            assert np.array_equal(s_now, aux)
            aux = prony_advance(aux, u_prev, u_next, weights)
            assert np.array_equal(s_next, aux)
        calls.clear()
        assert [s.shape for pair in prony_steps(states, weights[:0]) for s in pair] == [(0, 4)] * 10
        assert calls == []

    def test_steps_read_rows_from_any_iterable(self):
        rng = np.random.default_rng(1)
        states = rng.standard_normal((7, 4))
        weights = np.array([exp_interval_weights(0.01, tau) for tau in (0.05, 1.0)])
        stored = list(prony_steps(states, weights))
        streamed = list(prony_steps((row.copy() for row in states), weights))
        assert len(streamed) == len(stored) == 6
        for (s_now, s_next), (r_now, r_next) in zip(streamed, stored):
            assert np.array_equal(s_now, r_now) and np.array_equal(s_next, r_next)

    def test_rejects_bad_tau(self):
        with pytest.raises(InvalidArgumentError):
            PronyKernel(weights=(np.zeros((2, 1, 1)),), taus=(0.0,))


class TestEnergy:
    def test_zero_state(self):
        f = random_spd_field(10, 2)
        a = rw.assemble_mass(f)
        assert energy(a, f.grid.cell_volume, np.zeros(f.grid.state_size(2))) == 0.0

    def test_one_cell_acoustic_example(self):
        # kappa = rho = 1, p = 2, v = 0, unit cell volume: E = 2
        g = rw.build_grid(1, [2], 2.0, 1e-3, 0.1)  # h = 1 per cell
        model = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0)
        a = rw.assemble_mass(model.coefficient_field())
        u = np.zeros(g.state_size(2))
        u[0] = 2.0  # pressure in the first cell
        assert energy(a, g.cell_volume, u) == pytest.approx(2.0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_energy_norm_equivalence(self, seed):
        f = random_spd_field(16, 2, seed=seed)
        a = rw.assemble_mass(f)
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(f.grid.state_size(2))
        norm2 = f.grid.cell_volume * float(u @ u)
        e = energy(a, f.grid.cell_volume, u)
        assert 0.5 * f.c_lo * norm2 - 1e-12 <= e <= 0.5 * f.c_hi * norm2 + 1e-12

    def test_dimension_mismatch(self):
        f = random_spd_field(10, 2)
        a = rw.assemble_mass(f)
        with pytest.raises(InvalidArgumentError):
            energy(a, f.grid.cell_volume, np.zeros(7))


class TestSymbolSpeed:
    def test_advection_speed(self):
        g = rw.build_grid(1, [16], 1.0, 1e-3, 0.1)
        c = 2.5
        f = CoefficientField(grid=g, k=1, a=np.full((16, 1, 1), 1.0 / c))
        system = rw.assemble_system(f, [np.array([[-1.0]])])
        assert max_symbol_speed(system) == pytest.approx(c, rel=1e-12)

    def test_acoustic_speed(self):
        g = rw.build_grid(2, [6, 6], 1.0, 1e-3, 0.1)
        model = rw.AcousticModel(grid=g, kappa=4.0, rho=1.0)
        system = rw.acoustics_system(model)
        assert max_symbol_speed(system) == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_solves_distinct_cell_blocks_only(self, dim, eigvalsh_rows):
        g = rw.build_grid(dim, [16] * dim, 1.0, 1e-3, 0.1)
        model = rw.two_layer_acoustic(g, kappa_left=1.0, kappa_right=4.0, interface=0.6)
        system = rw.acoustics_system(model)
        eigvalsh_rows.clear()
        assert max_symbol_speed(system) == pytest.approx(2.0, rel=1e-12)
        assert sum(eigvalsh_rows) == 2 * len(unit_directions(dim))

    @pytest.mark.parametrize("medium", ["two_layer", "random"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacked_directions_equal_the_per_direction_loop(self, dim, medium):
        system = symbol_test_system(dim, medium)
        assert max_symbol_speed(system) == per_direction_symbol_speed(system)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stacks_stay_within_the_row_cap(self, dim, eigvalsh_rows):
        system = symbol_test_system(dim, "random")
        eigvalsh_rows.clear()
        max_symbol_speed(system)
        assert sum(eigvalsh_rows) == system.grid.n_cells * len(unit_directions(dim))
        assert len(eigvalsh_rows) > 1
        assert max(eigvalsh_rows) <= EIG_STACK_ROWS

    def test_block_diagonal_layout(self):
        blocks = np.arange(8.0).reshape(2, 2, 2)
        m = block_diagonal(blocks).toarray()
        np.testing.assert_array_equal(m[:2, :2], blocks[0])
        np.testing.assert_array_equal(m[2:, 2:], blocks[1])
        assert m[0, 2] == 0
