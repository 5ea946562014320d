"""The midpoint step matrix is zero-free and its factor is ordered per dimension.

``StepOperators`` factors the zero-free C with COLAMD in 1D and with minimum
degree on C^T + C in symmetric mode in 2D and 3D.  The oracle in conftest
factors the same C with the stored zeros of dense cell blocks and splu's
defaults; forward states, adjoint states, step residuals and the dot test
must agree with it to round-off.
"""

import numpy as np
import pytest

import roughwave as rw
from conftest import assert_matches_oracle, zero_keeping_step_matrix
from roughwave.fields import PronyKernel, TabulatedKernel
from roughwave.forward import build_sampler
from roughwave.operators import assemble_system, block_diagonal
from roughwave.physics import ViscoelasticModel, isotropic_inverse_hooke, kelvin_dim

N_STEPS = 20
CELLS = {1: [40], 2: [12, 12], 3: [6, 6, 6]}


def two_term_prony(rng, n_cells, k):
    eye = np.eye(k)
    return PronyKernel(weights=tuple(rng.uniform(0.0, 1.0, n_cells)[:, None, None] * eye
                                     for _ in range(2)),
                       taus=(rng.uniform(0.02, 0.1), rng.uniform(0.2, 1.0)))


def rough_acoustic(dim, rng):
    cells = CELLS[dim]
    dt = 0.5 / max(cells)
    g = rw.build_grid(dim, cells, 1.0, dt, N_STEPS * dt)
    return rw.AcousticModel(grid=g, kappa=rng.uniform(0.5, 4.0, g.n_cells),
                            rho=rng.uniform(0.5, 2.0, g.n_cells))


def pressure_case(system, rng):
    g, k = system.grid, system.k
    src = rw.make_ricker_source(g, k, list(rng.uniform(0.2, 0.8, g.dim)),
                                peak_frequency=1.0 / (4.0 * g.dt), delay=6.0 * g.dt)
    return src, build_sampler(rng.uniform(0.05, 0.95, (2, g.dim)).tolist(), "pressure", g, k)


class TestOracleEquivalence:
    @pytest.mark.parametrize("prony", [False, True], ids=["no_memory", "prony"])
    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rough_acoustic(self, dim, boundary, prony):
        rng = np.random.default_rng(100 * dim + 10 * prony + (boundary == "periodic"))
        model = rough_acoustic(dim, rng)
        kernel = two_term_prony(rng, model.grid.n_cells, model.k) if prony else None
        system = rw.acoustics_system(model, boundary=boundary, kernel=kernel)
        if not prony:
            # the oracle's C keeps the dense blocks' zeros (adding a Prony term dropped them)
            assert zero_keeping_step_matrix(system).nnz > system.step_operators.c_matrix.nnz
        assert_matches_oracle(system, *pressure_case(system, rng), rng)

    def test_tabulated_kernel_1d(self):
        rng = np.random.default_rng(7)
        model = rough_acoustic(1, rng)
        g = model.grid
        q = rng.standard_normal((2 * N_STEPS + 4, g.n_cells, 2, 2))
        kernel = TabulatedKernel(times=0.5 * g.dt * np.arange(2 * N_STEPS + 4),
                                 samples=0.1 * (q + q.swapaxes(2, 3)))
        system = rw.acoustics_system(model, kernel=kernel)
        src, _ = pressure_case(system, rng)
        assert_matches_oracle(system, src, None, rng)

    @pytest.mark.filterwarnings("ignore:custom sampler")
    def test_viscoelastic_prony_2d(self):
        rng = np.random.default_rng(8)
        m = kelvin_dim(2)
        g = rw.build_grid(2, [10, 10], 1.0, 2e-3, N_STEPS * 2e-3)
        ge = np.tile(isotropic_inverse_hooke(2.0, 1.0, 2), (g.n_cells, 1, 1))
        scales = rng.uniform(0.05, 0.3, (2, g.n_cells))
        kern = PronyKernel(weights=tuple(s[:, None, None] * np.eye(m) for s in scales),
                           taus=(0.5, 0.05))
        system = rw.viscoelastic_system(ViscoelasticModel(
            grid=g, rho=rng.uniform(1.0, 1.5, g.n_cells), gamma_elastic=ge, gamma_kernel=kern))
        assert system.b_blocks is not None and system.kernel.n_terms == 2
        src = rw.make_ricker_source(g, system.k, [0.5, 0.5], peak_frequency=10.0, component=m)
        velocity = np.zeros((2, system.k))
        velocity[0, m] = velocity[1, m + 1] = 1.0
        sampler = build_sampler([[0.7, 0.5], [0.3, 0.6]], "custom", g, system.k, weights=velocity)
        assert_matches_oracle(system, src, sampler, rng)

    def test_random_nonsymmetric_b(self):
        rng = np.random.default_rng(9)
        model = rough_acoustic(2, rng)
        b = 0.5 * rng.standard_normal((model.grid.n_cells, 3, 3))
        assert np.abs(b - b.swapaxes(1, 2)).max() > 0.1
        kernel = two_term_prony(rng, model.grid.n_cells, 3)
        system = assemble_system(model.coefficient_field(kernel=kernel, b=b))
        assert_matches_oracle(system, *pressure_case(system, rng), rng)

    def test_step_25x_past_cfl(self):
        rng = np.random.default_rng(10)
        model = rough_acoustic(2, rng)
        dt = 25.0 * model.grid.h[0] / rw.max_wavespeed(model)
        g = rw.build_grid(2, CELLS[2], 1.0, dt, N_STEPS * dt)
        system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=model.kappa, rho=model.rho))
        assert_matches_oracle(system, *pressure_case(system, rng), rng)


def stored_zeros(matrix):
    return int(np.count_nonzero(matrix.data == 0))


class TestZeroFreeStructure:
    def test_block_diagonal_stores_only_nonzeros(self):
        rng = np.random.default_rng(11)
        blocks = rng.standard_normal((5, 3, 3)) * (rng.uniform(size=(5, 3, 3)) < 0.5)
        mat = block_diagonal(blocks)
        assert stored_zeros(mat) == 0 and mat.nnz == np.count_nonzero(blocks)
        dense = np.zeros((15, 15))
        for c in range(5):
            dense[3 * c:3 * c + 3, 3 * c:3 * c + 3] = blocks[c]
        np.testing.assert_array_equal(mat.toarray(), dense)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_step_pieces_store_no_zeros(self, dim):
        rng = np.random.default_rng(dim)
        model = rough_acoustic(dim, rng)
        b = np.zeros((model.grid.n_cells, model.k, model.k))
        b[:, 0, 0] = rng.uniform(0.0, 1.0, model.grid.n_cells)
        system = assemble_system(model.coefficient_field(
            kernel=two_term_prony(rng, model.grid.n_cells, model.k), b=b))
        ops = system.step_operators
        pieces = [block_diagonal(system.a_blocks), block_diagonal(system.b_blocks), ops.c_matrix,
                  ops.rhs_matrix, *ops.weight_matrices]
        assert len(pieces) == 6
        assert [stored_zeros(m) for m in pieces] == [0] * 6

    @pytest.mark.parametrize("dim, cells, dt, bound", [
        (1, [4000], 1e-3, 60_000),        # COLAMD in 1D
        (2, [64, 64], 5e-3, 250_000),     # 767,572 with stored zeros and COLAMD
        (3, [16, 16, 16], 2e-3, 500_000),  # ~3.75 M with stored zeros and COLAMD
    ], ids=["1d-4000", "2d-64", "3d-16"])
    def test_fill_stays_bounded(self, dim, cells, dt, bound):
        g = rw.build_grid(dim, cells, 1.0, dt, 0.1)
        system = rw.acoustics_system(rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.5))
        lu = system.step_operators.lu
        assert lu.L.nnz + lu.U.nnz <= bound
