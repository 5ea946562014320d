"""The midpoint step matrix is zero-free and its factor is ordered per dimension.

``StepOperators`` factors the zero-free C with COLAMD in 1D and with minimum
degree on C^T + C in symmetric mode in 2D and 3D.  The oracle in conftest
factors the same C with the stored zeros of dense cell blocks and splu's
defaults; forward states, adjoint states, step residuals and the dot test
must agree with it to round-off.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import roughwave as rw
from conftest import (
    assert_matches_oracle,
    damped_oscillation,
    fitted,
    oracle_system,
    per_term_solve,
    zero_keeping_step_matrix,
)
from oracles import dot_product_test, stored_derivative
from roughwave.evolution import _midpoint_solve
from roughwave.fields import PronyKernel
from roughwave.forward import build_sampler
from roughwave.operators import StepFactor, assemble_system, block_diagonal
from roughwave.physics import ViscoelasticModel, isotropic_inverse_hooke, kelvin_dim
from roughwave.sensitivity import adjoint_gradient, misfit_gradient, random_perturbation

N_STEPS = 20
CELLS = {1: [40], 2: [12, 12], 3: [6, 6, 6]}


def two_term_prony(rng, n_cells, k):
    eye = np.eye(k)
    return PronyKernel(weights=tuple(rng.uniform(0.0, 1.0, n_cells)[:, None, None] * eye
                                     for _ in range(2)),
                       taus=(rng.uniform(0.02, 0.1), rng.uniform(0.2, 1.0)))


def random_acoustic(cells, rng):
    dt = 0.5 / max(cells)
    g = rw.build_grid(len(cells), cells, 1.0, dt, N_STEPS * dt)
    return rw.AcousticModel(grid=g, kappa=rng.uniform(0.5, 4.0, g.n_cells),
                            rho=rng.uniform(0.5, 2.0, g.n_cells))


def rough_acoustic(dim, rng):
    return random_acoustic(CELLS[dim], rng)


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
        kernel = two_term_prony(rng, model.grid.n_cells, model.k) if prony else PronyKernel()
        system = rw.acoustics_system(model, boundary=boundary, kernel=kernel)
        if not prony:
            # the oracle's C keeps the dense blocks' zeros (adding a Prony term dropped them)
            assert zero_keeping_step_matrix(system).nnz > system.step_operators.c_matrix.nnz
        assert_matches_oracle(system, *pressure_case(system, rng), rng)

    def test_tabulated_kernel_1d(self):
        # the Prony fit of a tabulated kernel steps as the oracle does, its adjoint too
        rng = np.random.default_rng(7)
        model = rough_acoustic(1, rng)
        g = model.grid
        kernel = damped_oscillation(0.5 * g.dt * np.arange(2 * N_STEPS + 4),
                                    rng.uniform(0.0, 1.0, g.n_cells), 2)
        system = rw.acoustics_system(model, kernel=fitted(kernel, g))
        assert_matches_oracle(system, *pressure_case(system, rng), rng)

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

    def test_two_shots_in_different_classes(self):
        rng = np.random.default_rng(14)
        system = rw.acoustics_system(random_acoustic([40], rng), kernel=two_term_prony(rng, 40, 2))
        g, lu = system.grid, system.step_operators.lu
        sources = [rw.make_ricker_source(g, 2, [x], peak_frequency=1.0 / (4.0 * g.dt),
                                         delay=6.0 * g.dt) for x in (0.2875, 0.3125)]
        assert len({int(lu.labels[s.footprint.argmax()]) for s in sources}) == 2
        _, sampler = pressure_case(system, rng)
        oracle = oracle_system(system)
        u0 = np.zeros((system.n_state, 2))
        states = _midpoint_solve(system, sources, u0, None)
        ref = _midpoint_solve(oracle, sources, u0, None)
        assert np.abs(states - ref).max() <= 1e-13 * np.abs(ref).max()
        # together the shots reach both classes, alone one each
        for shot, src in enumerate(sources):
            np.testing.assert_array_equal(states[..., shot], rw.solve_causal(system, src).states)
            traj = rw.Trajectory(grid=g, times=g.times(), states=states[..., shot],
                                 a_blocks=system.a_blocks, source=src)
            assert dot_product_test(system, traj, sampler, rng) <= 1e-13

    @pytest.mark.parametrize("cells", [[10], [10, 11]], ids=["one-class", "two-classes"])
    def test_initial_state(self, cells):
        rng = np.random.default_rng(15)
        system = rw.acoustics_system(random_acoustic([40], rng))
        lu = system.step_operators.lu
        u0 = np.zeros(system.n_state)
        u0[[2 * i for i in cells]] = rng.standard_normal(len(cells))  # pressures of those cells
        assert len(set(lu.labels[u0 != 0].tolist())) == len(cells)
        _, sampler = pressure_case(system, rng)
        assert_matches_oracle(system, u0, sampler, rng)

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


def parity_case(cells, boundary="periodic", footprint_width=None):
    """Two-layer acoustic medium, no memory, 20 steps; a Ricker point source (or a
    Gaussian footprint of the given width) and two pressure receivers."""
    dim = len(cells)
    dt = 0.5 / max(cells)
    g = rw.build_grid(dim, cells, 1.0, dt, N_STEPS * dt)
    system = rw.acoustics_system(rw.two_layer_acoustic(g, 1.0, 3.0, interface=0.6), boundary)
    src = rw.make_ricker_source(g, dim + 1, [0.3] * dim, peak_frequency=1.0 / (4.0 * dt),
                                delay=6.0 * dt, footprint_width=footprint_width)
    return system, src, build_sampler([[0.7] * dim, [0.45] * dim], "pressure", g, dim + 1)


def reached_components(system, states):
    """The components of the step factor that hold a nonzero entry of ``states``."""
    return set(system.step_operators.lu.labels[np.any(states != 0, axis=0)].tolist())


def two_pair_case(prony, n_reached):
    """k = 4 on a periodic 40-cell grid: two decoupled acoustic pairs (p1, v1, p2, v2)
    with block-diagonal symbols and rough diagonal mass (and Prony) blocks, so the step
    matrix splits into 4 parity classes.  The Ricker point source drives p1 of one
    cell, and with ``n_reached`` = 2 also p2 of that cell, with another amplitude."""
    rng = np.random.default_rng(16 + prony)
    dt = 0.5 / 40
    g = rw.build_grid(1, [40], 1.0, dt, N_STEPS * dt)
    pair = np.array([[0.0, -1.0], [-1.0, 0.0]])
    symbol = np.zeros((4, 4))
    symbol[:2, :2] = symbol[2:, 2:] = pair
    a = rng.uniform(0.5, 2.0, (g.n_cells, 4))[:, :, None] * np.eye(4)
    kernel = two_term_prony(rng, g.n_cells, 4) if prony else PronyKernel()
    system = assemble_system(rw.CoefficientField(grid=g, k=4, a=a, kernel=kernel), [symbol])
    src = rw.make_ricker_source(g, 4, [0.3], peak_frequency=1.0 / (4.0 * dt), delay=6.0 * dt)
    if n_reached == 2:
        src = dataclasses.replace(src, footprint=src.footprint - 0.5 * np.roll(src.footprint, 2))
    return system, src


class TestParityClasses:
    """On a periodic grid with an even count per axis the centered stencil splits the
    step matrix into 2^dim parity classes.  In 1D a solve factors and steps only the
    classes it reaches, and every solve of a system uses the same class factors; in 2D
    and 3D the step matrix is factored as a whole."""

    def test_point_source_factors_and_fills_one_class(self, splu_calls):
        system, src, _ = parity_case([40])
        lu = system.step_operators.lu
        assert lu.n_components == 2
        states = rw.solve_causal(system, src).states
        (reached,) = reached_components(system, states)
        assert len(splu_calls) == 1
        unexcited = states[:, lu.labels != reached]
        assert np.all(unexcited == 0.0) and not np.signbit(unexcited).any()

    @pytest.mark.parametrize("cells, boundary", [
        ([12, 12], "acoustic_free"), ([13, 13], "periodic"), ([41], "periodic"),
        ([12, 12], "periodic"), ([6, 6, 6], "periodic")],
        ids=["acoustic_free", "odd-2d", "odd-1d", "even-2d", "even-3d"])
    def test_one_component_solves_as_the_whole_factor(self, splu_calls, cells, boundary):
        system, src, _ = parity_case(cells, boundary)
        ops = system.step_operators
        assert ops.lu.n_components == 1
        states = rw.solve_causal(system, src).states
        whole = dataclasses.replace(system)
        ordering = {} if len(cells) == 1 else {"permc_spec": "MMD_AT_PLUS_A",
                                               "options": {"SymmetricMode": True}}
        whole.step_operators.lu = spla.splu(ops.c_matrix.tocsc(), **ordering)
        assert np.array_equal(states, per_term_solve(whole, src))
        assert len(splu_calls) == 2

    def test_smooth_footprint_forcing_and_adjoint_reach_every_class(self, splu_calls):
        system, src, sampler = parity_case([40], footprint_width=0.1)
        traj = rw.solve_causal(system, src)
        assert reached_components(system, traj.states) == {0, 1}
        assert len(splu_calls) == 2
        point, point_src, _ = parity_case([40])
        base = rw.solve_causal(point, point_src)
        assert len(reached_components(point, base.states)) == 1
        pert = random_perturbation(point, np.random.default_rng(0))
        assert reached_components(point, stored_derivative(point, base, pert).states) == {
            0, 1}
        assert len(splu_calls) == 4
        swept, swept_src, _ = parity_case([40])
        residual = rw.SeismogramData(times=traj.times, receivers=sampler.receivers,
                                     data=np.random.default_rng(1).standard_normal((2, N_STEPS + 1)))
        adjoint_gradient(swept, rw.solve_causal(swept, swept_src), residual, sampler)
        assert len(splu_calls) == 6

    @pytest.mark.parametrize("prony", [False, True])
    def test_stepping_one_class_equals_stepping_all(self, prony):
        # a zero forcing makes the solve step every unknown; the states are the same floats
        system, src, _ = parity_case([40])
        if prony:
            system = dataclasses.replace(system, kernel=two_term_prony(np.random.default_rng(2),
                                                                       40, 2))
        restricted = rw.solve_causal(system, src).states
        full = rw.solve_causal(system, src, forcing=np.zeros((N_STEPS, system.n_state))).states
        assert len(reached_components(system, restricted)) == 1
        assert np.array_equal(restricted, full)

    @pytest.mark.parametrize("prony", [False, True], ids=["no_memory", "prony"])
    @pytest.mark.parametrize("n_reached", [1, 2])
    def test_four_classes_step_as_every_unknown(self, splu_calls, prony, n_reached):
        # one class reached steps its rows alone, two of four step every unknown; either
        # way the states are the floats of stepping every unknown, and a class that is
        # not reached is never factored
        system, src = two_pair_case(prony, n_reached)
        lu = system.step_operators.lu
        assert lu.n_components == 4
        states = rw.solve_causal(system, src).states
        reached = reached_components(system, states)
        assert len(reached) == n_reached
        assert len(splu_calls) == n_reached
        full = rw.solve_causal(system, src, forcing=np.zeros((N_STEPS, system.n_state))).states
        assert np.array_equal(states, full)
        assert len(splu_calls) == n_reached
        unreached = states[:, ~np.isin(lu.labels, sorted(reached))]
        assert np.all(unreached == 0.0) and not np.signbit(unreached).any()
        if n_reached == 2:
            # the pairs are decoupled: each is the one-class solve of its own part
            one_class = two_pair_case(prony, 1)[1]
            other = dataclasses.replace(src, footprint=src.footprint - one_class.footprint)
            parts = [rw.solve_causal(system, part).states for part in (one_class, other)]
            assert np.array_equal(states, parts[0] + parts[1])
            assert len(splu_calls) == n_reached

    @pytest.mark.parametrize("cells", [[40], [12, 12]], ids=["1d", "2d"])
    def test_zero_right_hand_sides_are_not_solved(self, monkeypatch, cells):
        # before the source's onset every step's right-hand side is zero
        system, _, _ = parity_case(cells)
        g, lu = system.grid, system.step_operators.lu
        src = rw.make_ricker_source(g, g.dim + 1, [0.3] * g.dim,
                                    peak_frequency=1.0 / (4.0 * g.dt), onset=10 * g.dt)
        solved, factor = [], StepFactor._factor

        class Counting:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs, trans="N"):
                solved.append(rhs.shape)
                return self.lu.solve(rhs, trans)

        monkeypatch.setattr(StepFactor, "_factor", lambda lu, c: Counting(factor(lu, c)))
        states = rw.solve_causal(system, src).states
        assert np.all(states[:11] == 0.0) and np.abs(states[11]).max() > 0
        assert solved == [(system.n_state // lu.n_components, 1)] * (N_STEPS - 10)

    @pytest.mark.parametrize("cells", [[40], [12, 12]], ids=["1d", "2d"])
    def test_zero_residual_sweep_solves_nothing(self, splu_calls, cells):
        system, src, sampler = parity_case(cells)
        observed = rw.forward_map(system, src, sampler)
        report = misfit_gradient(system, src, sampler, observed)
        assert report.objective == 0.0 and report.diagnostics["zero_residual"]
        # the forward solves and the block recomputes factor once (in 1D the source's
        # class); the sweep, all zero, factors and solves nothing
        assert len(splu_calls) == 1
        for g in (report.g_a, report.g_b):
            assert np.all(g == 0.0) and not np.signbit(g).any()
