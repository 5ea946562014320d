"""Property tests of the midpoint step and its adjoint on random rough media.

Each example draws a per-cell medium (kappa in [0.5, 4], rho in [0.5, 2]) in
1D or 2D, a boundary, and either no memory or a two-term Prony kernel with
random per-cell scales, then checks the discrete identities the sensitivity
code rests on: forward step residuals, the forced step residuals of the
directional derivative, and the adjoint dot-product test.  Memory-free
media in 1D to 3D check the identities the energy argument rests on: the
stored spatial operator is exactly antisymmetric, and with b = q = f = 0
the midpoint step conserves the energy to round-off.  On random 2D and 3D
media with random two-term Prony kernels, the zero-free step factor gives the
forward and adjoint states of the zero-keeping oracle to round-off, with step
residuals at round-off and a dot test within 1e-13.  On random 1D to 3D
media with a drawn number of steps, the gradient that the adjoint sweep
regroups onto the base states and sums in blocks of ``BLOCK_STEPS`` steps
is within 1e-14 of the per-step contraction of the stored adjoint series,
and each streamed forcing row within 1e-14 of its per-step formula.  On
the same media, the step and its adjoint, one sparse product each per
step, give the states of the per-term oracles within 1e-13, and bit for
bit without memory.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import roughwave as rw
from conftest import (
    adjoint_solve,
    assert_forcing_matches_per_step,
    assert_gradient_matches_per_step,
    assert_matches_oracle,
    per_step_forcing,
    per_term_adjoint,
    per_term_solve,
)
from oracles import dot_product_test, stored_derivative
from roughwave.evolution import step_residuals
from roughwave.fields import PronyKernel
from roughwave.forward import build_sampler
from roughwave.sensitivity import (
    BLOCK_STEPS,
    adjoint_gradient,
    random_perturbation,
)

N_STEPS = 20
# cells per axis by dimension
CELLS = {1: (6, 40), 2: (6, 12), 3: (3, 6)}


@st.composite
def rough_media(draw, dims=(1, 2), prony=st.booleans(), n_steps=st.just(N_STEPS)):
    dim = draw(st.sampled_from(dims))
    cells = [draw(st.integers(*CELLS[dim])) for _ in range(dim)]
    boundary = draw(st.sampled_from(["periodic", "acoustic_free"]))
    prony = draw(prony)
    n_steps = draw(n_steps)
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dt = 0.5 / max(cells)
    g = rw.build_grid(dim, cells, 1.0, dt, n_steps * dt)
    assert g.n_steps == n_steps
    model = rw.AcousticModel(grid=g, kappa=rng.uniform(0.5, 4.0, g.n_cells),
                             rho=rng.uniform(0.5, 2.0, g.n_cells))
    kernel = PronyKernel()
    if prony:
        eye = np.eye(dim + 1)
        kernel = PronyKernel(
            weights=tuple(rng.uniform(0.0, 1.0, g.n_cells)[:, None, None] * eye for _ in range(2)),
            taus=(rng.uniform(0.02, 0.1), rng.uniform(0.2, 1.0)))
    system = rw.acoustics_system(model, boundary=boundary, kernel=kernel)
    src = rw.make_ricker_source(g, dim + 1, list(rng.uniform(0.2, 0.8, dim)),
                                peak_frequency=1.0 / (4.0 * dt), delay=6.0 * dt)
    sampler = build_sampler(rng.uniform(0.05, 0.95, (2, dim)).tolist(), "pressure", g, dim + 1)
    return system, src, sampler, rng


@given(case=rough_media())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_midpoint_and_adjoint_identities(case):
    system, src, sampler, rng = case
    traj = rw.solve_causal(system, src)
    assert traj.n_steps == N_STEPS
    scale = np.abs(traj.states).max()
    assert scale > 0
    assert step_residuals(traj, system).max() <= 1e-10 * scale

    pert = random_perturbation(system, rng)
    du = stored_derivative(system, traj, pert)
    forcing = per_step_forcing(system, traj, pert)
    assert step_residuals(du, system, forcing=forcing).max() <= 1e-10 * np.abs(du.states).max()

    assert dot_product_test(system, traj, sampler, rng) <= 1e-12


@given(case=rough_media(dims=(2, 3), prony=st.just(True)))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_zero_free_factor_matches_zero_keeping_oracle(case):
    assert_matches_oracle(*case)


@given(case=rough_media(dims=(1, 2, 3), n_steps=st.integers(1, 2 * BLOCK_STEPS + 3)))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_adjoint_gradient_matches_per_step_oracle(case):
    system, src, sampler, rng = case
    traj = rw.solve_causal(system, src)
    residual = rw.SeismogramData(times=traj.times, receivers=sampler.receivers,
                                 data=rng.standard_normal((sampler.n_channels, traj.times.size)))
    report = adjoint_gradient(system, traj, residual, sampler)
    assert_gradient_matches_per_step(system, traj, residual, sampler, report)
    assert_forcing_matches_per_step(system, traj, random_perturbation(system, rng))


@given(case=rough_media(dims=(1, 2, 3)))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_stacked_step_matches_per_term_oracle(case):
    system, src, sampler, rng = case
    exact = not system.kernel.n_terms
    states, ref = rw.solve_causal(system, src).states, per_term_solve(system, src)
    assert np.abs(states - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(states, ref) or not exact
    residual = rw.SeismogramData(times=system.grid.times(), receivers=sampler.receivers,
                                 data=rng.standard_normal((sampler.n_channels, N_STEPS + 1)))
    w = adjoint_solve(system, residual, sampler).states
    w_ref = per_term_adjoint(system, residual, sampler)
    assert np.abs(w - w_ref).max() <= 1e-13 * np.abs(w_ref).max()
    assert np.array_equal(w, w_ref) or not exact


@st.composite
def memory_free_media(draw):
    dim = draw(st.sampled_from([1, 2, 3]))
    cells = [draw(st.integers(*CELLS[dim])) for _ in range(dim)]
    boundary = draw(st.sampled_from(["periodic", "acoustic_free"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dt = 0.5 / max(cells)
    g = rw.build_grid(dim, cells, 1.0, dt, N_STEPS * dt)
    model = rw.AcousticModel(grid=g, kappa=rng.uniform(0.5, 4.0, g.n_cells),
                             rho=rng.uniform(0.5, 2.0, g.n_cells))
    return rw.acoustics_system(model, boundary=boundary), rng


@given(case=memory_free_media())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_stored_skew_operator_is_antisymmetric(case):
    system, _ = case
    p = system.skew
    assert p.nnz > 0
    assert abs(p + p.T).max() == 0


@given(case=memory_free_media())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_midpoint_conserves_energy(case):
    system, rng = case
    traj = rw.solve_ivp(system, rng.standard_normal(system.n_state))
    assert traj.n_steps == N_STEPS
    energies = traj.energies
    assert np.abs(energies - energies[0]).max() <= 1e-12 * energies[0]
