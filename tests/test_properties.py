"""Property tests of the midpoint step and its adjoint on random rough media.

Each example draws a per-cell medium (kappa in [0.5, 4], rho in [0.5, 2]) in
1D or 2D, a boundary, and either no memory or a two-term Prony kernel with
random per-cell scales, then checks the discrete identities the sensitivity
code rests on: forward step residuals, the forced step residuals of the
directional derivative, and the adjoint dot-product test.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import roughwave as rw
from roughwave.evolution import step_residuals
from roughwave.fields import PronyKernel
from roughwave.forward import build_sampler
from roughwave.sensitivity import dot_product_test, perturbation_forcing, random_perturbation

N_STEPS = 20


@st.composite
def rough_media(draw):
    dim = draw(st.sampled_from([1, 2]))
    cells = ([draw(st.integers(6, 40))] if dim == 1
             else [draw(st.integers(6, 12)) for _ in range(2)])
    boundary = draw(st.sampled_from(["periodic", "acoustic_free"]))
    prony = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dt = 0.5 / max(cells)
    g = rw.build_grid(dim, cells, 1.0, dt, N_STEPS * dt)
    model = rw.AcousticModel(grid=g, kappa=rng.uniform(0.5, 4.0, g.n_cells),
                             rho=rng.uniform(0.5, 2.0, g.n_cells))
    kernel = None
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
    du = rw.directional_derivative(system, traj, pert)
    forcing = perturbation_forcing(system, traj, pert)
    assert step_residuals(du, system, forcing=forcing).max() <= 1e-10 * np.abs(du.states).max()

    assert dot_product_test(system, traj, sampler, rng) <= 1e-12
