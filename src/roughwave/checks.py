"""The ``check`` invariant suite: every module's identities at desk scale on one system.

``run_checks`` yields one ``(name, ok, detail)`` row per property.  The rows
come in a fixed order, which is also the order of the work: the random draws
are made in that order, so the printed values depend on it, and the trajectory
is released before the zero-residual gradient solves its own.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace

import numpy as np

from . import evolution, experiments, fields, forward, physics, sensitivity
from .evolution import energy_identity_residual, solve_causal, step_residuals
from .fields import PronyKernel, build_grid, make_ricker_source, mollify_field
from .operators import DiscreteSystem, block_apply


def _repeat_gap(system: DiscreteSystem, traj) -> float:
    """max |u_n - u'_n| between ``traj`` and its causal solve repeated step by step."""
    repeat = evolution._midpoint_steps([system], [traj.source], np.zeros((system.n_state, 1)),
                                       None)
    return max(float(np.abs(u - z[0, 0, :, 0]).max()) for u, z in zip(traj.states[1:], repeat))


def _derivative_linearity(system: DiscreteSystem, traj, rng) -> tuple[float, float]:
    """max |du(2m) - 2 du(m)| and max |du(2m)| for a random perturbation m, the two
    derivative solves stepped together."""
    pert = sensitivity.random_perturbation(system, rng)
    pert2 = sensitivity.CoefficientPerturbation(
        delta_a=2 * pert.delta_a, delta_b=2 * pert.delta_b,
        delta_weights=tuple(2 * w for w in pert.delta_weights))
    steps = zip(*(sensitivity.derivative_steps(system, traj.source, traj, p) for p in (pert, pert2)))
    lin, top = zip(*((np.abs(du2 - 2 * du1).max(), np.abs(du2).max()) for du1, du2 in steps))
    return float(max(lin)), float(max(top))


def run_checks(model: physics.AcousticModel, system: DiscreteSystem, sampler: forward.Sampler,
               boundary: str, seed: int, leak_tolerance: float) -> Iterator[tuple[str, bool, str]]:
    """Each property of ``system`` (built from ``model`` with ``boundary``) as a row
    ``(name, ok, detail)``, its random draws from one generator seeded with ``seed``."""
    rng = np.random.default_rng(seed)
    grid, k = system.grid, system.k
    center = [grid.origin[a] + 0.5 * grid.extent[a] for a in range(grid.dim)]

    # operators: skew-symmetry, exact on the stored matrix, and mass bounds
    worst = float(abs(system.skew + system.skew.T).max())
    yield "skew_symmetry", worst == 0.0, f"max |P + P^T| = {worst:.1e}"

    # the model's mass blocks are system.a_blocks, and the field's bounds are their spectrum
    f0 = model.coefficient_field()
    lo, hi = f0.c_lo, f0.c_hi
    rq = []
    for _ in range(20):
        u = rng.standard_normal(system.n_state)
        rq.append(float(u @ block_apply(system.a_blocks, u)) / float(u @ u))
    ok = min(rq) >= lo - 1e-10 and max(rq) <= hi + 1e-10
    yield "mass_rayleigh_bounds", ok, f"quotients in [{min(rq):.4g}, {max(rq):.4g}] vs [{lo:.4g}, {hi:.4g}]"

    # fields: mollifier preservation + measure pseudo-metric
    sm = mollify_field(f0, 4, boundary)
    eig1 = np.linalg.eigvalsh(sm.a)
    ok = eig1.min() >= lo - 1e-12 and eig1.max() <= hi + 1e-12
    yield ("mollify_preserves_bounds", bool(ok),
           f"[{eig1.min():.4g}, {eig1.max():.4g}] within [{lo:.4g}, {hi:.4g}]")
    eps = 0.1 * max(float(f0.a.max() - f0.a.min()), 1e-3)
    d13 = fields.measure_distance(f0, sm, 2 * eps)
    d12 = fields.measure_distance(f0, f0, eps)
    d23 = fields.measure_distance(f0, sm, eps)
    yield ("measure_pseudo_metric", d13 <= d12 + d23 + 1e-15 and d12 == 0.0,
           f"d(f,g;2e)={d13:.4g} <= {d12 + d23:.4g}")

    # evolution: causality, determinism, conservation, identity residual
    duration = grid.dt * grid.n_steps
    peak_frequency = max(4.0 / max(grid.extent), 3.0 / duration)
    src = make_ricker_source(grid, k, center, peak_frequency=peak_frequency,
                             onset=0.05 * duration, amplitude=1.0)
    traj = solve_causal(system, src)
    n_quiet = int(np.count_nonzero(traj.times < src.onset))
    quiet = float(np.abs(traj.states[:n_quiet]).max()) if n_quiet else 0.0
    yield "solve_causality", quiet == 0.0, f"max |u| before onset = {quiet:.1e}"

    gap = _repeat_gap(system, traj)
    yield "solve_determinism", gap <= 1e-14, f"repeat-solve gap = {gap:.1e}"

    res = np.abs(step_residuals(traj, system, src)).max()
    bound = max(1.0, float(traj.states.max()), float(-traj.states.min()))
    yield "step_residuals", bool(res <= 1e-8 * bound), f"max half-step equation residual = {res:.2e}"

    eres = np.abs(energy_identity_residual(traj, system, src)).max()
    scale = max(traj.energies.max(), 1e-30)
    yield "energy_identity", bool(eres <= 2e-2 * scale), f"max residual {eres:.2e} vs energy {scale:.2e}"

    # forward: sampler adjoint identity and forward linearity
    u = rng.standard_normal(system.n_state)
    r = rng.standard_normal(sampler.n_channels)
    lhs = float(forward.apply_sampler(sampler, u) @ r)
    rhs = float(u @ forward.sampler_adjoint_source(sampler, r[:, None])[0])
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    yield "sampler_adjoint_identity", rel <= 1e-12, f"relative gap = {rel:.1e}"

    seis1 = forward.sample_trajectory(sampler, traj)
    seis3 = forward.forward_map(system, replace(src, footprint=3.0 * src.footprint), sampler)
    lin = float(np.abs(seis3.data - 3.0 * seis1.data).max())
    yield ("forward_linearity", lin <= 1e-10 * max(1.0, float(np.abs(seis3.data).max())),
           f"|F(3f) - 3F(f)| = {lin:.1e}")

    # sensitivity: linearity, then (after the trajectory is released) the dot product and
    # gradient symmetry, from one dot-tested gradient at zero residual
    lin, top = _derivative_linearity(system, traj, rng)
    yield "derivative_linearity", lin <= 1e-10 * max(1.0, top), f"|du(2m) - 2 du(m)| = {lin:.1e}"

    # experiments: two-sided cone check (the intruding cone is anchored at the
    # emission peak so the pulse delay cannot mask the overlap); the sampled
    # symbol speed is only needed, and only cheap, in 1D.  Both leaks read one
    # energy density; the trajectory is released first, and before the gradient
    # solves its own.
    speed = physics.max_wavespeed(system) if grid.dim == 1 else 0.0
    density = experiments.energy_density(traj) if speed > 0 else None
    del traj
    if speed > 0:
        quiet = experiments.cone_from_speed(center, src.onset, speed, margin=0.1)
        leak_quiet = experiments.density_leak(density.copy(), grid, quiet)
        fast = experiments.ConeSpec(apex_x=tuple(center), apex_t=src.onset + 1.5 / peak_frequency,
                                    slowness=(1.1 / speed))
        leak_fast = experiments.density_leak(density, grid, fast)
        del density

    report = sensitivity.misfit_gradient(system, src, sampler, seis1, dot_test_rng=rng)
    rel = report.diagnostics["dot_product_residual"]
    yield "adjoint_dot_product", rel <= sensitivity.DOT_PRODUCT_BOUND, f"relative error = {rel:.2e}"
    sym = float(np.abs(report.g_a - np.swapaxes(report.g_a, 1, 2)).max())
    zero = float(np.abs(report.g_a).max() + np.abs(report.g_b).max()
                 + sum(np.abs(g).max() for g in report.g_q))
    yield "gradient_symmetry", sym == 0.0, f"asymmetry = {sym:.1e}"
    yield ("zero_residual_zero_gradient", report.objective == 0.0 and zero == 0.0,
           f"J = {report.objective:.1e}, |g| = {zero:.1e}")

    if speed > 0:
        yield ("cone_two_sided", leak_quiet <= leak_tolerance and leak_fast > 1e-3,
               f"quiet leak {leak_quiet:.2e} vs intruding leak {leak_fast:.2e}")

        tau0 = 1.0 / speed
        inside = physics.slowness_pencil_min_eig(system, 0.95 * tau0)
        outside = physics.slowness_pencil_min_eig(system, 1.05 * tau0)
        yield ("slowness_pencil_two_sided", outside < 0 <= inside + 1e-12,
               f"min eig at 0.95/c: {inside:.2e}, at 1.05/c: {outside:.2e}")

    # physics: viscoelastic split and Christoffel speed
    ve_grid = build_grid(1, [8], 1.0, 1e-3, 1e-2)
    m = physics.kelvin_dim(1)
    gamma_e = np.tile(physics.isotropic_inverse_hooke(1.2, 0.0, 1), (ve_grid.n_cells, 1, 1))
    kern = PronyKernel(weights=(np.tile(0.3 * np.eye(m), (ve_grid.n_cells, 1, 1)),), taus=(0.5,))
    ve = physics.ViscoelasticModel(grid=ve_grid, rho=1.0, gamma_elastic=gamma_e, gamma_kernel=kern)
    err = physics.kernel_split_reconstruction_error(ve)
    yield "ve_kernel_split", err <= 1e-8, f"reconstruction error = {err:.2e}"

    grid2 = build_grid(2, [4, 4], 1.0, 1e-3, 1e-2)
    lam_mu_rho = (2.0, 1.0, 1.25)
    gamma_e2 = np.tile(physics.isotropic_inverse_hooke(lam_mu_rho[0], lam_mu_rho[1], 2),
                       (grid2.n_cells, 1, 1))
    ve2 = physics.ViscoelasticModel(grid=grid2, rho=lam_mu_rho[2], gamma_elastic=gamma_e2)
    cp = physics.max_wavespeed(ve2)
    cp_ref = np.sqrt((lam_mu_rho[0] + 2 * lam_mu_rho[1]) / lam_mu_rho[2])
    yield ("christoffel_quasi_p", abs(cp - cp_ref) / cp_ref <= 5e-3,
           f"sampled {cp:.6g} vs closed form {cp_ref:.6g}")
