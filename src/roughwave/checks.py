"""The ``check`` invariant suite: every module's identities at desk scale on one system.

``run_checks`` yields one ``(name, ok, detail)`` row per property, always in
the same order.  The causal solve of the suite's source is stepped once, in
one pass that keeps no state series: its rows come from its carries as they
arrive, and a second solve one step behind steps the repeat of the source,
three times the source and the two derivatives as its four columns.  The
random draws follow the order of the rows: the mass quotients, the sampler
pair and the derivative's direction, all three drawn before the pass, then
the dot test inside the gradient.  Every local of the pass is
released before the zero-residual gradient steps its own solves.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace

import numpy as np

from . import evolution, experiments, fields, forward, physics, sensitivity
from .fields import PronyKernel, SourceTerm, build_grid, make_ricker_source, mollify_field
from .operators import DiscreteSystem, block_apply, energy, memory_row


def _solve_rows(system: DiscreteSystem, src: SourceTerm, sampler: forward.Sampler,
                pert: sensitivity.CoefficientPerturbation, density: np.ndarray | None
                ) -> tuple[list[tuple[str, bool, str]], forward.SeismogramData]:
    """The rows solve_causality .. derivative_linearity but sampler_adjoint_identity,
    in order, and the sampled data of the causal solve of ``src``, from one pass
    (module docstring).  The derivatives are in the directions ``pert`` and
    2 ``pert``, and their forcing rows read the base carries as they are yielded.
    ``density``, (N + 1, n_cells), if given, is filled with the base solve's
    ``energy_density``."""
    grid, n_state = system.grid, system.n_state
    dt, times, cols = grid.dt, grid.times(), sampler.gathered[0]
    z0 = np.zeros((1, 1 + system.step_operators.n_terms, n_state, 1))
    carry = z0[0, ..., 0]  # the base carry of the step last taken
    pert2 = sensitivity.CoefficientPerturbation(
        delta_a=2 * pert.delta_a, delta_b=2 * pert.delta_b,
        delta_weights=tuple(2 * w for w in pert.delta_weights))
    derivative_rows, follow = sensitivity.following_forcing(system, carry, (pert, pert2))

    def forcing():  # the derivative columns' rows; the source columns get none
        row = np.zeros((n_state, 4))
        for f, f2 in zip(*derivative_rows):
            row[:, 2], row[:, 3] = f, f2
            yield row

    base = evolution._midpoint_steps([system], [src], z0, None)
    src3 = replace(src, footprint=3.0 * src.footprint)
    behind = evolution._midpoint_steps([system], [src, src3, None, None],
                                       np.zeros((n_state, 4)), forcing())
    kept = np.zeros((2, grid.n_steps + 1, cols.size))  # the sampled base and 3x solves
    fill = None if density is None else experiments.density_filler(
        system.a_blocks, grid.cell_volume, density)
    energies, rates = np.zeros(grid.n_steps + 1), np.zeros(grid.n_steps + 1)
    rates[0] = evolution._energy_rate(system, carry[0], memory_row(system.kernel, carry),
                                      src.evaluate(times[0]))
    if fill is not None:
        fill(carry[0])
    quiet = gap = res = hi = lo = lin = top = 0.0
    for n, z in enumerate(base, 1):
        prev, carry = carry, z[0, ..., 0]
        follow(carry)
        u = carry[0]
        if times[n] < src.onset:
            quiet = max(quiet, float(np.abs(u).max()))
        hi, lo = max(hi, float(u.max())), min(lo, float(u.min()))
        r = evolution._step_residual(system, prev, carry, src.evaluate(times[n - 1] + 0.5 * dt))
        res = max(res, np.linalg.norm(r))
        energies[n] = energy(system.a_blocks, grid.cell_volume, u)
        rates[n] = evolution._energy_rate(system, u, memory_row(system.kernel, carry),
                                          src.evaluate(times[n]))
        kept[0, n] = u[cols]
        if fill is not None:
            fill(u)
        # t_n of the repeat, 3 src and the derivatives in the directions pert and 2 pert
        w = next(behind)[0, 0]
        gap = max(gap, float(np.abs(u - w[:, 0]).max()))
        kept[1, n] = w[cols, 1]
        lin = max(lin, float(np.abs(w[:, 3] - 2 * w[:, 2]).max()))
        top = max(top, float(np.abs(w[:, 3]).max()))

    seis1, seis3 = (forward._seismogram(sampler, times, shot) for shot in kept)
    flin = float(np.abs(seis3.data - 3.0 * seis1.data).max())
    bound = max(1.0, hi, -lo)
    eres = np.abs(evolution._energy_gaps(energies, rates, dt)).max()
    scale = max(energies.max(), 1e-30)
    rows = [
        ("solve_causality", quiet == 0.0, f"max |u| before onset = {quiet:.1e}"),
        ("solve_determinism", gap <= 1e-14, f"repeat-solve gap = {gap:.1e}"),
        ("step_residuals", bool(res <= 1e-8 * bound),
         f"max half-step equation residual = {res:.2e}"),
        ("energy_identity", bool(eres <= 2e-2 * scale),
         f"max residual {eres:.2e} vs energy {scale:.2e}"),
        ("forward_linearity", flin <= 1e-10 * max(1.0, float(np.abs(seis3.data).max())),
         f"|F(3f) - 3F(f)| = {flin:.1e}"),
        ("derivative_linearity", lin <= 1e-10 * max(1.0, top), f"|du(2m) - 2 du(m)| = {lin:.1e}"),
    ]
    return rows, seis1


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

    # evolution, forward and sensitivity: the rows of one pass over the causal solve;
    # its draws first, in the order of the rows
    duration = grid.dt * grid.n_steps
    peak_frequency = max(4.0 / max(grid.extent), 3.0 / duration)
    src = make_ricker_source(grid, k, center, peak_frequency=peak_frequency,
                             onset=0.05 * duration, amplitude=1.0)
    u = rng.standard_normal(system.n_state)
    r = rng.standard_normal(sampler.n_channels)
    pert = sensitivity.random_perturbation(system, rng)
    # the sampled symbol speed is only needed, and only cheap, in 1D, where both
    # cones' leaks read one energy density of the pass
    speed = physics.max_wavespeed(system) if grid.dim == 1 else 0.0
    density = np.empty((grid.n_steps + 1, grid.n_cells)) if speed > 0 else None
    rows, seis1 = _solve_rows(system, src, sampler, pert, density)
    del pert
    yield from rows[:4]

    lhs = float(forward.apply_sampler(sampler, u) @ r)
    rhs = float(u @ forward.sampler_adjoint_source(sampler, r[:, None])[0])
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    yield "sampler_adjoint_identity", rel <= 1e-12, f"relative gap = {rel:.1e}"
    yield from rows[4:]

    # experiments: two-sided cone check (the intruding cone is anchored at the
    # emission peak so the pulse delay cannot mask the overlap); the density is
    # released before the gradient solves its own, and the dot product and
    # gradient symmetry come from one dot-tested gradient at zero residual
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
