"""Closed-form references that the solver is checked against.

The 1D advection solution by its characteristic integral, the oscillatory
counterexample family built on it, the d'Alembert two-way splitting for
homogeneous 1D acoustics, a hat-window time smoothing of a trajectory, the
mollifier's hat smoothing summed over every block entry
(``full_width_mollify``), the memory convolution stacked over a whole
series, the convergence study's series from stored trajectories, the
trapezoid stepper of a tabulated kernel (``trapezoid_solve``), the ``check``
suite's rows from a stored solve (``stored_check_rows``), the
gradient and adjoint-state dot test of a stored forward trajectory, the
derivative of a stored trajectory (``stored_derivative``), and the two
checks of the derivative: the Newton-quotient study (``quotient_study``) of
the coefficients bumped by ``perturbed_system`` and central differences of
the objective against the gradient (``finite_difference_table``).  None of
them calls the solver internals it checks.
"""

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.integrate import quad, simpson
from scipy.sparse.linalg import splu

from roughwave.errors import InvalidArgumentError
from roughwave.evolution import (
    Trajectory,
    energy_identity_residual,
    solve_causal,
    step_residuals,
)
from roughwave.experiments import (
    ConeSpec,
    cone_from_speed,
    density_leak,
    energy_density,
    fit_slope,
)
from roughwave.fields import (
    PronyKernel,
    TabulatedKernel,
    _hat_weights,
    kernel_values,
    make_ricker_source,
    measure_distance,
    mollify_field,
)
from roughwave.forward import (
    SeismogramData,
    apply_sampler,
    forward_map,
    sample_trajectory,
    sampler_adjoint_source,
)
from roughwave.operators import (
    assemble_system,
    block_apply,
    block_diagonal,
    exp_interval_weights,
    replay_carries,
)
from roughwave.physics import max_wavespeed, slowness_pencil_min_eig
from roughwave.sensitivity import (
    DOT_PRODUCT_BOUND,
    CoefficientPerturbation,
    _adjoint_identity_error,
    adjoint_gradient,
    linearized_forcing,
    misfit_gradient,
    objective,
    objective_from_data,
    random_perturbation,
)


# ---------------------------------------------------------------------------
# advection oracle
# ---------------------------------------------------------------------------


def advection_oracle(c: float, f: Callable[[float, float], float], t: float, x: float,
                     t_lower: float = 0.0, points: int | None = None) -> float:
    """Closed-form 1D advection solution u = c * integral f(s, x + c(t-s)) ds.

    Adaptive quadrature of the characteristic integral; ``points`` switches
    to a fixed-resolution Simpson rule for highly oscillatory right-hand
    sides where adaptivity thrashes.
    """
    if c <= 0:
        raise InvalidArgumentError("advection speed must be positive")
    if t <= t_lower:
        return 0.0
    if points:
        s = np.linspace(t_lower, t, points if points % 2 else points + 1)
        vals = np.array([f(si, x + c * (t - si)) for si in s])
        return c * float(simpson(vals, x=s))
    val, _ = quad(lambda s: f(s, x + c * (t - s)), t_lower, t, limit=400)
    return c * val


# mass of exp(-1 / (1 - s^2)) on [-1, 1]
_CHI_NORM = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1, 1, limit=200)[0]


def smooth_bump(y) -> np.ndarray:
    """Unit-mass C-infinity bump supported on [-1, 1]."""
    y = np.asarray(y, dtype=float)
    inside = np.abs(y) < 1.0
    ys = np.where(inside, y, 0.0)
    return np.where(inside, np.exp(-1.0 / (1.0 - ys * ys)) / _CHI_NORM, 0.0)


def oscillatory_rhs(eps: float) -> Callable[[float, float], float]:
    """The high-frequency family f_eps(t, x) = cos((x+t)/eps) chi(x+t) chi(x)."""

    def f(t: float, x: float) -> float:
        return float(np.cos((x + t) / eps) * smooth_bump(x + t) * smooth_bump(x))

    return f


def oscillatory_response_magnitude(c: float, eps: float, t: float) -> float:
    """Max |u[c, f_eps](t, x)| over 201 points x in [-1 - c t, 1], via
    quadrature of the characteristic integral (vectorized Simpson sized to
    the oscillation).

    For c away from 1 this decays like eps / |c - 1|.  The family is not
    causal, so the integral runs over the full support of the bump factors.
    """
    cycles = abs(1.0 - c) * 2.0 / (2.0 * np.pi * eps) + 2.0
    n_pts = (max(801, int(64 * cycles))) | 1
    worst = 0.0
    for x in np.linspace(-1.0 - c * t, 1.0, 201):
        # tau-support of chi(x + c (t - tau)): |x + c(t - tau)| < 1
        lo = t - (1.0 - x) / c
        hi = min(t, t - (-1.0 - x) / c)
        if hi <= lo:
            continue
        s = np.linspace(lo, hi, n_pts)
        y = x + c * (t - s)
        vals = np.cos((y + s) / eps) * smooth_bump(y + s) * smooth_bump(y)
        worst = max(worst, abs(c * float(simpson(vals, x=s))))
    return worst


# ---------------------------------------------------------------------------
# homogeneous acoustics oracle (characteristics / d'Alembert splitting)
# ---------------------------------------------------------------------------


def dalembert_pressure(kappa: float, rho: float, g: Callable[[float, float], float],
                       t: float, x: float, points: int = 2001) -> float:
    """Pressure of homogeneous 1D acoustics with a pressure-equation source.

    For (1/kappa) p_t + v_x = g, rho v_t + p_x = 0 at rest before onset, the
    characteristic variables p +/- Z v advect at +/- c and

        p(x, t) = (kappa / 2) integral_0^t [g(s, x - c (t-s)) + g(s, x + c (t-s))] ds

    with c = sqrt(kappa/rho).  Fixed-resolution Simpson quadrature.
    """
    if t <= 0:
        return 0.0
    c = np.sqrt(kappa / rho)
    s = np.linspace(0.0, t, points if points % 2 else points + 1)
    vals = np.array([g(si, x - c * (t - si)) + g(si, x + c * (t - si)) for si in s])
    return 0.5 * kappa * float(simpson(vals, x=s))


# ---------------------------------------------------------------------------
# time smoothing
# ---------------------------------------------------------------------------


def smooth_trajectory(traj: Trajectory, window: int) -> Trajectory:
    """Discrete time-convolution with a unit-mass hat of the given window.

    ``window`` counts steps; a window of one step is the identity.  Ends are
    handled by edge replication, so a constant-in-time tail is unchanged on
    its interior.  Energies are computed from the smoothed states.
    """
    if window < 1:
        raise InvalidArgumentError("window must be >= 1 step")
    half = window - 1
    if half == 0:
        return traj
    padded = np.pad(traj.states, ((half, half), (0, 0)), mode="edge")
    out = np.zeros_like(traj.states)
    for off, wj in zip(range(2 * half + 1), _hat_weights(half)):
        out += wj * padded[off : off + traj.states.shape[0]]
    return replace(traj, states=out)


def full_width_mollify(arr: np.ndarray, grid, n: int, boundary: str) -> np.ndarray:
    """The tensor-product hat smoothing of ``mollify_field`` on one per-cell array,
    summed over every entry of the blocks, entries that are zero in every cell
    included."""
    spatial = arr.reshape(*grid.shape, -1)
    mode = "wrap" if boundary == "periodic" else "symmetric"
    for axis in range(grid.dim):
        size, half = grid.shape[axis], grid.shape[axis] // n
        if half == 0:
            continue
        pad = [(half, half) if a == axis else (0, 0) for a in range(spatial.ndim)]
        padded = np.pad(spatial, pad, mode=mode)
        acc = np.zeros_like(spatial)
        for off, wj in zip(range(-half, half + 1), _hat_weights(half)):
            acc += wj * padded[(slice(None),) * axis + (slice(half - off, half - off + size),)]
        spatial = acc
    return spatial.reshape(arr.shape)


# ---------------------------------------------------------------------------
# stacked memory convolution
# ---------------------------------------------------------------------------


def stacked_memory_series(kernel, states: np.ndarray, dt: float) -> np.ndarray:
    """R[u](t_n) at every grid time of ``states`` (rows t_0 .. t_N), stacked in
    one array: the Prony recursion once over the series, or a tabulated kernel
    evaluated once on the grid times with the trapezoid rule at each time."""
    out = np.zeros_like(states)
    if isinstance(kernel, PronyKernel):
        weights = [exp_interval_weights(dt, tau) for tau in kernel.taus]
        for row, z in zip(out, replay_carries(states, weights)):
            for w, s in zip(kernel.weights, z[1:]):
                row += block_apply(w, s)
        return out
    blocks = kernel_values(kernel, dt * np.arange(states.shape[0]), *kernel.samples.shape[1:3])
    for m in range(1, states.shape[0]):
        for i in range(m + 1):
            out[m] += (0.5 * dt if i in (0, m) else dt) * block_apply(blocks[m - i], states[i])
    return out


def trapezoid_solve(system, kernel: TabulatedKernel, source, forcing=None) -> np.ndarray:
    """States t_0 .. t_N of the causal midpoint solve of ``system`` with the tabulated
    ``kernel`` in place of its own, R_{n+1/2} by the trapezoid rule over the piecewise
    linear states, q linearly interpolated and zero past its last sample: the
    reference of ``prony_fit``.  The half interval [t_n, t_{n+1/2}] reads q(0) and
    q(dt/2); each earlier u_m, m < n, reads q(dt (n - m + 1/2)), with weight dt/2 at
    m = 0 and dt otherwise, and u_n adds the last whole interval's dt/2 q(dt/2)."""
    grid, k = system.grid, system.k
    dt, n_steps, n_cells = grid.dt, grid.n_steps, grid.n_cells
    ops = replace(system, kernel=PronyKernel()).step_operators
    offsets = np.concatenate(([0.0, 0.5], np.arange(1, n_steps + 1) + 0.5))
    q = kernel_values(kernel, dt * offsets, n_cells, k)
    q_new = (dt / 8.0) * q[0]  # acts on u_{n+1}
    q_old = 0.75 * dt * q[1] + q_new  # acts on u_n
    lu = splu((ops.c_matrix + block_diagonal(q_new)).tocsc())
    d = ops.rhs_matrix - block_diagonal(q_old)
    # per cell, q(dt (l + 3/2)) as a (k, lag, k) array: u_{n-1-l} reads lag l
    lags = np.ascontiguousarray(q[2:].transpose(1, 2, 0, 3))
    states = np.zeros((n_steps + 1, system.n_state))
    for n, t in enumerate(grid.times()[:-1]):
        rhs = d @ states[n]
        if n:
            past = states[n - 1::-1].reshape(n, n_cells, k) * dt
            past[-1] *= 0.5  # u_0
            rhs -= np.matmul(lags[:, :, :n].reshape(n_cells, k, n * k),
                             past.transpose(1, 0, 2).reshape(n_cells, n * k, 1)).ravel()
        if source is not None:
            rhs += source.evaluate(t + 0.5 * dt)
        if forcing is not None:
            rhs += forcing[n]
        states[n + 1] = lu.solve(rhs)
    return states


# ---------------------------------------------------------------------------
# store-then-compare check comparisons
# ---------------------------------------------------------------------------


def stored_repeat_gap(system, traj: Trajectory) -> float:
    """max |u - u'| between ``traj`` and a second stored causal solve."""
    return float(np.abs(traj.states - solve_causal(system, traj.source).states).max())


def stored_derivative(system, base: Trajectory, pert) -> Trajectory:
    """The Gateaux derivative of the solution about the stored trajectory ``base`` in
    the direction ``pert``: a causal solve driven by the linearized forcing alone."""
    return solve_causal(system, None, forcing=linearized_forcing(system, base, pert))


def stored_derivative_linearity(system, traj: Trajectory, rng) -> tuple[float, float]:
    """max |du(2m) - 2 du(m)| and max |du(2m)| for ``random_perturbation`` m, from two
    stored derivative solves."""
    pert = random_perturbation(system, rng)
    pert2 = CoefficientPerturbation(
        delta_a=2 * pert.delta_a, delta_b=2 * pert.delta_b,
        delta_weights=tuple(2 * w for w in pert.delta_weights))
    du, du2 = (stored_derivative(system, traj, p).states for p in (pert, pert2))
    return float(np.abs(du2 - 2 * du).max()), float(np.abs(du2).max())


def stored_check_rows(model, system, sampler, boundary: str, seed: int,
                      leak_tolerance: float) -> list[tuple[str, bool, str]]:
    """The rows of ``checks.run_checks``, in order, but the last two, which read no
    solve and no draw, from a stored causal solve: the repeat, the solve of three
    times the source and the two derivatives are solved apart and compared with it
    whole, and the step residuals, the energy identity, the sampled data and the
    cones' energy density are read from its states."""
    rng = np.random.default_rng(seed)
    grid, k = system.grid, system.k
    center = [grid.origin[a] + 0.5 * grid.extent[a] for a in range(grid.dim)]
    rows = []
    worst = float(abs(system.skew + system.skew.T).max())
    rows.append(("skew_symmetry", worst == 0.0, f"max |P + P^T| = {worst:.1e}"))
    f0 = model.coefficient_field()
    lo, hi = f0.c_lo, f0.c_hi
    rq = []
    for _ in range(20):
        u = rng.standard_normal(system.n_state)
        rq.append(float(u @ block_apply(system.a_blocks, u)) / float(u @ u))
    rows.append(("mass_rayleigh_bounds", min(rq) >= lo - 1e-10 and max(rq) <= hi + 1e-10,
                 f"quotients in [{min(rq):.4g}, {max(rq):.4g}] vs [{lo:.4g}, {hi:.4g}]"))
    sm = mollify_field(f0, 4, boundary)
    eig1 = np.linalg.eigvalsh(sm.a)
    rows.append(("mollify_preserves_bounds",
                 bool(eig1.min() >= lo - 1e-12 and eig1.max() <= hi + 1e-12),
                 f"[{eig1.min():.4g}, {eig1.max():.4g}] within [{lo:.4g}, {hi:.4g}]"))
    eps = 0.1 * max(float(f0.a.max() - f0.a.min()), 1e-3)
    d13 = measure_distance(f0, sm, 2 * eps)
    d12 = measure_distance(f0, f0, eps)
    d23 = measure_distance(f0, sm, eps)
    rows.append(("measure_pseudo_metric", d13 <= d12 + d23 + 1e-15 and d12 == 0.0,
                 f"d(f,g;2e)={d13:.4g} <= {d12 + d23:.4g}"))

    duration = grid.dt * grid.n_steps
    peak_frequency = max(4.0 / max(grid.extent), 3.0 / duration)
    src = make_ricker_source(grid, k, center, peak_frequency=peak_frequency,
                             onset=0.05 * duration, amplitude=1.0)
    traj = solve_causal(system, src)
    n_quiet = int(np.count_nonzero(traj.times < src.onset))
    quiet = float(np.abs(traj.states[:n_quiet]).max()) if n_quiet else 0.0
    rows.append(("solve_causality", quiet == 0.0, f"max |u| before onset = {quiet:.1e}"))
    gap = stored_repeat_gap(system, traj)
    rows.append(("solve_determinism", gap <= 1e-14, f"repeat-solve gap = {gap:.1e}"))
    res = np.abs(step_residuals(traj, system, src)).max()
    bound = max(1.0, float(traj.states.max()), float(-traj.states.min()))
    rows.append(("step_residuals", bool(res <= 1e-8 * bound),
                 f"max half-step equation residual = {res:.2e}"))
    eres = np.abs(energy_identity_residual(traj, system, src)).max()
    scale = max(traj.energies.max(), 1e-30)
    rows.append(("energy_identity", bool(eres <= 2e-2 * scale),
                 f"max residual {eres:.2e} vs energy {scale:.2e}"))

    u = rng.standard_normal(system.n_state)
    r = rng.standard_normal(sampler.n_channels)
    lhs = float(apply_sampler(sampler, u) @ r)
    rhs = float(u @ sampler_adjoint_source(sampler, r[:, None])[0])
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    rows.append(("sampler_adjoint_identity", rel <= 1e-12, f"relative gap = {rel:.1e}"))
    seis1 = sample_trajectory(sampler, traj)
    seis3 = forward_map(system, replace(src, footprint=3.0 * src.footprint), sampler)
    lin = float(np.abs(seis3.data - 3.0 * seis1.data).max())
    rows.append(("forward_linearity", lin <= 1e-10 * max(1.0, float(np.abs(seis3.data).max())),
                 f"|F(3f) - 3F(f)| = {lin:.1e}"))
    lin, top = stored_derivative_linearity(system, traj, rng)
    rows.append(("derivative_linearity", lin <= 1e-10 * max(1.0, top),
                 f"|du(2m) - 2 du(m)| = {lin:.1e}"))

    speed = max_wavespeed(system) if grid.dim == 1 else 0.0
    if speed > 0:
        density = energy_density(traj)
        leak_quiet = density_leak(density.copy(), grid,
                                  cone_from_speed(center, src.onset, speed, margin=0.1))
        fast = ConeSpec(apex_x=tuple(center), apex_t=src.onset + 1.5 / peak_frequency,
                        slowness=(1.1 / speed))
        leak_fast = density_leak(density, grid, fast)
    report = misfit_gradient(system, src, sampler, seis1, dot_test_rng=rng)
    rel = report.diagnostics["dot_product_residual"]
    rows.append(("adjoint_dot_product", rel <= DOT_PRODUCT_BOUND, f"relative error = {rel:.2e}"))
    sym = float(np.abs(report.g_a - np.swapaxes(report.g_a, 1, 2)).max())
    zero = float(np.abs(report.g_a).max() + np.abs(report.g_b).max()
                 + sum(np.abs(g).max() for g in report.g_q))
    rows.append(("gradient_symmetry", sym == 0.0, f"asymmetry = {sym:.1e}"))
    rows.append(("zero_residual_zero_gradient", report.objective == 0.0 and zero == 0.0,
                 f"J = {report.objective:.1e}, |g| = {zero:.1e}"))
    if speed > 0:
        rows.append(("cone_two_sided", leak_quiet <= leak_tolerance and leak_fast > 1e-3,
                     f"quiet leak {leak_quiet:.2e} vs intruding leak {leak_fast:.2e}"))
        tau0 = 1.0 / speed
        inside = slowness_pencil_min_eig(system, 0.95 * tau0)
        outside = slowness_pencil_min_eig(system, 1.05 * tau0)
        rows.append(("slowness_pencil_two_sided", outside < 0 <= inside + 1e-12,
                     f"min eig at 0.95/c: {inside:.2e}, at 1.05/c: {outside:.2e}"))
    return rows


def dot_product_test(system, base: Trajectory, sampler, rng) -> float:
    """Relative error of the discrete adjoint identity on one random instance, from the
    stored trajectory ``base``: dt * sum_m <r_m, (S du)_m> against -<pert, g(lam(r))>
    for a ``random_perturbation`` and then a standard-normal data series r, drawn from
    ``rng`` in that order.  S du samples ``stored_derivative`` and g(lam(r)) is
    ``adjoint_gradient`` on ``base``; with exact transposition both sides agree to
    solver round-off."""
    pert = random_perturbation(system, rng)
    data_series = rng.standard_normal((sampler.n_channels, base.times.size))
    s_du = sample_trajectory(sampler, stored_derivative(system, base, pert)).data
    residual = SeismogramData(times=base.times, data=data_series, receivers=sampler.receivers)
    report = adjoint_gradient(system, base, residual, sampler)
    return _adjoint_identity_error(system, data_series, s_du, report, pert)


def stored_misfit_gradient(system, source, sampler, observed, dot_test_rng=None):
    """``misfit_gradient`` from a stored forward trajectory: ``solve_causal``, then
    ``adjoint_gradient`` and, with ``dot_test_rng``, ``dot_product_test`` on it."""
    traj = solve_causal(system, source)
    predicted = sample_trajectory(sampler, traj)
    residual = SeismogramData(times=predicted.times, data=observed.data - predicted.data,
                              receivers=predicted.receivers, tag=predicted.tag)
    report = adjoint_gradient(system, traj, residual, sampler)
    report.objective = objective_from_data(predicted, observed)
    if np.abs(residual.data).max() == 0.0:
        report.diagnostics["zero_residual"] = True
    if dot_test_rng is not None:
        report.diagnostics["dot_product_residual"] = dot_product_test(system, traj, sampler,
                                                                      dot_test_rng)
    return report


# ---------------------------------------------------------------------------
# store-then-compare convergence study
# ---------------------------------------------------------------------------


# state rows per block of ``sup_l2_distance``
DISTANCE_ROWS = 64


def sup_l2_distance(a: np.ndarray, b: np.ndarray, cell_volume: float) -> float:
    """max_n sqrt(cell_volume) ||a_n - b_n|| over the rows of two state series.

    The row norms are formed ``DISTANCE_ROWS`` rows at a time, bit-identical
    to one norm over the whole difference, which is never held.
    """
    norms = np.empty(len(a))
    for start in range(0, len(a), DISTANCE_ROWS):
        rows = slice(start, start + DISTANCE_ROWS)
        norms[rows] = np.linalg.norm(a[rows] - b[rows], axis=1)
    return float(np.sqrt(cell_volume) * norms.max())


def stored_convergence_series(rough, source, schedule, boundary="periodic", sampler=None) -> dict:
    """The series of ``measure_convergence_study`` from stored trajectories: every
    field solved with ``solve_causal``, then ``sup_l2_distance`` and, with a
    sampler, ``sample_trajectory``."""
    spread = float(rough.a.max(axis=0).max() - rough.a.min(axis=0).min())
    eps = 0.25 * spread if spread > 0 else 0.25
    ref = solve_causal(assemble_system(rough, None, boundary), source)
    series = {"solution_distance": [], "measure_distance": [], "seismogram_distance": []}
    for n in schedule:
        smooth = mollify_field(rough, n, boundary)
        traj = solve_causal(assemble_system(smooth, None, boundary), source)
        series["solution_distance"].append(
            sup_l2_distance(traj.states, ref.states, rough.grid.cell_volume))
        series["measure_distance"].append(measure_distance(rough, smooth, eps))
        if sampler is not None:
            gap = sample_trajectory(sampler, traj).data - sample_trajectory(sampler, ref).data
            series["seismogram_distance"].append(float(np.abs(gap).max()))
    return {name: tuple(values) for name, values in series.items() if values}


# ---------------------------------------------------------------------------
# derivative checks: Newton quotients and finite differences
# ---------------------------------------------------------------------------


def perturbed_system(system, pert: CoefficientPerturbation, h: float):
    """System with coefficients (a + h da, b + h db, q + h dq); same stencil."""
    pert.validate(system)
    a = system.a_blocks
    if pert.delta_a is not None:
        a = a + h * pert.delta_a
    b = system.b_blocks
    if pert.delta_b is not None:
        b = (b if b is not None else 0.0) + h * pert.delta_b
    kernel = system.kernel
    if pert.delta_weights is not None:  # validate() checked one per term
        kernel = PronyKernel(tuple(w + h * dw for w, dw in zip(kernel.weights, pert.delta_weights)),
                             kernel.taus)
    return replace(system, a_blocks=a, b_blocks=b, kernel=kernel)


@dataclass(frozen=True)
class QuotientStudy:
    """Remainder table of the Newton quotient against the Gateaux derivative."""

    remainders: tuple[float, ...]
    flagged: tuple[bool, ...]
    slope: float
    derivative_norm: float


def quotient_study(system, pert, source, h_schedule) -> QuotientStudy:
    """Tabulate sup_n ||(u_h - u)/h - du|| over the h schedule, from stored solves of
    the base, of each ``perturbed_system`` and of ``stored_derivative``.

    Rows where the perturbed coefficients leave the admissible set (lose
    positive definiteness) are flagged rather than fatal.
    """
    vol = system.grid.cell_volume
    base = solve_causal(system, source)
    du = stored_derivative(system, base, pert)
    remainders, flagged = [np.nan] * len(h_schedule), [True] * len(h_schedule)
    for i, h in enumerate(map(float, h_schedule)):
        try:
            pert_system = perturbed_system(system, pert, h)
            if np.linalg.eigvalsh(pert_system.a_blocks).min() <= 0.0:
                continue
        except (InvalidArgumentError, np.linalg.LinAlgError):
            continue
        u_h = solve_causal(pert_system, source)
        remainders[i] = sup_l2_distance((u_h.states - base.states) / h, du.states, vol)
        flagged[i] = False
    return QuotientStudy(
        remainders=tuple(remainders),
        flagged=tuple(flagged),
        slope=fit_slope(h_schedule, remainders),
        derivative_norm=float(np.sqrt(vol) * np.linalg.norm(du.states, axis=1).max()),
    )


def finite_difference_table(system, source, sampler, observed, report, n_bumps: int,
                            rng) -> list[dict]:
    """Central-difference checks of J along random single-cell bumps.

    Each row sweeps the three FD steps and keeps the pair-consistent one
    (the classic bias/round-off tradeoff); ``rel_error`` compares it to the
    adjoint gradient pairing.  Bumps in cells the wavefield never reaches
    make both sides vanish; when both sit below the cancellation noise floor
    of the J evaluations the row is marked ``below_noise`` with zero error.
    """
    n, k = system.grid.n_cells, system.k
    steps = (1e-1, 1e-2, 1e-3)
    scale = float(np.abs(system.a_blocks).max())
    j_base = report.objective if report.objective is not None else 1.0
    noise_floor = 64 * np.finfo(float).eps * abs(j_base) / (min(steps) * scale)
    rows = []
    for b in range(n_bumps):
        cell = int(rng.integers(n))
        part = "a" if b % 2 == 0 else "b"
        m = rng.standard_normal((k, k))
        block = np.zeros((n, k, k))
        block[cell] = 0.5 * (m + m.T) if part == "a" else m
        pert = (
            CoefficientPerturbation(delta_a=block)
            if part == "a"
            else CoefficientPerturbation(delta_b=block)
        )
        predicted = report.pair(pert)
        fd_values = []
        for h in steps:
            hh = h * scale
            j_plus = objective(perturbed_system(system, pert, hh), source, sampler, observed)
            j_minus = objective(perturbed_system(system, pert, -hh), source, sampler, observed)
            fd_values.append((j_plus - j_minus) / (2 * hh))
        gaps = [abs(fd_values[i] - fd_values[i + 1]) for i in range(len(fd_values) - 1)]
        best = fd_values[int(np.argmin(gaps)) + 1]
        below_noise = max(abs(best), abs(predicted)) <= noise_floor
        denom = max(abs(best), abs(predicted), 1e-300)
        rows.append({
            "cell": cell, "part": part, "fd": best, "adjoint": predicted,
            "rel_error": 0.0 if below_noise else abs(best - predicted) / denom,
            "below_noise": below_noise,
            "fd_sweep": fd_values,
        })
    return rows
