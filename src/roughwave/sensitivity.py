"""Coefficient derivatives, the least-squares objective, and adjoint gradients.

Discretize-then-optimize: the adjoint recursion is the exact transpose of
the implicit-midpoint forward recursion (including the Prony memory
recursion), so the discrete identity

    dt * sum_m <r_m, (S du)_m>  =  -<perturbation, g(w(r))>

holds to round-off for any data series r, where w(r) is the transposed
solve driven by S^T r and g the bilinear contraction below.  With
r = d - F (the misfit residual), g is exactly the derivative of
J = (1/2) dt sum ||F - d||^2, i.e. dJ . (da, db, dq) = <(da, db, dq), g>.

The contraction pairs the integrator's internal half-step derivative
v_n = (u_{n+1} - u_n)/dt with the adjoint state (the trace pairing,
specialized per cell):

    g_a[cell]  = dt sum_n sym(w_n (x) v_n)[cell]
    g_b[cell]  = dt sum_n (w_n (x) ubar_n)[cell]
    g_qj[cell] = dt sum_n sym(w_n (x) s_half_jn)[cell]   (Prony weights only)

The sums run forward, one step at a time, over the states the stepper's
``replay`` yields, and the adjoint takes S^T r one step at a time, so no
full series is built beside the trajectories themselves.  These arrays are
derivative representers in the trace pairing, not steepest-ascent
directions; no descent machinery lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    UnsupportedConfigurationError,
)
from .evolution import Trajectory, solve_causal
from .fields import PronyKernel, SourceTerm, ZeroKernel, write_field_array
from .forward import (
    Sampler,
    SeismogramData,
    forward_map,
    sample_trajectory,
    sampler_adjoint_source,
)
from .operators import (
    DiscreteSystem,
    MassOperator,
    block_apply,
)


@dataclass(frozen=True)
class CoefficientPerturbation:
    """Directions (da, db, dq) for coefficient differentiation.

    ``delta_a`` must be symmetric per cell; ``delta_weights`` perturbs the
    Prony weight matrices term by term (relaxation times stay fixed, which
    keeps the kernel dependence linear).  Any entry may be None.
    """

    delta_a: np.ndarray | None = None
    delta_b: np.ndarray | None = None
    delta_weights: tuple[np.ndarray, ...] | None = None

    def validate(self, system: DiscreteSystem) -> None:
        n, k = system.grid.n_cells, system.k
        for name, arr in (("delta_a", self.delta_a), ("delta_b", self.delta_b)):
            if arr is not None and arr.shape != (n, k, k):
                raise InvalidArgumentError(f"{name} must have shape {(n, k, k)}")
        if self.delta_a is not None:
            if np.abs(self.delta_a - np.swapaxes(self.delta_a, 1, 2)).max() > 1e-12 * max(
                1.0, float(np.abs(self.delta_a).max())
            ):
                raise InvalidArgumentError("delta_a must be symmetric per cell")
        if self.delta_weights is not None:
            if not isinstance(system.kernel, PronyKernel):
                raise UnsupportedConfigurationError(
                    "kernel perturbations are defined for Prony kernels only"
                )
            if len(self.delta_weights) != system.kernel.n_terms:
                raise InvalidArgumentError("one delta weight per Prony term required")
            for j, w in enumerate(self.delta_weights):
                if w.shape != (n, k, k):
                    raise InvalidArgumentError(f"delta weight {j} must have shape {(n, k, k)}")


@dataclass
class GradientReport:
    """Per-coefficient derivative representers plus verification diagnostics."""

    g_a: np.ndarray
    g_b: np.ndarray
    g_q: tuple[np.ndarray, ...]
    objective: float | None = None
    diagnostics: dict = field(default_factory=dict)

    def pair(self, pert: CoefficientPerturbation) -> float:
        """<perturbation, gradient> in the per-cell trace pairing."""
        total = 0.0
        if pert.delta_a is not None:
            total += float(np.sum(pert.delta_a * self.g_a))
        if pert.delta_b is not None:
            total += float(np.sum(pert.delta_b * self.g_b))
        if pert.delta_weights is not None:
            for dw, g in zip(pert.delta_weights, self.g_q):
                total += float(np.sum(dw * g))
        return total


def _require_sensitivity_kernel(system: DiscreteSystem) -> None:
    if not isinstance(system.kernel, (ZeroKernel, PronyKernel)):
        raise UnsupportedConfigurationError(
            "sensitivity solves support zero or Prony memory kernels only"
        )


def perturbed_system(system: DiscreteSystem, pert: CoefficientPerturbation, h: float) -> DiscreteSystem:
    """System with coefficients (a + h da, b + h db, q + h dq); same stencil."""
    pert.validate(system)
    _require_sensitivity_kernel(system)
    mass = system.mass
    if pert.delta_a is not None:
        mass = MassOperator(system.mass.blocks + h * pert.delta_a, system.grid, system.k)
    b = system.b_blocks
    if pert.delta_b is not None:
        b = (b if b is not None else 0.0) + h * pert.delta_b
    kernel = system.kernel
    if pert.delta_weights is not None:  # validate() checked that the kernel is Prony
        kernel = PronyKernel(tuple(w + h * dw for w, dw in zip(kernel.weights, pert.delta_weights)),
                             kernel.taus)
    return replace(system, mass=mass, b_blocks=b, kernel=kernel)


# ---------------------------------------------------------------------------
# trajectory-derived steps
# ---------------------------------------------------------------------------


def _half_steps(system: DiscreteSystem, traj: Trajectory):
    """Per step: (u_{n+1} - u_n)/dt, the midpoint average, and the Prony half-step
    states of the stepper's ``replay``, bit-identical to the forward pass."""
    if traj.grid != system.grid:
        raise GridMismatchError("trajectory was not produced on this system's grid")
    states, dt = traj.states, system.grid.dt
    s_halves = (system.step_operators.replay(states)
                if isinstance(system.kernel, PronyKernel) else repeat([]))
    for u_prev, u_next, s_half in zip(states[:-1], states[1:], s_halves):
        yield (u_next - u_prev) / dt, 0.5 * (u_prev + u_next), s_half


def perturbation_forcing(
    system: DiscreteSystem,
    traj: Trajectory,
    pert: CoefficientPerturbation,
) -> np.ndarray:
    """Right-hand side of the linearized problem: -(dA u' + dB u + dR[u]).

    Sampled the way the midpoint stepper consumes it (one row per step).
    """
    pert.validate(system)
    _require_sensitivity_kernel(system)
    out = np.zeros((traj.n_steps, system.n_state))
    for (v, ubar, s_half), row in zip(_half_steps(system, traj), out):
        if pert.delta_a is not None:
            row -= block_apply(pert.delta_a, v)
        if pert.delta_b is not None:
            row -= block_apply(pert.delta_b, ubar)
        for dw, s in zip(pert.delta_weights or (), s_half):
            row -= block_apply(dw, s)
    return out


def directional_derivative(
    system: DiscreteSystem,
    base: Trajectory,
    pert: CoefficientPerturbation,
) -> Trajectory:
    """Gateaux derivative of the solution in the given coefficient direction.

    Solves the same evolution problem with the perturbation-assembled
    right-hand side (implicit midpoint); linear in the perturbation by
    construction.
    """
    if base.source is not None and base.source.smoothness < 2:
        import warnings

        warnings.warn("base source smoothness < 2: the derivative may not be well-defined "
                      "in the continuum limit", stacklevel=2)
    forcing = perturbation_forcing(system, base, pert)
    return solve_causal(system, None, forcing=forcing)


# ---------------------------------------------------------------------------
# objective and adjoint
# ---------------------------------------------------------------------------


def objective_from_data(predicted: SeismogramData, observed: SeismogramData) -> float:
    """J = (1/2) sum over receivers and steps of dt (F - d)^2."""
    if predicted.data.shape != observed.data.shape or not np.allclose(
        predicted.times, observed.times, rtol=1e-10, atol=1e-14
    ):
        raise GridMismatchError("predicted and observed data axes differ")
    dt = predicted.dt
    return 0.5 * dt * float(np.sum((predicted.data - observed.data) ** 2))


def objective(
    system: DiscreteSystem,
    source: SourceTerm,
    sampler: Sampler,
    observed: SeismogramData,
) -> float:
    """J of the implicit-midpoint prediction, the scheme the adjoint transposes."""
    return objective_from_data(forward_map(system, source, sampler), observed)


def adjoint_solve(
    system: DiscreteSystem,
    residual: SeismogramData,
    sampler: Sampler,
) -> Trajectory:
    """Adjoint state w: the transposed midpoint recursion driven by S^T r, step by step.

    Equivalent to a time-reversed causal solve (t -> T - t flips P by
    skew-symmetry and runs the memory recursion on the reversed kernel);
    the terminal condition w = 0 for t > T holds by construction, and w is
    returned on the original time axis.
    """
    _require_sensitivity_kernel(system)
    grid = system.grid
    n_steps = grid.n_steps
    if residual.times.size != n_steps + 1:
        raise GridMismatchError("residual time axis does not match the system grid")
    ops = system.step_operators
    w = np.zeros((n_steps + 1, system.n_state))
    lam = np.zeros(system.n_state)
    mu = ops.new_aux()
    dT = ops.d_matrix.T.tocsr()
    for m in range(n_steps, 0, -1):
        mu_new = [e_full * mu_j - e_half * (wm @ lam) for wm, (e_full, _, _), (e_half, _, _), mu_j
                  in zip(ops.weight_matrices, ops.step_weights, ops.half_weights, mu)]
        rhs = dT @ lam + sampler_adjoint_source(sampler, residual.data[:, m])
        for (_, w_old, w_new), mu_prev_j, mu_new_j in zip(ops.step_weights, mu, mu_new):
            rhs += w_old * mu_prev_j + w_new * mu_new_j
        lam = ops.lu.solve(rhs, trans="T")
        w[m - 1] = lam
        mu = mu_new
    return Trajectory(grid=grid, times=residual.times.copy(), states=w, mass=system.mass)


def assemble_gradient(
    base: Trajectory,
    adjoint: Trajectory,
    system: DiscreteSystem,
) -> GradientReport:
    """Contract the base and adjoint trajectories into per-cell gradients.

    With the adjoint driven by the misfit residual d - F, the result is the
    derivative of J: dJ . pert = report.pair(pert), exactly in the discrete
    sense, summed forward one step at a time.  g_a and the kernel gradients are
    symmetrized per cell.
    """
    if base.states.shape != adjoint.states.shape:
        raise GridMismatchError("base and adjoint trajectories are misaligned")
    n_cells, k = system.grid.n_cells, system.k
    n_terms = system.kernel.n_terms if isinstance(system.kernel, PronyKernel) else 0
    sums = np.zeros((2 + n_terms, n_cells, k, k))  # g_a, g_b, g_q...
    for lam, (v, ubar, s_half) in zip(adjoint.states, _half_steps(system, base)):
        series = np.reshape([v, ubar, *s_half], (-1, n_cells, k))
        sums += np.einsum("ci,mcj->mcij", lam.reshape(n_cells, k), series)
    sums *= system.grid.dt
    sym = 0.5 * (sums + np.swapaxes(sums, 2, 3))
    return GradientReport(g_a=sym[0], g_b=sums[1], g_q=tuple(sym[2:]))


def misfit_gradient(
    system: DiscreteSystem,
    source: SourceTerm,
    sampler: Sampler,
    observed: SeismogramData,
    dot_test_rng: np.random.Generator | None = None,
) -> GradientReport:
    """Full gradient workflow: forward solve, residual, adjoint, contraction.

    With ``dot_test_rng`` it also runs the randomized dot-product self-test.
    Every solve uses implicit midpoint, whose exact transpose the adjoint is.
    """
    traj = solve_causal(system, source)
    predicted = sample_trajectory(sampler, traj)
    j_value = objective_from_data(predicted, observed)
    residual = SeismogramData(
        times=predicted.times,
        data=observed.data - predicted.data,
        receivers=predicted.receivers,
        tag=predicted.tag,
    )
    w = adjoint_solve(system, residual, sampler)
    report = assemble_gradient(traj, w, system)
    report.objective = j_value
    if np.abs(residual.data).max() == 0.0:
        # zero-residual fixed point: the gradient vanishes identically
        report.diagnostics["zero_residual"] = True
    if dot_test_rng is not None:
        rel = dot_product_test(system, traj, sampler, rng=dot_test_rng)
        report.diagnostics["dot_product_residual"] = rel
    return report


def dot_product_test(
    system: DiscreteSystem,
    base: Trajectory,
    sampler: Sampler,
    rng: np.random.Generator,
) -> float:
    """Relative error of the discrete adjoint identity on one random instance.

    Checks dt * sum_m <r_m, (S du)_m> against -<pert, g(w(r))> for a
    ``random_perturbation`` and a standard-normal data series r; with exact
    transposition both sides agree to solver round-off.
    """
    pert = random_perturbation(system, rng)
    data_series = rng.standard_normal((sampler.n_channels, base.times.size))
    du = directional_derivative(system, base, pert)
    s_du = sampler.matrix @ du.states.T
    dt = system.grid.dt
    lhs = dt * float(np.sum(data_series * s_du))
    residual = SeismogramData(times=base.times, data=data_series, receivers=sampler.receivers)
    w = adjoint_solve(system, residual, sampler)
    g = assemble_gradient(base, w, system)
    rhs = -g.pair(pert)
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / denom


def random_perturbation(
    system: DiscreteSystem,
    rng: np.random.Generator,
    scale: float = 0.1,
) -> CoefficientPerturbation:
    """Dense random symmetric da, random db, and Prony-weight bumps."""
    n, k = system.grid.n_cells, system.k
    da = rng.standard_normal((n, k, k)) * scale
    da = 0.5 * (da + np.swapaxes(da, 1, 2))
    db = rng.standard_normal((n, k, k)) * scale
    dw = None
    if isinstance(system.kernel, PronyKernel):
        dws = []
        for _ in system.kernel.taus:
            w = rng.standard_normal((n, k, k)) * scale
            dws.append(0.5 * (w + np.swapaxes(w, 1, 2)))
        dw = tuple(dws)
    return CoefficientPerturbation(delta_a=da, delta_b=db, delta_weights=dw)


def finite_difference_table(
    system: DiscreteSystem,
    source: SourceTerm,
    sampler: Sampler,
    observed: SeismogramData,
    report: GradientReport,
    n_bumps: int,
    rng: np.random.Generator,
) -> list[dict]:
    """Central-difference checks of J along random single-cell bumps.

    Each row sweeps the three FD steps and keeps the pair-consistent one
    (the classic bias/round-off tradeoff); ``rel_error`` compares it to the
    adjoint gradient pairing.  Bumps in cells the wavefield never reaches
    make both sides vanish; when both sit below the cancellation noise floor
    of the J evaluations the row is marked ``below_noise`` with zero error.
    """
    n, k = system.grid.n_cells, system.k
    steps = (1e-1, 1e-2, 1e-3)
    scale = float(np.abs(system.mass.blocks).max())
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


# ---------------------------------------------------------------------------
# Newton-quotient study
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientStudy:
    """Remainder table of the Newton quotient against the Gateaux derivative."""

    remainders: tuple[float, ...]
    flagged: tuple[bool, ...]
    slope: float
    derivative_norm: float


def _sup_l2_distance(a: np.ndarray, b: np.ndarray, cell_volume: float) -> float:
    return float(np.sqrt(cell_volume) * np.linalg.norm(a - b, axis=1).max())


def quotient_study(
    system: DiscreteSystem,
    pert: CoefficientPerturbation,
    source: SourceTerm,
    h_schedule,
) -> QuotientStudy:
    """Tabulate ||(u_h - u)/h - du|| over the h schedule.

    Rows where the perturbed coefficients leave the admissible set (lose
    positive definiteness) are flagged rather than fatal.
    """
    base = solve_causal(system, source)
    du = directional_derivative(system, base, pert)
    vol = system.grid.cell_volume
    du_norm = float(np.sqrt(vol) * np.linalg.norm(du.states, axis=1).max())
    remainders, flagged = [], []
    for h in h_schedule:
        try:
            pert_system = perturbed_system(system, pert, float(h))
            if np.linalg.eigvalsh(pert_system.mass.blocks).min() <= 0.0:
                raise InvalidArgumentError("perturbed mass exits the admissible set")
        except (InvalidArgumentError, np.linalg.LinAlgError):
            remainders.append(np.nan)
            flagged.append(True)
            continue
        u_h = solve_causal(pert_system, source)
        quotient = (u_h.states - base.states) / float(h)
        remainders.append(_sup_l2_distance(quotient, du.states, vol))
        flagged.append(False)
    ok = [(float(h), r) for h, r, f in zip(h_schedule, remainders, flagged) if not f and r > 0]
    slope = np.nan
    if len(ok) >= 2:
        hs = np.log([h for h, _ in ok])
        rs = np.log([r for _, r in ok])
        slope = float(np.polyfit(hs, rs, 1)[0])
    return QuotientStudy(
        remainders=tuple(remainders),
        flagged=tuple(flagged),
        slope=slope,
        derivative_norm=du_norm,
    )


# ---------------------------------------------------------------------------
# report export
# ---------------------------------------------------------------------------


def save_gradient_report(report: GradientReport, system: DiscreteSystem, basepath: str) -> None:
    """Binary per-cell gradient arrays plus a JSON diagnostics sidecar."""
    import json

    grid, k = system.grid, system.k
    write_field_array(f"{basepath}_grad_a.rwf", grid, k, report.g_a)
    write_field_array(f"{basepath}_grad_b.rwf", grid, k, report.g_b)
    for j, g in enumerate(report.g_q):
        write_field_array(f"{basepath}_grad_q{j}.rwf", grid, k, g)

    def scrub(value):
        if isinstance(value, dict):
            return {kk: scrub(vv) for kk, vv in value.items()}
        if isinstance(value, (list, tuple)):
            return [scrub(v) for v in value]
        if isinstance(value, (np.floating, np.integer)):
            return value.item()
        return value

    sidecar = {
        "objective": report.objective,
        "n_kernel_terms": len(report.g_q),
        "diagnostics": scrub(report.diagnostics),
    }
    with open(f"{basepath}_diagnostics.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
