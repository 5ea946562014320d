"""Coefficient derivatives, the least-squares objective, and adjoint gradients.

Discretize-then-optimize: the adjoint recursion is the exact transpose of
the implicit-midpoint forward recursion (including the Prony memory
recursion), so the discrete identity

    dt * sum_m <r_m, (S du)_m>  =  -<perturbation, g(lam(r))>

holds to round-off for any data series r, where lam(r) is the transposed
solve driven by S^T r and g the bilinear contraction below.  With
r = d - F (the misfit residual), g is exactly the derivative of
J = (1/2) dt sum ||F - d||^2, i.e. dJ . (da, db, dq) = <(da, db, dq), g>.

Per cell, g sums dt lam_n (x) x_n over steps n < N, with x_n the step's
(u_{n+1} - u_n)/dt for g_a, ubar_n for g_b and s_half_jn for g_qj.  Regrouped
onto the stored states u_m, with lam_{-1} = lam_N = 0 and a Prony term's
whole-step and half-step weights (E, w_old, w_new), (E_h, w_old_h, w_new_h):

    g_a  = dt sum_m sym((lam_{m-1} - lam_m)/dt (x) u_m)
    g_b  = dt sum_m 1/2 (lam_{m-1} + lam_m) (x) u_m
    g_qj = dt sum_m sym((w_old_h lam_m + w_new_h lam_{m-1}
                         + E_h (w_old rho_m + w_new rho_{m-1})) (x) u_m)
    rho_{m-1} = lam_m + E rho_m,   rho_N = 0 (stable: E <= 1),

dropping the rho_{-1} term at m = 0, since no step precedes u_0.  So the
backward sweep forms every coefficient as it goes, storing no adjoint
series and replaying no forward recursion; the linearized forcing is
regrouped and streamed the same way.  These arrays are derivative
representers in the trace pairing, not steepest-ascent directions.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np
import scipy.sparse as sp

from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    SolverError,
    UnsupportedConfigurationError,
)
from .evolution import Trajectory, _midpoint_steps, solve_causal
from .fields import PronyKernel, SourceTerm, ZeroKernel, write_field_array
from .forward import (
    Sampler,
    SeismogramData,
    forward_map,
    gathered_adjoint_source,
    sample_trajectory,
    sampled_solve,
)
from .experiments import fit_slope
from .operators import DiscreteSystem, block_diagonal, prony_steps


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
    a = system.a_blocks
    if pert.delta_a is not None:
        a = a + h * pert.delta_a
    b = system.b_blocks
    if pert.delta_b is not None:
        b = (b if b is not None else 0.0) + h * pert.delta_b
    kernel = system.kernel
    if pert.delta_weights is not None:  # validate() checked that the kernel is Prony
        kernel = PronyKernel(tuple(w + h * dw for w, dw in zip(kernel.weights, pert.delta_weights)),
                             kernel.taus)
    return replace(system, a_blocks=a, b_blocks=b, kernel=kernel)


# ---------------------------------------------------------------------------
# the linearized problem
# ---------------------------------------------------------------------------


def linearized_forcing(
    system: DiscreteSystem,
    base: Trajectory | Iterable[np.ndarray],
    pert: CoefficientPerturbation,
):
    """Rows of the linearized right-hand side -(dA u' + dB u + dR[u]), one per
    step, as a generator: row n is -[M_old | M_new | E_h,1 dW_1 | ...] times
    the stacked (u_n, u_{n+1}, s_1(t_n), ...), with M_old = -dA/dt + dB/2 +
    sum_j w_old_h,j dW_j and M_new = dA/dt + dB/2 + sum_j w_new_h,j dW_j; the
    base Prony states s_j advance once per step.  ``base`` is the base
    trajectory, or its rows t_0 .. t_N in order, pulled as the rows are.
    """
    pert.validate(system)
    _require_sensitivity_kernel(system)
    if isinstance(base, Trajectory):
        if base.grid != system.grid:
            raise GridMismatchError("trajectory was not produced on this system's grid")
        base = base.states
    ops, dt = system.step_operators, system.grid.dt
    da, db = (np.zeros_like(system.a_blocks) if d is None else d
              for d in (pert.delta_a, pert.delta_b))
    dws = pert.delta_weights or ()
    e_h, w_old_h, w_new_h = ops.half_weights.T
    blocks = [0.5 * db - da / dt + sum(w * dw for w, dw in zip(w_old_h, dws)),
              0.5 * db + da / dt + sum(w * dw for w, dw in zip(w_new_h, dws)),
              *(e * dw for e, dw in zip(e_h, dws))]
    matrix = sp.hstack([block_diagonal(-b) for b in blocks], format="csr")

    rows, recursion = itertools.tee(base)
    steps = zip(itertools.pairwise(rows), prony_steps(recursion, ops.step_weights[:len(dws)]))
    z = np.empty(len(blocks) * system.n_state)  # u_n, u_{n+1} and the s_j(t_n), stacked
    return (matrix @ np.concatenate((u_prev, u_next, *s), out=z) for (u_prev, u_next), (s, _) in steps)


def derivative_steps(
    system: DiscreteSystem,
    source: SourceTerm | None,
    base: Trajectory | Iterable[np.ndarray],
    pert: CoefficientPerturbation,
) -> Iterator[np.ndarray]:
    """The states du_1 .. du_N, (n_state, 1) each, of the derivative about the base
    solve driven by ``source``, as they step; ``base`` as in ``linearized_forcing``."""
    if source is not None and source.smoothness < 2:
        warnings.warn("base source smoothness < 2: the derivative may not be well-defined "
                      "in the continuum limit", stacklevel=3)
    return _midpoint_steps(system, [None], np.zeros((system.n_state, 1)),
                           linearized_forcing(system, base, pert))


def directional_derivative(
    system: DiscreteSystem,
    base: Trajectory,
    pert: CoefficientPerturbation,
) -> Trajectory:
    """Gateaux derivative of the solution in the given coefficient direction.

    Solves the same evolution problem with the perturbation-assembled
    right-hand side (implicit midpoint), streamed row by row from
    ``linearized_forcing``; linear in the perturbation by construction.
    """
    states = np.zeros((system.grid.n_steps + 1, system.n_state))
    for row, du in zip(states[1:], derivative_steps(system, base.source, base, pert)):
        row[:] = du[:, 0]
    return Trajectory(grid=system.grid, times=system.grid.times(), states=states,
                      a_blocks=system.a_blocks)


# ---------------------------------------------------------------------------
# objective and adjoint
# ---------------------------------------------------------------------------


def objective_from_data(predicted: SeismogramData, observed: SeismogramData) -> float:
    """J = (1/2) sum over receivers and steps of dt (F - d)^2, of finite series only."""
    if predicted.data.shape != observed.data.shape or not np.allclose(
        predicted.times, observed.times, rtol=1e-10, atol=1e-14
    ):
        raise GridMismatchError("predicted and observed data axes differ")
    for name, series in (("predicted", predicted), ("observed", observed)):
        if not np.all(np.isfinite(series.data)):
            raise InvalidArgumentError(f"{name} data hold a non-finite sample")
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


# the largest relative error of the adjoint identity that ``check`` and ``gradient`` accept:
# round-off keeps it below 5e-14 on every configuration of the test suite
DOT_PRODUCT_BOUND = 1e-12

# steps per contraction block, so the coefficient buffer holds <= (2 + n_terms) * BLOCK_STEPS states.
# A 300-step 2D 64^2 two-term Prony sweep: 0.32-0.35 s on one core at 16-64, 0.55 s at 1 step.
BLOCK_STEPS = 16


def adjoint_gradient(
    system: DiscreteSystem,
    base: Trajectory,
    residual: SeismogramData,
    sampler: Sampler,
) -> GradientReport:
    """Per-cell gradients from one transposed midpoint sweep driven by S^T r.

    A step is one product with ``adjoint_matrix`` and one transposed solve,
    the adjoint Prony states carried as one (n_terms, n_state) array.  The
    sweep forms the coefficients of each u_m (module docstring) and every
    ``BLOCK_STEPS`` steps contracts them with strided views of ``base.states``
    in one matmul batched over series and cells.  With the misfit residual
    d - F, dJ . pert = report.pair(pert) exactly.
    """
    _require_sensitivity_kernel(system)
    grid = system.grid
    n_steps, n_cells, k, n_state, dt = grid.n_steps, grid.n_cells, system.k, system.n_state, grid.dt
    if base.grid != grid or residual.times.size != n_steps + 1:
        raise GridMismatchError("base trajectory or residual is not on this system's grid")
    bad = np.argwhere(~np.isfinite(residual.data))
    if bad.size:
        raise InvalidArgumentError("residual has a non-finite sample at channel {}, "
                                   "time index {}".format(*bad[0]))
    ops = system.step_operators
    injection = gathered_adjoint_source(sampler, residual)
    (e_full, w_old, w_new), (e_h, w_old_h, w_new_h) = (
        weights.T[:, :, None] for weights in (ops.step_weights, ops.half_weights))
    lam = np.zeros(n_state)  # lam_m, from lam_N = 0
    mu = np.zeros((ops.n_terms, n_state))  # the adjoint Prony states, one row per term
    rho = np.zeros((ops.n_terms, n_state))  # rho_m, from rho_N = 0
    coef = np.empty((2 + ops.n_terms, min(BLOCK_STEPS, n_steps + 1), n_state))  # g_a, g_b, g_q
    sums = np.zeros((2 + ops.n_terms, n_cells, k, k))
    for stop in range(n_steps + 1, 0, -BLOCK_STEPS):
        start = max(stop - BLOCK_STEPS, 0)
        for m in range(stop - 1, start - 1, -1):
            lam_prev = np.zeros(n_state)  # lam_{m-1}, and lam_{-1} = 0
            if m:
                y = (ops.adjoint_matrix @ lam).reshape(-1, n_state)  # D^T lam, -E_h,j W_j^T lam
                rhs = y[0]
                rhs[sampler.gathered[0]] += injection[m]
                rhs += w_old[:, 0] @ mu
                mu *= e_full
                mu += y[1:]
                rhs += w_new[:, 0] @ mu
                lam_prev = ops.lu.solve(rhs, trans="T")
            row = coef[:, m - start]
            row[0] = (lam_prev - lam) / dt
            row[1] = 0.5 * (lam_prev + lam)
            if ops.n_terms:
                row[2:] = e_h * w_old * rho + w_old_h * lam + w_new_h * lam_prev
                rho = lam + e_full * rho  # rho_{m-1}
                if m:
                    row[2:] += e_h * w_new * rho
            lam = lam_prev
        u = base.states[start:stop]
        if not np.all(np.isfinite(u)):
            bad = start + int(np.argmin(np.isfinite(u).all(axis=1)))
            raise SolverError(f"base trajectory has a non-finite state at step {bad}")
        block = coef[:, :stop - start].reshape(-1, stop - start, n_cells, k).transpose(0, 2, 3, 1)
        sums += np.matmul(block, u.reshape(-1, n_cells, k).transpose(1, 0, 2))
    sums *= dt
    sym = 0.5 * (sums + np.swapaxes(sums, 2, 3))
    return GradientReport(g_a=sym[0], g_b=sums[1], g_q=tuple(sym[2:]))


def misfit_gradient(
    system: DiscreteSystem,
    source: SourceTerm,
    sampler: Sampler,
    observed: SeismogramData,
    dot_test_rng: np.random.Generator | None = None,
) -> GradientReport:
    """Full gradient workflow: forward solve, residual, adjoint sweep with contraction.

    With ``dot_test_rng`` it also runs the randomized dot-product self-test.
    Every solve uses implicit midpoint, whose exact transpose the adjoint is.
    """
    traj = solve_causal(system, source)
    predicted = sample_trajectory(sampler, traj)
    j_value = objective_from_data(predicted, observed)
    residual = SeismogramData(times=predicted.times, data=observed.data - predicted.data,
                              receivers=predicted.receivers, tag=predicted.tag)
    report = adjoint_gradient(system, traj, residual, sampler)
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

    Checks dt * sum_m <r_m, (S du)_m> against -<pert, g(lam(r))> for a
    ``random_perturbation`` and a standard-normal data series r; with exact
    transposition both sides agree to solver round-off.  The derivative
    solve keeps only the sampled columns of its states.
    """
    pert = random_perturbation(system, rng)
    data_series = rng.standard_normal((sampler.n_channels, base.times.size))
    s_du = sampled_solve(system, None, sampler, forcing=linearized_forcing(system, base, pert)).data
    lhs = system.grid.dt * float(np.sum(data_series * s_du))
    residual = SeismogramData(times=base.times, data=data_series, receivers=sampler.receivers)
    rhs = -adjoint_gradient(system, base, residual, sampler).pair(pert)
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
    vol = system.grid.cell_volume
    remainders, flagged = [np.nan] * len(h_schedule), [True] * len(h_schedule)
    admissible = []  # (row of the table, h, perturbed system)
    for i, h in enumerate(h_schedule):
        try:
            pert_system = perturbed_system(system, pert, float(h))
            if np.linalg.eigvalsh(pert_system.a_blocks).min() <= 0.0:
                raise InvalidArgumentError("perturbed mass exits the admissible set")
        except (InvalidArgumentError, np.linalg.LinAlgError):
            continue
        admissible.append((i, float(h), pert_system))
    # the base, du and the u_h step together, du's forcing pulling base rows as
    # the base steps; per step, each quotient's distance to du, and du's norm
    sup = np.zeros(len(admissible) + 1)
    rows = np.empty((len(admissible) + 1, system.n_state))
    u0 = np.zeros((system.n_state, 1))
    base = (u[:, 0] for u in itertools.chain([u0], _midpoint_steps(system, [source], u0, None)))
    base, base_forcing = itertools.tee(base)
    next(base)
    steps = zip(base, derivative_steps(system, source, base_forcing, pert),
                *(_midpoint_steps(s, [source], u0, None) for _, _, s in admissible))
    for base_n, du_n, *u_hs in steps:
        for row, u_h, (_, h, _) in zip(rows, u_hs, admissible):
            np.subtract(u_h[:, 0], base_n, out=row)
            row /= h
            row -= du_n[:, 0]
        rows[-1] = du_n[:, 0]
        np.maximum(sup, np.linalg.norm(rows, axis=1), out=sup)
    *distances, du_norm = np.sqrt(vol) * sup
    for (i, _, _), d in zip(admissible, distances):
        remainders[i], flagged[i] = float(d), False
    return QuotientStudy(
        remainders=tuple(remainders),
        flagged=tuple(flagged),
        slope=fit_slope(h_schedule, remainders),
        derivative_norm=float(du_norm),
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
