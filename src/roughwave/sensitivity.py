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
regrouped and streamed the same way.  ``misfit_gradient`` stores no
forward series either: it keeps one carry (u_n, s_j(t_n)) per contraction
block and recomputes each block's states once, bit for bit, as the sweep
reaches it.  These arrays are derivative representers in the trace
pairing, not steepest-ascent directions.
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
from .evolution import Trajectory, _midpoint_steps
from .fields import PronyKernel, SourceTerm, ZeroKernel, write_field_array
from .forward import (
    Sampler,
    SeismogramData,
    forward_map,
    gathered_adjoint_source,
)
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
        """<perturbation, gradient> in the per-cell trace pairing.  Each given entry
        must have its gradient's shape, and ``delta_weights`` one entry per term."""
        dws = pert.delta_weights
        if dws is not None and len(dws) != len(self.g_q):
            raise InvalidArgumentError(f"delta_weights has {len(dws)} terms; the report has "
                                       f"{len(self.g_q)}")
        total = 0.0
        for name, d, g in (("delta_a", pert.delta_a, self.g_a), ("delta_b", pert.delta_b, self.g_b),
                           *((f"delta_weights[{j}]", dw, g)
                             for j, (dw, g) in enumerate(zip(dws or (), self.g_q)))):
            if d is None:
                continue
            if np.shape(d) != g.shape:
                raise InvalidArgumentError(f"{name} has shape {np.shape(d)}; the gradient has "
                                           f"{g.shape}")
            total += float(np.sum(d * g))
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
    sum_j w_old_h,j dW_j and M_new = dA/dt + dB/2 + sum_j w_new_h,j dW_j.
    ``base`` is the base trajectory, or its carries z_0 .. z_N in order, each
    the (1 + n_terms, n_state) stack (u_n, s_1(t_n), ...) of one system and
    shot of a ``_midpoint_steps`` carry, pulled as the rows are.  The base Prony states
    are read from the carries; a trajectory is replayed into carries once.
    """
    pert.validate(system)
    _require_sensitivity_kernel(system)
    ops, dt = system.step_operators, system.grid.dt
    dws = pert.delta_weights or ()
    if isinstance(base, Trajectory):
        if base.grid != system.grid:
            raise GridMismatchError("trajectory was not produced on this system's grid")
        states, weights = base.states, ops.step_weights[:len(dws)]  # the terms read below
        base = itertools.chain(
            [np.concatenate((states[:1], np.zeros((len(weights), system.n_state))))],
            (np.concatenate((u[None], s))
             for u, (_, s) in zip(states[1:], prony_steps(states, weights))))
    da, db = (np.zeros_like(system.a_blocks) if d is None else d
              for d in (pert.delta_a, pert.delta_b))
    e_h, w_old_h, w_new_h = ops.half_weights.T
    blocks = [0.5 * db - da / dt + sum(w * dw for w, dw in zip(w_old_h, dws)),
              0.5 * db + da / dt + sum(w * dw for w, dw in zip(w_new_h, dws)),
              *(e * dw for e, dw in zip(e_h, dws))]
    matrix = sp.hstack([block_diagonal(-b) for b in blocks], format="csr")
    stacked = np.empty(len(blocks) * system.n_state)  # u_n, u_{n+1} and the s_j(t_n)
    n_read = len(dws)  # the rows read do not keep the blocks alive
    return (matrix @ np.concatenate((z[0], z_next[0], *z[1:1 + n_read]), out=stacked)
            for z, z_next in itertools.pairwise(base))


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
    steps = _midpoint_steps([system], [None], np.zeros((system.n_state, 1)),
                            linearized_forcing(system, base, pert))
    return (z[0, 0] for z in steps)


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

# steps per contraction block, so the coefficient buffer holds <= (2 + n_terms) * BLOCK_STEPS
# states; also the interval between the carries that ``misfit_gradient`` keeps of its forward
# solve.  A 300-step 2D 64^2 two-term Prony sweep: 0.32-0.35 s on one core at 16-64, 0.55 s at 1.
BLOCK_STEPS = 16


def _block_bounds(n_steps: int) -> list[tuple[int, int]]:
    """(start, stop) of the contraction blocks of time levels 0 .. n_steps, from the top."""
    return [(max(stop - BLOCK_STEPS, 0), stop) for stop in range(n_steps + 1, 0, -BLOCK_STEPS)]


def _adjoint_sweep(system: DiscreteSystem, injection: np.ndarray, cols: np.ndarray,
                   coef: np.ndarray) -> Iterator[None]:
    """One transposed midpoint sweep, from lam_N = 0, driven by the gathered
    ``injection`` at the columns ``cols``.  For each block of ``_block_bounds``, from
    the top, it writes the coefficients of u_start .. u_{stop-1} (module docstring)
    to ``coef`` rows 0 .. stop - start - 1, then yields.  A step is one product with
    ``rhs_matrix``^T, giving D^T lam and every -E_h,j W_j^T lam, and one transposed
    solve; the adjoint Prony states are carried as one (n_terms, n_state) array."""
    ops, dt, n_state = system.step_operators, system.grid.dt, system.n_state
    transposed = ops.rhs_matrix.T  # a CSC view of the same arrays
    (e_full, w_old, w_new), (e_h, w_old_h, w_new_h) = (
        weights.T[:, :, None] for weights in (ops.step_weights, ops.half_weights))
    old_h, new_h = e_h * w_old, e_h * w_new
    lam = np.zeros(n_state)  # lam_m, from lam_N = 0
    mu = np.zeros((ops.n_terms, n_state))  # the adjoint Prony states, one row per term
    rho = np.zeros((ops.n_terms, n_state))  # rho_m, from rho_N = 0
    for start, stop in _block_bounds(system.grid.n_steps):
        for m in range(stop - 1, start - 1, -1):
            if m:
                y = (transposed @ lam).reshape(-1, n_state)
                rhs = y[0]
                rhs[cols] += injection[m]
                rhs += w_old[:, 0] @ mu
                mu *= e_full
                mu += y[1:]
                rhs += w_new[:, 0] @ mu
                lam_prev = ops.lu.solve(rhs, trans="T")  # lam_{m-1}
            else:
                lam_prev = np.zeros(n_state)  # lam_{-1} = 0
            # in place, each sum in the order of the module docstring
            row = coef[:, m - start]
            np.subtract(lam_prev, lam, out=row[0])
            row[0] /= dt
            np.add(lam_prev, lam, out=row[1])
            row[1] *= 0.5
            if ops.n_terms:
                np.multiply(old_h, rho, out=row[2:])
                row[2:] += w_old_h * lam
                row[2:] += w_new_h * lam_prev
                rho *= e_full
                rho += lam  # rho_{m-1}
                if m:
                    row[2:] += new_h * rho
            lam = lam_prev
        yield


def _contract(system: DiscreteSystem, base_blocks: Iterable[tuple[int, int, np.ndarray]],
              sampler: Sampler, injections: list[np.ndarray]) -> list[GradientReport]:
    """The gradients of one ``_adjoint_sweep`` per gathered injection.  ``base_blocks``
    yields (start, stop, u_start .. u_{stop-1}) for each block of ``_block_bounds``, from
    the top.  Over a block the sweeps fill one coefficient buffer in turn, and each
    contracts it with the block's states in one matmul batched over series and cells."""
    grid, ops = system.grid, system.step_operators
    n_cells, k = grid.n_cells, system.k
    coef = np.empty((2 + ops.n_terms, min(BLOCK_STEPS, grid.n_steps + 1), system.n_state))
    sums = [np.zeros((2 + ops.n_terms, n_cells, k, k)) for _ in injections]  # one per report
    sweeps = [_adjoint_sweep(system, injection, sampler.gathered[0], coef)
              for injection in injections]
    for start, stop, u in base_blocks:
        if not np.all(np.isfinite(u)):
            bad = start + int(np.argmin(np.isfinite(u).all(axis=1)))
            raise SolverError(f"base trajectory has a non-finite state at step {bad}")
        states = u.reshape(-1, n_cells, k).transpose(1, 0, 2)
        block = coef[:, :stop - start].reshape(-1, stop - start, n_cells, k).transpose(0, 2, 3, 1)
        for total, sweep in zip(sums, sweeps):
            next(sweep)
            total += np.matmul(block, states)
    reports = []
    for total in sums:
        total *= grid.dt
        sym = 0.5 * (total + np.swapaxes(total, 2, 3))
        reports.append(GradientReport(g_a=sym[0], g_b=total[1], g_q=tuple(sym[2:])))
    return reports


def adjoint_gradient(
    system: DiscreteSystem,
    base: Trajectory,
    residual: SeismogramData,
    sampler: Sampler,
) -> GradientReport:
    """Per-cell gradients from one transposed midpoint sweep driven by S^T r.

    A step is one product with ``rhs_matrix``^T and one transposed solve.  The
    sweep forms the coefficients of each u_m (module docstring) and every
    ``BLOCK_STEPS`` steps contracts them with strided views of ``base.states``
    in one matmul batched over series and cells.  With the misfit residual
    d - F, dJ . pert = report.pair(pert) exactly.
    """
    _require_sensitivity_kernel(system)
    n_steps = system.grid.n_steps
    if base.grid != system.grid or residual.times.size != n_steps + 1:
        raise GridMismatchError("base trajectory or residual is not on this system's grid")
    bad = np.argwhere(~np.isfinite(residual.data))
    if bad.size:
        raise InvalidArgumentError("residual has a non-finite sample at channel {}, "
                                   "time index {}".format(*bad[0]))
    blocks = ((start, stop, base.states[start:stop]) for start, stop in _block_bounds(n_steps))
    return _contract(system, blocks, sampler, [gathered_adjoint_source(sampler, residual)])[0]


def _gradient_forward(system: DiscreteSystem, source: SourceTerm, sampler: Sampler,
                      pert: CoefficientPerturbation | None):
    """The forward solve of a gradient.  It keeps the sampler's gathered columns of its
    states, (n_steps + 1, n_columns, n_solves); the carry, (1, 1 + n_terms, n_state, 1),
    at the start of every block of ``_block_bounds`` but the top one, from the bottom;
    and the top block's states.  With ``pert`` the derivative solve about the base steps
    as a second column, one step behind, since its forcing row n reads the base carry at
    t_{n+1}; its last step runs alone, resumed from its carry."""
    if system.grid != sampler.grid:
        raise GridMismatchError("system and sampler grids differ")
    n_steps, n_state, n_terms = system.grid.n_steps, system.n_state, system.step_operators.n_terms
    cols = sampler.gathered[0]
    (top_start, _), *lower = _block_bounds(n_steps)
    starts = {start for start, _ in lower}
    sources, forcing = [source], None
    if pert is not None:
        def base_carries():  # z_0, then each base carry as the solve below yields it
            yield z0[0, ..., 0]
            while True:
                yield latest

        derivative_rows = linearized_forcing(system, base_carries(), pert)

        def forcing():
            row = np.zeros((n_state, 2))
            yield row  # the derivative waits one step: no forcing on its zero state
            for f in derivative_rows:
                row[:, 1] = f
                yield row

        sources, forcing = [source, None], forcing()
    z0 = np.zeros((1, 1 + n_terms, n_state, len(sources)))
    kept = np.zeros((n_steps + 1, cols.size, len(sources)))
    carries, top = [], np.empty((n_steps + 1 - top_start, n_state))
    for n, z in enumerate(itertools.chain([z0], _midpoint_steps([system], sources, z0, forcing))):
        kept[n, :, 0] = z[0, 0, cols, 0]
        if n in starts:
            carries.append(z[..., :1].copy())
        if n >= top_start:
            top[n - top_start] = z[0, 0, :, 0]
        if pert is not None:
            latest = z[0, ..., 0]  # the base carry of the step last taken
            if n > 1:
                kept[n - 1, :, 1] = z[0, 0, cols, 1]  # du_{n-1}
    if pert is not None:
        last = _midpoint_steps([system], [None], z[..., 1:], [next(derivative_rows)], n_steps - 1)
        kept[n_steps, :, 1] = next(last)[0, 0, cols, 0]
    return kept, carries, top


def _recomputed_blocks(system: DiscreteSystem, source: SourceTerm, carries: list[np.ndarray],
                       top: np.ndarray) -> Iterator[tuple[int, int, np.ndarray]]:
    """The base blocks of ``_contract``, from the top: the top one as the forward solve
    kept it, and each lower one recomputed once from the carry kept at its start, into
    the top one's buffer."""
    (start, stop), *lower = _block_bounds(system.grid.n_steps)
    yield start, stop, top
    for (start, stop), carry in zip(lower, reversed(carries)):
        rows = top[:stop - start]
        rows[0] = carry[0, 0, :, 0]
        for row, z in zip(rows[1:], _midpoint_steps([system], [source], carry, None, start)):
            row[:] = z[0, 0, :, 0]
        yield start, stop, rows


def _adjoint_identity_error(system: DiscreteSystem, data_series: np.ndarray, s_du: np.ndarray,
                            report: GradientReport, pert: CoefficientPerturbation) -> float:
    """Relative gap between dt * sum_m <r_m, (S du)_m> and -<pert, g(lam(r))>."""
    lhs = system.grid.dt * float(np.sum(data_series * s_du))
    rhs = -report.pair(pert)
    denom = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / denom


def misfit_gradient(
    system: DiscreteSystem,
    source: SourceTerm,
    sampler: Sampler,
    observed: SeismogramData,
    dot_test_rng: np.random.Generator | None = None,
) -> GradientReport:
    """Full gradient workflow: forward solve, residual, adjoint sweep with contraction.

    The forward solve keeps its sampled data and one carry per contraction block, not
    its states; the sweep recomputes each block's base states once from its carry.
    With ``dot_test_rng`` it also runs the adjoint-state dot test on one random
    instance: it draws a ``random_perturbation``, then a standard-normal data series
    r, and records in ``diagnostics["dot_product_residual"]`` the relative gap
    between dt * sum_m <r_m, (S du)_m> and -<pert, g(lam(r))>, which exact
    transposition keeps at solver round-off.  The derivative solve steps as a
    second column of the forward solve, and the adjoint sweep of r contracts the
    same recomputed blocks.  Every solve uses implicit midpoint, whose exact
    transpose the adjoint is.
    """
    _require_sensitivity_kernel(system)
    pert = None if dot_test_rng is None else random_perturbation(system, dot_test_rng)
    kept, carries, top = _gradient_forward(system, source, sampler, pert)
    times, gathered = system.grid.times(), sampler.gathered[1]
    predicted = SeismogramData(times=times, data=gathered @ kept[:, :, 0].T,
                               receivers=sampler.receivers, tag=sampler.tag)
    j_value = objective_from_data(predicted, observed)
    residual = observed.data - predicted.data
    injections = [gathered_adjoint_source(sampler, residual)]
    if pert is not None:
        data_series = dot_test_rng.standard_normal((sampler.n_channels, times.size))
        injections.append(gathered_adjoint_source(sampler, data_series))
    report, *dot = _contract(system, _recomputed_blocks(system, source, carries, top), sampler,
                             injections)
    report.objective = j_value
    if np.abs(residual).max() == 0.0:
        # zero-residual fixed point: the gradient vanishes identically
        report.diagnostics["zero_residual"] = True
    if pert is not None:
        report.diagnostics["dot_product_residual"] = _adjoint_identity_error(
            system, data_series, gathered @ kept[:, :, 1].T, dot[0], pert)
    return report


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
