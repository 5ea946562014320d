"""Time integration of the discrete evolution problem with energy accounting.

The integrator is the implicit midpoint rule.  For the step
t_n -> t_{n+1} it enforces

    A (u_{n+1} - u_n)/dt + (P + B) (u_n + u_{n+1})/2 + R_{n+1/2} = f(t_{n+1/2}),

where the memory value R_{n+1/2} is the convolution of the piecewise-linear
interpolant of the discrete states, evaluated at the half step.  For Prony
kernels that value is linear in (history, u_n, u_{n+1}) through the exact
exponential recursion, so the whole step stays one sparse solve with a
constant matrix, factorized once per system, and its right-hand side one
sparse product with u_n and the stacked Prony states.  The step matrix
stores no zeros, and its fill-reducing ordering depends only on the grid
dimension (see ``StepOperators``).  Because <P ubar, ubar> = 0 to
round-off, the scheme conserves the quadratic energy exactly when
B = R = f = 0, which is the sharpest testable analogue of the continuous
energy identity.

In 1D the factor holds one LU per connected component of the step (see
``operators.StepFactor``), so a solve pays only for the components it
reaches.  Without a forcing and a tabulated history only the components of
the starting carry and the sources' footprints become nonzero.  When they
are one component, as a point source on a periodic even grid makes them,
each step forms and solves that component's rows alone and writes them into
the full-size carry, whose other entries stay +0.0: the floats of stepping
every unknown, since the solve uses the same component factor and each row
of the right-hand side sums the same entries in the same order.  Every
other solve steps every unknown and solves each component block that is
not all zero.  In 2D and 3D every solve uses the whole step matrix's factor.

Independent systems on one grid step as one batch, as the convergence
study steps its solves.  They share the kernel class and the Prony
relaxation times, and per step make one sparse product with the block
diagonal of their right-hand-side matrices and one evaluation per distinct
source.  A batch that reaches one component, of systems that label their
components alike, makes one factor, of the block diagonal of the systems'
blocks of that component in system order, and per step one solve; a system
whose right-hand side is all zero gets +0.0, as stepping it alone skips
that solve.  On these 1D parity-class blocks COLAMD orders the block
diagonal as it orders each block, so the batch factor is the blocks' own
factors.  Every other batch makes one solve per system on its own factor:
there the block diagonal's ordering is not each block's (COLAMD ordered 3
of 4 blocks of a 200-cell acoustic_free batch differently, and in 2D and 3D
the minimum-degree blocks solve to other round-off).  Either way each
system's states are the floats of stepping it alone: its factor is the
same, and every row of the block diagonal sums the same entries in the
same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    SolverError,
    UnsupportedConfigurationError,
)
from .fields import Grid, SourceTerm, TabulatedKernel, ZeroKernel, write_field_array
from .operators import (
    DiscreteSystem,
    StepFactor,
    StepOperators,  # noqa: F401  (re-exported: callers import it from here)
    block_apply,
    energy,
    memory_series,
    prony_advance,
)


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed solution states of one system.

    ``states`` holds every time level row-wise, t = 0 included.  The
    energy series is computed from the states and the system's mass blocks
    ``a_blocks`` on first read.
    """

    grid: Grid
    times: np.ndarray
    states: np.ndarray
    a_blocks: np.ndarray
    source: SourceTerm | None = None

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @cached_property
    def energies(self) -> np.ndarray:
        return np.array([energy(self.a_blocks, self.grid.cell_volume, u) for u in self.states])


def _source_at(source: SourceTerm | None, t: float, n_state: int) -> np.ndarray:
    if source is None:
        return np.zeros(n_state)
    return source.evaluate(t)


def _block_diagonal_rows(matrices: list[sp.csr_matrix]) -> sp.csr_matrix:
    """The block diagonal of CSR matrices of one shape, each row's entries in their
    stored order, so that a product sums every row as the matrix it came from does."""
    if len(matrices) == 1:
        return matrices[0]
    (rows, cols), starts = matrices[0].shape, np.cumsum([0] + [m.nnz for m in matrices])
    return sp.csr_matrix(
        (np.concatenate([m.data for m in matrices]),
         np.concatenate([m.indices + i * cols for i, m in enumerate(matrices)]),
         np.concatenate([[0], *(m.indptr[1:] + start for m, start in zip(matrices, starts))])),
        shape=(len(matrices) * rows, len(matrices) * cols))


def _midpoint_steps(
    systems: Sequence[DiscreteSystem],
    sources: list[SourceTerm | None],
    u0: np.ndarray,
    forcing: np.ndarray | Iterable[np.ndarray] | None,
    start: int = 0,
) -> Iterator[np.ndarray]:
    """Yield the carries z_{start+1} .. z_N, (n_systems, 1 + n_terms, n_state, n_shots),
    of independent ``systems`` on one grid stepped as one batch (module docstring), each
    on the shots that are the columns of ``u0``, one source (or None) each.  Per system
    a carry stacks the state u_n (``z[i, 0]``) and the Prony states s_j(t_n); a fresh
    one is yielded per step.  ``u0`` is the state at t_start with zero Prony states,
    (n_state, n_shots), shared by every system, or a carry that this generator yielded
    at t_start, from which the solve resumes bit for bit.  ``forcing`` rows, for steps
    ``start`` on, go to every system and shot, or per shot as (n_state, n_shots).  Only
    a tabulated kernel, the one kernel with a history term, makes it keep past states,
    one history per system, so it cannot resume.  Without either, a step that reaches
    one component of ``lu`` (module docstring) forms its rows alone (``component_rhs``)
    and writes their solve into the full-size carry; otherwise it steps every unknown."""
    if u0.shape[-1] == 0:
        raise InvalidArgumentError("u0 has no columns: a solve steps at least one shot")
    if len(sources) != u0.shape[-1]:
        raise InvalidArgumentError(
            f"sources has {len(sources)} entries for the {u0.shape[-1]} columns of u0: "
            "one source (or None) per shot")
    first = systems[0]
    grid = first.grid
    if any(s.grid != grid or s.k != first.k for s in systems):
        raise GridMismatchError("the systems of a batch differ in grid or state width")
    if any(s is not None and s.grid != grid for s in sources):
        raise GridMismatchError("source and system grids differ")
    dt, n_steps = grid.dt, grid.n_steps
    if isinstance(forcing, np.ndarray) and forcing.shape != (n_steps, first.n_state):
        raise InvalidArgumentError(
            f"forcing must have shape {(n_steps, first.n_state)}, got {forcing.shape}")
    step_ops = [s.step_operators for s in systems]
    ops = step_ops[0]
    # one Prony recursion serves the batch: its weights are those of dt and the taus
    if any(type(s.kernel) is not type(first.kernel)
           or not np.array_equal(o.step_weights, ops.step_weights)
           for s, o in zip(systems, step_ops)):
        raise UnsupportedConfigurationError(
            "the systems of a batch differ in kernel class or Prony relaxation times")
    z = u0
    if u0.ndim == 2:
        z = np.zeros((len(systems), 1 + ops.n_terms, *u0.shape))
        z[:, 0] = u0
    history = None
    if isinstance(first.kernel, TabulatedKernel):
        if start:
            raise UnsupportedConfigurationError(
                f"a solve with a tabulated kernel cannot resume at step {start}: "
                "the kernel's history is not in the carry")
        history = np.zeros((len(systems), n_steps + 1, *z.shape[2:]))
        history[:, 0] = z[:, 0]
    component, unknowns = None, slice(None)
    rhs_matrices = [o.rhs_matrix for o in step_ops]
    if (forcing is None and history is None and ops.lu.n_components > 1
            and all(np.array_equal(o.lu.labels, ops.lu.labels) for o in step_ops[1:])):
        reached = z.any(axis=(0, 1, 3))
        for source in sources:
            if source is not None:
                reached |= source.footprint != 0
        touched = np.unique(ops.lu.labels[reached])
        if touched.size == 1:
            component = int(touched[0])
            unknowns = ops.lu.rows[component]
            rhs_matrices = [o.component_rhs[component] for o in step_ops]
    batch_lu = None
    if component is not None and len(systems) > 1:
        batch_lu = StepFactor(sp.block_diag([o.lu.block(component) for o in step_ops],
                                            format="csc"), **ops.lu.options)
    rhs_matrix = _block_diagonal_rows(rhs_matrices)
    shots = {}  # each distinct source once: its footprint on the unknowns, and its columns
    for col, source in enumerate(sources):
        if source is not None:
            shots.setdefault(id(source), (source, source.footprint[unknowns], []))[2].append(col)
    times = grid.times()
    rows = None if forcing is None else iter(forcing[start:] if isinstance(forcing, np.ndarray)
                                             else forcing)
    for n in range(start, n_steps):
        rhs = (rhs_matrix @ z.reshape(-1, z.shape[3])).reshape(z.shape[0], -1, z.shape[3])
        if history is not None:
            for r, o, past in zip(rhs, step_ops, history):
                r += o.memory_history_rhs(past, n)
        for source, footprint, cols in shots.values():
            f = source.evaluate(times[n] + 0.5 * dt, footprint)
            for col in cols:
                rhs[:, :, col] += f
        if rows is not None:
            row = next(rows)
            rhs += row if row.ndim == 2 else row[:, None]
        u_next = np.zeros((len(systems), *z.shape[2:]))
        if batch_lu is None:
            for o, r, u in zip(step_ops, rhs, u_next):
                u[unknowns] = o.lu.solve(r, component=component)
        else:
            u_next[:, unknowns] = batch_lu.solve(rhs.reshape(-1, rhs.shape[2])).reshape(rhs.shape)
            u_next[~rhs.any(axis=(1, 2))] = 0.0
        if not np.isfinite(u_next).all():
            raise SolverError(f"implicit midpoint produced non-finite state at step {n}")
        if ops.n_terms:
            # prony_advance takes the terms first
            s_next = prony_advance(z[:, 1:].swapaxes(0, 1), z[:, 0], u_next, ops.step_weights)
            z = np.concatenate((u_next[:, None], s_next.swapaxes(0, 1)), axis=1)
        else:
            z = u_next[:, None]
        if history is not None:
            history[:, n + 1] = u_next
        yield z


def _midpoint_solve(
    system: DiscreteSystem,
    sources: list[SourceTerm | None],
    u0: np.ndarray,
    forcing: np.ndarray | Iterable[np.ndarray] | None,
    columns: np.ndarray | None = None,
) -> np.ndarray:
    """States t_0 .. t_N, (n_steps + 1, n_state, n_shots), of ``_midpoint_steps``,
    or only their ``columns`` rows."""
    keep = slice(None) if columns is None else columns
    states = np.empty((system.grid.n_steps + 1, *u0[keep].shape))
    states[0] = u0[keep]
    for n, z in enumerate(_midpoint_steps([system], sources, u0, forcing), 1):
        states[n] = z[0, 0][keep]
    return states


# ---------------------------------------------------------------------------
# public solves
# ---------------------------------------------------------------------------


def solve_causal(
    system: DiscreteSystem,
    source: SourceTerm | None,
    forcing: np.ndarray | Iterable[np.ndarray] | None = None,
) -> Trajectory:
    """Causal solve: u = 0 at t = 0, driven by the source (and/or an
    explicit per-step forcing sampled at half steps: an (n_steps, n_state)
    array, or an iterable that yields its rows in step order).
    """
    states = _midpoint_solve(system, [source], np.zeros((system.n_state, 1)), forcing)[..., 0]
    return Trajectory(grid=system.grid, times=system.grid.times(), states=states,
                      a_blocks=system.a_blocks, source=source)


def solve_ivp(
    system: DiscreteSystem,
    u0: np.ndarray,
    source: SourceTerm | None = None,
) -> Trajectory:
    """Initial-value solve with u(0) = u0.

    Only defined for memory-free systems: with a convolution term, initial
    data do not determine solutions.
    """
    if not isinstance(system.kernel, ZeroKernel):
        raise UnsupportedConfigurationError(
            "initial-value solves require a zero memory kernel; with memory, "
            "initial data do not determine the solution"
        )
    if u0.shape != (system.n_state,):
        raise InvalidArgumentError("u0 must be a flat state vector")
    states = _midpoint_solve(system, [source], u0.astype(float)[:, None], None)[..., 0]
    return Trajectory(grid=system.grid, times=system.grid.times(), states=states,
                      a_blocks=system.a_blocks, source=source)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def energy_identity_residual(
    traj: Trajectory,
    system: DiscreteSystem,
    source: SourceTerm | None = None,
) -> np.ndarray:
    """Per-step residual of the discrete energy identity.

    r_n = [E(t_{n+1}) - E(t_n)] - trapezoid of <-B u - R[u] + f, u> over the
    step, everything evaluated at grid times in the volume-weighted inner
    product.  The quadrature is deliberately independent of the integrator's
    internal half-step values, so the residual measures genuine consistency
    (O(dt^2)-small under refinement) instead of restating the scheme.
    """
    if traj.grid != system.grid:
        raise GridMismatchError("trajectory and system grids differ")
    source = source if source is not None else traj.source
    vol = system.grid.cell_volume
    dt = system.grid.dt
    g = np.zeros(traj.times.size)
    for n, (u, mem) in enumerate(zip(traj.states, memory_series(system.kernel, traj.states, dt))):
        rhs = -system.apply_b(u) - mem + _source_at(source, traj.times[n], system.n_state)
        g[n] = vol * float(rhs @ u)
    de = np.diff(traj.energies)
    return de - 0.5 * dt * (g[:-1] + g[1:])


def step_residuals(
    traj: Trajectory,
    system: DiscreteSystem,
    source: SourceTerm | None = None,
    forcing: np.ndarray | None = None,
) -> np.ndarray:
    """Norm of the discrete equation residual at every half step.

    Recomputes A(u_{n+1} - u_n)/dt + (P+B) ubar + R_{n+1/2} - f_{n+1/2} from
    the stored states; direct solves keep this at round-off.
    """
    source = source if source is not None else traj.source
    dt = system.grid.dt
    ops = system.step_operators
    states = traj.states
    out = np.zeros(traj.n_steps)
    for n, s_half in enumerate(ops.replay(states)):
        u, un = states[n], states[n + 1]
        ubar = 0.5 * (u + un)
        r = block_apply(system.a_blocks, (un - u) / dt) + system.skew @ ubar + system.apply_b(ubar)
        r += ops.half_step_memory(s_half, u, un, states, n)
        r -= _source_at(source, traj.times[n] + 0.5 * dt, system.n_state)
        if forcing is not None:
            r -= forcing[n]
        out[n] = np.linalg.norm(r)
    return out


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def export_energy_csv(traj: Trajectory, path) -> None:
    with open(path, "w") as fh:
        fh.write("t,E\n")
        for t, e in zip(traj.times, traj.energies):
            fh.write(f"{t:.17g},{e:.17g}\n")


def export_snapshots(traj: Trajectory, directory, k: int, every: int = 1) -> list[str]:
    """Write every ``every``-th state as a binary frame (fields format)."""
    import os

    os.makedirs(directory, exist_ok=True)
    written = []
    for n in range(0, traj.n_steps + 1, every):
        path = os.path.join(directory, f"frame_{n:06d}.rwf")
        write_field_array(path, traj.grid, k, traj.states[n].reshape(traj.grid.n_cells, k))
        written.append(path)
    return written
