"""Time integration of the discrete evolution problem with energy accounting.

The integrator is the implicit midpoint rule.  For the step
t_n -> t_{n+1} it enforces

    A (u_{n+1} - u_n)/dt + (P + B) (u_n + u_{n+1})/2 + R_{n+1/2} = f(t_{n+1/2}),

where the memory value R_{n+1/2} is the convolution of the piecewise-linear
interpolant of the discrete states, evaluated at the half step.  For Prony
kernels that value is linear in (history, u_n, u_{n+1}) through the exact
exponential recursion, so the whole step stays one sparse solve with a
constant matrix, factorized once per system.  That matrix stores no zeros,
and its fill-reducing ordering depends only on the grid dimension (see
``StepOperators``).  Because <P ubar, ubar> = 0 to round-off, the scheme
conserves the quadratic energy exactly when B = R = f = 0, which is the
sharpest testable analogue of the continuous energy identity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    SolverError,
    UnsupportedConfigurationError,
)
from .fields import Grid, SourceTerm, ZeroKernel, _hat_weights, write_field_array
from .operators import (
    DiscreteSystem,
    MassOperator,
    StepOperators,  # noqa: F401  (re-exported: callers import it from here)
    energy,
    memory_series,
    prony_advance,
)


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed solution states of one system.

    ``states`` holds every time level row-wise, t = 0 included.  The
    energy series is computed from the states and ``mass`` on first read.
    """

    grid: Grid
    times: np.ndarray
    states: np.ndarray
    mass: MassOperator
    source: SourceTerm | None = None

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    @cached_property
    def energies(self) -> np.ndarray:
        return np.array([energy(self.mass, u) for u in self.states])


def _source_at(source: SourceTerm | None, t: float, n_state: int) -> np.ndarray:
    if source is None:
        return np.zeros(n_state)
    return source.evaluate(t)


def _midpoint_solve(
    system: DiscreteSystem,
    source: SourceTerm | None,
    u0: np.ndarray,
    forcing: np.ndarray | None,
) -> Trajectory:
    grid = system.grid
    dt, n_steps = grid.dt, grid.n_steps
    ops = system.step_operators
    times = grid.times()
    states = np.zeros((n_steps + 1, ops.n_state))

    u = u0.copy()
    states[0] = u
    aux = ops.new_aux()
    for n in range(n_steps):
        rhs = ops.d_matrix @ u
        rhs += ops.memory_history_rhs(aux, states, n)
        rhs += _source_at(source, times[n] + 0.5 * dt, ops.n_state)
        if forcing is not None:
            rhs += forcing[n]
        u_next = ops.lu.solve(rhs)
        if not np.all(np.isfinite(u_next)):
            raise SolverError(f"implicit midpoint produced non-finite state at step {n}")
        aux = prony_advance(aux, u, u_next, ops.step_weights)
        u = u_next
        states[n + 1] = u
    return Trajectory(grid=grid, times=times, states=states, mass=system.mass, source=source)


# ---------------------------------------------------------------------------
# public solves
# ---------------------------------------------------------------------------


def solve_causal(
    system: DiscreteSystem,
    source: SourceTerm | None,
    forcing: np.ndarray | None = None,
) -> Trajectory:
    """Causal solve: u = 0 at t = 0, driven by the source (and/or an
    explicit per-step forcing array sampled at half steps).
    """
    if source is not None and source.grid != system.grid:
        raise GridMismatchError("source and system grids differ")
    shape = (system.grid.n_steps, system.n_state)
    if forcing is not None and forcing.shape != shape:
        raise InvalidArgumentError(f"forcing must have shape {shape}, got {forcing.shape}")
    return _midpoint_solve(system, source, np.zeros(system.n_state), forcing)


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
    return _midpoint_solve(system, source, u0.astype(float), None)


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
    states = traj.states
    mem = memory_series(system.kernel, states, dt)
    g = np.zeros(traj.times.size)
    for n in range(traj.times.size):
        rhs = -system.apply_b(states[n]) - mem[n] + _source_at(source, traj.times[n], system.n_state)
        g[n] = vol * float(rhs @ states[n])
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
        r = system.mass.apply((un - u) / dt) + system.skew.apply(ubar) + system.apply_b(ubar)
        r += ops.half_step_memory(s_half, u, un, states, n)
        r -= _source_at(source, traj.times[n] + 0.5 * dt, system.n_state)
        if forcing is not None:
            r -= forcing[n]
        out[n] = np.linalg.norm(r)
    return out


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
