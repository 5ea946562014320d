"""Time integration of the discrete evolution problem with energy accounting.

The default integrator is the implicit midpoint rule.  For the step
t_n -> t_{n+1} it enforces

    A (u_{n+1} - u_n)/dt + (P + B) (u_n + u_{n+1})/2 + R_{n+1/2} = f(t_{n+1/2}),

where the memory value R_{n+1/2} is the convolution of the piecewise-linear
interpolant of the discrete states, evaluated at the half step.  For Prony
kernels that value is linear in (history, u_n, u_{n+1}) through the exact
exponential recursion, so the whole step stays one sparse solve with a
constant matrix, factorized once per system.  Because <P ubar, ubar> = 0 to
round-off, the scheme conserves the quadratic energy exactly when
B = R = f = 0, which is the sharpest testable analogue of the continuous
energy identity.

RK4 is available for the differential case; it is subject to a CFL bound
checked against the symbol speed of the system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    SolverError,
    StabilityError,
    UnsupportedConfigurationError,
)
from .fields import (
    Grid,
    PronyKernel,
    SourceTerm,
    TabulatedKernel,
    ZeroKernel,
    _hat_weights,
    write_field_array,
)
from .operators import (
    DiscreteSystem,
    MassOperator,
    StepOperators,  # noqa: F401  (re-exported: callers import it from here)
    block_diagonal,
    energy,
    exp_interval_weights,
    max_symbol_speed,
    memory_series,
    prony_advance,
)

IMPLICIT_MIDPOINT = "implicit_midpoint"
RK4 = "rk4"


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: str = IMPLICIT_MIDPOINT
    cfl_safety: float = 0.5

    def __post_init__(self):
        if self.scheme not in (IMPLICIT_MIDPOINT, RK4):
            raise InvalidArgumentError(f"unknown scheme {self.scheme!r}")


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed solution states of one system.

    ``states`` holds every time level row-wise, t = t_start included.  The
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


def _check_forcing(forcing: np.ndarray | None, n_steps: int, n_state: int) -> None:
    if forcing is not None and forcing.shape != (n_steps, n_state):
        raise InvalidArgumentError(
            f"forcing must have shape {(n_steps, n_state)}, got {forcing.shape}"
        )


def _midpoint_solve(
    system: DiscreteSystem,
    source: SourceTerm | None,
    u0: np.ndarray,
    t_start: float,
    forcing: np.ndarray | None,
) -> Trajectory:
    grid = system.grid
    dt, n_steps = grid.dt, grid.n_steps
    ops = system.step_operators
    _check_forcing(forcing, n_steps, ops.n_state)
    times = grid.times(t_start)
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


def _rk4_solve(
    system: DiscreteSystem,
    source: SourceTerm | None,
    config: IntegratorConfig,
    u0: np.ndarray,
    t_start: float,
    forcing: np.ndarray | None,
) -> Trajectory:
    grid = system.grid
    dt, n_steps = grid.dt, grid.n_steps
    kern = system.kernel
    if isinstance(kern, TabulatedKernel):
        raise UnsupportedConfigurationError(
            "tabulated memory kernels require the implicit midpoint integrator"
        )
    speed = max_symbol_speed(system)
    if speed > 0:
        dt_max = config.cfl_safety * min(grid.h) / speed
        if dt > dt_max * (1 + 1e-12):
            raise StabilityError(
                f"RK4 needs dt <= {dt_max:.6g} (safety {config.cfl_safety}, max speed "
                f"{speed:.6g}); got dt = {dt:.6g}",
                suggested_dt=dt_max,
            )
    taus = kern.taus if isinstance(kern, PronyKernel) else ()
    weight_mats = [block_diagonal(w) for w in kern.weights] if taus else []
    half_weights = [exp_interval_weights(dt / 2, tau) for tau in taus]
    step_weights = [exp_interval_weights(dt, tau) for tau in taus]
    _check_forcing(forcing, n_steps, system.n_state)
    times = grid.times(t_start)
    states = np.zeros((n_steps + 1, system.n_state))
    u = u0.copy()
    states[0] = u
    aux = [np.zeros(system.n_state) for _ in taus]
    k_mat = system.skew.matrix
    b_mat = system.b_matrix()

    def rate(t: float, v: np.ndarray, u_base: np.ndarray, weights, f_extra: np.ndarray | None):
        rhs = _source_at(source, t, system.n_state)
        if f_extra is not None:
            rhs = rhs + f_extra
        rhs = rhs - k_mat @ v
        if b_mat is not None:
            rhs = rhs - b_mat @ v
        s_now = aux if weights is None else prony_advance(aux, u_base, v, weights)
        for wm, s in zip(weight_mats, s_now):
            rhs = rhs - wm @ s
        return system.mass.solve(rhs)

    for n in range(n_steps):
        t = times[n]
        f_extra = forcing[n] if forcing is not None else None
        k1 = rate(t, u, u, None, f_extra)
        k2 = rate(t + dt / 2, u + dt / 2 * k1, u, half_weights, f_extra)
        k3 = rate(t + dt / 2, u + dt / 2 * k2, u, half_weights, f_extra)
        k4 = rate(t + dt, u + dt * k3, u, step_weights, f_extra)
        u_next = u + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(u_next)):
            raise SolverError(f"RK4 produced non-finite state at step {n}")
        aux = prony_advance(aux, u, u_next, step_weights)
        u = u_next
        states[n + 1] = u
    return Trajectory(grid=grid, times=times, states=states, mass=system.mass, source=source)


# ---------------------------------------------------------------------------
# public solves
# ---------------------------------------------------------------------------


def solve_causal(
    system: DiscreteSystem,
    source: SourceTerm | None,
    config: IntegratorConfig | None = None,
    forcing: np.ndarray | None = None,
    t_start: float = 0.0,
) -> Trajectory:
    """Causal solve: u = 0 at t_start, driven by the source (and/or an
    explicit per-step forcing array sampled at half steps for midpoint).
    """
    config = config or IntegratorConfig()
    if source is not None and source.grid != system.grid:
        raise GridMismatchError("source and system grids differ")
    u0 = np.zeros(system.n_state)
    if config.scheme == IMPLICIT_MIDPOINT:
        return _midpoint_solve(system, source, u0, t_start, forcing)
    return _rk4_solve(system, source, config, u0, t_start, forcing)


def solve_ivp(
    system: DiscreteSystem,
    u0: np.ndarray,
    t_start: float = 0.0,
    source: SourceTerm | None = None,
    config: IntegratorConfig | None = None,
) -> Trajectory:
    """Initial-value solve with u(t_start) = u0.

    Only defined for memory-free systems: with a convolution term, initial
    data do not determine solutions.
    """
    config = config or IntegratorConfig()
    if not isinstance(system.kernel, ZeroKernel):
        raise UnsupportedConfigurationError(
            "initial-value solves require a zero memory kernel; with memory, "
            "initial data do not determine the solution"
        )
    if u0.shape != (system.n_state,):
        raise InvalidArgumentError("u0 must be a flat state vector")
    if config.scheme == IMPLICIT_MIDPOINT:
        return _midpoint_solve(system, source, u0.astype(float), t_start, None)
    return _rk4_solve(system, source, config, u0.astype(float), t_start, None)


def time_reversed_system(system: DiscreteSystem) -> DiscreteSystem:
    """System with the spatial operator negated (the substitution t -> T - t)."""
    skew = replace(system.skew, matrix=(-system.skew.matrix).tocsr(),
                   p_matrices=tuple(-p for p in system.skew.p_matrices))
    return replace(system, skew=skew)


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


def graph_norm_series(traj: Trajectory, system: DiscreteSystem) -> np.ndarray:
    """||u(t_n)|| + ||P u(t_n)|| in the volume-weighted norm, per step."""
    root_vol = np.sqrt(system.grid.cell_volume)
    out = np.zeros(traj.times.size)
    for n, u in enumerate(traj.states):
        out[n] = root_vol * (np.linalg.norm(u) + np.linalg.norm(system.skew.apply(u)))
    return out


def energy_bound_constant(traj: Trajectory, source: SourceTerm) -> float:
    """Empirical constant in E(t_n) <= C * sum dt ||f(t_m)||^2.

    The continuum bound guarantees some increasing C(t); this reports the
    realized ratio so refinement sweeps can check it stays bounded.
    """
    vol = traj.grid.cell_volume
    dt = traj.grid.dt
    f_norm2 = np.array(
        [vol * float(np.sum(source.evaluate(t) ** 2)) for t in traj.times]
    )
    cum = np.cumsum(dt * f_norm2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(cum > 0, traj.energies / np.maximum(cum, 1e-300), 0.0)
    return float(ratios.max())


def time_derivative_bound(traj: Trajectory, order: int) -> float:
    """Max norm of the order-th finite-difference time derivative of u."""
    arr = traj.states
    for _ in range(order):
        arr = np.diff(arr, axis=0) / traj.grid.dt
    vol = np.sqrt(traj.grid.cell_volume)
    return float(vol * np.linalg.norm(arr, axis=1).max()) if arr.size else 0.0


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
