"""Executable probes of the continuum theory at desk scale.

Holds the finite-speed cone-leak measurement (one energy density per
trajectory serves every cone), the convergence-in-measure study over
mollification schedules, and the trace-regularity refinement probe, with
the study report they fill.  The closed-form references the solver is
checked against (advection by characteristics, the d'Alembert splitting)
are test oracles and live in ``tests/oracles.py``.

The continuum finite-speed statement ("the solution vanishes outside the
cone") becomes a leak tolerance: discrete stencils and implicit solves have
infinite-speed tails of exponentially small amplitude, so the measured
energy fraction outside the cone is reported against a tolerance (default
1e-6) together with its refinement trend, never hidden.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError
from .evolution import Trajectory, _midpoint_steps
from .fields import CoefficientField, Grid, SourceTerm, mollify_field, measure_distance
from .forward import Sampler, _sampled_shots, build_sampler
from .operators import assemble_damping, assemble_mass, assemble_system
from .physics import AcousticModel, acoustics_system


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeSpec:
    """Space-time cone with apex (x0, t0) and slowness tau (time/length).

    The claimed-quiet region is {(x, t): tau |x - x0| + t0 - t >= 0}; for a
    point source at the apex event this is everything the waves cannot have
    reached when 1/tau is at least the fastest medium speed.
    """

    apex_x: tuple[float, ...]
    apex_t: float
    slowness: float

    def __post_init__(self):
        if not (np.isfinite(self.slowness) and self.slowness > 0):
            raise InvalidArgumentError("cone slowness must be finite and positive, "
                                       f"got {self.slowness!r}")


def cone_from_speed(apex_x, apex_t: float, speed: float, margin: float = 0.1) -> ConeSpec:
    """Cone tracking the front at speed * (1 + margin): slowness below the
    medium slowness bound by the safety factor, so the quiet claim is robust.
    """
    if not (np.isfinite(speed) and speed > 0):
        raise InvalidArgumentError(f"speed must be finite and positive, got {speed!r}")
    if not margin > -1:
        raise InvalidArgumentError(f"margin must exceed -1, got {margin!r}")
    apex = tuple(float(x) for x in (apex_x if np.iterable(apex_x) else [apex_x]))
    return ConeSpec(apex_x=apex, apex_t=float(apex_t), slowness=1.0 / ((1.0 + margin) * speed))


# time rows per block of ``energy_density``
LEAK_ROWS = 16


def energy_density(traj: Trajectory) -> np.ndarray:
    """Per-cell energy (1/2) vol u^T a u of every state, (N + 1, n_cells), filled
    ``LEAK_ROWS`` time rows at a time."""
    grid = traj.grid
    states = traj.states.reshape(traj.states.shape[0], grid.n_cells, -1)
    density = np.empty(states.shape[:2])
    for start in range(0, len(states), LEAK_ROWS):
        rows = slice(start, start + LEAK_ROWS)
        np.einsum("nci,cij,ncj->nc", states[rows], traj.a_blocks, states[rows], out=density[rows])
    density *= 0.5 * grid.cell_volume
    return density


def density_leak(density: np.ndarray, grid: Grid, cone: ConeSpec) -> float:
    """Fraction of the total of an ``energy_density`` inside the cone's claimed-quiet
    region; the 0/0 case of an identically zero density reports leak 0.  The quiet
    entries move, in order, to the front of ``density``, which is left reordered."""
    if len(cone.apex_x) != grid.dim:
        raise InvalidArgumentError("cone apex dimension does not match the grid")
    times = grid.times()
    if times[-1] < cone.apex_t:
        raise InvalidArgumentError("trajectory does not cover the cone's time window")
    total = float(density.sum())
    if total <= 0:
        return 0.0
    dist = np.linalg.norm(grid.centers() - np.asarray(cone.apex_x), axis=1)
    reach = cone.slowness * dist[None, :] + cone.apex_t
    # a block's quiet entries land at or before it, so later blocks stay intact
    flat, n_quiet = density.reshape(-1), 0
    for start in range(0, len(density), LEAK_ROWS):
        rows = slice(start, start + LEAK_ROWS)
        kept = density[rows][reach - times[rows, None] >= 0]
        flat[n_quiet:n_quiet + kept.size] = kept
        n_quiet += kept.size
    return float(flat[:n_quiet].sum()) / total


# ---------------------------------------------------------------------------
# study report
# ---------------------------------------------------------------------------


@dataclass
class StudyReport:
    """Parameter schedule, metric series, fitted slope, and a pass flag."""

    name: str
    schedule: tuple[float, ...]
    series: dict[str, tuple[float, ...]] = field(default_factory=dict)
    slope: float = float("nan")
    tolerance: float = float("nan")
    passed: bool = False
    notes: str = ""

    def __post_init__(self):
        sched = np.asarray(self.schedule, dtype=float)
        if sched.size >= 2 and not (np.all(np.diff(sched) > 0) or np.all(np.diff(sched) < 0)):
            raise InvalidArgumentError("study schedule must be strictly monotone")

    def save(self, basepath: str) -> None:
        payload = {
            "name": self.name,
            "schedule": list(self.schedule),
            "series": {k: list(v) for k, v in sorted(self.series.items())},
            "slope": self.slope,
            "tolerance": self.tolerance,
            "passed": bool(self.passed),
            "notes": self.notes,
        }
        with open(f"{basepath}.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        with open(f"{basepath}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            keys = sorted(self.series)
            writer.writerow(["parameter", *keys])
            for i, p in enumerate(self.schedule):
                writer.writerow([p, *(self.series[k][i] for k in keys)])


def fit_slope(x: Sequence[float], y: Sequence[float]) -> float:
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    good = (x > 0) & (y > 0)
    if good.sum() < 2:
        return float("nan")
    return float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])


# ---------------------------------------------------------------------------
# convergence in measure
# ---------------------------------------------------------------------------


def measure_convergence_study(
    rough: CoefficientField,
    source: SourceTerm,
    schedule: Sequence[int],
    boundary: str = "periodic",
    sampler: Sampler | None = None,
) -> StudyReport:
    """Solve with mollified coefficients along the schedule and record the
    sup-in-time L2 distance to the rough-field solution.

    Also records the convergence-in-measure distance of the coefficients
    (at threshold eps, a quarter of the spread of ``rough.a``) and, when a
    sampler is given, the seismogram max-norm gap, quantifying how solution
    continuity follows from coefficient convergence in measure.
    """
    for n in schedule:
        if not float(n).is_integer():
            raise InvalidArgumentError(f"schedule entry {n!r} is not an integer")
    schedule = [int(n) for n in schedule]
    if sampler is not None and sampler.grid != rough.grid:
        raise GridMismatchError("sampler and field grids differ")
    if len(schedule) < 3 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InvalidArgumentError("schedule must be at least 3 strictly increasing integers")
    spread = float(rough.a.max(axis=0).max() - rough.a.min(axis=0).min())
    eps = 0.25 * spread if spread > 0 else 0.25
    smooths = [mollify_field(rough, n, boundary) for n in schedule]
    meas_dist = [measure_distance(rough, smooth, eps) for smooth in smooths]
    # the mollified systems share the rough one's stencil, assembled once
    reference = assemble_system(rough, boundary=boundary)
    systems = [reference, *(replace(reference, a_blocks=assemble_mass(f),
                                    b_blocks=assemble_damping(f), kernel=f.kernel)
                            for f in smooths)]
    n_state, n_steps = reference.n_state, rough.grid.n_steps
    cols = sampler.gathered[0] if sampler is not None else np.arange(0)
    u0 = np.zeros((n_state, 1))
    # the solves step as one batch; per step: each mollified state's distance to the
    # rough one, and every system's sampled columns; no state series is kept
    sup = np.zeros(len(schedule))
    diff = np.empty((len(schedule), n_state))
    kept = np.zeros((len(systems), n_steps + 1, cols.size))
    for n, z in enumerate(_midpoint_steps(systems, [source], u0, None), 1):
        np.subtract(z[1:, 0, :, 0], z[0, 0, :, 0], out=diff)
        np.maximum(sup, np.linalg.norm(diff, axis=1), out=sup)
        kept[:, n] = z[:, 0, cols, 0]
    sol_dist = [float(np.sqrt(rough.grid.cell_volume) * d) for d in sup]
    series = {
        "solution_distance": tuple(sol_dist),
        "measure_distance": tuple(meas_dist),
    }
    if sampler is not None:
        ref_data, *data = (sampler.gathered[1] @ sampled.T for sampled in kept)
        series["seismogram_distance"] = tuple(float(np.abs(d - ref_data).max()) for d in data)
    decreasing = all(b < a for a, b in zip(sol_dist, sol_dist[1:]))
    return StudyReport(
        name="measure_convergence",
        schedule=tuple(float(n) for n in schedule),
        series=series,
        slope=fit_slope([1.0 / n for n in schedule], sol_dist),
        tolerance=0.25,
        passed=decreasing and sol_dist[-1] <= 0.25 * sol_dist[0],
        notes=f"threshold eps = {eps:.6g}",
    )


# ---------------------------------------------------------------------------
# trace regularity
# ---------------------------------------------------------------------------


def refine_acoustic_model(model: AcousticModel, factor: int = 2) -> AcousticModel:
    """Same medium on a ``factor``-times finer grid (per-cell value repetition)."""
    grid = model.grid.refined(factor)

    def blow_up(values: np.ndarray) -> np.ndarray:
        spatial = values.reshape(model.grid.shape)
        for axis in range(model.grid.dim):
            spatial = np.repeat(spatial, factor, axis=axis)
        return spatial.ravel()

    return AcousticModel(grid=grid, kappa=blow_up(model.kappa), rho=blow_up(model.rho),
                         s_kappa=model.s_kappa, s_rho=model.s_rho)


def trace_regularity_probe(
    model: AcousticModel,
    receivers,
    source_factory: Callable[[Grid, int], SourceTerm],
    smoothness_schedule: Sequence[int] = (1, 2, 3),
    refinements: int = 2,
    boundary: str = "periodic",
) -> StudyReport:
    """Check that the seismogram's discrete time-derivatives up to order
    s - 1 stay bounded under dt refinement for wavelets of smoothness s.

    ``source_factory(grid, s)`` builds a wavelet of smoothness class s on
    each refined grid.  The report's schedule is the smoothness classes, and
    series ``level{i}_derivative_bound`` holds the bound of each class on
    refinement level i (0 the coarsest, ``refinements`` >= 1 the finest).
    Passing means every class's bound grows by at most a factor 1.25 from
    the coarsest to the finest level.
    """
    if refinements < 1:
        raise InvalidArgumentError(f"refinements must be at least 1, got {refinements!r}")
    if len(smoothness_schedule) == 0:
        raise InvalidArgumentError("smoothness_schedule must name at least one smoothness class")
    bound_slack = 1.25
    levels = [model]
    for _ in range(refinements):
        levels.append(refine_acoustic_model(levels[-1], 2))
    bounds = np.zeros((len(levels), len(smoothness_schedule)))
    for i, level_model in enumerate(levels):
        grid = level_model.grid
        system = acoustics_system(level_model, boundary)
        sampler = build_sampler(receivers, "pressure", grid, system.k)
        shots = _sampled_shots(system, [source_factory(grid, s) for s in smoothness_schedule],
                               sampler)
        for j, (s, seis) in enumerate(zip(smoothness_schedule, shots)):
            bounds[i, j] = seismogram_derivative_bound(seis.data, grid.dt, s - 1)
    grown = (bounds[0] > 0) & (bounds[-1] > bound_slack * bounds[0])
    return StudyReport(
        name="trace_regularity",
        schedule=tuple(float(s) for s in smoothness_schedule),
        series={f"level{i}_derivative_bound": tuple(map(float, row)) for i, row in enumerate(bounds)},
        tolerance=bound_slack,
        passed=not grown.any(),
        notes="dt per refinement level: " + ", ".join(
            f"level{i} {m.grid.dt:.6g}" for i, m in enumerate(levels)),
    )


def seismogram_derivative_bound(data: np.ndarray, dt: float, order: int) -> float:
    """Max abs of the order-th discrete time derivative of receiver data."""
    out = data
    for _ in range(order):
        out = np.diff(out, axis=-1) / dt
    return float(np.abs(out).max()) if out.size else 0.0
