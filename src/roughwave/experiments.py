"""Executable probes of the continuum theory at desk scale.

Ships the independent oracles (1D advection by characteristics, the
d'Alembert two-way splitting for homogeneous acoustics), the finite-speed
cone-leak measurement, the convergence-in-measure study over mollification
schedules, and the trace-regularity refinement probe.  Oracles here never
call the solver internals they are checking.

The continuum finite-speed statement ("the solution vanishes outside the
cone") becomes a leak tolerance: discrete stencils and implicit solves have
infinite-speed tails of exponentially small amplitude, so the measured
energy fraction outside the cone is reported against a tolerance (default
1e-6) together with its refinement trend, never hidden.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .errors import InvalidArgumentError
from .evolution import IntegratorConfig, Trajectory, solve_causal
from .fields import CoefficientField, Grid, SourceTerm, mollify_field, measure_distance
from .forward import Sampler, build_sampler, sample_trajectory
from .operators import assemble_system
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
        if self.slowness <= 0:
            raise InvalidArgumentError("cone slowness must be positive")


def cone_from_speed(apex_x, apex_t: float, speed: float, margin: float = 0.1) -> ConeSpec:
    """Cone tracking the front at speed * (1 + margin): slowness below the
    medium slowness bound by the safety factor, so the quiet claim is robust.
    """
    if speed <= 0:
        raise InvalidArgumentError("speed must be positive")
    apex = tuple(float(x) for x in (apex_x if np.iterable(apex_x) else [apex_x]))
    return ConeSpec(apex_x=apex, apex_t=float(apex_t), slowness=1.0 / ((1.0 + margin) * speed))


def cone_leak(traj: Trajectory, cone: ConeSpec) -> float:
    """Fraction of total trajectory energy inside the claimed-quiet region.

    Energy density is the per-cell quadratic form (1/2) vol u^T a u; the
    0/0 case of an identically zero trajectory reports leak 0.
    """
    grid = traj.grid
    if len(cone.apex_x) != grid.dim:
        raise InvalidArgumentError("cone apex dimension does not match the grid")
    if traj.times[-1] < cone.apex_t:
        raise InvalidArgumentError("trajectory does not cover the cone's time window")
    centers = grid.centers()
    dist = np.linalg.norm(centers - np.asarray(cone.apex_x), axis=1)
    states = traj.states.reshape(traj.states.shape[0], grid.n_cells, traj.mass.k)
    density = 0.5 * grid.cell_volume * np.einsum(
        "nci,cij,ncj->nc", states, traj.mass.blocks, states
    )
    quiet = cone.slowness * dist[None, :] + cone.apex_t - traj.times[:, None] >= 0
    total = float(density.sum())
    if total <= 0:
        return 0.0
    return float(density[quiet].sum()) / total


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
        from scipy.integrate import simpson

        return c * float(simpson(vals, x=s))
    val, _ = quad(lambda s: f(s, x + c * (t - s)), t_lower, t, limit=400)
    return c * val


_CHI_NORM: list[float] = []


def smooth_bump(y) -> np.ndarray:
    """Unit-mass C-infinity bump supported on [-1, 1]."""
    if not _CHI_NORM:
        norm, _ = quad(lambda s: np.exp(-1.0 / (1.0 - s * s)), -1, 1, limit=200)
        _CHI_NORM.append(norm)
    y = np.asarray(y, dtype=float)
    inside = np.abs(y) < 1.0
    out = np.zeros_like(y)
    ys = np.where(inside, y, 0.0)
    out = np.where(inside, np.exp(-1.0 / (1.0 - ys * ys)) / _CHI_NORM[0], 0.0)
    return out


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
    from scipy.integrate import simpson

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
    from scipy.integrate import simpson

    return 0.5 * kappa * float(simpson(vals, x=s))


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
    config: IntegratorConfig | None = None,
    p_matrices=None,
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
    schedule = [int(n) for n in schedule]
    if len(schedule) < 3 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InvalidArgumentError("schedule must be at least 3 strictly increasing integers")
    config = config or IntegratorConfig()
    spread = float(rough.a.max(axis=0).max() - rough.a.min(axis=0).min())
    eps = 0.25 * spread if spread > 0 else 0.25
    system = assemble_system(rough, p_matrices, boundary)
    ref = solve_causal(system, source, config)
    vol = rough.grid.cell_volume
    sol_dist, meas_dist, seis_dist = [], [], []
    ref_data = sample_trajectory(sampler, ref).data if sampler is not None else None
    for n in schedule:
        smooth = mollify_field(rough, n)
        traj = solve_causal(assemble_system(smooth, p_matrices, boundary), source, config)
        sol_dist.append(float(np.sqrt(vol) * np.linalg.norm(traj.states - ref.states, axis=1).max()))
        meas_dist.append(measure_distance(rough, smooth, eps))
        if sampler is not None:
            data = sample_trajectory(sampler, traj).data
            seis_dist.append(float(np.abs(data - ref_data).max()))
    series = {
        "solution_distance": tuple(sol_dist),
        "measure_distance": tuple(meas_dist),
    }
    if sampler is not None:
        series["seismogram_distance"] = tuple(seis_dist)
    decreasing = all(b < a for a, b in zip(sol_dist, sol_dist[1:]))
    report = StudyReport(
        name="measure_convergence",
        schedule=tuple(float(n) for n in schedule),
        series=series,
        slope=fit_slope([1.0 / n for n in schedule], sol_dist),
        tolerance=0.25,
        passed=decreasing and sol_dist[-1] <= 0.25 * sol_dist[0],
        notes=f"threshold eps = {eps:.6g}",
    )
    return report


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
    config: IntegratorConfig | None = None,
) -> StudyReport:
    """Check that the seismogram's discrete time-derivatives up to order
    s - 1 stay bounded under dt refinement for wavelets of smoothness s.

    ``source_factory(grid, s)`` builds a wavelet of smoothness class s on
    each refined grid.  Passing means the derivative magnitude grows by at
    most a factor 1.25 from the coarsest to the finest level.
    """
    bound_slack = 1.25
    config = config or IntegratorConfig()
    per_s_bounds: dict[str, tuple[float, ...]] = {}
    passed = True
    for s in smoothness_schedule:
        bounds = []
        level_model = model
        for _ in range(refinements + 1):
            grid = level_model.grid
            system = acoustics_system(level_model, boundary)
            src = source_factory(grid, s)
            traj = solve_causal(system, src, config)
            sampler = build_sampler(receivers, "pressure", grid, system.k)
            data = sample_trajectory(sampler, traj).data
            bounds.append(seismogram_derivative_bound(data, grid.dt, s - 1))
            level_model = refine_acoustic_model(level_model, 2)
        per_s_bounds[f"s{s}_derivative_bound"] = tuple(bounds)
        if bounds[0] > 0 and bounds[-1] > bound_slack * bounds[0]:
            passed = False
    return StudyReport(
        name="trace_regularity",
        schedule=tuple(float(s) for s in smoothness_schedule),
        series=per_s_bounds,
        tolerance=bound_slack,
        passed=passed,
        notes=f"{refinements} dt refinements per smoothness class",
    )


def seismogram_derivative_bound(data: np.ndarray, dt: float, order: int) -> float:
    """Max abs of the order-th discrete time derivative of receiver data."""
    out = data
    for _ in range(order):
        out = np.diff(out, axis=-1) / dt
    return float(np.abs(out).max()) if out.size else 0.0
