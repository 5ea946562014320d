"""Trace sampling on hypersurfaces and the forward (data prediction) map.

A sampler is a sparse linear map from state vectors to receiver channels:
multilinear interpolation onto cell centers composed with a per-receiver
weight matrix acting on the state components.  Built-in tags cover the
acoustic traces that extend continuously to the solution space (pressure
and normal velocity); custom weight matrices are accepted with a warning,
since their trace continuity is physics-specific and cannot be vetted
generically.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatchError, InvalidArgumentError, UnsupportedConfigurationError
from .evolution import Trajectory, _midpoint_solve
from .fields import Grid, SourceTerm, read_cells, write_field_array
from .operators import DiscreteSystem

PRESSURE = "pressure"
NORMAL_VELOCITY = "normal_velocity"
CUSTOM = "custom"


@dataclass(frozen=True)
class Sampler:
    """Discrete trace operator: channels = matrix @ state."""

    matrix: sp.csr_matrix
    receivers: np.ndarray
    tag: str
    grid: Grid
    k: int

    @property
    def n_channels(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def gathered(self) -> tuple[np.ndarray, sp.csr_matrix]:
        """The state entries the receivers read, sorted, and ``matrix`` restricted
        to those columns: sampling and its transpose touch only them, so neither
        reads or writes a whole state series."""
        cols = np.unique(self.matrix.indices)
        return cols, self.matrix[:, cols]


@dataclass(frozen=True)
class SeismogramData:
    """Receiver data on the solve's time axis; data is (channels, n_times)."""

    times: np.ndarray
    data: np.ndarray
    receivers: np.ndarray
    tag: str = CUSTOM

    def __post_init__(self):
        if self.data.shape[1] != self.times.size:
            raise InvalidArgumentError("data columns must match the time axis")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def _interp_weights(grid: Grid, point: np.ndarray) -> list[tuple[int, float]]:
    """Multilinear interpolation weights of a point onto cell centers."""
    lows, fracs = [], []
    for a in range(grid.dim):
        lo_center = grid.origin[a] + 0.5 * grid.h[a]
        hi_center = grid.origin[a] + (grid.shape[a] - 0.5) * grid.h[a]
        if point[a] < grid.origin[a] - 1e-12 or point[a] > grid.origin[a] + grid.extent[a] + 1e-12:
            raise InvalidArgumentError(f"receiver at {tuple(point)} lies outside the domain")
        s = (np.clip(point[a], lo_center, hi_center) - lo_center) / grid.h[a]
        i0 = min(int(np.floor(s)), grid.shape[a] - 2)
        lows.append(i0)
        fracs.append(s - i0)
    weights: list[tuple[int, float]] = []
    for corner in range(2**grid.dim):
        idx, w = [], 1.0
        for a in range(grid.dim):
            bit = (corner >> a) & 1
            idx.append(lows[a] + bit)
            w *= fracs[a] if bit else (1.0 - fracs[a])
        if w:
            weights.append((grid.cell_index(idx), w))
    return weights


def build_sampler(
    receivers,
    tag: str,
    grid: Grid,
    k: int,
    normal=None,
    weights: np.ndarray | None = None,
) -> Sampler:
    """Build the trace operator for receivers at physical coordinates.

    ``tag`` selects the component weights: "pressure" reads component 0,
    "normal_velocity" contracts the velocity block with the (shared or
    per-receiver) unit normal, "custom" uses explicit ``weights`` of shape
    (l, k) or (n_receivers, l, k).
    """
    receivers = np.atleast_2d(np.asarray(receivers, dtype=float))
    if receivers.shape[1] != grid.dim:
        raise InvalidArgumentError(f"receivers must have {grid.dim} coordinates each")
    n_rec = receivers.shape[0]

    if tag in (PRESSURE, NORMAL_VELOCITY):
        if k != grid.dim + 1:
            raise UnsupportedConfigurationError(
                f"built-in tag {tag!r} assumes the acoustic state layout (k = dim + 1)"
            )
    if tag == PRESSURE:
        m_rows = np.zeros((n_rec, 1, k))
        m_rows[:, 0, 0] = 1.0
    elif tag == NORMAL_VELOCITY:
        if normal is None:
            raise InvalidArgumentError("normal_velocity sampling needs a normal field")
        normal = np.atleast_2d(np.asarray(normal, dtype=float))
        if normal.ndim != 2 or normal.shape[0] not in (1, n_rec) or normal.shape[1] != grid.dim:
            raise InvalidArgumentError(
                f"normal_velocity needs one normal of {grid.dim} coordinate(s) or one per "
                f"receiver, got shape {normal.shape} for {n_rec} receivers")
        normal = np.broadcast_to(normal, (n_rec, grid.dim))
        norms = np.linalg.norm(normal, axis=1, keepdims=True)
        usable = (norms[:, 0] > 0) & np.isfinite(norms[:, 0])
        if not usable.all():
            raise InvalidArgumentError(
                f"the normal of receiver {int(usable.argmin())} is zero or not finite")
        normal = normal / norms
        m_rows = np.zeros((n_rec, 1, k))
        m_rows[:, 0, 1:] = normal
    elif tag == CUSTOM:
        if weights is None:
            raise InvalidArgumentError("custom sampling needs explicit weight matrices")
        weights = np.asarray(weights, dtype=float)
        if weights.ndim == 2:
            weights = np.broadcast_to(weights, (n_rec, *weights.shape))
        if weights.shape[0] != n_rec or weights.shape[2] != k:
            raise InvalidArgumentError(f"weights must be (n_receivers, l, {k})")
        m_rows = weights
        warnings.warn(
            "custom sampler weights are not vetted for trace continuity on the "
            "solution space; only components with continuous traces are meaningful",
            stacklevel=2,
        )
    else:
        raise InvalidArgumentError(f"unknown sampler tag {tag!r}")

    l = m_rows.shape[1]
    mat = sp.lil_matrix((n_rec * l, grid.state_size(k)))
    for r in range(n_rec):
        cells = _interp_weights(grid, receivers[r])
        for li in range(l):
            row = r * l + li
            for cell, w in cells:
                for comp in range(k):
                    if m_rows[r, li, comp]:
                        mat[row, cell * k + comp] += w * m_rows[r, li, comp]
    return Sampler(matrix=mat.tocsr(), receivers=receivers, tag=tag, grid=grid, k=k)


def apply_sampler(sampler: Sampler, u: np.ndarray) -> np.ndarray:
    if u.shape != (sampler.matrix.shape[1],):
        raise InvalidArgumentError("state length does not match the sampler")
    cols, gathered = sampler.gathered
    return gathered @ u[cols]


def sample_trajectory(sampler: Sampler, traj: Trajectory) -> SeismogramData:
    if traj.grid != sampler.grid:
        raise GridMismatchError("trajectory and sampler grids differ")
    cols, gathered = sampler.gathered
    data = gathered @ traj.states[:, cols].T
    return SeismogramData(times=traj.times, data=np.asarray(data), receivers=sampler.receivers,
                          tag=sampler.tag)


def _sampled_shots(system: DiscreteSystem, sources: list[SourceTerm],
                   sampler: Sampler) -> list[SeismogramData]:
    """The seismograms of one causal solve with ``sources`` as its columns, keeping
    only the sampler's ``gathered`` columns of each state as it steps."""
    if system.grid != sampler.grid:
        raise GridMismatchError("system and sampler grids differ")
    cols, gathered = sampler.gathered
    u0 = np.zeros((system.n_state, len(sources)))
    states = _midpoint_solve(system, sources, u0, None, cols)
    return [SeismogramData(times=system.grid.times(), data=gathered @ shot.T,
                           receivers=sampler.receivers, tag=sampler.tag)
            for shot in np.moveaxis(states, 2, 0)]


def _warn_if_rough(source: SourceTerm) -> None:
    if source.smoothness < 2:
        warnings.warn("source wavelet declares fewer than two continuous derivatives; the "
                      "forward map is continuous but not differentiable there", stacklevel=3)


def forward_map(
    system: DiscreteSystem,
    source: SourceTerm,
    sampler: Sampler,
) -> SeismogramData:
    """The data-prediction map: causal solve composed with the trace operator.  It is
    ``sample_trajectory`` of ``solve_causal``, bit for bit, keeping only the sampler's
    ``gathered`` columns of each state as it steps."""
    _warn_if_rough(source)
    return _sampled_shots(system, [source], sampler)[0]


def forward_map_shots(
    system: DiscreteSystem,
    sources: list[SourceTerm],
    sampler: Sampler,
    jobs: int = 1,
) -> list[SeismogramData]:
    """``forward_map`` of every source, in source order and bit for bit: the shots
    step together as the columns of one solve, with one ``lu.solve`` per step.
    ``jobs`` changes nothing; it stays only while perfbench's forward workload passes it."""
    for source in sources:
        _warn_if_rough(source)
    return _sampled_shots(system, sources, sampler) if sources else []


def gathered_adjoint_source(sampler: Sampler, residual: SeismogramData | np.ndarray) -> np.ndarray:
    """Transpose of the sampling map applied per step, at the sampler's
    ``gathered`` columns only: (n_times, n_columns)."""
    data = residual.data if isinstance(residual, SeismogramData) else np.asarray(residual)
    if data.shape[0] != sampler.n_channels:
        raise InvalidArgumentError("residual channel count does not match the sampler")
    return np.ascontiguousarray((sampler.gathered[1].T @ data).T)


def sampler_adjoint_source(sampler: Sampler, residual: SeismogramData | np.ndarray) -> np.ndarray:
    """Transpose of the sampling map applied per step: (n_times, n_state)."""
    values = gathered_adjoint_source(sampler, residual)
    out = np.zeros((len(values), sampler.matrix.shape[1]))
    out[:, sampler.gathered[0]] = values
    return out


# ---------------------------------------------------------------------------
# seismogram IO
# ---------------------------------------------------------------------------


def save_seismogram_csv(seis: SeismogramData, path) -> None:
    with open(path, "w") as fh:
        header = ",".join(f"ch{j}" for j in range(seis.data.shape[0]))
        fh.write(f"t,{header}\n")
        for i, t in enumerate(seis.times):
            row = ",".join(f"{v:.17g}" for v in seis.data[:, i])
            fh.write(f"{t:.17g},{row}\n")


def load_seismogram_csv(path) -> SeismogramData:
    with warnings.catch_warnings():  # an empty table is named below
        warnings.simplefilter("ignore", UserWarning)
        raw = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    if raw.shape[0] < 1 or raw.shape[1] < 2:
        raise InvalidArgumentError(f"{path}: no rows of a time and at least one channel")
    times = raw[:, 0]
    data = raw[:, 1:].T
    return SeismogramData(times=times, data=data, receivers=np.zeros((data.shape[0], 1)))


def save_seismogram_binary(seis: SeismogramData, basepath: str) -> None:
    """Binary frames in the fields format (cells = time steps, k = channels)
    plus a JSON sidecar carrying the time axis and receiver positions.
    """
    write_field_array(f"{basepath}.rwf", (seis.times.size,), seis.data.shape[0], seis.data.T)
    sidecar = {
        "times": seis.times.tolist(),
        "receivers": seis.receivers.tolist(),
        "tag": seis.tag,
    }
    with open(f"{basepath}.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def load_seismogram_binary(basepath: str) -> SeismogramData:
    with open(f"{basepath}.json") as fh:
        sidecar = json.load(fh)
    times = np.asarray(sidecar["times"])
    return SeismogramData(
        times=times,
        data=read_cells(f"{basepath}.rwf", (times.size,)).T,
        receivers=np.asarray(sidecar["receivers"]),
        tag=sidecar.get("tag", CUSTOM),
    )


def load_observed_data(path: str) -> SeismogramData:
    """Observed-data import in either supported format (by extension), finite samples only."""
    base = str(path)
    seis = (load_seismogram_csv(base) if base.endswith(".csv")
            else load_seismogram_binary(base.removesuffix(".rwf")))
    bad = np.argwhere(~np.isfinite(seis.data))
    if bad.size:
        raise InvalidArgumentError(
            "{}: non-finite sample at channel {}, time index {}".format(base, *bad[0]))
    return seis
