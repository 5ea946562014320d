"""Grids, coefficient fields, sources, and measure-theoretic utilities.

Coefficients are piecewise constant: one symmetric k-by-k matrix per grid
cell for the principal part ``a``, one (general) k-by-k matrix per cell for
the lower-order part ``b``, and a causal matrix-valued relaxation kernel
``q(t)`` per cell, a Prony sum or tabulated; ``PronyKernel()``, the sum with
no terms, is q = 0.  Cells are flattened in C order; a state vector of width
k on a grid with ``n`` cells is a flat float64 array of length ``n * k``
whose ``(cell, component)`` view is ``u.reshape(n, k)``.

The mollifier is a tensor-product triangular (hat) kernel, wrapped on a
periodic grid and mirrored at the walls otherwise; convolving with it is a
convex per-cell average, so symmetry and spectral bounds of ``a`` survive.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError, InvalidCoefficientError

_MAGIC = b"RWF1"


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid over a box, plus the time axis.

    ``shape`` holds cells per axis, ``h`` the cell size per axis, ``dt``
    the time step and ``n_steps`` the number of steps (so there are
    ``n_steps + 1`` time levels including t = 0).
    """

    dim: int
    shape: tuple[int, ...]
    h: tuple[float, ...]
    dt: float
    n_steps: int
    origin: tuple[float, ...]

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise InvalidArgumentError(f"dim must be 1, 2 or 3, got {self.dim}")
        if len(self.shape) != self.dim or len(self.h) != self.dim:
            raise InvalidArgumentError("shape/h length must equal dim")
        if any(n < 2 for n in self.shape):
            raise InvalidArgumentError(f"need at least 2 cells per axis, got {self.shape}")
        if any(hh <= 0 for hh in self.h) or self.dt <= 0 or self.n_steps < 1:
            raise InvalidArgumentError("cell sizes, dt and n_steps must be positive")

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    @property
    def extent(self) -> tuple[float, ...]:
        return tuple(n * hh for n, hh in zip(self.shape, self.h))

    def state_size(self, k: int) -> int:
        return self.n_cells * k

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def axis_centers(self, axis: int) -> np.ndarray:
        n, hh, o = self.shape[axis], self.h[axis], self.origin[axis]
        return o + hh * (np.arange(n) + 0.5)

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, shape (n_cells, dim), C-order flattening."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def cell_index(self, multi: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(multi), self.shape))

    def nearest_cell(self, point: Sequence[float]) -> int:
        """Flat index of the cell whose center is nearest to ``point``."""
        idx = []
        for a in range(self.dim):
            s = (point[a] - self.origin[a]) / self.h[a] - 0.5
            idx.append(int(np.clip(round(s), 0, self.shape[a] - 1)))
        return self.cell_index(idx)

    def refined(self, factor: int = 2) -> "Grid":
        """Same box and final time, ``factor``-times finer in space and time."""
        return Grid(
            dim=self.dim,
            shape=tuple(n * factor for n in self.shape),
            h=tuple(hh / factor for hh in self.h),
            dt=self.dt / factor,
            n_steps=self.n_steps * factor,
            origin=self.origin,
        )


def build_grid(
    dim: int,
    cells_per_axis: Sequence[int],
    extent: float | Sequence[float],
    dt: float,
    t_end: float,
    origin: float | Sequence[float] = 0.0,
) -> Grid:
    """Build a grid covering a box of the given extent up to time ``t_end``.

    ``n_steps = ceil(t_end / dt)`` and ``cell_size = extent / cells`` per axis.
    """
    cells = tuple(int(c) for c in cells_per_axis)
    if len(cells) != dim:
        raise InvalidArgumentError(f"expected {dim} cell counts, got {len(cells)}")
    if any(c < 2 for c in cells):
        raise InvalidArgumentError(f"cells per axis must be >= 2, got {cells}")
    ext = tuple(float(e) for e in (extent if np.iterable(extent) else [extent] * dim))
    if len(ext) != dim or any(e <= 0 for e in ext):
        raise InvalidArgumentError("extent must be positive per axis")
    if dt <= 0 or t_end <= 0:
        raise InvalidArgumentError("dt and t_end must be positive")
    org = tuple(float(o) for o in (origin if np.iterable(origin) else [origin] * dim))
    n_steps = int(np.ceil(t_end / dt - 1e-12))
    return Grid(
        dim=dim,
        shape=cells,
        h=tuple(e / c for e, c in zip(ext, cells)),
        dt=float(dt),
        n_steps=n_steps,
        origin=org,
    )


# ---------------------------------------------------------------------------
# memory kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PronyKernel:
    """q(t) = sum_j c_j exp(-t / tau_j) for t >= 0, with per-cell symmetric
    weight matrices c_j of shape (n_cells, k, k) and relaxation times tau_j > 0.
    ``PronyKernel()``, the sum with no terms, is q = 0: no memory.
    """

    weights: tuple[np.ndarray, ...] = ()
    taus: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.weights) != len(self.taus):
            raise InvalidArgumentError("one weight array per relaxation time required")
        if any(t <= 0 for t in self.taus):
            raise InvalidArgumentError(f"relaxation times must be positive, got {self.taus}")
        for j, w in enumerate(self.weights):
            _require_symmetric(w, f"Prony weight {j}")

    @property
    def n_terms(self) -> int:
        return len(self.taus)


@dataclass(frozen=True)
class TabulatedKernel:
    """q sampled on a uniform time grid starting at t = 0.

    ``samples`` has shape (n_times, n_cells, k, k); each sample symmetric.
    """

    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise InvalidArgumentError("tabulated kernel needs at least two samples")
        if abs(t[0]) > 0:
            raise InvalidArgumentError("first tabulated sample must sit at t = 0")
        dts = np.diff(t)
        if not np.allclose(dts, dts[0], rtol=1e-10, atol=0):
            raise InvalidArgumentError("tabulated kernel samples must be uniformly spaced")
        if self.samples.shape[0] != t.size:
            raise InvalidArgumentError("samples/times length mismatch")
        _require_symmetric(self.samples, "tabulated kernel sample")


MemoryKernel = PronyKernel | TabulatedKernel


def require_kernel(kernel, name: str = "kernel") -> None:
    """Reject anything but a memory kernel; ``PronyKernel()`` is the zero kernel."""
    if not isinstance(kernel, MemoryKernel):
        raise InvalidCoefficientError(f"{name} must be a PronyKernel or a TabulatedKernel "
                                      f"(PronyKernel() for no memory), got {kernel!r}")


def kernel_values(kernel: MemoryKernel, times: np.ndarray, n_cells: int, k: int) -> np.ndarray:
    """Evaluate q(t) on the given times; shape (n_times, n_cells, k, k).

    Tabulated kernels are linearly interpolated (zero beyond the last sample,
    zero for t < 0 by causality).
    """
    times = np.asarray(times, dtype=float)
    out = np.zeros((times.size, n_cells, k, k))
    if isinstance(kernel, PronyKernel):
        for w, tau in zip(kernel.weights, kernel.taus):
            decay = np.where(times >= 0, np.exp(-np.maximum(times, 0.0) / tau), 0.0)
            out += decay[:, None, None, None] * w[None]
        return out
    tk = np.asarray(kernel.times, dtype=float)
    flat = kernel.samples.reshape(tk.size, -1)
    inside = (times >= 0) & (times <= tk[-1])
    t = times[inside]
    j = np.minimum(np.floor(t / (tk[1] - tk[0])).astype(int), tk.size - 2)
    w = ((t - tk[j]) / (tk[j + 1] - tk[j]))[:, None]
    out[inside] = ((1 - w) * flat[j] + w * flat[j + 1]).reshape(-1, n_cells, k, k)
    return out


# the largest miss of ``prony_fit`` on its grid, relative to the kernel's peak: the fits of
# the tabulated kernels of the test suite miss by at most 3.0e-3
PRONY_FIT_BOUND = 1e-2


def prony_fit(kernel: TabulatedKernel, dt: float, horizon: float) -> PronyKernel:
    """The Prony kernel that a least-squares fit gives for a tabulated kernel read up to
    ``horizon`` by steps of ``dt``, as the trapezoid rule reads it: linearly
    interpolated, zero past the last sample.

    The fit grid is uniform with spacing h, the sample spacing or dt / 2 if that is
    coarser (the trapezoid reads q only at multiples of dt / 2), continued with zeros
    to the first point at or past ``horizon``, of length T; so it has at most
    2 horizon / dt + 2 points however finely the kernel is sampled.  Its relaxation
    times are log-spaced from h to 4 T, five per decade, and shared by every cell
    entry: one product of all columns with the design's pseudo-inverse, whose
    singular values below 1e-6 of the largest are dropped (that keeps the weights
    within a few hundred times the peak).  A fit that misses the grid by more than
    ``PRONY_FIT_BOUND`` of the kernel's peak is an error that names the worst cell.
    """
    h = max(float(kernel.times[1] - kernel.times[0]), 0.5 * dt)
    times = h * np.arange(max(2, int(np.ceil(horizon / h - 1e-9)) + 1))
    _, n_cells, k, _ = kernel.samples.shape
    target = kernel_values(kernel, times, n_cells, k).reshape(times.size, -1)
    peak = max(float(target.max()), -float(target.min()), np.finfo(float).tiny)
    longest = 4.0 * times[-1]
    taus = np.geomspace(h, longest, int(np.ceil(5 * np.log10(longest / h))) + 1)
    design = np.exp(-times[:, None] / taus)
    fit = np.linalg.pinv(design, rcond=1e-6) @ target
    target -= design @ fit  # the miss, in place
    miss = np.abs(target, out=target).reshape(times.size, n_cells, -1).max(axis=(0, 2)) / peak
    fit = fit.reshape(taus.size, n_cells, k, k)
    if miss.max() > PRONY_FIT_BOUND:
        raise InvalidCoefficientError(
            f"the Prony fit of the tabulated kernel misses it by {miss.max():.2e} of its peak "
            f"in cell {int(miss.argmax())} (bound {PRONY_FIT_BOUND:g})")
    # the columns of q_ij and q_ji are one target; the mean makes each weight exactly symmetric
    return PronyKernel(weights=tuple(0.5 * (fit + fit.swapaxes(2, 3))), taus=tuple(taus.tolist()))


def kernel_l1_bound(kernel: MemoryKernel) -> float:
    """Upper bound on the L1-in-time norm of the per-cell operator norm of q."""
    if isinstance(kernel, PronyKernel):
        total = 0.0
        for w, tau in zip(kernel.weights, kernel.taus):
            norms = np.linalg.norm(w, ord=2, axis=(1, 2))
            total += tau * float(norms.max())
        return total
    norms = np.linalg.norm(kernel.samples, ord=2, axis=(2, 3)).max(axis=1)
    return float(np.trapezoid(norms, kernel.times))


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------


def _require_symmetric(arr: np.ndarray, what: str) -> None:
    asym = np.abs(arr - np.swapaxes(arr, -1, -2))
    if asym.size and asym.max() > 1e-12 * max(1.0, float(np.abs(arr).max())):
        entry = int(asym.max(axis=(-1, -2)).argmax())
        raise InvalidCoefficientError(f"{what} is not symmetric (worst block at flat index {entry})")


@dataclass(frozen=True)
class CoefficientField:
    """Per-cell coefficients (a, b, q) of a symmetric hyperbolic system.

    ``a`` is symmetric with eigenvalues in [c_lo, c_hi] in every cell, ``b``
    has per-cell operator norm at most c_b, and the kernel's L1 bound is at
    most c_q.  Bounds are derived from the data when not supplied.
    """

    grid: Grid
    k: int
    a: np.ndarray
    b: np.ndarray | None = None
    kernel: MemoryKernel = field(default_factory=PronyKernel)
    c_lo: float | None = None
    c_hi: float | None = None
    c_b: float | None = None
    c_q: float | None = None

    def __post_init__(self):
        n = self.grid.n_cells
        if self.a.shape != (n, self.k, self.k):
            raise InvalidCoefficientError(
                f"a must have shape {(n, self.k, self.k)}, got {self.a.shape}"
            )
        _require_symmetric(self.a, "coefficient a")
        eigs = np.linalg.eigvalsh(self.a)
        lo, hi = float(eigs.min()), float(eigs.max())
        if lo <= 0:
            cell = int(np.argmin(eigs.min(axis=1)))
            raise InvalidCoefficientError(
                f"a must be positive definite; eigenvalue {lo:.3e} in cell {cell}"
            )
        tol = 1e-12 * max(1.0, hi)
        if self.c_lo is None:
            object.__setattr__(self, "c_lo", lo)
        elif lo < self.c_lo - tol:
            cell = int(np.argmin(eigs.min(axis=1)))
            raise InvalidCoefficientError(
                f"a violates lower bound {self.c_lo} in cell {cell} (eigenvalue {lo:.6g})"
            )
        if self.c_hi is None:
            object.__setattr__(self, "c_hi", hi)
        elif hi > self.c_hi + tol:
            cell = int(np.argmax(eigs.max(axis=1)))
            raise InvalidCoefficientError(
                f"a violates upper bound {self.c_hi} in cell {cell} (eigenvalue {hi:.6g})"
            )
        if self.b is not None:
            if self.b.shape != (n, self.k, self.k):
                raise InvalidCoefficientError(
                    f"b must have shape {(n, self.k, self.k)}, got {self.b.shape}"
                )
            bnorm = float(np.linalg.norm(self.b, ord=2, axis=(1, 2)).max())
            if self.c_b is None:
                object.__setattr__(self, "c_b", bnorm)
            elif bnorm > self.c_b + 1e-12 * max(1.0, bnorm):
                raise InvalidCoefficientError(f"b operator norm {bnorm:.6g} exceeds bound {self.c_b}")
        elif self.c_b is None:
            object.__setattr__(self, "c_b", 0.0)
        require_kernel(self.kernel)
        qb = kernel_l1_bound(self.kernel)
        if self.c_q is None:
            object.__setattr__(self, "c_q", qb)
        elif qb > self.c_q + 1e-12 * max(1.0, qb):
            raise InvalidCoefficientError(f"kernel L1 bound {qb:.6g} exceeds {self.c_q}")


def _hat_weights(half_width: int) -> np.ndarray:
    j = np.arange(-half_width, half_width + 1)
    w = (half_width + 1 - np.abs(j)).astype(float)
    return w / w.sum()


def _mollify_array(arr: np.ndarray, grid: Grid, n: int, boundary: str) -> np.ndarray:
    """Tensor-product hat smoothing of a per-cell array (see ``mollify_field``).  An
    entry that is zero in every cell (the off-diagonal of a diagonal block) smooths to
    +0.0, so only the other entries are summed."""
    spatial = arr.reshape(*grid.shape, -1)
    axes = [axis for axis in range(grid.dim) if grid.shape[axis] // n]
    if not axes:
        return arr
    live = spatial.any(axis=tuple(range(grid.dim)))
    mode = "wrap" if boundary == "periodic" else "symmetric"
    part = spatial[..., live]
    for axis in axes:
        size, half = grid.shape[axis], grid.shape[axis] // n
        pad = [(half, half) if a == axis else (0, 0) for a in range(part.ndim)]
        padded = np.pad(part, pad, mode=mode)
        acc = np.zeros_like(part)
        for off, wj in zip(range(-half, half + 1), _hat_weights(half)):
            acc += wj * padded[(slice(None),) * axis + (slice(half - off, half - off + size),)]
        part = acc
    out = np.zeros_like(spatial)
    out[..., live] = part
    return out.reshape(arr.shape)


def mollify_field(f: CoefficientField, n: int, boundary: str = "periodic") -> CoefficientField:
    """Smooth a field with a unit-mass hat kernel of radius ~ 1/n.

    The half-width in cells is ``floor(N_axis / n)`` per axis, so once the
    radius drops below one cell the operation is the identity on the
    per-cell representation.  Each axis is padded by the half-width, wrapped
    on a ``"periodic"`` grid and mirrored at the walls on any other boundary,
    so no average reaches across a wall.  Convex averaging preserves
    symmetry and the spectral bounds of ``a`` exactly.
    """
    if n < 1:
        raise InvalidArgumentError(f"mollification index must be >= 1, got {n}")
    a = _mollify_array(f.a, f.grid, n, boundary)
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    b = None if f.b is None else _mollify_array(f.b, f.grid, n, boundary)
    kernel = f.kernel
    if isinstance(kernel, PronyKernel):
        kernel = PronyKernel(
            weights=tuple(_mollify_array(w, f.grid, n, boundary) for w in kernel.weights),
            taus=kernel.taus,
        )
    else:
        sm = np.stack([_mollify_array(s, f.grid, n, boundary) for s in kernel.samples])
        kernel = TabulatedKernel(times=kernel.times, samples=sm)
    return CoefficientField(
        grid=f.grid, k=f.k, a=a, b=b, kernel=kernel,
        c_lo=f.c_lo, c_hi=f.c_hi, c_b=f.c_b, c_q=f.c_q,
    )


def measure_distance(f1: CoefficientField, f2: CoefficientField, eps: float, part: str = "a") -> float:
    """Total cell volume where two fields differ by more than ``eps``.

    The per-cell deviation is the entrywise max-norm of the difference of
    the chosen part: ``a`` and ``b`` directly, ``q`` through the time
    integral of |q1 - q2| over the grid's time horizon (the quantity whose
    shrinking volume defines kernel convergence in measure).
    """
    if f1.grid != f2.grid or f1.k != f2.k:
        raise GridMismatchError("fields must share grid and state width")
    if eps <= 0:
        raise InvalidArgumentError("eps must be positive")
    if part == "a":
        dev = np.abs(f1.a - f2.a).max(axis=(1, 2))
    elif part == "b":
        b1 = f1.b if f1.b is not None else np.zeros_like(f1.a)
        b2 = f2.b if f2.b is not None else np.zeros_like(f2.a)
        dev = np.abs(b1 - b2).max(axis=(1, 2))
    elif part == "q":
        times = f1.grid.times()
        q1 = kernel_values(f1.kernel, times, f1.grid.n_cells, f1.k)
        q2 = kernel_values(f2.kernel, times, f2.grid.n_cells, f2.k)
        integ = np.trapezoid(np.abs(q1 - q2), times, axis=0)
        dev = integ.max(axis=(1, 2))
    else:
        raise InvalidArgumentError(f"unknown part {part!r}; expected 'a', 'b' or 'q'")
    return float(np.count_nonzero(dev > eps) * f1.grid.cell_volume)


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceTerm:
    """Separable right-hand side f(x, t) = footprint(x) * wavelet(t).

    The wavelet is causal (zero before ``onset``) and declares its temporal
    smoothness class ``smoothness`` (number of continuous derivatives of the
    analytic form; not checked numerically).
    """

    grid: Grid
    k: int
    footprint: np.ndarray
    wavelet: Callable[[float], float]
    onset: float = 0.0
    smoothness: int = 2

    def __post_init__(self):
        if self.footprint.shape != (self.grid.state_size(self.k),):
            raise InvalidArgumentError("footprint must be a flat state-sized vector")
        if self.smoothness < 1:
            raise InvalidArgumentError("declared smoothness must be >= 1")

    def evaluate(self, t: float, footprint: np.ndarray | None = None) -> np.ndarray:
        """f(t); given ``footprint``, this source's footprint gathered at some rows,
        f(t) at those rows."""
        footprint = self.footprint if footprint is None else footprint
        if t < self.onset:
            return np.zeros_like(footprint)
        return float(self.wavelet(np.float64(t))) * footprint


def _make_footprint(grid: Grid, k: int, center, component: int, width: float | None) -> np.ndarray:
    center = tuple(float(c) for c in (center if np.iterable(center) else [center]))
    if len(center) != grid.dim:
        raise InvalidArgumentError(f"center must have {grid.dim} coordinates")
    foot = np.zeros((grid.n_cells, k))
    if width is None:
        foot[grid.nearest_cell(center), component] = 1.0
    else:
        r2 = ((grid.centers() - np.asarray(center)) ** 2).sum(axis=1)
        foot[:, component] = np.exp(-0.5 * r2 / width**2)
    return foot.ravel()


def ricker_wavelet(t, peak_frequency: float, peak_time: float):
    """Ricker (Mexican-hat) pulse: (1 - 2 (pi f tau)^2) exp(-(pi f tau)^2)."""
    arg = (np.pi * peak_frequency * (np.asarray(t, dtype=float) - peak_time)) ** 2
    return (1.0 - 2.0 * arg) * np.exp(-arg)


def make_ricker_source(
    grid: Grid,
    k: int,
    center,
    peak_frequency: float,
    onset: float = 0.0,
    amplitude: float = 1.0,
    component: int = 0,
    delay: float | None = None,
    footprint_width: float | None = None,
) -> SourceTerm:
    """Causal Ricker source at ``center`` acting on one state component.

    The pulse peaks ``delay`` after onset (default 1.5 periods, which makes
    the gated amplitude at onset ~1e-10 of the peak, so causality is exact
    while smoothness is preserved to round-off).
    """
    if peak_frequency <= 0:
        raise InvalidArgumentError("peak frequency must be positive")
    if onset < 0:
        raise InvalidArgumentError("onset must be >= 0")
    t_peak = onset + (1.5 / peak_frequency if delay is None else delay)
    foot = amplitude * _make_footprint(grid, k, center, component, footprint_width)
    return SourceTerm(
        grid=grid, k=k, footprint=foot,
        wavelet=lambda t: ricker_wavelet(t, peak_frequency, t_peak),
        onset=onset, smoothness=8,
    )


def make_burst_source(
    grid: Grid,
    k: int,
    center,
    frequency: float,
    smoothness: int,
    onset: float = 0.0,
    amplitude: float = 1.0,
    component: int = 0,
    footprint_width: float | None = None,
) -> SourceTerm:
    """One-cycle sine-power burst with exactly ``smoothness`` continuous
    derivatives: w(t) = sin^(s+1)(pi (t - onset) f) on one period, 0 outside.
    """
    if frequency <= 0:
        raise InvalidArgumentError("frequency must be positive")
    if smoothness < 1:
        raise InvalidArgumentError("smoothness must be >= 1")
    duration = 1.0 / frequency
    power = smoothness + 1

    def wavelet(t):
        t = np.asarray(t, dtype=float)
        phase = (t - onset) / duration
        inside = (phase >= 0) & (phase <= 1)
        return np.where(inside, np.sin(np.pi * np.clip(phase, 0, 1)) ** power, 0.0)

    foot = amplitude * _make_footprint(grid, k, center, component, footprint_width)
    return SourceTerm(grid=grid, k=k, footprint=foot, wavelet=wavelet,
                      onset=onset, smoothness=smoothness)


# ---------------------------------------------------------------------------
# flat binary field format ("RWF1") and the JSON grid and kernel codecs
# ---------------------------------------------------------------------------


def write_field_array(path, grid: Grid | Sequence[int], k: int, payload: np.ndarray) -> None:
    """Write a per-cell array in the flat binary format.

    Header: magic "RWF1", then dim, k and cells per axis as little-endian
    int64; payload row-major float64 (leading axis = flattened cells).
    ``grid`` may also be bare cells per axis: a seismogram is written with
    cells ``(n_times,)``, one row per time step.
    """
    cells = grid.shape if isinstance(grid, Grid) else tuple(grid)
    payload = np.ascontiguousarray(payload, dtype="<f8")
    if payload.shape[0] != int(np.prod(cells)):
        raise InvalidArgumentError("payload leading axis must equal the cell count")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack(f"<{2 + len(cells)}q", len(cells), k, *cells))
        fh.write(payload.tobytes())


def read_field_array(path, grid: Grid | Sequence[int] | None = None,
                     k: int | None = None) -> tuple[int, int, tuple[int, ...], np.ndarray]:
    """Read an RWF1 file; returns (dim, k, cells_per_axis, flat payload).

    Raises InvalidArgumentError naming the file when the header is cut short,
    the payload is not a whole number of k-wide rows per cell, or the header
    differs from the expected ``grid`` (or bare cells per axis) and ``k``.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    dim, width = struct.unpack_from("<2q", raw, 4) if len(raw) >= 20 else (0, 0)
    if raw[:4] != _MAGIC or not 1 <= dim <= 3 or width < 1 or len(raw) < 20 + 8 * dim:
        raise InvalidArgumentError(f"{path} is not an RWF1 field file (or its header is cut short)")
    shape = struct.unpack_from(f"<{dim}q", raw, 20)
    payload = raw[20 + 8 * dim:]
    cells = shape if grid is None else grid.shape if isinstance(grid, Grid) else tuple(grid)
    if (shape != cells or (k is not None and width != k) or min(shape) < 1
            or len(payload) % (8 * width * int(np.prod(shape)))):
        raise InvalidArgumentError(f"{path}: header (cells {shape}, k = {width}) and "
                                   f"{len(payload)} payload bytes do not fit cells {cells}, k = {k}")
    return dim, width, shape, np.frombuffer(payload, dtype="<f8")


def read_cells(path, grid: Grid | Sequence[int], k: int | None = None,
               per_cell: Sequence[int] | None = None) -> np.ndarray:
    """The checked payload of ``read_field_array(path, grid, k)``, shaped
    (n_cells, *per_cell); ``per_cell`` defaults to (k,) and must fit exactly.
    """
    _, width, shape, data = read_field_array(path, grid, k)
    per_cell = (width,) if per_cell is None else tuple(per_cell)
    n = int(np.prod(shape))
    if data.size != n * int(np.prod(per_cell)):
        raise InvalidArgumentError(f"{path}: {data.size // n} values per cell, expected {per_cell}")
    return data.reshape(n, *per_cell)


def grid_metadata(grid: Grid) -> dict:
    """The JSON form of a grid in every manifest and sidecar."""
    return {"dim": grid.dim, "cells": list(grid.shape), "h": list(grid.h),
            "origin": list(grid.origin), "dt": grid.dt, "n_steps": grid.n_steps}


def grid_from_metadata(meta: dict) -> Grid:
    return Grid(dim=meta["dim"], shape=tuple(meta["cells"]), h=tuple(meta["h"]),
                dt=meta["dt"], n_steps=meta["n_steps"], origin=tuple(meta["origin"]))


def save_kernel(kernel: MemoryKernel, basepath: str, stem: str, grid: Grid,
                width: int) -> dict:
    """Write a kernel's per-cell files and return its JSON spec: Prony weight
    j in ``{basepath}_{stem}{j}.rwf``, tabulated samples in
    ``{basepath}_{stem}.rwf`` as per-cell (n_times, width, width) rows.  The
    Prony sum with no terms writes no file and the spec ``{"type": "zero"}``.
    """
    if isinstance(kernel, TabulatedKernel):
        write_field_array(f"{basepath}_{stem}.rwf", grid, width, np.moveaxis(kernel.samples, 0, 1))
        return {"type": "tabulated", "times": kernel.times.tolist()}
    if not kernel.n_terms:
        return {"type": "zero"}
    for j, w in enumerate(kernel.weights):
        write_field_array(f"{basepath}_{stem}{j}.rwf", grid, width, w)
    return {"type": "prony", "taus": list(kernel.taus)}


def load_kernel(spec: dict, basepath: str, stem: str, grid: Grid, width: int) -> MemoryKernel:
    """Inverse of ``save_kernel``."""
    kind = spec.get("type", "zero")
    if kind == "prony":
        weights = [read_cells(f"{basepath}_{stem}{j}.rwf", grid, width, (width, width))
                   for j in range(len(spec["taus"]))]
        return PronyKernel(weights=tuple(weights), taus=tuple(spec["taus"]))
    if kind == "tabulated":
        times = np.asarray(spec["times"])
        rows = read_cells(f"{basepath}_{stem}.rwf", grid, width, (times.size, width, width))
        return TabulatedKernel(times=times, samples=np.moveaxis(rows, 1, 0))
    if kind != "zero":
        raise InvalidArgumentError(f"{basepath}.json: unknown kernel type {kind!r}")
    return PronyKernel()


def save_coefficient_field(f: CoefficientField, basepath: str) -> None:
    """Write a field as RWF1 binaries plus a human-readable JSON sidecar."""
    write_field_array(f"{basepath}_a.rwf", f.grid, f.k, f.a)
    sidecar = {
        **grid_metadata(f.grid),
        "k": f.k,
        "bounds": {"c_lo": f.c_lo, "c_hi": f.c_hi, "c_b": f.c_b, "c_q": f.c_q},
        "units": {"a": "dimensionless", "length": "domain units", "time": "domain units"},
        "parts": ["a"],
        "kernel": save_kernel(f.kernel, basepath, "q", f.grid, f.k),
    }
    if f.b is not None:
        write_field_array(f"{basepath}_b.rwf", f.grid, f.k, f.b)
        sidecar["parts"].append("b")
    with open(f"{basepath}.json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def load_coefficient_field(basepath: str) -> CoefficientField:
    with open(f"{basepath}.json") as fh:
        sidecar = json.load(fh)
    grid, k = grid_from_metadata(sidecar), sidecar["k"]
    a = read_cells(f"{basepath}_a.rwf", grid, k, (k, k))
    b = read_cells(f"{basepath}_b.rwf", grid, k, (k, k)) if "b" in sidecar["parts"] else None
    bounds = sidecar["bounds"]
    return CoefficientField(
        grid=grid, k=k, a=a, b=b, kernel=load_kernel(sidecar["kernel"], basepath, "q", grid, k),
        c_lo=bounds["c_lo"], c_hi=bounds["c_hi"], c_b=bounds["c_b"], c_q=bounds["c_q"],
    )

