"""Mass, spatial and memory terms of the discrete system, and its midpoint step.

The spatial operator uses centered differences from one builder.  With
periodic wrap the difference matrix along each axis is an antisymmetric
circulant; with the acoustic pressure-release closure a ghost cell past each
wall mirrors the edge value, with its sign flipped in the pressure column
(read by the velocity rows) and kept in the velocity columns (read by the
pressure row), which makes the two one-sided difference matrices exact
negative transposes of each other.
Either way the assembled operator satisfies <Pu, v> = -<u, Pv> to the
last bit, which is what the discrete energy argument needs.

A system holds a, b and the memory kernel q as per-cell blocks, whose product
with states is ``block_apply``, and the stencil as one matrix.  Its kernel is
a Prony sum, ``PronyKernel()`` (no terms) for no memory; a sampled kernel is
fitted by ``fields.prony_fit`` before any system sees it.  Prony kernels
convolve by an O(1)-per-step recursion that is exact for
piecewise-linear input, and ``memory_series`` is the one grid-time
convolution, yielded one time row at a time, each the ``memory_row`` of a
carry.  ``prony_advance`` is the one recursion step, over all terms' states
stacked as one (n_terms, n_state) array.  ``StepOperators`` holds the
midpoint scheme's whole-step and half-step weight triples and the one sparse
matrix that forms a step's right-hand side from u_n and the stacked Prony
states.  The convolution, the
step residuals and the linearized forcing read the one rerun of the
recursion over state rows, ``replay_carries``, which streams the carries a
solve steps.

The step matrix falls apart into connected components when nothing couples
them.  On a periodic grid with an even cell count per axis the centered
stencil couples a cell's pressure only to velocities of its neighbours, so C
splits into 2^dim parity classes, as long as the cell blocks keep a cell's
classes apart (scalar kappa and rho do; the acoustic mass, b and Prony
blocks are diagonal).  The acoustic_free closure couples a wall cell's
pressure to its own velocity and joins the classes, and so does an odd
count on an axis (the wrap joins its two parities).  In 1D ``StepFactor``
factors each component when a solve first reaches it; in 2D and 3D the step
matrix is factored as a whole (see ``StepOperators``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    InvalidCoefficientError,
    UnsupportedConfigurationError,
)
from .fields import CoefficientField, Grid, PronyKernel, require_kernel


def block_diagonal(blocks: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal sparse matrix from per-cell (n, k, k) blocks, storing only their nonzeros."""
    n, k, _ = blocks.shape
    cell, i, j = np.nonzero(blocks)
    return sp.csr_matrix((blocks[cell, i, j], (cell * k + i, cell * k + j)), shape=(n * k, n * k))


def block_apply(blocks: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-cell products of (n_cells, k, k) blocks with states of shape (..., n_cells * k)."""
    n, k, _ = blocks.shape
    return np.einsum("cij,scj->sci", blocks, u.reshape(-1, n, k)).reshape(u.shape)


def assemble_mass(f: CoefficientField) -> np.ndarray:
    """The mass blocks of a field: its a, checked symmetric positive definite.

    Raises if any cell block fails symmetry or positive definiteness,
    naming the cell.
    """
    asym = np.abs(f.a - np.swapaxes(f.a, 1, 2)).max(axis=(1, 2))
    if asym.max() > 1e-12 * max(1.0, float(np.abs(f.a).max())):
        raise InvalidCoefficientError(f"non-symmetric mass block in cell {int(asym.argmax())}")
    mins = np.linalg.eigvalsh(f.a).min(axis=1)
    if mins.min() <= 0:
        raise InvalidCoefficientError(
            f"non-SPD mass block in cell {int(mins.argmin())} (eigenvalue {mins.min():.3e})"
        )
    return f.a


def assemble_damping(f: CoefficientField) -> np.ndarray | None:
    """The damping blocks of a field: its b, or None when b is absent or zero."""
    return f.b if f.b is not None and np.abs(f.b).max() > 0 else None


def energy(a_blocks: np.ndarray, cell_volume: float, u: np.ndarray) -> float:
    """Quadratic energy E = (1/2) <u, A u> in the volume-weighted inner product."""
    n, k, _ = a_blocks.shape
    if u.shape != (n * k,):
        raise InvalidArgumentError(f"state length {u.shape} does not match {n * k}")
    return 0.5 * cell_volume * float(u @ block_apply(a_blocks, u))


# ---------------------------------------------------------------------------
# skew-symmetric spatial operator
# ---------------------------------------------------------------------------

PERIODIC = "periodic"
ACOUSTIC_FREE = "acoustic_free"


def acoustic_p_matrices(dim: int) -> list[np.ndarray]:
    """Symbol matrices of the (negative) grad-div pair: state (p, v_1..v_d)."""
    k = dim + 1
    mats = []
    for j in range(dim):
        p = np.zeros((k, k))
        p[0, 1 + j] = -1.0
        p[1 + j, 0] = -1.0
        mats.append(p)
    return mats


def _centered_difference(n: int, h: float, wall: int) -> sp.csr_matrix:
    """Centered difference (u_{i+1} - u_{i-1}) / 2h on n cells.

    ``wall`` 0 wraps periodically.  ``wall`` +1 or -1 puts a ghost cell past
    each wall that mirrors the edge value with its sign kept or flipped; the
    two wall matrices satisfy D_{+1}^T = -D_{-1} exactly.
    """
    i = np.arange(n)
    cols = np.concatenate([i + 1, i - 1])
    vals = np.concatenate([np.full(n, 0.5 / h), np.full(n, -0.5 / h)])
    if wall:
        vals[(cols < 0) | (cols >= n)] *= wall
        cols = np.clip(cols, 0, n - 1)
    else:
        cols %= n
    return sp.coo_matrix((vals, (np.concatenate([i, i]), cols)), shape=(n, n)).tocsr()


def _axis_operator(grid: Grid, axis: int, mat1d: sp.spmatrix) -> sp.csr_matrix:
    """Lift a 1D cell-difference matrix to the full C-ordered cell grid."""
    op = sp.identity(1, format="csr")
    for a in range(grid.dim):
        block = mat1d if a == axis else sp.identity(grid.shape[a], format="csr")
        op = sp.kron(op, block, format="csr")
    return op


def assemble_skew(
    p_matrices: Sequence[np.ndarray],
    grid: Grid,
    boundary: str = PERIODIC,
    k: int | None = None,
) -> sp.csr_matrix:
    """Assemble the centered-difference spatial operator.

    ``p_matrices`` are the constant symmetric k-by-k symbol matrices, one
    per axis.  Per axis and per wall sign of ``_centered_difference``, P adds
    kron(D, p restricted to the state columns whose ghost values mirror that
    way): periodically every column wraps; the acoustic_free closure
    (pressure release) flips the sign of the pressure column and keeps the
    velocity columns'.  That closure is only defined for the acoustic block
    structure (state = pressure followed by velocities).
    """
    p_matrices = [np.asarray(p, dtype=float) for p in p_matrices]
    if len(p_matrices) != grid.dim:
        raise InvalidArgumentError(f"expected {grid.dim} symbol matrices")
    k = p_matrices[0].shape[0] if k is None else k
    for j, p in enumerate(p_matrices):
        if p.shape != (k, k):
            raise InvalidArgumentError(f"symbol matrix {j} has shape {p.shape}, expected {(k, k)}")
        if np.abs(p - p.T).max() > 0:
            raise InvalidArgumentError(f"symbol matrix {j} is not symmetric")

    if boundary == PERIODIC:
        walls = [(0, np.ones(k, dtype=bool))]
    elif boundary == ACOUSTIC_FREE:
        if k != grid.dim + 1 or any(
            np.abs(p - ap).max() > 0 for p, ap in zip(p_matrices, acoustic_p_matrices(grid.dim))
        ):
            raise UnsupportedConfigurationError(
                "acoustic_free closure is defined only for the acoustic grad-div "
                f"structure with k = dim + 1 (got k = {k}, dim = {grid.dim})"
            )
        pressure = np.arange(k) == 0
        walls = [(1, ~pressure), (-1, pressure)]
    else:
        raise InvalidArgumentError(f"unknown boundary {boundary!r}")
    total = sp.csr_matrix((grid.state_size(k), grid.state_size(k)))
    for axis, p in enumerate(p_matrices):
        for wall, columns in walls:
            d = _axis_operator(grid, axis, _centered_difference(grid.shape[axis], grid.h[axis], wall))
            total = total + sp.kron(d, sp.csr_matrix(p * columns), format="csr")
    total.sum_duplicates()
    return total


# ---------------------------------------------------------------------------
# memory operator
# ---------------------------------------------------------------------------


# Taylor coefficients, highest power first, of (1 - (1 + alpha) e^-alpha) / alpha^2 and
# (alpha - 1 + e^-alpha) / alpha^2: round-off exact for alpha < 0.5, where those cancel.
_W_OLD_SERIES = tuple((-1) ** m * (m + 1) / math.factorial(m + 2) for m in range(16, -1, -1))
_W_NEW_SERIES = tuple((-1) ** m / math.factorial(m + 2) for m in range(16, -1, -1))


def exp_interval_weights(length: float, tau: float) -> tuple[float, float, float]:
    """Decay and endpoint weights of one exponential-convolution interval.

    Returns (E, w_old, w_new) with E = exp(-length/tau) such that for u
    linear on the interval with endpoint values (u_old, u_new),

        integral_0^length exp(-(length - s)/tau) u(s) ds
            = w_old * u_old + w_new * u_new,

    exactly.  Below alpha = length/tau = 0.5 the weights come from their
    Taylor series (Horner), above it from the closed forms.
    """
    alpha = length / tau
    e = np.exp(-alpha)
    if alpha < 0.5:
        w_old = w_new = 0.0
        for c_old, c_new in zip(_W_OLD_SERIES, _W_NEW_SERIES):
            w_old = w_old * alpha + c_old
            w_new = w_new * alpha + c_new
    else:
        w_old = (1.0 - (1.0 + alpha) * e) / alpha**2
        w_new = (alpha - 1.0 + e) / alpha**2
    return float(e), float(length * w_old), float(length * w_new)


def prony_advance(
    aux: np.ndarray | Sequence[np.ndarray],
    u_prev: np.ndarray,
    u_next: np.ndarray,
    weights: np.ndarray | Sequence[tuple[float, float, float]],
) -> np.ndarray:
    """Advance the scalar-exponential auxiliary states over one interval.

    Row j of ``aux`` carries s_j(t) = integral_0^t exp(-(t-s)/tau_j) u(s) ds,
    and row j of ``weights`` its (E, w_old, w_new) triple, from
    ``exp_interval_weights`` or ``StepOperators``; the result stacks the
    advanced states as an (n_terms, *u.shape) array (u may carry shot axes).
    The update integrates the linear interpolant of u exactly, so for piecewise
    linear input the recursion reproduces the convolution with no quadrature error.
    """
    e, w_old, w_new = np.reshape(weights, (-1, 3)).T.reshape(3, -1, *[1] * np.ndim(u_prev))
    out = e * np.asarray(aux)
    out += w_old * u_prev
    out += w_new * u_next
    return out


def replay_carries(states, weights: np.ndarray | Sequence[tuple[float, float, float]]):
    """The carries z_n = (u_n; s_1(t_n); ...), (1 + n_terms, n_state) each, over state
    rows t_0 .. t_N (a stored array, or any iterable that yields them in order): the
    Prony states that ``prony_advance`` with one ``weights`` row per term carries from
    s_j(0) = 0, one advance per step pulled, none without terms.  Over a solve's states
    at the step weights they are the carries that ``evolution._midpoint_steps`` yields
    for one system and shot, bit for bit."""
    rows = iter(states)
    u = next(rows)
    z = np.concatenate((u[None], np.zeros((len(weights), u.shape[0]))))
    yield z
    for u_next in rows:
        s_next = prony_advance(z[1:], z[0], u_next, weights) if len(weights) else z[1:]
        z = np.concatenate((u_next[None], s_next))
        yield z


def memory_row(kernel: PronyKernel, z: np.ndarray) -> np.ndarray:
    """R[u](t) = sum_j W_j s_j(t) at the carry z = (u; s_1(t); ...) of a grid time t
    (zero for the zero kernel)."""
    row = np.zeros(z.shape[1])
    for w, s in zip(kernel.weights, z[1:]):
        row += block_apply(w, s)
    return row


def memory_series(kernel: PronyKernel, states: np.ndarray, dt: float):
    """R[u](t_n) at every grid time of ``states`` (rows t_0 .. t_N), one row per
    time, as a generator: no series of R is held.  The exact Prony recursion runs
    once over the states (no terms for the zero kernel)."""
    weights = [exp_interval_weights(dt, tau) for tau in kernel.taus]
    return (memory_row(kernel, z) for z in replay_carries(states, weights))


# ---------------------------------------------------------------------------
# assembled system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteSystem:
    """The assembled evolution problem A u' + P u + B u + R[u] = f.

    a, b and the kernel q are per-cell (n_cells, k, k) blocks, and P is the
    one sparse matrix ``skew`` assembled from the symbol ``p_matrices``.
    ``kernel`` is a ``PronyKernel``; ``PronyKernel()``, the sum with no terms,
    is no memory.
    """

    a_blocks: np.ndarray
    skew: sp.csr_matrix
    p_matrices: tuple[np.ndarray, ...]
    b_blocks: np.ndarray | None
    kernel: PronyKernel
    grid: Grid
    k: int

    def __post_init__(self):
        cells = (self.grid.n_cells, self.k, self.k)
        if self.a_blocks.shape != cells:
            raise GridMismatchError(f"a_blocks has shape {self.a_blocks.shape}, expected {cells}")
        if self.skew.shape != (self.n_state, self.n_state):
            raise GridMismatchError(
                f"skew has shape {self.skew.shape}, expected {(self.n_state, self.n_state)}")
        require_kernel(self.kernel, self.grid.n_cells, self.k)

    @property
    def n_state(self) -> int:
        return self.grid.state_size(self.k)

    def apply_b(self, u: np.ndarray) -> np.ndarray:
        if self.b_blocks is None:
            return np.zeros_like(u)
        return block_apply(self.b_blocks, u)

    @cached_property
    def step_operators(self) -> StepOperators:
        """The midpoint step at the grid's dt, factored on first use and kept.

        Forward solves, step residuals and the adjoint all share it.  Copies
        made with ``dataclasses.replace`` start without it.
        """
        return StepOperators(self, self.grid.dt)


class StepFactor:
    """SuperLU factors of a step matrix, one per connected component of its
    unknowns, each made on first use.

    ``labels`` names each unknown's component (one component if omitted), and
    the matrix couples no two of them.  ``rows[c]`` holds component c's
    unknowns in ascending order, and its factor is that of the matrix on
    those rows and columns, made by ``splu`` with ``options``; a single
    component factors the matrix itself.  ``solve`` over all unknowns solves
    each component's rows that are not all zero (a zero block's solution is
    +0.0, and its factor is never made); ``solve`` of one component takes and
    gives that component's rows alone.  ``L`` and ``U`` join every
    component's factor block diagonally, so their nnz is the fill.
    """

    def __init__(self, matrix: sp.spmatrix, labels: np.ndarray | None = None, **options):
        self.matrix, self.options = matrix, options
        self.labels = np.zeros(matrix.shape[0], dtype=int) if labels is None else np.asarray(labels)
        self.rows = [np.flatnonzero(self.labels == c) for c in range(self.labels.max() + 1)]
        self._factors: list[spla.SuperLU | None] = [None] * len(self.rows)

    @property
    def n_components(self) -> int:
        return len(self.rows)

    def block(self, component: int) -> sp.csc_matrix:
        """The matrix on ``component``'s rows and columns, the matrix its factor is of."""
        block = self.matrix
        if self.n_components > 1:
            rows = self.rows[component]
            block = block[rows][:, rows]
        return block.tocsc()

    def _factor(self, component: int) -> spla.SuperLU:
        if self._factors[component] is None:
            self._factors[component] = spla.splu(self.block(component), **self.options)
        return self._factors[component]

    def solve(self, rhs: np.ndarray, trans: str = "N", component: int | None = None) -> np.ndarray:
        """x with C x = rhs (C^T x = rhs for ``trans="T"``), rows (and columns) as
        ``rhs``.  With ``component``, ``rhs`` and x hold only its ``rows``."""
        if component is None and self.n_components > 1:
            out = np.zeros(rhs.shape)
            for c, rows in enumerate(self.rows):
                block = rhs[rows]
                if block.any():
                    out[rows] = self._factor(c).solve(block, trans)
            return out
        if not rhs.any():
            return np.zeros(rhs.shape)
        return self._factor(component or 0).solve(rhs, trans)

    @property
    def L(self) -> sp.csc_matrix:
        return sp.block_diag([self._factor(c).L for c in range(self.n_components)], format="csc")

    @property
    def U(self) -> sp.csc_matrix:
        return sp.block_diag([self._factor(c).U for c in range(self.n_components)], format="csc")


class StepOperators:
    """Factorized midpoint step pieces for one (system, dt) pair.

    The step solves C u_{n+1} = D u_n + memory terms + f(t_half).  A Prony
    term j adds the memory term -E_h,j W_j s_j(t_n), so
    ``rhs_matrix`` = [D | -E_h,1 W_1 | ... | -E_h,J W_J] forms the right-hand
    side from the stacked (1 + J, n_state) array (u_n; s_1(t_n); ...) in one
    sparse product; without Prony terms it is D.  The same LU factorization
    serves the adjoint recursion through transposed solves, and the product
    with ``rhs_matrix``^T, a CSC view of the same arrays, gives D^T lam and
    every -E_h,j W_j^T lam at once.  Per term it holds the weight matrix
    and, as rows of (J, 3) arrays, the ``prony_advance`` triples over the
    whole step and to the half step t_n + dt/2, where they act on
    (s_j(t_n), u_n, u_{n+1}) for the interpolant parameterized on the whole
    step: the one copy every midpoint recursion reads.  No reference to the
    system is kept, so a system and its cached operator never form a
    reference cycle.

    C and D store only true nonzeros (``block_diagonal`` drops the zeros of
    the cell blocks, and sparse sums drop exact cancellations), so SuperLU
    orders the real pattern.  Its column ordering is a constant of the grid
    dimension: COLAMD in 1D, and in 2D and 3D minimum degree on C^T + C in
    symmetric mode, since C is structurally symmetric there (cell-local
    blocks plus a skew difference operator).  That ordering fills 2-4x less
    than COLAMD in 2D and 3D but 160x more in 1D.

    ``lu`` is a ``StepFactor``.  In 1D it holds a factor per connected
    component of the union pattern of C and every block of ``rhs_matrix``,
    labelled once here, each made when a solve first reaches it, and
    ``component_rhs`` holds each component's rows of ``rhs_matrix``, for steps
    that reach that component alone.  In 2D and 3D C is factored as a
    whole, as one component.  There the ordering runs in symmetric mode,
    where SuperLU does not postorder the elimination tree and its relaxed
    supernodes depend on how the components' columns interleave: factored
    apart, the components solve to other round-off than the whole factor,
    and a 2D adjoint dot test 25x past the CFL step, whose sums cancel
    950-fold, reads 1.6e-13 on them against the whole factor's 4.1e-14.
    """

    def __init__(self, system: DiscreteSystem, dt: float):
        self.dt = float(dt)
        a_over_dt = block_diagonal(system.a_blocks) / self.dt
        k_mat = system.skew
        if system.b_blocks is not None:
            k_mat = k_mat + block_diagonal(system.b_blocks)
        c = a_over_dt + 0.5 * k_mat
        d = a_over_dt - 0.5 * k_mat

        self.weight_matrices: list[sp.csr_matrix] = []
        step_weights, half_weights = [], []
        kern = system.kernel
        for w, tau in zip(kern.weights, kern.taus):
            e_h, i0, i1 = exp_interval_weights(self.dt / 2.0, tau)
            w_new_h = 0.5 * i1
            w_old_h = (i0 + i1) - w_new_h
            weight_matrix = block_diagonal(w)
            c = c + w_new_h * weight_matrix
            d = d - w_old_h * weight_matrix
            self.weight_matrices.append(weight_matrix)
            step_weights.append(exp_interval_weights(self.dt, tau))
            half_weights.append((e_h, w_old_h, w_new_h))

        # one (E, w_old, w_new) row per Prony term
        self.step_weights = np.reshape(step_weights, (-1, 3))
        self.half_weights = np.reshape(half_weights, (-1, 3))
        self.c_matrix = c.tocsr()
        self.rhs_matrix = sp.hstack(
            [d, *(-e_h * wm for e_h, wm in zip(self.half_weights[:, 0], self.weight_matrices))],
            format="csr")
        self.n_state = n = system.n_state
        if system.grid.dim == 1:
            # imported here: 2D and 3D runs never label, and the module stays ~2 MB resident
            from scipy.sparse.csgraph import connected_components

            # C beside rhs_matrix, every column folded onto its unknown: the union pattern
            links = sp.hstack([self.c_matrix, self.rhs_matrix], format="csr")
            links.indices %= n
            _, labels = connected_components(
                sp.csr_matrix((links.data, links.indices, links.indptr), shape=(n, n)),
                directed=False)
            self.lu = StepFactor(self.c_matrix, labels)
        else:
            self.lu = StepFactor(self.c_matrix, permc_spec="MMD_AT_PLUS_A",
                                 options={"SymmetricMode": True})

    @property
    def n_terms(self) -> int:
        return len(self.weight_matrices)

    @cached_property
    def component_rhs(self) -> list[sp.csr_matrix]:
        """Per ``lu`` component, ``rhs_matrix``'s rows of its unknowns over all columns.
        Each row keeps its entries in their order, so its product is the same float."""
        return [self.rhs_matrix[rows] for rows in self.lu.rows]


def assemble_system(
    f: CoefficientField,
    p_matrices: Sequence[np.ndarray] | None = None,
    boundary: str = PERIODIC,
) -> DiscreteSystem:
    """Assemble a DiscreteSystem from a coefficient field.

    When ``p_matrices`` is omitted and the state width matches k = dim + 1,
    the acoustic grad-div stencil is used.
    """
    if p_matrices is None:
        if f.k != f.grid.dim + 1:
            raise InvalidArgumentError(
                "no default stencil for k != dim + 1; pass symbol matrices explicitly"
            )
        p_matrices = acoustic_p_matrices(f.grid.dim)
    a = assemble_mass(f)
    p_matrices = tuple(np.asarray(p, dtype=float) for p in p_matrices)
    skew = assemble_skew(p_matrices, f.grid, boundary, k=f.k)
    return DiscreteSystem(a_blocks=a, skew=skew, p_matrices=p_matrices,
                          b_blocks=assemble_damping(f), kernel=f.kernel, grid=f.grid, k=f.k)


def unit_directions(dim: int) -> np.ndarray:
    """Sampled unit directions: all of them in 1D, a 1-degree half-circle
    sweep in 2D, a 2048-point Fibonacci sphere in 3D (one row each)."""
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        th = np.linspace(0.0, np.pi, 360, endpoint=False)
        return np.stack([np.cos(th), np.sin(th)], axis=1)
    n = 2048
    i = np.arange(n)
    z = 1 - 2 * (i + 0.5) / n
    r = np.sqrt(1 - z**2)
    phi = np.pi * (1 + np.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


# most matrices one stacked eigvalsh of the symbol sweeps solves at once
EIG_STACK_ROWS = 1 << 15


def direction_stacks(dim: int, n_blocks: int):
    """The sampled ``unit_directions`` in chunks small enough that a chunk times
    ``n_blocks`` cell blocks stays within ``EIG_STACK_ROWS`` matrices (one
    direction at least)."""
    dirs = unit_directions(dim)
    step = max(1, EIG_STACK_ROWS // n_blocks)
    for start in range(0, len(dirs), step):
        yield dirs[start:start + step]


def symbol_stacks(system: DiscreteSystem, n_blocks: int):
    """p(xi) over each ``direction_stacks`` chunk, stacked (directions, k, k)."""
    for xi in direction_stacks(system.grid.dim, n_blocks):
        yield sum(x[:, None, None] * pm for x, pm in zip(xi.T, system.p_matrices))


def max_symbol_speed(system: DiscreteSystem) -> float:
    """Largest characteristic speed of the symbol over cells and directions.

    Solves the generalized eigenproblem of p(xi) against each distinct mass
    block (rough media are mostly piecewise constant) on the sampled
    ``unit_directions``, one stacked ``eigvalsh`` per ``symbol_stacks`` chunk.
    """
    k = system.k
    vals, vecs = np.linalg.eigh(np.unique(system.a_blocks, axis=0))
    inv_sqrt = np.einsum("cik,ck,cjk->cij", vecs, 1.0 / np.sqrt(vals), vecs)
    speed = 0.0
    for p in symbol_stacks(system, len(inv_sqrt)):
        sym = np.einsum("cij,djk,ckl->dcil", inv_sqrt, p, inv_sqrt)
        speed = max(speed, float(np.abs(np.linalg.eigvalsh(sym.reshape(-1, k, k))).max()))
    return speed
