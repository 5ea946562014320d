"""Mass, spatial and memory terms of the discrete system, and its midpoint step.

The spatial operator uses centered differences.  With periodic wrap the
difference matrix along each axis is an antisymmetric circulant; with the
acoustic pressure-release closure the pressure rows use antisymmetric
ghost cells and the velocity rows symmetric ones, which makes the two
one-sided difference matrices exact negative transposes of each other.
Either way the assembled operator satisfies <Pu, v> = -<u, Pv> to the
last bit, which is what the discrete energy argument needs.

A system holds b and the memory kernel q as per-cell blocks, whose product
with states is ``block_apply``.  Prony kernels convolve by an O(1)-per-step
recursion that is exact for piecewise-linear input, tabulated kernels by
the trapezoid rule (the brute-force oracle path).  ``memory_series`` is the
one grid-time convolution, and evaluates a tabulated kernel once per call.
``prony_advance`` is the one recursion step, and ``StepOperators`` holds
the midpoint scheme's whole-step and half-step weight triples, or a
tabulated kernel's blocks evaluated once; its ``replay`` reruns the
recursion over stored states for step residuals and the sensitivity code.
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
from .fields import (
    CoefficientField,
    Grid,
    MemoryKernel,
    PronyKernel,
    TabulatedKernel,
    ZeroKernel,
    kernel_values,
)


def block_diagonal(blocks: np.ndarray) -> sp.csr_matrix:
    """Block-diagonal sparse matrix from per-cell (n, k, k) blocks, storing only their nonzeros."""
    n, k, _ = blocks.shape
    cell, i, j = np.nonzero(blocks)
    return sp.csr_matrix((blocks[cell, i, j], (cell * k + i, cell * k + j)), shape=(n * k, n * k))


def block_apply(blocks: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-cell products of (n_cells, k, k) blocks with states of shape (..., n_cells * k)."""
    n, k, _ = blocks.shape
    return np.einsum("cij,scj->sci", blocks, u.reshape(-1, n, k)).reshape(u.shape)


# ---------------------------------------------------------------------------
# mass operator
# ---------------------------------------------------------------------------


class MassOperator:
    """Block-diagonal symmetric positive definite mass operator.

    Stores one k-by-k block per cell together with cached inverses so
    ``solve`` is a per-cell matrix product.
    """

    def __init__(self, blocks: np.ndarray, grid: Grid, k: int):
        self.blocks = blocks
        self.grid = grid
        self.k = k
        self._inv = np.linalg.inv(blocks)
        eigs = np.linalg.eigvalsh(blocks)
        self.eig_lo = float(eigs.min())
        self.eig_hi = float(eigs.max())

    @property
    def n_state(self) -> int:
        return self.grid.state_size(self.k)

    def apply(self, u: np.ndarray) -> np.ndarray:
        return block_apply(self.blocks, u)

    def solve(self, u: np.ndarray) -> np.ndarray:
        return block_apply(self._inv, u)

    def as_matrix(self) -> sp.csr_matrix:
        return block_diagonal(self.blocks)


def assemble_mass(f: CoefficientField) -> MassOperator:
    """Mass operator from the a-part of a field.

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
    return MassOperator(f.a, f.grid, f.k)


def energy(mass: MassOperator, u: np.ndarray) -> float:
    """Quadratic energy E = (1/2) <u, A u> in the volume-weighted inner product."""
    if u.shape != (mass.n_state,):
        raise InvalidArgumentError(f"state length {u.shape} does not match {mass.n_state}")
    return 0.5 * mass.grid.cell_volume * float(u @ mass.apply(u))


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


def _centered_periodic(n: int, h: float) -> sp.csr_matrix:
    i = np.arange(n)
    rows = np.concatenate([i, i])
    cols = np.concatenate([(i + 1) % n, (i - 1) % n])
    vals = np.concatenate([np.full(n, 0.5 / h), np.full(n, -0.5 / h)])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _centered_ghost(n: int, h: float, kind: str) -> sp.csr_matrix:
    """Centered difference with one-sided closures from ghost-cell reflection.

    kind="anti": antisymmetric extension (value mirrors with a sign flip
    across the wall face) -- the pressure rows of the acoustic closure.
    kind="sym": symmetric extension -- the matching-velocity rows.
    The two satisfy D_sym^T = -D_anti exactly.
    """
    m = sp.lil_matrix((n, n))
    c = 0.5 / h
    for i in range(1, n - 1):
        m[i, i + 1] = c
        m[i, i - 1] = -c
    if kind == "anti":
        m[0, 0] = c
        m[0, 1] = c
        m[n - 1, n - 1] = -c
        m[n - 1, n - 2] = -c
    elif kind == "sym":
        m[0, 0] = -c
        m[0, 1] = c
        m[n - 1, n - 1] = c
        m[n - 1, n - 2] = -c
    else:
        raise InvalidArgumentError(f"unknown ghost kind {kind!r}")
    return m.tocsr()


def _axis_operator(grid: Grid, axis: int, mat1d: sp.spmatrix) -> sp.csr_matrix:
    """Lift a 1D cell-difference matrix to the full C-ordered cell grid."""
    op = sp.identity(1, format="csr")
    for a in range(grid.dim):
        block = mat1d if a == axis else sp.identity(grid.shape[a], format="csr")
        op = sp.kron(op, block, format="csr")
    return op


@dataclass(frozen=True)
class SkewOperator:
    """Sparse discretization of p(grad) with exact matrix antisymmetry."""

    matrix: sp.csr_matrix
    p_matrices: tuple[np.ndarray, ...]
    grid: Grid
    k: int

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u

    @property
    def n_state(self) -> int:
        return self.grid.state_size(self.k)


def assemble_skew(
    p_matrices: Sequence[np.ndarray],
    grid: Grid,
    boundary: str = PERIODIC,
    k: int | None = None,
) -> SkewOperator:
    """Assemble the centered-difference spatial operator.

    ``p_matrices`` are the constant symmetric k-by-k symbol matrices, one
    per axis.  The acoustic_free closure is only defined for the acoustic
    block structure (state = pressure followed by velocities).
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
        total = sp.csr_matrix((grid.state_size(k), grid.state_size(k)))
        for axis, p in enumerate(p_matrices):
            d = _axis_operator(grid, axis, _centered_periodic(grid.shape[axis], grid.h[axis]))
            total = total + sp.kron(d, sp.csr_matrix(p), format="csr")
    elif boundary == ACOUSTIC_FREE:
        if k != grid.dim + 1 or any(
            np.abs(p - ap).max() > 0 for p, ap in zip(p_matrices, acoustic_p_matrices(grid.dim))
        ):
            raise UnsupportedConfigurationError(
                "acoustic_free closure is defined only for the acoustic grad-div "
                f"structure with k = dim + 1 (got k = {k}, dim = {grid.dim})"
            )
        total = sp.csr_matrix((grid.state_size(k), grid.state_size(k)))
        for axis in range(grid.dim):
            d_anti = _axis_operator(grid, axis, _centered_ghost(grid.shape[axis], grid.h[axis], "anti"))
            d_sym = _axis_operator(grid, axis, _centered_ghost(grid.shape[axis], grid.h[axis], "sym"))
            e_pv = sp.csr_matrix(([-1.0], ([0], [1 + axis])), shape=(k, k))
            e_vp = sp.csr_matrix(([-1.0], ([1 + axis], [0])), shape=(k, k))
            total = total + sp.kron(d_sym, e_pv, format="csr") + sp.kron(d_anti, e_vp, format="csr")
    else:
        raise InvalidArgumentError(f"unknown boundary {boundary!r}")
    total.sum_duplicates()
    return SkewOperator(matrix=total, p_matrices=tuple(p_matrices), grid=grid, k=k)


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
    aux: Sequence[np.ndarray],
    u_prev: np.ndarray,
    u_next: np.ndarray,
    weights: Sequence[tuple[float, float, float]],
) -> list[np.ndarray]:
    """Advance the scalar-exponential auxiliary states over one interval.

    Each state carries s_j(t) = integral_0^t exp(-(t-s)/tau_j) u(s) ds, and
    ``weights`` holds one (E, w_old, w_new) triple per term, from
    ``exp_interval_weights`` or ``StepOperators``.  The update integrates
    the linear interpolant of u exactly, so for piecewise linear input the
    recursion reproduces the convolution with no quadrature error.
    """
    return [e * s + w_old * u_prev + w_new * u_next for s, (e, w_old, w_new) in zip(aux, weights)]


def memory_series(kernel: MemoryKernel, states: np.ndarray, dt: float) -> np.ndarray:
    """R[u](t_n) at every grid time of ``states`` (rows t_0 .. t_N).

    Prony kernels run the exact recursion once over the whole series;
    tabulated kernels are evaluated once on the grid times and apply the
    trapezoid rule at each time.
    """
    out = np.zeros_like(states)
    if isinstance(kernel, ZeroKernel):
        return out
    if isinstance(kernel, PronyKernel):
        weights = [exp_interval_weights(dt, tau) for tau in kernel.taus]
        aux = [np.zeros(states.shape[1]) for _ in kernel.taus]
        for m in range(1, states.shape[0]):
            aux = prony_advance(aux, states[m - 1], states[m], weights)
            for w, s in zip(kernel.weights, aux):
                out[m] += block_apply(w, s)
        return out
    blocks = kernel_values(kernel, dt * np.arange(states.shape[0]), *kernel.samples.shape[1:3])
    for m in range(1, states.shape[0]):
        for i in range(m + 1):
            out[m] += (0.5 * dt if i in (0, m) else dt) * block_apply(blocks[m - i], states[i])
    return out


# ---------------------------------------------------------------------------
# assembled system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteSystem:
    """The assembled evolution problem A u' + P u + B u + R[u] = f."""

    mass: MassOperator
    skew: SkewOperator
    b_blocks: np.ndarray | None
    kernel: MemoryKernel
    grid: Grid
    k: int

    def __post_init__(self):
        if self.mass.grid != self.grid or self.skew.grid != self.grid:
            raise GridMismatchError("all operators must share the system grid")
        if self.mass.k != self.k or self.skew.k != self.k:
            raise GridMismatchError("all operators must share the state width")
        cells = (self.grid.n_cells, self.k, self.k)
        for j, w in enumerate(self.kernel.weights if isinstance(self.kernel, PronyKernel) else ()):
            if w.shape != cells:
                raise InvalidCoefficientError(f"Prony weight {j} has wrong shape {w.shape}")
        if isinstance(self.kernel, TabulatedKernel) and self.kernel.samples.shape[1:] != cells:
            raise InvalidCoefficientError("tabulated kernel has wrong per-cell shape")

    @property
    def n_state(self) -> int:
        return self.grid.state_size(self.k)

    def b_matrix(self) -> sp.csr_matrix | None:
        return None if self.b_blocks is None else block_diagonal(self.b_blocks)

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


class StepOperators:
    """Factorized midpoint step pieces for one (system, dt) pair.

    The step solves C u_{n+1} = D u_n + memory history terms + f(t_half).
    The same LU factorization serves the adjoint recursion through
    transposed solves.  For a Prony kernel it holds, per term, the weight
    matrix and the ``prony_advance`` triples over the whole step and to
    the half step t_n + dt/2, where they act on (s_j(t_n), u_n, u_{n+1})
    for the interpolant parameterized on the whole step: the one copy
    every midpoint recursion reads.  A tabulated kernel is evaluated here
    once, at 0, dt/2 and the history offsets.  No reference to the system
    is kept, so a system and its cached operator never form a reference
    cycle.

    C and D store only true nonzeros (``block_diagonal`` drops the zeros of
    the cell blocks, and sparse sums drop exact cancellations), so SuperLU
    orders the real pattern.  Its column ordering is a constant of the grid
    dimension: COLAMD in 1D, and in 2D and 3D minimum degree on C^T + C in
    symmetric mode, since C is structurally symmetric there (cell-local
    blocks plus a skew difference operator).  That ordering fills 2-4x less
    than COLAMD in 2D and 3D but 160x more in 1D.
    """

    def __init__(self, system: DiscreteSystem, dt: float):
        self.dt = float(dt)
        a_over_dt = system.mass.as_matrix() / self.dt
        k_mat = system.skew.matrix
        b_mat = system.b_matrix()
        if b_mat is not None:
            k_mat = k_mat + b_mat
        c = a_over_dt + 0.5 * k_mat
        d = a_over_dt - 0.5 * k_mat

        self.weight_matrices: list[sp.csr_matrix] = []
        self.step_weights: list[tuple[float, float, float]] = []
        self.half_weights: list[tuple[float, float, float]] = []
        self._q_history: np.ndarray | None = None
        kern = system.kernel
        if isinstance(kern, PronyKernel):
            for w, tau in zip(kern.weights, kern.taus):
                e_h, i0, i1 = exp_interval_weights(self.dt / 2.0, tau)
                w_new_h = 0.5 * i1
                w_old_h = (i0 + i1) - w_new_h
                weight_matrix = block_diagonal(w)
                c = c + w_new_h * weight_matrix
                d = d - w_old_h * weight_matrix
                self.weight_matrices.append(weight_matrix)
                self.step_weights.append(exp_interval_weights(self.dt, tau))
                self.half_weights.append((e_h, w_old_h, w_new_h))
        elif isinstance(kern, TabulatedKernel):
            # q(0), q(dt/2) and the history offsets q(dt (j + 1/2)), j = 1 .. n_steps
            offsets = np.concatenate(([0.0, 0.5], np.arange(1, system.grid.n_steps + 1) + 0.5))
            q = kernel_values(kern, self.dt * offsets, system.grid.n_cells, system.k)
            self._q_history = q[2:]
            self._q_implicit = (self.dt / 8.0) * q[0]  # acts on u_{n+1}
            self._q_explicit = 0.75 * self.dt * q[1] + self._q_implicit  # acts on u_n
            c = c + block_diagonal(self._q_implicit)
            d = d - block_diagonal(self._q_explicit)

        self.c_matrix = c.tocsr()
        self.d_matrix = d.tocsr()
        if system.grid.dim == 1:
            self.lu = spla.splu(c.tocsc())
        else:
            self.lu = spla.splu(c.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                options={"SymmetricMode": True})
        self.n_state = system.n_state

    def new_aux(self) -> list[np.ndarray]:
        return [np.zeros(self.n_state) for _ in self.weight_matrices]

    def memory_history_rhs(self, aux: list[np.ndarray], history: np.ndarray, step: int) -> np.ndarray:
        """Contribution of states up to t_n to R at the half step (moved to the RHS)."""
        out = np.zeros(self.n_state)
        for weight_matrix, (e_half, _, _), s in zip(self.weight_matrices, self.half_weights, aux):
            out -= e_half * (weight_matrix @ s)
        if self._q_history is not None and step > 0:
            blocks = self._q_history[step - 1::-1]  # q(dt (step - m + 1/2)) for m = 0 .. step-1
            for m in range(step):
                # m = 0 is the endpoint of the trapezoid
                out -= (0.5 * self.dt if m == 0 else self.dt) * block_apply(blocks[m], history[m])
        return out

    def replay(self, states: np.ndarray):
        """Replay the step's Prony recursion over stored states t_0 .. t_N.  Per
        step it yields the half-step states s_j(t_n + dt/2) as the step formed
        them (bit-identical; empty without Prony terms)."""
        aux = self.new_aux()
        for u_prev, u_next in zip(states[:-1], states[1:]):
            yield prony_advance(aux, u_prev, u_next, self.half_weights)
            aux = prony_advance(aux, u_prev, u_next, self.step_weights)

    def half_step_memory(self, s_half: list[np.ndarray], u_prev: np.ndarray, u_next: np.ndarray,
                         history: np.ndarray, step: int) -> np.ndarray:
        """R at the half step as the scheme saw it, from ``replay``'s states (for residuals)."""
        out = np.zeros(self.n_state)
        for weight_matrix, s in zip(self.weight_matrices, s_half):
            out += weight_matrix @ s
        if self._q_history is not None:
            out -= self.memory_history_rhs([], history, step)
            out += block_apply(self._q_explicit, u_prev) + block_apply(self._q_implicit, u_next)
        return out


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
    mass = assemble_mass(f)
    skew = assemble_skew(p_matrices, f.grid, boundary, k=f.k)
    b = f.b if f.b is not None and np.abs(f.b).max() > 0 else None
    return DiscreteSystem(mass=mass, skew=skew, b_blocks=b, kernel=f.kernel, grid=f.grid, k=f.k)


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


def max_symbol_speed(system: DiscreteSystem) -> float:
    """Largest characteristic speed of the symbol over cells and directions.

    Solves the generalized eigenproblem of p(xi) against each distinct mass
    block (rough media are mostly piecewise constant) on the sampled
    ``unit_directions``.
    """
    dirs = unit_directions(system.grid.dim)
    vals, vecs = np.linalg.eigh(np.unique(system.mass.blocks, axis=0))
    inv_sqrt = np.einsum("cik,ck,cjk->cij", vecs, 1.0 / np.sqrt(vals), vecs)
    speed = 0.0
    for xi in dirs:
        p = sum(x * pm for x, pm in zip(xi, system.skew.p_matrices))
        sym = np.einsum("cij,jk,ckl->cil", inv_sqrt, p, inv_sqrt)
        speed = max(speed, float(np.abs(np.linalg.eigvalsh(sym)).max()))
    return speed
