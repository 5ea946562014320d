"""Discrete mass, spatial, lower-order, and memory operators.

The spatial operator uses centered differences.  With periodic wrap the
difference matrix along each axis is an antisymmetric circulant; with the
acoustic pressure-release closure the pressure rows use antisymmetric
ghost cells and the velocity rows symmetric ones, which makes the two
one-sided difference matrices exact negative transposes of each other.
Either way the assembled operator satisfies <Pu, v> = -<u, Pv> to the
last bit, which is what the discrete energy argument needs.

Memory operators come in two flavors: Prony sums of decaying exponentials
with an O(1)-per-step recursion that is exact for piecewise-linear input,
and tabulated kernels integrated by the trapezoid rule (the brute-force
oracle path).
"""

from __future__ import annotations

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


def block_diagonal(blocks: np.ndarray) -> sp.bsr_matrix:
    """Block-diagonal sparse matrix from per-cell (n, k, k) blocks."""
    n, k, _ = blocks.shape
    return sp.bsr_matrix(
        (np.ascontiguousarray(blocks), np.arange(n), np.arange(n + 1)),
        shape=(n * k, n * k),
    )


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
        v = u.reshape(-1, self.grid.n_cells, self.k)
        return np.einsum("cij,scj->sci", self.blocks, v).reshape(u.shape)

    def solve(self, u: np.ndarray) -> np.ndarray:
        v = u.reshape(-1, self.grid.n_cells, self.k)
        return np.einsum("cij,scj->sci", self._inv, v).reshape(u.shape)

    def as_matrix(self) -> sp.bsr_matrix:
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


def export_coo(skew: SkewOperator, path) -> None:
    """Write the spatial operator as 'row col value' text for external checks."""
    coo = skew.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    with open(path, "w") as fh:
        fh.write(f"# {coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r} {c} {v:.17g}\n")


# ---------------------------------------------------------------------------
# memory operator
# ---------------------------------------------------------------------------


def exp_interval_weights(length: float, tau: float) -> tuple[float, float, float]:
    """Decay and endpoint weights of one exponential-convolution interval.

    Returns (E, w_old, w_new) with E = exp(-length/tau) such that for u
    linear on the interval with endpoint values (u_old, u_new),

        integral_0^length exp(-(length - s)/tau) u(s) ds
            = w_old * u_old + w_new * u_new,

    exactly.  Series fallbacks keep the weights accurate for length << tau.
    """
    alpha = length / tau
    e = np.exp(-alpha)
    if alpha < 1e-4:
        i1 = length * (0.5 - alpha / 6.0 + alpha**2 / 24.0 - alpha**3 / 120.0)
        i0 = length * (1.0 - alpha / 2.0 + alpha**2 / 6.0 - alpha**3 / 24.0)
    else:
        i0 = length * (1.0 - e) / alpha
        i1 = length * (alpha - 1.0 + e) / alpha**2
    return float(e), float(i0 - i1), float(i1)


def prony_advance(
    aux: Sequence[np.ndarray],
    u_prev: np.ndarray,
    u_next: np.ndarray,
    dt: float,
    taus: Sequence[float],
) -> list[np.ndarray]:
    """Advance the scalar-exponential auxiliary states one step.

    Each state carries s_j(t) = integral_0^t exp(-(t-s)/tau_j) u(s) ds; the
    update integrates the linear interpolant of u exactly, so for piecewise
    linear input the recursion reproduces the convolution with no quadrature
    error.
    """
    if any(t <= 0 for t in taus):
        raise InvalidArgumentError("relaxation times must be positive")
    out = []
    for s, tau in zip(aux, taus):
        e, w_old, w_new = exp_interval_weights(dt, tau)
        out.append(e * s + w_old * u_prev + w_new * u_next)
    return out


def half_step_weights(dt: float, tau: float) -> tuple[float, float, float]:
    """Weights (E, w_old, w_new) of s_j at the half step t_n + dt/2.

    They act on (s_j(t_n), u_n, u_{n+1}) for the interpolant parameterized
    on the full step, u(s) = u_n + (s - t_n)/dt (u_{n+1} - u_n).
    """
    e, i0, i1 = exp_interval_weights(dt / 2.0, tau)
    w_new = 0.5 * i1
    return e, (i0 + i1) - w_new, w_new


def prony_half_step(
    aux: Sequence[np.ndarray],
    u_prev: np.ndarray,
    u_next: np.ndarray,
    dt: float,
    taus: Sequence[float],
) -> list[np.ndarray]:
    """Auxiliary states at the half step of the implicit-midpoint scheme."""
    out = []
    for s, tau in zip(aux, taus):
        e, w_old, w_new = half_step_weights(dt, tau)
        out.append(e * s + w_old * u_prev + w_new * u_next)
    return out


@dataclass(frozen=True)
class MemoryOperator:
    """Convolution operator R[u](t) = integral q(t - s) u(s) ds on the grid.

    The operator itself is stateless; time steppers own whatever auxiliary
    recursion state they need.  Prony kernels are integrated by the exact
    exponential recursion, tabulated ones by the trapezoid rule.
    """

    kernel: MemoryKernel
    grid: Grid
    k: int

    def __post_init__(self):
        if isinstance(self.kernel, PronyKernel):
            for j, w in enumerate(self.kernel.weights):
                if w.shape != (self.grid.n_cells, self.k, self.k):
                    raise InvalidCoefficientError(f"Prony weight {j} has wrong shape {w.shape}")
        elif isinstance(self.kernel, TabulatedKernel):
            if self.kernel.samples.shape[1:] != (self.grid.n_cells, self.k, self.k):
                raise InvalidCoefficientError("tabulated kernel has wrong per-cell shape")

    @property
    def is_zero(self) -> bool:
        return isinstance(self.kernel, ZeroKernel)

    def weight_matrices(self) -> list[sp.bsr_matrix]:
        if not isinstance(self.kernel, PronyKernel):
            raise UnsupportedConfigurationError("weight matrices exist only for Prony kernels")
        return [block_diagonal(w) for w in self.kernel.weights]

    def tabulated_at(self, offsets: np.ndarray) -> np.ndarray:
        """Kernel blocks at the given nonnegative time offsets, interpolated."""
        if not isinstance(self.kernel, TabulatedKernel):
            raise UnsupportedConfigurationError("tabulated evaluation needs a tabulated kernel")
        return kernel_values(self.kernel, offsets, self.grid.n_cells, self.k)


def _block_apply(blocks: np.ndarray, u: np.ndarray, n_cells: int, k: int) -> np.ndarray:
    return np.einsum("cij,cj->ci", blocks, u.reshape(n_cells, k)).ravel()


def memory_series(op: MemoryOperator, states: np.ndarray, dt: float) -> np.ndarray:
    """R[u](t_n) at every grid time of ``states`` (rows t_0 .. t_N).

    Prony kernels run the exact recursion once over the whole series;
    tabulated kernels evaluate the trapezoid rule at each time.
    """
    out = np.zeros_like(states)
    if op.is_zero:
        return out
    if isinstance(op.kernel, PronyKernel):
        aux = [np.zeros(states.shape[1]) for _ in op.kernel.taus]
        for m in range(1, states.shape[0]):
            aux = prony_advance(aux, states[m - 1], states[m], dt, op.kernel.taus)
            for w, s in zip(op.kernel.weights, aux):
                out[m] += _block_apply(w, s, op.grid.n_cells, op.k)
        return out
    for m in range(1, states.shape[0]):
        out[m] = apply_memory(op, states, m, dt)
    return out


def apply_memory(op: MemoryOperator, history: np.ndarray, t_index: int, dt: float) -> np.ndarray:
    """Evaluate R[u] at grid time index ``t_index`` from the state history.

    ``history`` holds states at t_0 .. t_m row-wise and must cover the
    requested index.  Prony kernels use the exact recursion on the linear
    interpolant; tabulated kernels use the trapezoid rule on grid nodes.
    """
    n = op.grid.n_cells
    if history.ndim != 2 or history.shape[1] != n * op.k:
        raise InvalidArgumentError("history must be (n_times, n_state)")
    if t_index >= history.shape[0]:
        raise InvalidArgumentError(
            f"insufficient history: need index {t_index}, have {history.shape[0] - 1}"
        )
    if op.is_zero or t_index == 0:
        return np.zeros(n * op.k)
    if isinstance(op.kernel, PronyKernel):
        return memory_series(op, history[: t_index + 1], dt)[t_index]
    offsets = dt * np.arange(t_index, -1, -1.0)
    blocks = op.tabulated_at(offsets)
    weights = np.full(t_index + 1, dt)
    weights[0] = weights[-1] = 0.5 * dt
    out = np.zeros(n * op.k)
    for m in range(t_index + 1):
        out += weights[m] * _block_apply(blocks[m], history[m], n, op.k)
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
    memory: MemoryOperator
    grid: Grid
    k: int

    def __post_init__(self):
        if self.mass.grid != self.grid or self.skew.grid != self.grid or self.memory.grid != self.grid:
            raise GridMismatchError("all operators must share the system grid")
        if self.mass.k != self.k or self.skew.k != self.k or self.memory.k != self.k:
            raise GridMismatchError("all operators must share the state width")

    @property
    def n_state(self) -> int:
        return self.grid.state_size(self.k)

    def b_matrix(self) -> sp.bsr_matrix | None:
        return None if self.b_blocks is None else block_diagonal(self.b_blocks)

    def apply_b(self, u: np.ndarray) -> np.ndarray:
        if self.b_blocks is None:
            return np.zeros_like(u)
        return _block_apply(self.b_blocks, u, self.grid.n_cells, self.k)

    @cached_property
    def step_operators(self) -> StepOperators:
        """The midpoint step at the grid's dt, factored on first use and kept.

        Forward solves, step residuals and the adjoint all share it.  Copies
        made with ``dataclasses.replace`` start without it.
        """
        return StepOperators(self, self.grid.dt)


@dataclass
class _PronyTerm:
    weight_matrix: sp.bsr_matrix
    e_full: float
    w_old_full: float
    w_new_full: float
    e_half: float


class StepOperators:
    """Factorized midpoint step pieces for one (system, dt) pair.

    The step solves C u_{n+1} = D u_n + memory history terms + f(t_half).
    The same LU factorization serves the adjoint recursion through
    transposed solves.  No reference to the system is kept, so a system
    and its cached operator never form a reference cycle.
    """

    def __init__(self, system: DiscreteSystem, dt: float):
        self.dt = float(dt)
        self.n_cells, self.k = system.grid.n_cells, system.k
        a_over_dt = system.mass.as_matrix() / self.dt
        k_mat = system.skew.matrix
        b_mat = system.b_matrix()
        if b_mat is not None:
            k_mat = k_mat + b_mat
        c = (a_over_dt + 0.5 * k_mat).tocsc()
        d = (a_over_dt - 0.5 * k_mat).tocsr()

        self.taus: tuple[float, ...] = ()
        self.prony_terms: list[_PronyTerm] = []
        self.tabulated: MemoryOperator | None = None
        kern = system.memory.kernel
        if isinstance(kern, PronyKernel):
            self.taus = tuple(kern.taus)
            for w, tau in zip(kern.weights, kern.taus):
                e_h, w_old_h, w_new_h = half_step_weights(self.dt, tau)
                term = _PronyTerm(block_diagonal(w), *exp_interval_weights(self.dt, tau), e_h)
                c = (c + w_new_h * term.weight_matrix).tocsc()
                d = (d - sp.csr_matrix(w_old_h * term.weight_matrix))
                self.prony_terms.append(term)
        elif isinstance(kern, TabulatedKernel):
            self.tabulated = system.memory
            self._q0, self._q_half = system.memory.tabulated_at(np.array([0.0, self.dt / 2.0]))
            q0 = block_diagonal(self._q0)
            c = (c + (self.dt / 8.0) * q0).tocsc()
            d = (d - sp.csr_matrix((0.75 * self.dt) * block_diagonal(self._q_half)
                                   + (self.dt / 8.0) * q0))

        self.c_matrix = c.tocsr()
        self.d_matrix = d.tocsr()
        self.lu = spla.splu(c)
        self.n_state = system.n_state

    def new_aux(self) -> list[np.ndarray]:
        return [np.zeros(self.n_state) for _ in self.prony_terms]

    def memory_history_rhs(self, aux: list[np.ndarray], history: np.ndarray, step: int) -> np.ndarray:
        """Contribution of states up to t_n to R at the half step (moved to the RHS)."""
        out = np.zeros(self.n_state)
        for term, s in zip(self.prony_terms, aux):
            out -= term.e_half * (term.weight_matrix @ s)
        if self.tabulated is not None and step > 0:
            offs = self.dt * (np.arange(step, 0, -1.0) + 0.5)
            blocks = self.tabulated.tabulated_at(offs)
            weights = np.full(step, self.dt)
            weights[0] = 0.5 * self.dt  # m = 0 endpoint of the trapezoid
            for m in range(step):
                out -= weights[m] * _block_apply(blocks[m], history[m], self.n_cells, self.k)
        return out

    def half_step_memory(self, aux: list[np.ndarray], u_prev: np.ndarray, u_next: np.ndarray,
                         history: np.ndarray | None = None, step: int | None = None) -> np.ndarray:
        """R at the half step as the scheme saw it (for residual diagnostics)."""
        out = np.zeros(self.n_state)
        s_half = prony_half_step(aux, u_prev, u_next, self.dt, self.taus)
        for term, s in zip(self.prony_terms, s_half):
            out += term.weight_matrix @ s
        if self.tabulated is not None:
            assert history is not None and step is not None
            out -= self.memory_history_rhs([], history, step)
            coef_prev = _block_apply(0.75 * self.dt * self._q_half + self.dt / 8.0 * self._q0,
                                     u_prev, self.n_cells, self.k)
            out += coef_prev + _block_apply(self.dt / 8.0 * self._q0, u_next, self.n_cells, self.k)
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
    memory = MemoryOperator(kernel=f.kernel, grid=f.grid, k=f.k)
    b = None
    if f.b is not None and np.abs(f.b).max() > 0:
        b = f.b
    return DiscreteSystem(mass=mass, skew=skew, b_blocks=b, memory=memory, grid=f.grid, k=f.k)


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

    Solves the generalized eigenproblem of p(xi) against the per-cell mass
    block on the sampled ``unit_directions``.
    """
    dirs = unit_directions(system.grid.dim)
    vals, vecs = np.linalg.eigh(system.mass.blocks)
    inv_sqrt = np.einsum("cik,ck,cjk->cij", vecs, 1.0 / np.sqrt(vals), vecs)
    speed = 0.0
    for xi in dirs:
        p = sum(x * pm for x, pm in zip(xi, system.skew.p_matrices))
        sym = np.einsum("cij,jk,ckl->cil", inv_sqrt, p, inv_sqrt)
        speed = max(speed, float(np.abs(np.linalg.eigvalsh(sym)).max()))
    return speed
