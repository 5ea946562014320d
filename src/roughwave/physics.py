"""Material models: acoustics and linear viscoelasticity.

Acoustics in d dimensions uses the state (p, v_1..v_d), mass blocks
diag(1/kappa, rho, ..., rho) and the grad-div stencil.  Viscoelasticity
stores the stress in Kelvin (Mandel) components -- off-diagonal entries
scaled by sqrt(2) -- so the plain Euclidean inner product of state vectors
equals the Frobenius pairing of tensors and the stencil symbol matrices
stay symmetric.  State widths by dimension: 2 (1D), 5 (2D), 9 (3D).

The relaxation kernel gamma(t) of the constitutive law splits as
gamma = gamma_e * delta + gamma_mem; the induced lower-order coefficient
is b = gamma_mem(0+) and the convolution kernel is q = d(gamma_mem)/dt,
both acting on the stress block only.  gamma_mem is a Prony sum, so the
split is exact: b = sum_j w_j, and q has the weights -w_j / tau_j.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, InvalidCoefficientError, UnsupportedConfigurationError
from .fields import (
    CoefficientField,
    Grid,
    PronyKernel,
    grid_from_metadata,
    grid_metadata,
    load_kernel,
    read_cells,
    require_kernel,
    save_kernel,
    write_field_array,
)
from .operators import (
    DiscreteSystem,
    acoustic_p_matrices,
    assemble_system,
    direction_stacks,
    max_symbol_speed,
    symbol_stacks,
)

# Kelvin component order per dimension: diagonal entries first, then the
# off-diagonal pairs scaled by sqrt(2).
_KELVIN_PAIRS = {
    1: [(0, 0)],
    2: [(0, 0), (1, 1), (0, 1)],
    3: [(0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)],
}


def kelvin_dim(dim: int) -> int:
    return len(_KELVIN_PAIRS[dim])


def elastic_p_matrices(dim: int) -> list[np.ndarray]:
    """Symbol matrices of the symmetrized-gradient / divergence pair.

    State = (stress in Kelvin components, velocity); k = kelvin_dim + dim.
    """
    m = kelvin_dim(dim)
    k = m + dim
    pairs = _KELVIN_PAIRS[dim]
    mats = []
    for axis in range(dim):
        p = np.zeros((k, k))
        for b in range(dim):
            i, j = min(axis, b), max(axis, b)
            row = pairs.index((i, j))
            coef = 1.0 if b == axis else 1.0 / np.sqrt(2.0)
            p[row, m + b] = -coef
            p[m + b, row] = -coef
        mats.append(p)
    return mats


def strain_projector(xi: np.ndarray) -> np.ndarray:
    """Kelvin vector columns of sym(xi (x) e_b); shape (kelvin_dim, dim), or
    (n, kelvin_dim, dim) for n directions stacked as an (n, dim) array."""
    xi = np.asarray(xi, dtype=float)
    dim = xi.shape[-1]
    pairs = _KELVIN_PAIRS[dim]
    out = np.zeros((*xi.shape[:-1], len(pairs), dim))
    for row, (i, j) in enumerate(pairs):
        for b in range(dim):
            val = 0.5 * (xi[..., i] * (j == b) + xi[..., j] * (i == b))
            out[..., row, b] = val if i == j else np.sqrt(2.0) * val
    return out


def isotropic_hooke_kelvin(lam: float, mu: float, dim: int) -> np.ndarray:
    """Isotropic Hooke matrix (stress = C strain) in Kelvin components."""
    m = kelvin_dim(dim)
    c = np.zeros((m, m))
    c[:dim, :dim] = lam
    c[np.arange(dim), np.arange(dim)] += 2.0 * mu
    for r in range(dim, m):
        c[r, r] = 2.0 * mu
    return c


def isotropic_inverse_hooke(lam: float, mu: float, dim: int) -> np.ndarray:
    return np.linalg.inv(isotropic_hooke_kelvin(lam, mu, dim))


# ---------------------------------------------------------------------------
# acoustics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AcousticModel:
    """Per-cell density and bulk modulus with nondimensionalizing scales.

    Admissibility demands c_lo < s_kappa * kappa < c_hi and the same for
    s_rho * rho in every cell (the log-bounded class).  Bounds default to
    the realized range.
    """

    grid: Grid
    kappa: np.ndarray
    rho: np.ndarray
    s_kappa: float = 1.0
    s_rho: float = 1.0
    c_lo: float | None = None
    c_hi: float | None = None

    def __post_init__(self):
        n = self.grid.n_cells
        kappa = np.broadcast_to(np.asarray(self.kappa, dtype=float), (n,)).copy()
        rho = np.broadcast_to(np.asarray(self.rho, dtype=float), (n,)).copy()
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "rho", rho)
        for name, arr in (("kappa", kappa), ("rho", rho)):
            if arr.min() <= 0:
                raise InvalidCoefficientError(
                    f"{name} must be positive; cell {int(arr.argmin())} has {arr.min():.3e}"
                )
        scaled = np.concatenate([self.s_kappa * kappa, self.s_rho * rho])
        lo, hi = float(scaled.min()), float(scaled.max())
        if self.c_lo is None:
            object.__setattr__(self, "c_lo", lo)
        elif lo <= self.c_lo * (1 - 1e-12):
            cell = int(scaled.argmin() % n)
            raise InvalidCoefficientError(
                f"scaled coefficient {lo:.6g} at cell {cell} violates lower bound {self.c_lo}"
            )
        if self.c_hi is None:
            object.__setattr__(self, "c_hi", hi)
        elif hi >= self.c_hi * (1 + 1e-12):
            cell = int(scaled.argmax() % n)
            raise InvalidCoefficientError(
                f"scaled coefficient {hi:.6g} at cell {cell} violates upper bound {self.c_hi}"
            )

    @property
    def k(self) -> int:
        return self.grid.dim + 1

    def mass_blocks(self) -> np.ndarray:
        n, k = self.grid.n_cells, self.k
        blocks = np.zeros((n, k, k))
        blocks[:, 0, 0] = 1.0 / self.kappa
        for j in range(1, k):
            blocks[:, j, j] = self.rho
        return blocks

    def coefficient_field(self, kernel: PronyKernel = PronyKernel(),
                          b: np.ndarray | None = None) -> CoefficientField:
        return CoefficientField(grid=self.grid, k=self.k, a=self.mass_blocks(), b=b, kernel=kernel)


def acoustics_system(
    model: AcousticModel,
    boundary: str = "periodic",
    kernel: PronyKernel = PronyKernel(),
) -> DiscreteSystem:
    """Assemble the acoustic system (B = 0; R = 0 unless a kernel is given)."""
    return assemble_system(
        model.coefficient_field(kernel=kernel),
        acoustic_p_matrices(model.grid.dim),
        boundary=boundary,
    )


def two_layer_acoustic(
    grid: Grid,
    kappa_left: float,
    kappa_right: float,
    interface: float = 0.5,
    axis: int = 0,
) -> AcousticModel:
    """Two constant-kappa layers of unit density split by an axis-aligned interface."""
    coord = grid.centers()[:, axis]
    right = coord >= interface
    kappa = np.where(right, kappa_right, kappa_left)
    return AcousticModel(grid=grid, kappa=kappa, rho=1.0)


# ---------------------------------------------------------------------------
# viscoelasticity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ViscoelasticModel:
    """Density, elastic inverse Hooke operator, and relaxation kernel.

    ``gamma_elastic`` holds the instantaneous (unrelaxed) inverse Hooke
    matrix per cell in Kelvin components, shape (n_cells, m, m); the
    4-index symmetries are exactly the symmetry of that matrix.
    ``gamma_kernel`` is the memory part gamma(t) on the same blocks, a Prony
    sum; ``PronyKernel()``, the default, is pure elasticity.
    """

    grid: Grid
    rho: np.ndarray
    gamma_elastic: np.ndarray
    gamma_kernel: PronyKernel = field(default_factory=PronyKernel)
    g_lo: float | None = None
    g_hi: float | None = None

    def __post_init__(self):
        n = self.grid.n_cells
        m = kelvin_dim(self.grid.dim)
        rho = np.broadcast_to(np.asarray(self.rho, dtype=float), (n,)).copy()
        object.__setattr__(self, "rho", rho)
        if rho.min() <= 0:
            raise InvalidCoefficientError(f"rho must be positive (cell {int(rho.argmin())})")
        ge = self.gamma_elastic
        if ge.shape != (n, m, m):
            raise InvalidCoefficientError(f"gamma_elastic must have shape {(n, m, m)}, got {ge.shape}")
        asym = np.abs(ge - np.swapaxes(ge, 1, 2)).max(axis=(1, 2))
        if asym.max() > 1e-12 * max(1.0, float(np.abs(ge).max())):
            raise InvalidCoefficientError(
                f"gamma_elastic violates the inverse-Hooke symmetries in cell {int(asym.argmax())}"
            )
        eigs = np.linalg.eigvalsh(ge)
        if eigs.min() <= 0:
            raise InvalidCoefficientError(
                f"gamma_elastic is not elliptic: eigenvalue {eigs.min():.3e} "
                f"in cell {int(eigs.min(axis=1).argmin())}"
            )
        require_kernel(self.gamma_kernel, n, m, "gamma_kernel")
        lo, hi = float(np.abs(eigs).min()), float(np.abs(eigs).max())
        if self.g_lo is None:
            object.__setattr__(self, "g_lo", lo)
        elif lo < self.g_lo * (1 - 1e-12):
            raise InvalidCoefficientError(f"ellipticity lower bound {self.g_lo} violated ({lo:.6g})")
        if self.g_hi is None:
            object.__setattr__(self, "g_hi", hi)
        elif hi > self.g_hi * (1 + 1e-12):
            raise InvalidCoefficientError(f"ellipticity upper bound {self.g_hi} violated ({hi:.6g})")

    @property
    def m(self) -> int:
        return kelvin_dim(self.grid.dim)

    @property
    def k(self) -> int:
        return self.m + self.grid.dim


def ve_kernel_split(model: ViscoelasticModel) -> tuple[np.ndarray, PronyKernel]:
    """Split the memory part of the relaxation law: gamma * dsigma/dt =
    b sigma + q * sigma with b = gamma(0+) and q = d(gamma)/dt for t > 0.

    For gamma = sum_j w_j exp(-t / tau_j) that is b = sum_j w_j and the Prony
    kernel q with weights -w_j / tau_j, exactly.  Returns the per-cell b blocks
    (on the Kelvin stress space) and q.
    """
    kern = model.gamma_kernel
    b = np.sum(np.reshape(kern.weights, (-1, model.grid.n_cells, model.m, model.m)), axis=0)
    q = PronyKernel(weights=tuple(-w / tau for w, tau in zip(kern.weights, kern.taus)),
                    taus=kern.taus)
    return b, q


def kernel_split_reconstruction_error(model: ViscoelasticModel) -> float:
    """Max entrywise error of b + integral_0^t q against gamma(t), integrated in
    closed form and checked at 40 times over three of the longest relaxation
    times (the identity is exact, so this is round-off).
    """
    kern = model.gamma_kernel
    b, _ = ve_kernel_split(model)
    err = 0.0
    for t in np.linspace(0.0, 3.0 * max(kern.taus, default=0.0), 40):
        gamma_t = sum(w * np.exp(-t / tau) for w, tau in zip(kern.weights, kern.taus))
        integral = sum(w * (np.exp(-t / tau) - 1.0) for w, tau in zip(kern.weights, kern.taus))
        err = max(err, float(np.abs(b + integral - gamma_t).max()))
    return err


def viscoelastic_system(model: ViscoelasticModel, boundary: str = "periodic") -> DiscreteSystem:
    """Assemble the first-order viscoelastic system.

    The mass operator is blockdiag(gamma_elastic, rho I); b and q act on the
    stress block only.  Only the periodic closure is supported (domains are
    sized so waves never reach the boundary inside the run window).
    """
    if boundary != "periodic":
        raise UnsupportedConfigurationError("viscoelastic systems support the periodic closure only")
    n, m, k, dim = model.grid.n_cells, model.m, model.k, model.grid.dim
    a = np.zeros((n, k, k))
    a[:, :m, :m] = model.gamma_elastic
    for j in range(dim):
        a[:, m + j, m + j] = model.rho
    b_small, q_small = ve_kernel_split(model)
    b = None
    if np.abs(b_small).max() > 0:
        b = np.zeros((n, k, k))
        b[:, :m, :m] = b_small
    weights = np.zeros((q_small.n_terms, n, k, k))
    weights[:, :, :m, :m] = np.reshape(q_small.weights, (-1, n, m, m))
    kernel = PronyKernel(weights=tuple(weights), taus=q_small.taus)
    f = CoefficientField(grid=model.grid, k=k, a=a, b=b, kernel=kernel)
    return assemble_system(f, elastic_p_matrices(dim), boundary=boundary)


# ---------------------------------------------------------------------------
# wavespeeds and the slowness pencil
# ---------------------------------------------------------------------------


def max_wavespeed(obj) -> float:
    """Largest propagation speed of a model or assembled system.

    Acoustics: max over cells of sqrt(kappa/rho).  Viscoelasticity: the
    quasi-p speed sqrt(lambda_max(Christoffel)/rho) maximized over cells and
    sampled unit directions (1-degree circle in 2D, 2048-point Fibonacci
    sphere in 3D) -- a lower bound on the essential supremum.  Only the
    distinct (Hooke, rho) cells are solved, one stacked ``eigvalsh`` per
    ``direction_stacks`` chunk.  Generic systems fall back to the sampled
    symbol of the assembled operators.
    """
    if isinstance(obj, AcousticModel):
        return float(np.sqrt(obj.kappa / obj.rho).max())
    if isinstance(obj, ViscoelasticModel):
        dim, m = obj.grid.dim, kelvin_dim(obj.grid.dim)
        hooke = np.linalg.inv(obj.gamma_elastic).reshape(-1, m * m)
        cells = np.unique(np.concatenate([hooke, obj.rho[:, None]], axis=1), axis=0)
        hooke, rho = cells[:, :-1].reshape(-1, m, m), cells[:, -1]
        speed2 = 0.0
        for xi in direction_stacks(dim, len(cells)):
            l = strain_projector(xi)
            chr_mat = np.einsum("dmi,cmn,dnj->dcij", l, hooke, l).reshape(-1, dim, dim)
            eigs = np.linalg.eigvalsh(chr_mat).max(axis=1).reshape(len(xi), len(cells))
            speed2 = max(speed2, float((eigs / rho).max()))
        return float(np.sqrt(speed2))
    if isinstance(obj, DiscreteSystem):
        return max_symbol_speed(obj)
    raise InvalidArgumentError(f"cannot compute a wavespeed for {type(obj).__name__}")


def slowness_pencil_min_eig(system: DiscreteSystem, tau: float) -> float:
    """Smallest eigenvalue of a - tau * p(xi) over cells and unit directions.

    This is the energy-flux form on a cone surface t = tau |x| with normal
    direction xi.  In a cell with speeds c (the generalized eigenvalues of
    p(xi) against a, in +/- pairs), it is positive semidefinite exactly when
    tau * c <= 1.  So the minimum over cells changes sign at
    tau = 1/max_wavespeed in every medium: positive below, negative above.
    Sweeping tau across that value is the two-sided check of the
    finite-speed slowness bound.  Only the distinct cell blocks are solved,
    one stacked ``eigvalsh`` per ``symbol_stacks`` chunk of directions.
    """
    blocks = np.unique(system.a_blocks, axis=0)
    worst = np.inf
    for p in symbol_stacks(system, len(blocks)):
        pencil = (blocks[None] - tau * p[:, None]).reshape(-1, system.k, system.k)
        worst = min(worst, float(np.linalg.eigvalsh(pencil).min()))
    return worst


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------


def save_model(model, basepath: str) -> None:
    """JSON manifest plus binary per-cell arrays in the fields format."""
    grid = model.grid
    manifest = {"grid": grid_metadata(grid)}
    if not isinstance(model, (AcousticModel, ViscoelasticModel)):
        raise InvalidArgumentError(f"cannot save model of type {type(model).__name__}")
    write_field_array(f"{basepath}_rho.rwf", grid, 1, model.rho.reshape(-1, 1))
    if isinstance(model, AcousticModel):
        manifest["type"] = "acoustic"
        manifest["scales"] = {"s_kappa": model.s_kappa, "s_rho": model.s_rho}
        manifest["bounds"] = {"c_lo": model.c_lo, "c_hi": model.c_hi}
        write_field_array(f"{basepath}_kappa.rwf", grid, 1, model.kappa.reshape(-1, 1))
    else:
        manifest["type"] = "viscoelastic"
        manifest["bounds"] = {"g_lo": model.g_lo, "g_hi": model.g_hi}
        write_field_array(f"{basepath}_gamma_e.rwf", grid, model.m, model.gamma_elastic)
        manifest["kernel"] = save_kernel(model.gamma_kernel, basepath, "gamma", grid, model.m)
    with open(f"{basepath}.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_model(basepath: str):
    with open(f"{basepath}.json") as fh:
        manifest = json.load(fh)
    grid = grid_from_metadata(manifest["grid"])
    bounds = manifest.get("bounds", {})
    rho = read_cells(f"{basepath}_rho.rwf", grid, 1, ())
    if manifest["type"] == "acoustic":
        scales = manifest.get("scales", {})
        return AcousticModel(
            grid=grid, kappa=read_cells(f"{basepath}_kappa.rwf", grid, 1, ()), rho=rho,
            s_kappa=scales.get("s_kappa", 1.0), s_rho=scales.get("s_rho", 1.0),
            c_lo=bounds.get("c_lo"), c_hi=bounds.get("c_hi"),
        )
    if manifest["type"] == "viscoelastic":
        m = kelvin_dim(grid.dim)
        kernel = load_kernel(manifest.get("kernel", {}), basepath, "gamma", grid, m)
        return ViscoelasticModel(
            grid=grid, rho=rho, gamma_elastic=read_cells(f"{basepath}_gamma_e.rwf", grid, m, (m, m)),
            gamma_kernel=kernel,
            g_lo=bounds.get("g_lo"), g_hi=bounds.get("g_hi"),
        )
    raise InvalidArgumentError(f"unknown model type {manifest['type']!r}")
