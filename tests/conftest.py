import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import roughwave as rw
import roughwave.operators
from oracles import dot_product_test
from roughwave.evolution import step_residuals
from roughwave.operators import StepFactor, block_apply, unit_directions
from roughwave.physics import ViscoelasticModel, isotropic_inverse_hooke, strain_projector
from roughwave.forward import gathered_adjoint_source
from roughwave.sensitivity import GradientReport, linearized_forcing


def count_calls(monkeypatch, name):
    """Record the arguments of every call of ``operators.<name>``, through
    whichever module binds it."""
    original = getattr(roughwave.operators, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "roughwave" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def _tabulated(times, profile, amplitudes, k):
    return rw.TabulatedKernel(times=times, samples=profile[:, None, None, None]
                              * np.asarray(amplitudes)[None, :, None, None] * np.eye(k))


def damped_oscillation(times, amplitudes, k):
    """Tabulated kernel a_c e^{-t/0.2} (1 + 0.5 cos 12 t) I_k in cell c, sampled at
    ``times``, which should resolve the oscillation for ``prony_fit`` to hold."""
    return _tabulated(times, np.exp(-times / 0.2) * (1.0 + 0.5 * np.cos(12.0 * times)),
                      amplitudes, k)


def two_relaxations(times, amplitudes, k):
    """Tabulated kernel a_c (e^{-t/0.05} + e^{-t/0.5}) I_k in cell c, sampled at
    ``times``: the two-term Prony kernel of the stepping tests, which ``prony_fit``
    fits from coarse samples too."""
    return _tabulated(times, np.exp(-times / 0.05) + np.exp(-times / 0.5), amplitudes, k)


def time_reversed_system(system):
    """System with the spatial operator negated (the substitution t -> T - t)."""
    return replace(system, skew=(-system.skew).tocsr(),
                   p_matrices=tuple(-p for p in system.p_matrices))


def _dense_block_diagonal(blocks):
    """Block-diagonal BSR matrix that stores every entry of each k-by-k cell block, zeros too."""
    n, k, _ = blocks.shape
    return sp.bsr_matrix((np.ascontiguousarray(blocks), np.arange(n), np.arange(n + 1)),
                         shape=(n * k, n * k))


def zero_keeping_step_matrix(system):
    """The midpoint step matrix C summed from dense cell blocks, so that it keeps their
    stored zeros: the assembly the zero-free ``StepOperators`` replaced."""
    ops = system.step_operators
    k_mat = system.skew
    if system.b_blocks is not None:
        k_mat = k_mat + _dense_block_diagonal(system.b_blocks)
    c = (_dense_block_diagonal(system.a_blocks) / ops.dt + 0.5 * k_mat).tocsc()
    for w, (_, _, w_new_half) in zip(system.kernel.weights, ops.half_weights):
        c = (c + w_new_half * _dense_block_diagonal(w)).tocsc()
    return c


def oracle_system(system):
    """Copy of ``system`` whose step operator solves with splu's default (COLAMD) factor
    of the whole zero-keeping C, run as a single component.  Its C has the same values
    as the zero-free one."""
    oracle = replace(system)
    c = zero_keeping_step_matrix(oracle)
    assert abs(c - oracle.step_operators.c_matrix).max() == 0
    oracle.step_operators.lu = StepFactor(c)
    return oracle


def assert_matches_oracle(system, src, sampler, rng):
    """Forward states (and, with a sampler, adjoint states) within 1e-13 relative of the
    oracle, step residuals at round-off, and the dot test on the new factor <= 1e-13.
    ``src`` is a source, or the initial state of a memory-free ``solve_ivp``.  The oracle
    factors once, and the system each component of its step matrix once: the adjoint
    sweep, driven by interpolating receivers, reaches all of them."""
    with mock.patch.object(spla, "splu", wraps=spla.splu) as splu:
        _assert_matches_oracle(system, src, sampler, rng)
    assert splu.call_count == 1 + system.step_operators.lu.n_components


def _assert_matches_oracle(system, src, sampler, rng):
    oracle = oracle_system(system)
    if isinstance(src, np.ndarray):
        traj, ref = rw.solve_ivp(system, src), rw.solve_ivp(oracle, src)
        src = None
    else:
        traj, ref = rw.solve_causal(system, src), rw.solve_causal(oracle, src)
    scale = np.abs(ref.states).max()
    assert scale > 0
    assert np.abs(traj.states - ref.states).max() <= 1e-13 * scale
    assert step_residuals(traj, system, src).max() <= 1e-12 * scale
    if sampler is None:
        return
    data = rng.standard_normal((sampler.n_channels, traj.times.size))
    residual = rw.SeismogramData(times=traj.times, data=data, receivers=sampler.receivers)
    w = adjoint_solve(system, residual, sampler).states
    w_ref = adjoint_solve(oracle, residual, sampler).states
    assert np.abs(w - w_ref).max() <= 1e-13 * np.abs(w_ref).max()
    assert dot_product_test(system, traj, sampler, rng) <= 1e-13


def per_term_solve(system, source, forcing=None):
    """States of the midpoint step as it was before one sparse product served it: D u_n,
    then one product -E_h,j W_j s_j per Prony term, and the Prony states advanced as a
    list of vectors.  D is the first block of ``rhs_matrix``."""
    ops, grid = system.step_operators, system.grid
    n = ops.n_state
    d = ops.rhs_matrix[:, :n]
    states = np.zeros((grid.n_steps + 1, n))
    u, aux = states[0], [np.zeros(n) for _ in ops.weight_matrices]
    for step, t in enumerate(grid.times()[:-1]):
        memory = np.zeros(n)
        for weight_matrix, (e_half, _, _), s in zip(ops.weight_matrices, ops.half_weights, aux):
            memory -= e_half * (weight_matrix @ s)
        rhs = d @ u
        rhs += memory
        if source is not None:
            rhs += source.evaluate(t + 0.5 * grid.dt)
        if forcing is not None:
            rhs += forcing[step]
        u_next = ops.lu.solve(rhs)
        aux = [e * s + w_old * u + w_new * u_next
               for s, (e, w_old, w_new) in zip(aux, ops.step_weights)]
        u = states[step + 1] = u_next
    return states


def per_term_adjoint(system, residual, sampler):
    """Adjoint states of the transposed step as it was before one product with
    ``rhs_matrix``^T served it: D^T rebuilt per call, one product W_j lam per Prony term,
    and the sampled residual injected through ``sampler.matrix.T`` at every step."""
    ops = system.step_operators
    n = ops.n_state
    d_t = ops.rhs_matrix[:, :n].T.tocsr()
    w = np.zeros((system.grid.n_steps + 1, n))
    lam, mu = np.zeros(n), [np.zeros(n) for _ in ops.weight_matrices]
    for m in range(system.grid.n_steps, 0, -1):
        mu_new = [e_full * mu_j - e_half * (weight_matrix @ lam)
                  for weight_matrix, (e_full, _, _), (e_half, _, _), mu_j
                  in zip(ops.weight_matrices, ops.step_weights, ops.half_weights, mu)]
        rhs = d_t @ lam + sampler.matrix.T @ residual.data[:, m]
        for (_, w_old, w_new), mu_prev_j, mu_new_j in zip(ops.step_weights, mu, mu_new):
            rhs += w_old * mu_prev_j + w_new * mu_new_j
        lam = w[m - 1] = ops.lu.solve(rhs, trans="T")
        mu = mu_new
    return w


def adjoint_solve(system, residual, sampler):
    """Adjoint states w_0 .. w_N of the transposed midpoint recursion driven by S^T r,
    kept as a trajectory: the series that ``adjoint_gradient`` contracts as it goes and
    does not store.  One sparse product with ``rhs_matrix``^T per step, and the adjoint
    Prony states carried as one (n_terms, n_state) array."""
    grid = system.grid
    ops = system.step_operators
    cols = sampler.gathered[0]
    injection = gathered_adjoint_source(sampler, residual)
    e_full, w_old, w_new = ops.step_weights[:, :1], ops.step_weights[:, 1], ops.step_weights[:, 2]
    w = np.zeros((grid.n_steps + 1, system.n_state))
    lam = np.zeros(system.n_state)
    mu = np.zeros((ops.n_terms, system.n_state))
    for m in range(grid.n_steps, 0, -1):
        y = (ops.rhs_matrix.T @ lam).reshape(-1, system.n_state)
        rhs = y[0]
        rhs[cols] += injection[m]
        rhs += w_old @ mu
        mu *= e_full
        mu += y[1:]
        rhs += w_new @ mu
        lam = w[m - 1] = ops.lu.solve(rhs, trans="T")
    return rw.Trajectory(grid=grid, times=residual.times.copy(), states=w,
                         a_blocks=system.a_blocks)


def per_step_series(system, traj):
    """Per step: (u_{n+1} - u_n)/dt, the midpoint average and the Prony half-step
    states, each computed on its own from ``StepOperators.replay``."""
    states, dt = traj.states, system.grid.dt
    s_halves = system.step_operators.replay(states)
    for u_prev, u_next, s_half in zip(states[:-1], states[1:], s_halves):
        yield (u_next - u_prev) / dt, 0.5 * (u_prev + u_next), s_half


def per_step_gradient(system, base, adjoint):
    """(g_a, g_b, g_q) summed one per-cell outer product of a stored adjoint state with
    the step's half-step values per step: the unregrouped sums that ``adjoint_gradient``
    regroups onto the base states."""
    n_cells, k = system.grid.n_cells, system.k
    n_terms = system.kernel.n_terms
    sums = np.zeros((2 + n_terms, n_cells, k, k))
    for lam, (v, ubar, s_half) in zip(adjoint.states, per_step_series(system, base)):
        series = np.reshape([v, ubar, *s_half], (-1, n_cells, k))
        sums += np.einsum("ci,mcj->mcij", lam.reshape(n_cells, k), series)
    sums *= system.grid.dt
    sym = 0.5 * (sums + np.swapaxes(sums, 2, 3))
    return GradientReport(g_a=sym[0], g_b=sums[1], g_q=tuple(sym[2:]))


def per_step_forcing(system, traj, pert):
    """The linearized forcing -(dA v_n + dB ubar_n + sum_j dW_j s_half_jn), row by row
    from the per-step series: the unregrouped form of ``linearized_forcing``."""
    out = np.zeros((traj.n_steps, system.n_state))
    for (v, ubar, s_half), row in zip(per_step_series(system, traj), out):
        if pert.delta_a is not None:
            row -= block_apply(pert.delta_a, v)
        if pert.delta_b is not None:
            row -= block_apply(pert.delta_b, ubar)
        for dw, s in zip(pert.delta_weights or (), s_half):
            row -= block_apply(dw, s)
    return out


def assert_gradient_matches_per_step(system, base, residual, sampler, report):
    """Each gradient array within 1e-14 relative of the per-step contraction of the
    oracle's stored adjoint series."""
    ref = per_step_gradient(system, base, adjoint_solve(system, residual, sampler))
    assert len(report.g_q) == len(ref.g_q)
    for got, want in zip((report.g_a, report.g_b, *report.g_q), (ref.g_a, ref.g_b, *ref.g_q)):
        scale = np.abs(want).max()
        assert scale > 0
        assert np.abs(got - want).max() <= 1e-14 * scale


def assert_forcing_matches_per_step(system, base, pert):
    """Each streamed ``linearized_forcing`` row within 1e-14 of the largest entry of its
    ``per_step_forcing`` row."""
    ref = per_step_forcing(system, base, pert)
    rows = np.array(list(linearized_forcing(system, base, pert)))
    assert rows.shape == ref.shape
    assert np.all(np.abs(rows - ref).max(axis=1) <= 1e-14 * np.abs(ref).max(axis=1))


def symbol_test_system(dim, medium):
    """Acoustic system on 12 cells per axis in 2D, 4 in 3D: a two-layer medium
    (two distinct cell blocks) or a per-cell random one (every block distinct,
    so the direction sweep splits into several stacks)."""
    g = rw.build_grid(dim, [{2: 12, 3: 4}[dim]] * dim, 1.0, 1e-3, 0.01)
    if medium == "two_layer":
        model = rw.two_layer_acoustic(g, kappa_left=1.0, kappa_right=4.0, interface=0.6)
    else:
        rng = np.random.default_rng(dim)
        model = rw.AcousticModel(grid=g, kappa=rng.uniform(0.5, 4.0, g.n_cells),
                                 rho=rng.uniform(0.5, 2.0, g.n_cells))
    return rw.acoustics_system(model)


def per_direction_symbol_speed(system):
    """``max_symbol_speed`` with one ``eigvalsh`` per sampled direction."""
    vals, vecs = np.linalg.eigh(np.unique(system.a_blocks, axis=0))
    inv_sqrt = np.einsum("cik,ck,cjk->cij", vecs, 1.0 / np.sqrt(vals), vecs)
    speed = 0.0
    for xi in unit_directions(system.grid.dim):
        p = sum(x * pm for x, pm in zip(xi, system.p_matrices))
        sym = np.einsum("cij,jk,ckl->cil", inv_sqrt, p, inv_sqrt)
        speed = max(speed, float(np.abs(np.linalg.eigvalsh(sym)).max()))
    return speed


def per_direction_pencil_min_eig(system, tau):
    """``slowness_pencil_min_eig`` with one ``eigvalsh`` per sampled direction."""
    blocks = np.unique(system.a_blocks, axis=0)
    worst = np.inf
    for xi in unit_directions(system.grid.dim):
        p = sum(x * pm for x, pm in zip(xi, system.p_matrices))
        worst = min(worst, float(np.linalg.eigvalsh(blocks - tau * p[None]).min()))
    return worst


def traced_peak(fn, *args):
    """Peak bytes that Python and numpy allocate while ``fn(*args)`` runs, result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def eigvalsh_rows(monkeypatch):
    """Number of matrices in each stack that reaches ``np.linalg.eigvalsh``."""
    original = np.linalg.eigvalsh
    rows = []

    def counted(a, *args, **kwargs):
        rows.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return rows


@pytest.fixture
def splu_calls(monkeypatch):
    calls = []
    original = spla.splu

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    return calls


@pytest.fixture
def energy_calls(monkeypatch):
    return count_calls(monkeypatch, "energy")


@pytest.fixture
def interval_weight_calls(monkeypatch):
    return count_calls(monkeypatch, "exp_interval_weights")


def viscoelastic_test_model(dim, medium):
    """Isotropic viscoelastic model on 12 cells per axis in 2D, 4 in 3D: homogeneous,
    two layers (two distinct cells) or per-cell random Lame parameters and density."""
    g = rw.build_grid(dim, [{2: 12, 3: 4}[dim]] * dim, 1.0, 1e-3, 0.01)
    rng = np.random.default_rng(dim)
    if medium == "homogeneous":
        lam, mu, rho = np.full(g.n_cells, 2.0), np.full(g.n_cells, 1.0), 1.25
    elif medium == "two_layer":
        right = g.centers()[:, 0] >= 0.6
        lam, mu = np.where(right, 6.0, 2.0), np.where(right, 3.0, 1.0)
        rho = np.where(right, 2.0, 1.0)
    else:
        lam, mu, rho = (rng.uniform(1.0, 4.0, g.n_cells), rng.uniform(0.5, 2.0, g.n_cells),
                        rng.uniform(0.5, 2.0, g.n_cells))
    ge = np.stack([isotropic_inverse_hooke(a, b, dim) for a, b in zip(lam, mu)])
    return ViscoelasticModel(grid=g, rho=rho, gamma_elastic=ge)


def per_direction_viscoelastic_speed(model):
    """``max_wavespeed`` of a viscoelastic model with one Christoffel ``eigvalsh``
    over every cell per sampled direction."""
    hooke = np.linalg.inv(model.gamma_elastic)
    speed2 = 0.0
    for xi in unit_directions(model.grid.dim):
        l = strain_projector(xi)
        chr_mat = np.einsum("mi,cmn,nj->cij", l, hooke, l)
        eigs = np.linalg.eigvalsh(chr_mat).max(axis=1)
        speed2 = max(speed2, float((eigs / model.rho).max()))
    return float(np.sqrt(speed2))
