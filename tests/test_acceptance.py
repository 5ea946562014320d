"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and metrics.  Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import math
import time

import numpy as np
import roughwave as rw
from oracles import (
    advection_oracle,
    dot_product_test,
    finite_difference_table,
    oscillatory_response_magnitude,
    quotient_study,
)
from roughwave.experiments import (
    cone_from_speed,
    density_leak,
    energy_density,
    fit_slope,
    measure_convergence_study,
)
from roughwave.fields import CoefficientField, PronyKernel, TabulatedKernel, ricker_wavelet
from roughwave.forward import build_sampler, sample_trajectory
from roughwave.operators import acoustic_p_matrices, assemble_system
from roughwave.physics import (
    ViscoelasticModel,
    isotropic_inverse_hooke,
    kelvin_dim,
    kernel_split_reconstruction_error,
)
from roughwave.sensitivity import CoefficientPerturbation, misfit_gradient


def report(number, passed, detail):
    print(f"\nACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} -- {detail}")
    assert passed, detail


def test_criterion_1_skew_symmetry():
    """|<Pu,v> + <u,Pv>| <= 1e-12 |u||v| for 100 random pairs, both closures."""
    start = time.time()
    rng = np.random.default_rng(101)
    configs = []
    for cells, dim in (([128], 1), ([48, 48], 2), ([128, 128], 2)):
        g = rw.build_grid(dim, cells, 1.0, 1e-3, 0.01)
        for boundary in ("periodic", "acoustic_free"):
            configs.append(rw.assemble_skew(acoustic_p_matrices(dim), g, boundary))
    g1 = rw.build_grid(1, [256], 1.0, 1e-3, 0.01)
    configs.append(rw.assemble_skew([np.array([[1.0]])], g1, "periodic"))
    worst = 0.0
    pairs_per = 100 // len(configs) + 1
    total = 0
    for sk in configs:
        assert abs(sk + sk.T).max() == 0.0  # stored antisymmetry
        for _ in range(pairs_per):
            if total >= 100:
                break
            u = rng.standard_normal(sk.shape[0])
            v = rng.standard_normal(sk.shape[0])
            gap = abs(math.fsum((sk @ u * v).tolist()) + math.fsum((u * (sk @ v)).tolist()))
            worst = max(worst, gap / (np.linalg.norm(u) * np.linalg.norm(v)))
            total += 1
    elapsed = time.time() - start
    report(1, worst <= 1e-12 and elapsed < 10,
           f"worst normalized defect {worst:.3e} over {total} pairs "
           f"({len(configs)} operator builds), {elapsed:.1f}s")


def test_criterion_2_energy_conservation():
    """Midpoint drift <= 1e-10 relative over 1000 steps, 200 cells, f cut off."""
    start = time.time()
    dt = 5e-4
    g = rw.build_grid(1, [200], 1.0, dt, 0.95)
    system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0))
    src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=25.0)
    traj = rw.solve_causal(system, src)
    # the gaussian tail underflows to exact zeros well before t = 0.45
    window = traj.times >= 0.45
    assert window.sum() >= 1000
    e_ref = traj.energies[window][0]
    drift = np.abs(traj.energies[window] - e_ref).max() / e_ref
    elapsed = time.time() - start
    report(2, drift <= 1e-10 and elapsed < 10,
           f"relative drift {drift:.3e} over {window.sum()} steps, {elapsed:.1f}s")


def test_criterion_3_energy_identity_slope():
    """Per-step energy-identity residual decays at slope >= 1.9 in dt."""
    start = time.time()
    dts = [4e-3, 2e-3, 1e-3, 5e-4]
    maxima = []
    for dt in dts:
        g = rw.build_grid(1, [100], 1.0, dt, 0.8)
        kern = PronyKernel(weights=(np.tile(0.4 * np.eye(2), (100, 1, 1)),), taus=(0.3,))
        system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.3, rho=0.9),
                                     kernel=kern)
        src = rw.make_ricker_source(g, 2, [0.45], peak_frequency=4.0)
        traj = rw.solve_causal(system, src)
        maxima.append(float(np.abs(rw.energy_identity_residual(traj, system, src)).max()))
    slope = fit_slope(dts, maxima)
    elapsed = time.time() - start
    report(3, slope >= 1.9 and elapsed < 60,
           f"slope {slope:.2f} from maxima {['%.2e' % m for m in maxima]}, {elapsed:.1f}s")


def test_criterion_4_advection_oracle():
    """Solver vs closed form at slope >= 1.9; oscillatory suppression >= 10x."""
    start = time.time()
    c, fp, x0, width, tpk = 1.0, 6.0, 0.7, 0.04, 0.1
    errs, hs = [], []
    for cells in (100, 200, 400):
        g = rw.build_grid(1, [cells], 1.0, 0.5 / cells, 0.25)
        field = CoefficientField(grid=g, k=1, a=np.full((cells, 1, 1), 1.0 / c))
        system = assemble_system(field, [np.array([[-1.0]])], "periodic")
        src = rw.make_ricker_source(g, 1, [x0], peak_frequency=fp, delay=tpk,
                                    footprint_width=width)
        traj = rw.solve_causal(system, src)

        def rhs(s, y):
            return float(ricker_wavelet(s, fp, tpk)
                         * np.exp(-0.5 * (y - x0) ** 2 / width**2)) if s >= 0 else 0.0

        x = g.axis_centers(0)
        oracle = np.array([advection_oracle(c, rhs, traj.times[-1], xi) for xi in x])
        errs.append(float(np.sqrt(g.cell_volume) * np.linalg.norm(traj.states[-1] - oracle)))
        hs.append(g.h[0])
    slope = fit_slope(hs, errs)

    mag_coarse = oscillatory_response_magnitude(1.5, 0.1, t=2.5)
    mag_fine = oscillatory_response_magnitude(1.5, 0.01, t=2.5)
    suppression = mag_coarse / mag_fine
    elapsed = time.time() - start
    report(4, slope >= 1.9 and suppression >= 10 and elapsed < 60,
           f"L2 slope {slope:.2f} (errors {['%.2e' % e for e in errs]}); "
           f"suppression {suppression:.1f}x at c=1.5, {elapsed:.1f}s")


def test_criterion_5_finite_speed():
    """Cone leak <= 1e-6 at the 10%-margin slowness, decreasing on refinement."""
    start = time.time()

    def leak(cells, two_layer, src_x):
        g = rw.build_grid(1, [cells], 1.0, 0.5 / cells, 0.42 if not two_layer else 0.3)
        model = (rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.55) if two_layer
                 else rw.AcousticModel(grid=g, kappa=1.0, rho=1.0))
        system = rw.acoustics_system(model)
        src = rw.make_ricker_source(g, 2, [src_x], peak_frequency=5.0)
        traj = rw.solve_causal(system, src)
        cone = cone_from_speed([src_x], 0.0, rw.max_wavespeed(model), margin=0.1)
        return density_leak(energy_density(traj), g, cone)

    homog = leak(400, False, 0.5)
    homog_fine = leak(800, False, 0.5)
    layered = leak(400, True, 0.3)
    layered_fine = leak(800, True, 0.3)
    elapsed = time.time() - start
    ok = (homog <= 1e-6 and layered <= 1e-6
          and homog_fine < homog and layered_fine < layered and elapsed < 60)
    report(5, ok,
           f"homogeneous leak {homog:.2e} -> {homog_fine:.2e}, "
           f"two-layer leak {layered:.2e} -> {layered_fine:.2e}, {elapsed:.1f}s")


def test_criterion_6_convergence_in_measure():
    """Mollification schedule: strictly decreasing, final <= 25% of first."""
    start = time.time()
    g = rw.build_grid(1, [400], 1.0, 0.5 / 400, 0.45)
    field = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.6).coefficient_field()
    src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=6.0)
    study = measure_convergence_study(field, src, [4, 8, 16, 32])
    sd = study.series["solution_distance"]
    decreasing = all(b < a for a, b in zip(sd, sd[1:]))
    ratio = sd[-1] / sd[0]
    elapsed = time.time() - start
    report(6, decreasing and ratio <= 0.25 and elapsed < 120,
           f"distances {['%.2e' % v for v in sd]}, final/first {ratio:.3f}, {elapsed:.1f}s")


def test_criterion_7_gateaux_derivative():
    """Newton quotient decreases monotonically; final remainder <= 1% |du|."""
    start = time.time()
    g = rw.build_grid(1, [100], 1.0, 1e-3, 0.35)
    system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0))
    src = rw.make_burst_source(g, 2, [0.3], frequency=5.0, smoothness=4, amplitude=10.0)
    bump = np.zeros((100, 2, 2))
    bump[55] = np.diag([0.4, 0.2])
    study = quotient_study(system, CoefficientPerturbation(delta_a=bump), src,
                           [1e-1, 1e-2, 1e-3])
    rem = study.remainders
    monotone = all(b < a for a, b in zip(rem, rem[1:]))
    final_rel = rem[-1] / study.derivative_norm
    elapsed = time.time() - start
    report(7, monotone and final_rel <= 0.01 and elapsed < 60,
           f"remainders {['%.2e' % r for r in rem]}, final {100 * final_rel:.4f}% "
           f"of |du|, {elapsed:.1f}s")


def test_criterion_8_adjoint_consistency():
    """Dot-product test <= 1e-8 relative on 10 random instances (1D and 2D)."""
    start = time.time()
    rng = np.random.default_rng(88)
    rels = []

    g1 = rw.build_grid(1, [200], 1.0, 1e-3, 0.3)
    kern1 = PronyKernel(weights=(np.tile(0.2 * np.eye(2), (200, 1, 1)),), taus=(0.4,))
    model1 = rw.AcousticModel(grid=g1, kappa=1.0 + 0.3 * rng.random(200),
                              rho=1.0 + 0.2 * rng.random(200))
    sys1 = rw.acoustics_system(model1, kernel=kern1)
    src1 = rw.make_ricker_source(g1, 2, [0.3], peak_frequency=8.0)
    base1 = rw.solve_causal(sys1, src1)
    samp1 = build_sampler([[0.7], [0.55]], "pressure", g1, 2)
    for _ in range(6):
        rels.append(dot_product_test(sys1, base1, samp1, rng))

    g2 = rw.build_grid(2, [48, 48], 1.0, 2e-3, 0.2)
    kern2 = PronyKernel(weights=(np.tile(0.15 * np.eye(3), (g2.n_cells, 1, 1)),), taus=(0.3,))
    model2 = rw.AcousticModel(grid=g2, kappa=1.0 + 0.2 * rng.random(g2.n_cells), rho=1.0)
    sys2 = rw.acoustics_system(model2, kernel=kern2)
    src2 = rw.make_ricker_source(g2, 3, [0.4, 0.5], peak_frequency=6.0)
    base2 = rw.solve_causal(sys2, src2)
    samp2 = build_sampler([[0.7, 0.6], [0.25, 0.3]], "pressure", g2, 3)
    for _ in range(4):
        rels.append(dot_product_test(sys2, base2, samp2, rng))

    worst = max(rels)
    elapsed = time.time() - start
    report(8, worst <= 1e-8 and elapsed < 120,
           f"worst relative error {worst:.3e} over {len(rels)} instances, {elapsed:.1f}s")


def test_criterion_9_gradient_vs_finite_differences():
    """Central differences of J match gradient pairings within 1e-3."""
    start = time.time()
    rng = np.random.default_rng(99)
    g = rw.build_grid(1, [150], 1.0, 1e-3, 0.7)
    model = rw.AcousticModel(grid=g, kappa=1.0 + 0.3 * rng.random(150),
                             rho=1.0 + 0.2 * rng.random(150))
    system = rw.acoustics_system(model)
    src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=8.0, amplitude=20.0)
    sampler = build_sampler([[0.7], [0.5]], "pressure", g, 2)
    traj = rw.solve_causal(system, src)
    observed = sample_trajectory(sampler, traj)
    observed = rw.SeismogramData(times=observed.times, data=0.5 * observed.data,
                                 receivers=observed.receivers)
    rep = misfit_gradient(system, src, sampler, observed)
    rows = finite_difference_table(system, src, sampler, observed, rep,
                                   n_bumps=10, rng=rng)
    worst = max(row["rel_error"] for row in rows)
    n_noise = sum(row["below_noise"] for row in rows)
    elapsed = time.time() - start
    report(9, worst <= 1e-3 and elapsed < 120,
           f"worst FD mismatch {worst:.3e} over 10 bumps "
           f"({n_noise} below noise floor), {elapsed:.1f}s")


def test_criterion_10_viscoelastic_split():
    """b + int q = gamma (exact for Prony, O(dt^2) tabulated); quasi-p speed."""
    start = time.time()
    m = kelvin_dim(2)
    g = rw.build_grid(2, [6, 6], 1.0, 1e-3, 0.01)
    ge = np.tile(isotropic_inverse_hooke(2.0, 1.0, 2), (g.n_cells, 1, 1))
    kern = PronyKernel(weights=(np.tile(0.3 * np.eye(m), (g.n_cells, 1, 1)),
                                np.tile(0.1 * np.eye(m), (g.n_cells, 1, 1))),
                       taus=(0.5, 1.5))
    prony_err = kernel_split_reconstruction_error(
        ViscoelasticModel(grid=g, rho=1.25, gamma_elastic=ge, gamma_kernel=kern))

    errs, deltas = [], [0.02, 0.01, 0.005]
    for d in deltas:
        times = d * np.arange(int(2.0 / d) + 1)
        gamma_t = 0.3 * np.exp(-times / 0.5) + 0.1 * np.exp(-times / 1.5)
        samples = gamma_t[:, None, None, None] * np.tile(np.eye(m), (1, g.n_cells, 1, 1))
        model_t = ViscoelasticModel(grid=g, rho=1.25, gamma_elastic=ge,
                                    gamma_kernel=TabulatedKernel(times=times, samples=samples))
        errs.append(kernel_split_reconstruction_error(model_t))
    tab_slope = fit_slope(deltas, errs)

    lam, mu, rho = 2.0, 1.0, 1.25
    expected = np.sqrt((lam + 2 * mu) / rho)
    rels = []
    for dim in (2, 3):
        gd = rw.build_grid(dim, [3] * dim, 1.0, 1e-3, 0.01)
        ged = np.tile(isotropic_inverse_hooke(lam, mu, dim), (gd.n_cells, 1, 1))
        cp = rw.max_wavespeed(ViscoelasticModel(grid=gd, rho=rho, gamma_elastic=ged))
        rels.append(abs(cp - expected) / expected)
    elapsed = time.time() - start
    ok = prony_err <= 1e-8 and tab_slope >= 1.9 and max(rels) <= 5e-3 and elapsed < 30
    report(10, ok,
           f"Prony reconstruction {prony_err:.2e}, tabulated slope {tab_slope:.2f}, "
           f"quasi-p rel errors {['%.2e' % r for r in rels]}, {elapsed:.1f}s")
