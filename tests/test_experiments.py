import numpy as np
import pytest
from scipy.integrate import quad

import roughwave as rw
from roughwave.errors import InvalidArgumentError
from roughwave.experiments import (
    ConeSpec,
    StudyReport,
    advection_oracle,
    cone_from_speed,
    cone_leak,
    dalembert_pressure,
    fit_slope,
    measure_convergence_study,
    oscillatory_response_magnitude,
    oscillatory_rhs,
    refine_acoustic_model,
    smooth_bump,
    trace_regularity_probe,
)


class TestAdvectionOracle:
    def test_zero_rhs(self):
        assert advection_oracle(1.0, lambda t, x: 0.0, 2.0, 0.3) == 0.0

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(InvalidArgumentError):
            advection_oracle(0.0, lambda t, x: 0.0, 1.0, 0.0)

    def test_smooth_bump_unit_mass(self):
        val, _ = quad(smooth_bump, -1, 1, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)
        assert smooth_bump(1.2) == 0.0

    def test_unit_speed_oscillatory_identity(self):
        # u[1, f_eps](t, x) = cos((x + t)/eps) chi(x + t) once the bump mass
        # has fully swept past (x <= -1, here guaranteed by t = 2.5)
        eps, t = 0.05, 2.5
        f = oscillatory_rhs(eps)
        for x in (-2.6, -2.2, -1.8):
            u = advection_oracle(1.0, f, t, x, t_lower=x + t - 1.0001, points=4001)
            ref = float(np.cos((x + t) / eps) * smooth_bump(x + t))
            assert abs(u - ref) < 1e-10

    def test_off_speed_magnitude_decays_with_eps(self):
        # O(eps/|c-1|) suppression: magnitude decays as eps halves
        mags = [oscillatory_response_magnitude(1.5, eps, 2.5) for eps in (0.2, 0.1, 0.05)]
        assert mags[1] < 0.75 * mags[0]
        assert mags[2] < 0.75 * mags[1]


class TestDalembert:
    def test_quiet_before_onset(self):
        assert dalembert_pressure(1.0, 1.0, lambda s, y: 1.0, 0.0, 0.3) == 0.0

    def test_constant_source_closed_form(self):
        # g = 1 everywhere: p(x, t) = kappa * t / ... the two-way integral of a
        # constant integrand is just kappa * t
        val = dalembert_pressure(2.0, 1.0, lambda s, y: 1.0, 0.5, 0.0, points=401)
        assert val == pytest.approx(2.0 * 0.5, rel=1e-12)


class TestConeLeak:
    def setup_solution(self, cells=200, t_end=0.35, kappa=1.0):
        g = rw.build_grid(1, [cells], 1.0, 0.5 / cells, t_end)
        model = rw.AcousticModel(grid=g, kappa=kappa, rho=1.0)
        system = rw.acoustics_system(model)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=5.0)
        return g, system, src

    def test_zero_source_guarded(self):
        g, system, src = self.setup_solution()
        traj = rw.solve_causal(system, None)
        cone = cone_from_speed([0.5], 0.0, 1.0, margin=0.1)
        assert cone_leak(traj, cone) == 0.0

    def test_quiet_cone_tiny_leak(self):
        g, system, src = self.setup_solution()
        traj = rw.solve_causal(system, src)
        cone = cone_from_speed([0.5], 0.0, 1.0, margin=0.1)
        assert cone_leak(traj, cone) <= 1e-6

    def test_intruding_cone_order_one_leak(self):
        # slowness above the medium bound, anchored at the emission peak:
        # the claimed-quiet region contains the wavefront
        g, system, src = self.setup_solution()
        traj = rw.solve_causal(system, src)
        bad = ConeSpec(apex_x=(0.5,), apex_t=1.5 / 5.0, slowness=1.1)
        assert cone_leak(traj, bad) > 0.3

    def test_validation(self):
        g, system, src = self.setup_solution()
        traj = rw.solve_causal(system, src)
        with pytest.raises(InvalidArgumentError):
            ConeSpec(apex_x=(0.5,), apex_t=0.0, slowness=-1.0)
        with pytest.raises(InvalidArgumentError):
            cone_leak(traj, ConeSpec(apex_x=(0.5, 0.5), apex_t=0.0, slowness=1.0))
        with pytest.raises(InvalidArgumentError):
            cone_leak(traj, ConeSpec(apex_x=(0.5,), apex_t=9.0, slowness=1.0))


class TestMeasureConvergence:
    def test_constant_field_roundoff(self):
        g = rw.build_grid(1, [80], 1.0, 2e-3, 0.2)
        field = rw.AcousticModel(grid=g, kappa=1.5, rho=1.0).coefficient_field()
        src = rw.make_ricker_source(g, 2, [0.4], peak_frequency=6.0)
        report = measure_convergence_study(field, src, [4, 8, 16])
        assert max(report.series["solution_distance"]) <= 1e-12
        assert max(report.series["measure_distance"]) == 0.0

    def test_two_layer_strictly_decreasing(self):
        g = rw.build_grid(1, [200], 1.0, 2.5e-3, 0.4)
        field = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.6).coefficient_field()
        src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=6.0)
        report = measure_convergence_study(field, src, [4, 8, 16, 32])
        sd = report.series["solution_distance"]
        assert all(b < a for a, b in zip(sd, sd[1:]))
        md = report.series["measure_distance"]
        assert all(b <= a for a, b in zip(md, md[1:]))
        assert report.passed

    def test_study_computes_no_energy(self, energy_calls):
        g = rw.build_grid(1, [60], 1.0, 2.5e-3, 0.1)
        field = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.6).coefficient_field()
        src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=6.0)
        measure_convergence_study(field, src, [4, 8, 16])
        assert energy_calls == []

    def test_schedule_validation(self):
        g = rw.build_grid(1, [40], 1.0, 2e-3, 0.1)
        field = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0).coefficient_field()
        src = rw.make_ricker_source(g, 2, [0.4], peak_frequency=6.0)
        with pytest.raises(InvalidArgumentError):
            measure_convergence_study(field, src, [4, 8])
        with pytest.raises(InvalidArgumentError):
            measure_convergence_study(field, src, [8, 4, 16])


class TestTraceRegularity:
    def test_bounded_derivatives_per_smoothness(self):
        g = rw.build_grid(1, [80], 1.0, 2.5e-3, 0.4)
        model = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0)

        def factory(grid, s):
            return rw.make_burst_source(grid, 2, [0.35], frequency=5.0, smoothness=s,
                                        amplitude=10.0)

        report = trace_regularity_probe(model, [[0.7]], factory,
                                        smoothness_schedule=(1, 3), refinements=1)
        assert report.passed
        assert set(report.series) == {"s1_derivative_bound", "s3_derivative_bound"}

    def test_zero_wavelet_zero_derivatives(self):
        g = rw.build_grid(1, [40], 1.0, 2e-3, 0.2)
        model = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0)

        def factory(grid, s):
            return rw.make_burst_source(grid, 2, [0.35], frequency=5.0, smoothness=s,
                                        amplitude=0.0)

        report = trace_regularity_probe(model, [[0.7]], factory,
                                        smoothness_schedule=(2,), refinements=1)
        assert max(report.series["s2_derivative_bound"]) == 0.0

    def test_refine_model_preserves_medium(self):
        g = rw.build_grid(1, [10], 1.0, 1e-3, 0.01)
        model = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.5)
        fine = refine_acoustic_model(model, 2)
        assert fine.grid.shape == (20,)
        np.testing.assert_array_equal(fine.kappa[:10], np.ones(10))
        np.testing.assert_array_equal(fine.kappa[10:], 4.0 * np.ones(10))


class TestStudyReport:
    def test_monotone_schedule_required(self):
        with pytest.raises(InvalidArgumentError):
            StudyReport(name="x", schedule=(1.0, 3.0, 2.0))

    def test_save_roundtrip(self, tmp_path):
        import json

        report = StudyReport(name="demo", schedule=(1.0, 2.0, 4.0),
                             series={"err": (0.4, 0.2, 0.1)}, slope=-1.0,
                             tolerance=0.25, passed=True, notes="toy")
        base = str(tmp_path / "study")
        report.save(base)
        payload = json.loads((tmp_path / "study.json").read_text())
        assert payload["passed"] is True
        assert payload["series"]["err"] == [0.4, 0.2, 0.1]
        rows = (tmp_path / "study.csv").read_text().splitlines()
        assert rows[0] == "parameter,err"
        assert rows[1].startswith("1.0,")

    def test_fit_slope(self):
        x = np.array([1.0, 2.0, 4.0])
        assert fit_slope(x, 3.0 * x**2) == pytest.approx(2.0, abs=1e-12)
