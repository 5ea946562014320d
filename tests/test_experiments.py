import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from conftest import fitted, traced_peak, two_relaxations
from oracles import stored_convergence_series

import roughwave as rw
from roughwave import evolution, experiments
from roughwave.errors import GridMismatchError, InvalidArgumentError
from roughwave.experiments import (
    LEAK_ROWS,
    ConeSpec,
    StudyReport,
    cone_from_speed,
    density_leak,
    energy_density,
    fit_slope,
    measure_convergence_study,
    refine_acoustic_model,
    seismogram_derivative_bound,
    trace_regularity_probe,
)
from roughwave.evolution import _midpoint_steps
from roughwave.fields import PronyKernel
from roughwave.forward import sample_trajectory
from roughwave.operators import assemble_system


def study_case(dim, kernel):
    """Two-layer acoustic field, 24 steps, with no memory, a two-term Prony kernel or the
    fit of a tabulated one; a Ricker source and two pressure receivers."""
    cells = {1: [40], 2: [10, 8]}[dim]
    dt = 0.5 / max(cells)
    g = rw.build_grid(dim, cells, 1.0, dt, 24 * dt)
    rng = np.random.default_rng(dim)
    eye = np.eye(dim + 1)
    if kernel == "prony":
        kernel = PronyKernel(weights=tuple(rng.uniform(0, 1, g.n_cells)[:, None, None] * eye
                                           for _ in range(2)), taus=(0.05, 0.5))
    elif kernel == "tabulated":
        kernel = fitted(two_relaxations(dt * np.arange(30), rng.uniform(0, 1, g.n_cells),
                                        dim + 1), g)
    else:
        kernel = PronyKernel()
    field = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.55).coefficient_field(kernel=kernel)
    src = rw.make_ricker_source(g, dim + 1, [0.3] * dim, peak_frequency=1 / (8 * dt))
    sampler = rw.build_sampler(rng.uniform(0.05, 0.95, (2, dim)).tolist(), "pressure", g, dim + 1)
    return field, src, sampler


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
        assert density_leak(energy_density(traj), g, cone) == 0.0

    def test_quiet_cone_tiny_leak(self):
        g, system, src = self.setup_solution()
        traj = rw.solve_causal(system, src)
        cone = cone_from_speed([0.5], 0.0, 1.0, margin=0.1)
        assert density_leak(energy_density(traj), g, cone) <= 1e-6

    def test_intruding_cone_order_one_leak(self):
        # slowness above the medium bound, anchored at the emission peak:
        # the claimed-quiet region contains the wavefront
        g, system, src = self.setup_solution()
        traj = rw.solve_causal(system, src)
        bad = ConeSpec(apex_x=(0.5,), apex_t=1.5 / 5.0, slowness=1.1)
        assert density_leak(energy_density(traj), g, bad) > 0.3

    @pytest.mark.parametrize("cone", [ConeSpec((0.5,), 0.0, 1.0 / 1.1), ConeSpec((0.4,), 0.05, 0.2),
                                      ConeSpec((0.7,), 0.02, 3.0)], ids=["quiet", "intruding", "wide"])
    def test_block_fill_equals_the_whole_array_sums(self, cone):
        # 2 * LEAK_ROWS + 7 time rows; the leak is the same float as from one density
        g, system, src = self.setup_solution(t_end=(2 * LEAK_ROWS + 6) * 0.5 / 200)
        traj = rw.solve_causal(system, src)
        assert traj.states.shape[0] == 2 * LEAK_ROWS + 7
        states = traj.states.reshape(-1, g.n_cells, 2)
        density = 0.5 * g.cell_volume * np.einsum("nci,cij,ncj->nc", states, traj.a_blocks, states)
        dist = np.abs(g.centers()[:, 0] - cone.apex_x[0])
        quiet = cone.slowness * dist[None, :] + cone.apex_t - traj.times[:, None] >= 0
        assert 0 < quiet.sum() < quiet.size
        leak = density_leak(energy_density(traj), g, cone)
        assert leak == float(density[quiet].sum()) / float(density.sum())

    def test_holds_the_density_and_block_temporaries(self):
        # 1D: the (N+1, n_cells) density is half a series; a block of LEAK_ROWS of the
        # 401 rows adds 0.09 at most
        g, system, src = self.setup_solution(cells=400, t_end=0.5)
        traj = rw.solve_causal(system, src)
        cone = ConeSpec(apex_x=(0.5,), apex_t=0.3, slowness=1.1)
        peak = traced_peak(lambda: density_leak(energy_density(traj), g, cone))
        assert peak <= 0.6 * traj.states.nbytes

    def test_validation(self):
        g, system, src = self.setup_solution()
        traj = rw.solve_causal(system, src)
        with pytest.raises(InvalidArgumentError):
            ConeSpec(apex_x=(0.5,), apex_t=0.0, slowness=-1.0)
        with pytest.raises(InvalidArgumentError):
            density_leak(energy_density(traj), g,
                         ConeSpec(apex_x=(0.5, 0.5), apex_t=0.0, slowness=1.0))
        with pytest.raises(InvalidArgumentError):
            density_leak(energy_density(traj), g,
                         ConeSpec(apex_x=(0.5,), apex_t=9.0, slowness=1.0))

    @pytest.mark.parametrize("speed, margin, name", [
        (np.nan, 0.1, "speed"), (np.inf, 0.1, "speed"),
        (1.0, -1.0, "margin"), (1.0, -2.0, "margin"), (1.0, np.nan, "margin"),
    ])
    def test_cone_from_speed_rejects_a_cone_with_no_finite_positive_slowness(
            self, speed, margin, name):
        # a NaN slowness makes every quiet test false, so the leak would read exactly 0.0,
        # a pass; margin -1 divides by zero
        with pytest.raises(InvalidArgumentError, match=name):
            cone_from_speed([0.5], 0.0, speed, margin=margin)

    @pytest.mark.parametrize("slowness", [np.nan, np.inf])
    def test_cone_rejects_a_slowness_that_is_not_finite_and_positive(self, slowness):
        with pytest.raises(InvalidArgumentError, match="slowness"):
            ConeSpec(apex_x=(0.5,), apex_t=0.0, slowness=slowness)


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

    def test_seismogram_distance_with_a_sampler(self):
        g = rw.build_grid(1, [400], 1.0, 2.5e-3, 0.3)
        field = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.6).coefficient_field()
        src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=6.0)
        sampler = rw.build_sampler([[0.45], [0.8]], "pressure", g, 2)
        schedule = [4, 8, 16]
        report = measure_convergence_study(field, src, schedule, sampler=sampler)
        gaps = report.series["seismogram_distance"]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        rough = rw.forward_map(assemble_system(field), src, sampler).data
        for n, gap in zip(schedule, gaps):
            smooth = rw.forward_map(assemble_system(rw.mollify_field(field, n)), src, sampler).data
            assert gap == float(np.abs(smooth - rough).max())

    def test_study_computes_no_energy(self, energy_calls):
        g = rw.build_grid(1, [60], 1.0, 2.5e-3, 0.1)
        field = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.6).coefficient_field()
        src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=6.0)
        measure_convergence_study(field, src, [4, 8, 16])
        assert energy_calls == []

    @pytest.mark.parametrize("kernel", [None, "prony", "tabulated"])
    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_series_equal_to_the_stored_oracle(self, dim, boundary, kernel):
        field, src, sampler = study_case(dim, kernel)
        schedule = [2, 4, 8]
        for with_sampler in (None, sampler):
            report = measure_convergence_study(field, src, schedule, boundary=boundary,
                                               sampler=with_sampler)
            expected = stored_convergence_series(field, src, schedule, boundary, with_sampler)
            assert sorted(report.series) == sorted(expected)
            for name, values in expected.items():
                assert np.array_equal(report.series[name], values), name
            assert max(report.series["solution_distance"]) > 0

    def test_one_factor_per_study(self, splu_calls):
        # the periodic 40-cell step matrix splits into two parity classes, and the point
        # source reaches one: the five solves factor that class once, as one block diagonal
        field, src, sampler = study_case(1, "prony")
        measure_convergence_study(field, src, [2, 4, 8, 16], sampler=sampler)
        assert len(splu_calls) == 1

    def test_one_evaluation_product_and_solve_per_step(self, monkeypatch):
        # the five solves step as one batch: per step one source evaluation, one
        # right-hand-side product and one SuperLU solve on the batch's one factor
        field, src, sampler = study_case(1, "prony")
        evaluations, products, solves = [], [], []
        evaluate, block_diagonal = rw.SourceTerm.evaluate, evolution._block_diagonal_rows
        splu = spla.splu

        def counting_evaluate(source, *args):
            evaluations.append(source)
            return evaluate(source, *args)

        class CountingProducts:
            def __init__(self, matrices):
                self.matrix = block_diagonal(matrices)

            def __matmul__(self, carry):
                products.append((self.matrix.shape[0], *carry.shape))
                return self.matrix @ carry

        class CountingSolves:
            def __init__(self, *args, **kwargs):
                self.lu = splu(*args, **kwargs)

            def solve(self, rhs, trans="N"):
                solves.append(self)
                return self.lu.solve(rhs, trans)

        monkeypatch.setattr(rw.SourceTerm, "evaluate", counting_evaluate)
        monkeypatch.setattr(evolution, "_block_diagonal_rows", CountingProducts)
        monkeypatch.setattr(spla, "splu", CountingSolves)
        measure_convergence_study(field, src, [2, 4, 8, 16], sampler=sampler)
        n_steps = field.grid.n_steps
        assert evaluations == [src] * n_steps
        # the point source reaches one parity class: the product forms 40 of each
        # system's 80 rows from its full-size carry, u_n and its two Prony states
        assert products == [(5 * 40, 5 * 3 * 80, 1)] * n_steps
        assert len(set(solves)) == 1
        assert len(solves) == n_steps

    def test_holds_no_state_series(self):
        # the solves step together and keep one distance per step and the sampled
        # columns; what stays is one step operator per system and the samples
        # (0.07 of a series here), against about 3 series when every solve is stored
        g = rw.build_grid(1, [1000], 1.0, 5e-4, 1.0)
        field = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.6).coefficient_field()
        src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=6.0)
        sampler = rw.build_sampler([[0.45], [0.8]], "pressure", g, 2)
        series_bytes = (g.n_steps + 1) * 2 * g.n_cells * 8
        peak = traced_peak(measure_convergence_study, field, src, [4, 8, 16, 32], "periodic",
                           sampler)
        assert peak <= 0.1 * series_bytes

    def test_sampler_on_another_grid_named_before_solving(self, splu_calls):
        field, src, _ = study_case(1, None)
        other = rw.build_grid(1, [20], 1.0, 1e-2, 0.1)
        sampler = rw.build_sampler([[0.5]], "pressure", other, 2)
        with pytest.raises(GridMismatchError, match="sampler"):
            measure_convergence_study(field, src, [2, 4, 8], sampler=sampler)
        assert splu_calls == []

    def test_schedule_validation(self):
        g = rw.build_grid(1, [40], 1.0, 2e-3, 0.1)
        field = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0).coefficient_field()
        src = rw.make_ricker_source(g, 2, [0.4], peak_frequency=6.0)
        with pytest.raises(InvalidArgumentError):
            measure_convergence_study(field, src, [4, 8])
        with pytest.raises(InvalidArgumentError):
            measure_convergence_study(field, src, [8, 4, 16])

    def test_non_integral_schedule_entry_named(self, splu_calls):
        field, src, _ = study_case(1, None)
        with pytest.raises(InvalidArgumentError, match="schedule entry 8.2 is not an integer"):
            measure_convergence_study(field, src, [4, 8.2, 16.7])
        assert splu_calls == []
        # integral floats are integers
        as_floats = measure_convergence_study(field, src, [4.0, 8.0, 16.0])
        as_ints = measure_convergence_study(field, src, [4, 8, 16])
        assert as_floats.schedule == as_ints.schedule == (4.0, 8.0, 16.0)
        assert as_floats.series == as_ints.series

    @pytest.mark.parametrize("kernel", [None, "prony", "tabulated"])
    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    def test_mollified_systems_share_the_assembled_stencil(self, monkeypatch, boundary, kernel):
        # each mollified system is the rough one with its own mass, b and kernel, and
        # solves as the system assembled from its field
        rough, src, _ = study_case(1, kernel)
        damped = np.zeros_like(rough.a)
        damped[:8] = 0.3 * np.eye(2)  # damping on a few cells: mollified, it spreads
        batches = []

        def recording(systems, *args):
            batches.append(systems)
            return _midpoint_steps(systems, *args)

        monkeypatch.setattr(experiments, "_midpoint_steps", recording)
        schedule = [2, 4, 8]
        for b in (damped, None, 0 * damped):  # b = 0 assembles as no b
            f = dataclasses.replace(rough, b=b, c_b=None)
            measure_convergence_study(f, src, schedule, boundary=boundary)
            first, *smooth = batches.pop()
            assert all(s.skew is first.skew and s.p_matrices is first.p_matrices for s in smooth)
            for system, g in zip((first, *smooth),
                                 (f, *(rw.mollify_field(f, n, boundary) for n in schedule))):
                expected = assemble_system(g, None, boundary)
                assert (system.b_blocks is None) == (b is None or not b.any())
                assert (expected.b_blocks is None) == (system.b_blocks is None)
                for name in ("a_blocks", "b_blocks"):
                    assert np.array_equal(getattr(system, name), getattr(expected, name))
                assert type(system.kernel) is type(expected.kernel)
                for got, want in zip(dataclasses.astuple(system.kernel),
                                     dataclasses.astuple(expected.kernel)):
                    assert np.array_equal(got, want)
                assert (system.skew != expected.skew).nnz == 0
                for name in ("c_matrix", "rhs_matrix"):
                    got = getattr(system.step_operators, name)
                    want = getattr(expected.step_operators, name)
                    for part in ("data", "indices", "indptr"):
                        assert np.array_equal(getattr(got, part), getattr(want, part)), name


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
        assert report.schedule == (1.0, 3.0)
        assert set(report.series) == {"level0_derivative_bound", "level1_derivative_bound"}

    def test_zero_wavelet_zero_derivatives(self):
        g = rw.build_grid(1, [40], 1.0, 2e-3, 0.2)
        model = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0)

        def factory(grid, s):
            return rw.make_burst_source(grid, 2, [0.35], frequency=5.0, smoothness=s,
                                        amplitude=0.0)

        report = trace_regularity_probe(model, [[0.7]], factory,
                                        smoothness_schedule=(2,), refinements=1)
        assert max(max(bounds) for bounds in report.series.values()) == 0.0

    @pytest.mark.parametrize("refinements", [0, -3])
    def test_fewer_than_one_refinement_rejected(self, refinements, splu_calls):
        # with no refined level the coarsest is also the finest, and nothing can grow
        g = rw.build_grid(1, [20], 1.0, 1e-2, 0.2)
        model = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0)

        def factory(grid, s):
            return rw.make_burst_source(grid, 2, [0.35], frequency=5.0, smoothness=s)

        with pytest.raises(InvalidArgumentError, match="refinements"):
            trace_regularity_probe(model, [[0.7]], factory, refinements=refinements)
        assert splu_calls == []

    def test_empty_smoothness_schedule_rejected(self, splu_calls):
        # no class means no column to solve for, and no bound to compare
        g = rw.build_grid(1, [20], 1.0, 1e-2, 0.2)
        model = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0)

        def factory(grid, s):
            return rw.make_burst_source(grid, 2, [0.35], frequency=5.0, smoothness=s)

        with pytest.raises(InvalidArgumentError, match="smoothness_schedule"):
            trace_regularity_probe(model, [[0.7]], factory, smoothness_schedule=())
        assert splu_calls == []

    @pytest.mark.parametrize("refinements", [1, 3])
    def test_report_rows_are_smoothness_classes(self, tmp_path, refinements):
        g = rw.build_grid(1, [20], 1.0, 1e-2, 0.2)
        model = rw.AcousticModel(grid=g, kappa=1.0, rho=1.0)

        def factory(grid, s):
            return rw.make_burst_source(grid, 2, [0.35], frequency=5.0, smoothness=s)

        report = trace_regularity_probe(model, [[0.7]], factory, smoothness_schedule=(1, 2, 3),
                                        refinements=refinements)
        levels = [f"level{i}_derivative_bound" for i in range(refinements + 1)]
        assert sorted(report.series) == sorted(levels)
        assert all(len(report.series[name]) == 3 for name in levels)
        # one level's bound per class matches a direct solve on that level
        fine = model
        for _ in range(refinements):
            fine = refine_acoustic_model(fine, 2)
        system = rw.acoustics_system(fine)
        sampler = rw.build_sampler([[0.7]], "pressure", fine.grid, 2)
        data = rw.forward_map(system, factory(fine.grid, 2), sampler).data
        assert report.series[levels[-1]][1] == seismogram_derivative_bound(data, fine.grid.dt, 1)
        assert report.notes == "dt per refinement level: " + ", ".join(
            f"level{i} {0.01 / 2**i:.6g}" for i in range(refinements + 1))
        report.save(str(tmp_path / "trace"))
        rows = (tmp_path / "trace.csv").read_text().splitlines()
        assert rows[0] == "parameter," + ",".join(sorted(levels))
        assert [row.split(",")[0] for row in rows[1:]] == ["1.0", "2.0", "3.0"]

    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    def test_one_solve_per_level_equal_to_per_class_solves(self, splu_calls, boundary):
        # a level's smoothness classes are the columns of one solve on its system
        g = rw.build_grid(1, [40], 1.0, 5e-3, 0.4)
        model = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.6)

        def factory(grid, s):
            return rw.make_burst_source(grid, 2, [0.35], frequency=5.0, smoothness=s)

        schedule, refinements = (1, 2, 3), 2
        report = trace_regularity_probe(model, [[0.6]], factory, smoothness_schedule=schedule,
                                        refinements=refinements, boundary=boundary)
        # one factor per level: the one component of acoustic_free, or the one parity
        # class of the periodic grid that the point sources reach
        assert len(splu_calls) == refinements + 1
        level = model
        for i in range(refinements + 1):
            system = rw.acoustics_system(level, boundary)
            sampler = rw.build_sampler([[0.6]], "pressure", level.grid, 2)
            for s, bound in zip(schedule, report.series[f"level{i}_derivative_bound"]):
                traj = rw.solve_causal(system, factory(level.grid, s))
                data = sample_trajectory(sampler, traj).data
                assert bound == seismogram_derivative_bound(data, level.grid.dt, s - 1)
                assert bound > 0
            level = refine_acoustic_model(level, 2)

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
