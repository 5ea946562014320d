import numpy as np
import pytest

import roughwave as rw
from conftest import traced_peak
from roughwave.errors import InvalidArgumentError, UnsupportedConfigurationError
from roughwave.forward import (
    build_sampler,
    load_seismogram_csv,
    sample_trajectory,
    save_seismogram_csv,
)
from roughwave.experiments import seismogram_derivative_bound


def unit_acoustics(cells=100, dim=1, dt=1e-3, t_end=0.3, kappa=1.0):
    g = rw.build_grid(dim, [cells] * dim, 1.0, dt, t_end)
    model = rw.AcousticModel(grid=g, kappa=kappa, rho=1.0)
    return g, rw.acoustics_system(model)


class TestBuildSampler:
    def test_one_hot_at_cell_center(self):
        g, system = unit_acoustics(10)
        x = g.axis_centers(0)[4]
        s = build_sampler([[x]], "pressure", g, 2)
        row = s.matrix.toarray()[0]
        expect = np.zeros(20)
        expect[4 * 2] = 1.0
        np.testing.assert_allclose(row, expect, atol=1e-14)

    def test_midway_half_half_weights(self):
        g, system = unit_acoustics(10)
        x = 0.5 * (g.axis_centers(0)[4] + g.axis_centers(0)[5])
        s = build_sampler([[x]], "pressure", g, 2)
        row = s.matrix.toarray()[0]
        assert row[8] == pytest.approx(0.5)
        assert row[10] == pytest.approx(0.5)

    def test_normal_velocity_selects_matching_component(self):
        # vertical receiver line with normal (1, 0): rows read v_1 only
        g = rw.build_grid(2, [8, 8], 1.0, 1e-3, 0.01)
        s = build_sampler([[0.5, 0.3], [0.5, 0.7]], "normal_velocity", g, 3, normal=(1.0, 0.0))
        mat = s.matrix.toarray().reshape(2, g.n_cells, 3)
        assert np.abs(mat[:, :, 0]).max() == 0.0  # no pressure
        assert np.abs(mat[:, :, 2]).max() == 0.0  # no v_2
        assert np.abs(mat[:, :, 1]).max() > 0.0

    @pytest.mark.parametrize("normal, receiver", [
        ((0.0, 0.0), 0), ([[1.0, 0.0], [0.0, 0.0]], 1), ([[0.6, 0.8], [np.nan, 1.0]], 1),
        ([[np.inf, 0.0], [1.0, 0.0]], 0)], ids=["shared-zero", "zero", "nan", "inf"])
    def test_unusable_normal_names_its_receiver(self, normal, receiver):
        g = rw.build_grid(2, [8, 8], 1.0, 1e-3, 0.01)
        with pytest.raises(InvalidArgumentError, match=f"normal of receiver {receiver} is zero"):
            build_sampler([[0.5, 0.3], [0.5, 0.7]], "normal_velocity", g, 3, normal=normal)

    @pytest.mark.parametrize("normal", [[[1.0, 0.0]] * 3, [[1.0, 0.0, 0.0]] * 2, (1.0,),
                                        [[[1.0, 0.0]]]], ids=["three", "3d", "1d", "3-axes"])
    def test_normals_neither_one_nor_one_per_receiver(self, normal):
        g = rw.build_grid(2, [8, 8], 1.0, 1e-3, 0.01)
        with pytest.raises(InvalidArgumentError, match="one normal of 2 coordinate"):
            build_sampler([[0.5, 0.3], [0.5, 0.7]], "normal_velocity", g, 3, normal=normal)

    def test_one_normal_per_receiver_or_shared(self):
        g = rw.build_grid(2, [8, 8], 1.0, 1e-3, 0.01)
        receivers = [[0.5, 0.3], [0.5, 0.7]]
        shared = build_sampler(receivers, "normal_velocity", g, 3, normal=(3.0, 4.0))
        for normal in ([[3.0, 4.0]], [[0.6, 0.8], [0.6, 0.8]]):
            alike = build_sampler(receivers, "normal_velocity", g, 3, normal=normal)
            assert (alike.matrix != shared.matrix).nnz == 0

    def test_receiver_outside_domain(self):
        g, system = unit_acoustics(10)
        with pytest.raises(InvalidArgumentError, match="outside"):
            build_sampler([[1.5]], "pressure", g, 2)

    def test_builtin_tags_need_acoustic_layout(self):
        g = rw.build_grid(1, [10], 1.0, 1e-3, 0.01)
        with pytest.raises(UnsupportedConfigurationError):
            build_sampler([[0.5]], "pressure", g, 5)

    def test_custom_weights_warn(self):
        g, system = unit_acoustics(10)
        with pytest.warns(UserWarning, match="trace continuity"):
            s = build_sampler([[0.5]], "custom", g, 2, weights=np.array([[0.0, 1.0]]))
        assert s.n_channels == 1


class TestApplySampler:
    def test_zero_state(self):
        g, system = unit_acoustics(10)
        s = build_sampler([[0.3]], "pressure", g, 2)
        assert rw.apply_sampler(s, np.zeros(20)) == pytest.approx(0.0)

    def test_constant_pressure_partition_of_unity(self):
        g, system = unit_acoustics(10)
        s = build_sampler([[0.314], [0.77]], "pressure", g, 2)
        u = np.zeros((10, 2))
        u[:, 0] = 3.0
        np.testing.assert_allclose(rw.apply_sampler(s, u.ravel()), [3.0, 3.0], rtol=1e-14)

    def test_linear_pressure_field_exact(self):
        # linear interpolation reproduces linear fields at the receiver
        g, system = unit_acoustics(20)
        u = np.zeros((20, 2))
        u[:, 0] = g.axis_centers(0)
        for x0 in (0.33, 0.512, 0.75):
            s = build_sampler([[x0]], "pressure", g, 2)
            assert rw.apply_sampler(s, u.ravel())[0] == pytest.approx(x0, abs=1e-14)


class TestForwardMap:
    def test_zero_source(self):
        g, system = unit_acoustics(40, t_end=0.1)
        s = build_sampler([[0.7]], "pressure", g, 2)
        src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=8.0, amplitude=0.0)
        seis = rw.forward_map(system, src, s)
        assert np.abs(seis.data).max() == 0.0

    def test_first_arrival_time(self):
        # receiver at distance L: first arrival near L / sqrt(kappa/rho),
        # within one wavelet width
        g, system = unit_acoustics(300, t_end=0.45, kappa=1.0)
        fp = 10.0
        src = rw.make_ricker_source(g, 2, [0.25], peak_frequency=fp)
        s = build_sampler([[0.65]], "pressure", g, 2)
        seis = rw.forward_map(system, src, s)
        trace = np.abs(seis.data[0])
        arrival = seis.times[np.argmax(trace > 0.05 * trace.max())]
        travel_time = 0.4 / 1.0
        assert abs(arrival - travel_time) <= 1.5 / fp  # one wavelet width

    def test_linearity_in_source(self):
        g, system = unit_acoustics(60, t_end=0.2)
        s = build_sampler([[0.7]], "pressure", g, 2)
        src1 = rw.make_ricker_source(g, 2, [0.3], peak_frequency=8.0, amplitude=1.0)
        src4 = rw.make_ricker_source(g, 2, [0.3], peak_frequency=8.0, amplitude=4.0)
        d1 = rw.forward_map(system, src1, s).data
        d4 = rw.forward_map(system, src4, s).data
        assert np.abs(d4 - 4.0 * d1).max() <= 1e-12 * np.abs(d4).max()

    def test_rough_vs_mollified_seismograms_converge(self):
        # continuity under convergence in measure, sampled through the trace
        g = rw.build_grid(1, [240], 1.0, 1.25e-3, 0.35)
        model = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.6)
        field = model.coefficient_field()
        src = rw.make_ricker_source(g, 2, [0.3], peak_frequency=6.0)
        s = build_sampler([[0.45]], "pressure", g, 2)
        ref = rw.forward_map(rw.assemble_system(field), src, s).data
        gaps = []
        for n in (6, 12, 24):
            smooth = rw.mollify_field(field, n)
            data = rw.forward_map(rw.assemble_system(smooth), src, s).data
            gaps.append(np.abs(data - ref).max())
        assert gaps[-1] < gaps[0]
        assert gaps[-1] <= 0.5 * gaps[0]

    def test_trace_derivative_bounded_for_smooth_wavelet(self):
        # smoothness s = 2 wavelet: first time-derivative of the trace stays
        # bounded as dt refines
        bounds = []
        for cells, dt in ((100, 2e-3), (200, 1e-3)):
            g = rw.build_grid(1, [cells], 1.0, dt, 0.4)
            system = rw.acoustics_system(rw.AcousticModel(grid=g, kappa=1.0, rho=1.0))
            src = rw.make_burst_source(g, 2, [0.35], frequency=5.0, smoothness=2)
            s = build_sampler([[0.7]], "pressure", g, 2)
            seis = rw.forward_map(system, src, s)
            bounds.append(seismogram_derivative_bound(seis.data, dt, 1))
        assert bounds[1] <= 1.25 * bounds[0]


class TestAdjointSource:
    def test_zero_residual(self):
        g, system = unit_acoustics(20, t_end=0.05)
        s = build_sampler([[0.4]], "pressure", g, 2)
        out = rw.sampler_adjoint_source(s, np.zeros((1, g.n_steps + 1)))
        assert np.abs(out).max() == 0.0

    def test_one_hot_residual_transposes_weight_row(self):
        g, system = unit_acoustics(20, t_end=0.05)
        x = g.axis_centers(0)[7]
        s = build_sampler([[x]], "pressure", g, 2)
        r = np.zeros((1, g.n_steps + 1))
        r[0, 3] = 2.5
        out = rw.sampler_adjoint_source(s, r)
        expect = np.zeros(40)
        expect[14] = 2.5
        np.testing.assert_allclose(out[3], expect, atol=1e-14)
        assert np.abs(out[[0, 1, 2, 4]]).max() == 0.0

    def test_adjoint_identity(self):
        # <S u, r>_data = <u, S^T r>_grid to near round-off
        g, system = unit_acoustics(50, t_end=0.05)
        s = build_sampler([[0.21], [0.68], [0.9]], "normal_velocity", g, 2, normal=(1.0,))
        rng = np.random.default_rng(5)
        for _ in range(10):
            u = rng.standard_normal(system.n_state)
            r = rng.standard_normal(s.n_channels)
            lhs = float(rw.apply_sampler(s, u) @ r)
            rhs = float(u @ (s.matrix.T @ r))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1e-30)


class TestGatheredSampler:
    @pytest.mark.parametrize("tag", ["pressure", "normal_velocity"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_the_full_matrix(self, dim, tag):
        g, system = unit_acoustics({1: 40, 2: 9, 3: 5}[dim], dim=dim, dt=0.02, t_end=0.3)
        rng = np.random.default_rng(dim)
        s = build_sampler(rng.uniform(0.05, 0.95, (3, dim)), tag, g, dim + 1, normal=np.ones(dim))
        cols, gathered = s.gathered
        assert 0 < len(cols) < system.n_state
        src = rw.make_ricker_source(g, dim + 1, [0.5] * dim, peak_frequency=4.0)
        traj = rw.solve_causal(system, src)
        states = traj.states
        assert np.array_equal(sample_trajectory(s, traj).data, s.matrix @ states.T)
        assert np.array_equal(rw.apply_sampler(s, states[-1]), s.matrix @ states[-1])
        r = rng.standard_normal((s.n_channels, g.n_steps + 1))
        assert np.array_equal(rw.sampler_adjoint_source(s, r), (s.matrix.T @ r).T)

    def test_sampling_copies_no_series(self):
        # 1D 400 cells x 400 steps; the full product copies the series to C order
        g, system = unit_acoustics(400, dt=1e-3, t_end=0.4)
        s = build_sampler([[0.3], [0.7]], "pressure", g, 2)
        traj = rw.solve_causal(system, rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0))
        assert traced_peak(sample_trajectory, s, traj) <= 0.05 * traj.states.nbytes


class TestSeismogramIO:
    def test_csv_roundtrip(self, tmp_path):
        g, system = unit_acoustics(40, t_end=0.1)
        s = build_sampler([[0.3], [0.8]], "pressure", g, 2)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0)
        seis = rw.forward_map(system, src, s)
        path = tmp_path / "seis.csv"
        save_seismogram_csv(seis, path)
        back = load_seismogram_csv(path)
        np.testing.assert_allclose(back.times, seis.times)
        np.testing.assert_allclose(back.data, seis.data)

    def test_binary_roundtrip(self, tmp_path):
        from roughwave.forward import load_observed_data, save_seismogram_binary

        g, system = unit_acoustics(40, t_end=0.1)
        s = build_sampler([[0.3], [0.8]], "pressure", g, 2)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0)
        seis = rw.forward_map(system, src, s)
        base = str(tmp_path / "seis")
        save_seismogram_binary(seis, base)
        back = load_observed_data(base + ".rwf")
        np.testing.assert_allclose(back.times, seis.times)
        np.testing.assert_array_equal(back.data, seis.data)
        np.testing.assert_allclose(back.receivers, seis.receivers)

    def test_time_axis_matches_solve(self):
        g, system = unit_acoustics(30, t_end=0.1)
        s = build_sampler([[0.3]], "pressure", g, 2)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=8.0)
        traj = rw.solve_causal(system, src)
        seis = sample_trajectory(s, traj)
        np.testing.assert_array_equal(seis.times, traj.times)
