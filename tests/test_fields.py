import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import roughwave as rw
from oracles import full_width_mollify
from roughwave.errors import (
    GridMismatchError,
    InvalidArgumentError,
    InvalidCoefficientError,
)
from roughwave.fields import (
    CoefficientField,
    PronyKernel,
    TabulatedKernel,
    load_coefficient_field,
    read_field_array,
    ricker_wavelet,
    save_coefficient_field,
    write_field_array,
)


def step_field(n_cells=64, lo=1.0, hi=2.0, split=0.5):
    g = rw.build_grid(1, [n_cells], 1.0, 1e-3, 0.1)
    a = np.where(g.axis_centers(0)[:, None, None] < split, lo, hi) * np.ones((n_cells, 1, 1))
    return CoefficientField(grid=g, k=1, a=a)


class TestBuildGrid:
    def test_1d_arithmetic(self):
        g = rw.build_grid(1, [100], 1.0, 1e-3, 1.0)
        assert g.shape == (100,)
        assert g.h == (0.01,)
        assert g.n_steps == 1000

    def test_2d_arithmetic(self):
        g = rw.build_grid(2, [50, 50], 1.0, 5e-4, 0.5)
        assert g.n_cells == 2500
        assert g.n_steps == 1000

    @pytest.mark.parametrize("bad", [
        dict(cells_per_axis=[0]),
        dict(extent=-1.0),
        dict(dt=0.0),
        dict(t_end=-0.5),
    ])
    def test_invalid_arguments(self, bad):
        args = dict(dim=1, cells_per_axis=[10], extent=1.0, dt=1e-3, t_end=0.1)
        args.update(bad)
        with pytest.raises(InvalidArgumentError):
            rw.build_grid(**args)

    def test_state_size_and_volume(self):
        g = rw.build_grid(2, [4, 8], [1.0, 2.0], 1e-3, 0.01)
        assert g.state_size(3) == 3 * 32
        assert g.cell_volume == pytest.approx(0.25 * 0.25)

    def test_refined_grid(self):
        g = rw.build_grid(1, [50], 1.0, 1e-3, 0.5)
        fine = g.refined(2)
        assert fine.shape == (100,) and fine.n_steps == 2 * g.n_steps
        assert fine.h[0] == pytest.approx(g.h[0] / 2)


class TestMollify:
    def test_constant_field_fixed(self):
        g = rw.build_grid(1, [32], 1.0, 1e-3, 0.1)
        a = 1.7 * np.ones((32, 1, 1))
        f = CoefficientField(grid=g, k=1, a=a)
        out = rw.mollify_field(f, 4)
        np.testing.assert_allclose(out.a, a, rtol=0, atol=1e-15)

    def test_radius_below_one_cell_is_identity(self):
        f = step_field(16)
        out = rw.mollify_field(f, 17)
        np.testing.assert_array_equal(out.a, f.a)

    def test_step_field_against_direct_convolution(self):
        # brute-force periodic hat convolution, written independently
        f = step_field(64)
        n = 8
        half = 64 // n
        j = np.arange(-half, half + 1)
        w = (half + 1 - np.abs(j)).astype(float)
        w /= w.sum()
        vals = f.a[:, 0, 0]
        expect = np.zeros_like(vals)
        for i in range(64):
            expect[i] = sum(wj * vals[(i + off) % 64] for off, wj in zip(j, w))
        out = rw.mollify_field(f, n)
        np.testing.assert_allclose(out.a[:, 0, 0], expect, rtol=1e-13)

    def test_changes_confined_near_jump(self):
        f = step_field(100)
        n = 10
        out = rw.mollify_field(f, n)
        changed = np.abs(out.a[:, 0, 0] - f.a[:, 0, 0]) > 1e-14
        x = f.grid.axis_centers(0)
        # periodic wrap: the field also jumps at the domain edge
        near = (np.abs(x - 0.5) <= 1.0 / n + 1e-9) | (x <= 1.0 / n) | (x >= 1 - 1.0 / n)
        assert not np.any(changed & ~near)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_preserves_symmetry_and_bounds(self, seed, n):
        rng = np.random.default_rng(seed)
        g = rw.build_grid(1, [24], 1.0, 1e-3, 0.1)
        q, _ = np.linalg.qr(rng.standard_normal((24, 2, 2)))
        vals = 1.0 + rng.random((24, 2))
        a = np.einsum("cik,ck,cjk->cij", q, vals, q)
        a = 0.5 * (a + np.swapaxes(a, 1, 2))
        f = CoefficientField(grid=g, k=2, a=a)
        out = rw.mollify_field(f, n)
        assert np.abs(out.a - np.swapaxes(out.a, 1, 2)).max() == 0.0
        eig_in = np.linalg.eigvalsh(f.a)
        eig_out = np.linalg.eigvalsh(out.a)
        assert eig_out.min() >= eig_in.min() - 1e-12
        assert eig_out.max() <= eig_in.max() + 1e-12

    def test_walls_are_mirrored_not_wrapped(self):
        # far from the interface at 0.6, the edge cells keep their layer's value
        g = rw.build_grid(1, [64], 1.0, 1e-3, 0.1)
        f = rw.two_layer_acoustic(g, 1.0, 4.0, interface=0.6).coefficient_field()
        wrapped = rw.mollify_field(f, 4)
        assert wrapped.a[0, 0, 0] == pytest.approx(0.647, abs=1e-3)
        walled = rw.mollify_field(f, 4, "acoustic_free")
        assert walled.a[0, 0, 0] == pytest.approx(1.0, abs=3e-16)
        assert walled.a[63, 0, 0] == pytest.approx(0.25, abs=3e-16)

    def test_walled_2d_keeps_the_bounds_of_a(self):
        rng = np.random.default_rng(5)
        g = rw.build_grid(2, [10, 7], 1.0, 1e-3, 0.1)
        q, _ = np.linalg.qr(rng.standard_normal((70, 3, 3)))
        a = np.einsum("cik,ck,cjk->cij", q, 1.0 + rng.random((70, 3)), q)
        f = CoefficientField(grid=g, k=3, a=0.5 * (a + np.swapaxes(a, 1, 2)))
        eig_in = np.linalg.eigvalsh(f.a)
        for n in (1, 2, 3):
            out = rw.mollify_field(f, n, "acoustic_free")
            assert not np.allclose(out.a, f.a)
            eig_out = np.linalg.eigvalsh(out.a)
            assert eig_out.min() >= eig_in.min() - 1e-12
            assert eig_out.max() <= eig_in.max() + 1e-12

    @pytest.mark.parametrize("kernel", ["zero", "prony", "tabulated"])
    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equal_to_the_full_width_sum(self, dim, boundary, kernel):
        # diagonal blocks skip their off-diagonal entries; the sums of the others, and
        # the +0.0 written for the skipped ones, match the full-width sum bit for bit
        cells = {1: [24], 2: [10, 7], 3: [6, 5, 4]}[dim]
        g = rw.build_grid(dim, cells, 1.0, 1e-3, 0.01)
        rng = np.random.default_rng(dim)
        model = rw.AcousticModel(grid=g, kappa=1.0 + rng.random(g.n_cells),
                                 rho=1.0 + rng.random(g.n_cells))
        k, eye = model.k, np.eye(model.k)
        b = -0.0 * np.ones((g.n_cells, k, k))  # -0.0 off the diagonal, a gapped diagonal on it
        b[:, eye == 1] = np.where(rng.random((g.n_cells, k)) < 0.5, 0.0, rng.random((g.n_cells, k)))
        prony = PronyKernel(weights=(rng.random(g.n_cells)[:, None, None] * eye,
                                     np.tile(0.2 * eye, (g.n_cells, 1, 1))), taus=(0.1, 0.3))
        tabulated = TabulatedKernel(times=np.array([0.0, 0.5, 1.0]),
                                    samples=rng.random((3, g.n_cells, 1, 1)) * eye)
        q = {"zero": None, "prony": prony, "tabulated": tabulated}[kernel]
        f = model.coefficient_field(kernel=q, b=b)
        for n in (1, 2, 3, 8):
            out = rw.mollify_field(f, n, boundary)
            a = full_width_mollify(f.a, g, n, boundary)
            pairs = [(out.a, 0.5 * (a + np.swapaxes(a, 1, 2))),
                     (out.b, full_width_mollify(f.b, g, n, boundary))]
            if kernel == "prony":
                pairs += [(w, full_width_mollify(w0, g, n, boundary))
                          for w, w0 in zip(out.kernel.weights, prony.weights)]
            elif kernel == "tabulated":
                pairs += [(s, full_width_mollify(s0, g, n, boundary))
                          for s, s0 in zip(out.kernel.samples, tabulated.samples)]
            for got, want in pairs:
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_distance_to_mollification_nonincreasing_in_n(self):
        f = step_field(96)
        eps = 0.25
        dists = [rw.measure_distance(f, rw.mollify_field(f, n), eps) for n in (4, 8, 16, 32)]
        assert all(b <= a + 1e-15 for a, b in zip(dists, dists[1:]))


class TestMeasureDistance:
    def test_identical_fields(self):
        f = step_field()
        assert rw.measure_distance(f, f, 0.1) == 0.0

    def test_single_cell_difference(self):
        f = step_field(50)
        a2 = f.a.copy()
        a2[7] += 0.2
        f2 = CoefficientField(grid=f.grid, k=1, a=a2)
        assert rw.measure_distance(f, f2, 0.1) == pytest.approx(f.grid.cell_volume)
        assert rw.measure_distance(f, f2, 0.3) == 0.0

    def test_mollified_step_bound(self):
        # cells deviating by more than a quarter of the jump lie within the
        # kernel radius of the two jump locations (interface + periodic wrap)
        f = step_field(100)
        for n in (5, 10, 20):
            d = rw.measure_distance(f, rw.mollify_field(f, n), eps=0.25)
            assert d <= 2 * (2.0 / n) + 1e-12

    def test_grid_mismatch(self):
        f1 = step_field(50)
        f2 = step_field(60)
        with pytest.raises(GridMismatchError):
            rw.measure_distance(f1, f2, 0.1)

    def test_b_part_overload(self):
        g = rw.build_grid(1, [16], 1.0, 1e-3, 0.1)
        a = np.ones((16, 1, 1))
        f1 = CoefficientField(grid=g, k=1, a=a, b=np.zeros((16, 1, 1)))
        b2 = np.zeros((16, 1, 1))
        b2[3] = 0.5
        f2 = CoefficientField(grid=g, k=1, a=a, b=b2)
        assert rw.measure_distance(f1, f2, 0.25, part="b") == pytest.approx(g.cell_volume)
        assert rw.measure_distance(f1, f2, 0.75, part="b") == 0.0

    def test_kernel_overload(self):
        g = rw.build_grid(1, [16], 1.0, 1e-2, 0.5)
        w1 = np.ones((16, 1, 1))
        f1 = CoefficientField(grid=g, k=1, a=np.ones((16, 1, 1)),
                              kernel=PronyKernel(weights=(w1,), taus=(1.0,)))
        f2 = CoefficientField(grid=g, k=1, a=np.ones((16, 1, 1)),
                              kernel=PronyKernel(weights=(0.5 * w1,), taus=(1.0,)))
        assert rw.measure_distance(f1, f2, eps=1e-3, part="q") == pytest.approx(1.0)
        assert rw.measure_distance(f1, f1, eps=1e-3, part="q") == 0.0

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_pseudo_metric_triangle(self, seed):
        rng = np.random.default_rng(seed)
        g = rw.build_grid(1, [20], 1.0, 1e-3, 0.1)
        fields = []
        for _ in range(3):
            a = (1.0 + rng.random((20, 1, 1))) * np.ones((20, 1, 1))
            fields.append(CoefficientField(grid=g, k=1, a=a))
        f1, f2, f3 = fields
        eps = 0.2
        d13 = rw.measure_distance(f1, f3, 2 * eps)
        d12 = rw.measure_distance(f1, f2, eps)
        d23 = rw.measure_distance(f2, f3, eps)
        assert d13 <= d12 + d23 + 1e-12
        assert rw.measure_distance(f1, f2, eps) == rw.measure_distance(f2, f1, eps)


class TestSources:
    def test_zero_amplitude(self):
        g = rw.build_grid(1, [32], 1.0, 1e-3, 0.1)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=5.0, amplitude=0.0)
        assert np.abs(src.evaluate(0.05)).max() == 0.0

    def test_causality(self):
        g = rw.build_grid(1, [32], 1.0, 1e-3, 0.5)
        src = rw.make_ricker_source(g, 2, [0.5], peak_frequency=5.0, onset=0.2)
        for t in (0.0, 0.1, 0.1999):
            assert np.abs(src.evaluate(t)).max() == 0.0
        assert np.abs(src.evaluate(0.45)).max() > 0.0

    def test_ricker_integral_vanishes(self):
        # quadrature oracle: the wavelet integrates to zero over all time
        val, err = quad(lambda t: ricker_wavelet(t, 5.0, 0.3), -5.0, 5.0,
                        limit=400, epsabs=1e-13)
        assert abs(val) < max(1e-11, 10 * err)

    def test_burst_smoothness_window(self):
        g = rw.build_grid(1, [32], 1.0, 1e-3, 0.5)
        src = rw.make_burst_source(g, 2, [0.5], frequency=4.0, smoothness=3, onset=0.1)
        assert src.smoothness == 3
        assert src.wavelet(0.05) == 0.0
        assert src.wavelet(0.36) == 0.0  # after one period
        assert src.wavelet(0.225) == pytest.approx(1.0)


class TestFieldValidation:
    def test_asymmetric_a_rejected(self):
        g = rw.build_grid(1, [8], 1.0, 1e-3, 0.1)
        a = np.tile(np.array([[1.0, 0.3], [0.0, 1.0]]), (8, 1, 1))
        with pytest.raises(InvalidCoefficientError):
            CoefficientField(grid=g, k=2, a=a)

    def test_bound_violation_names_cell(self):
        g = rw.build_grid(1, [8], 1.0, 1e-3, 0.1)
        a = np.tile(np.eye(2), (8, 1, 1))
        a[5] *= 3.0
        with pytest.raises(InvalidCoefficientError, match="cell 5"):
            CoefficientField(grid=g, k=2, a=a, c_lo=0.5, c_hi=2.0)

    def test_non_spd_rejected(self):
        g = rw.build_grid(1, [8], 1.0, 1e-3, 0.1)
        a = np.tile(np.diag([1.0, -0.5]), (8, 1, 1))
        with pytest.raises(InvalidCoefficientError):
            CoefficientField(grid=g, k=2, a=a)

    def test_tabulated_kernel_validation(self):
        with pytest.raises(InvalidArgumentError):
            TabulatedKernel(times=np.array([0.1, 0.2]), samples=np.zeros((2, 4, 1, 1)))
        with pytest.raises(InvalidArgumentError):
            PronyKernel(weights=(np.zeros((4, 1, 1)),), taus=(-1.0,))


class TestFieldIO:
    def test_rwf_roundtrip(self, tmp_path):
        g = rw.build_grid(2, [6, 4], 1.0, 1e-3, 0.1)
        payload = np.arange(24.0 * 9).reshape(24, 3, 3)
        path = tmp_path / "field.rwf"
        write_field_array(path, g, 3, payload)
        dim, k, shape, data = read_field_array(path)
        assert (dim, k, shape) == (2, 3, (6, 4))
        np.testing.assert_array_equal(data.reshape(24, 3, 3), payload)

    def test_magic_guard(self, tmp_path):
        path = tmp_path / "junk.rwf"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(InvalidArgumentError):
            read_field_array(path)

    def test_coefficient_field_roundtrip_with_kernel(self, tmp_path):
        rng = np.random.default_rng(0)
        g = rw.build_grid(1, [12], 1.0, 1e-3, 0.1)
        raw = rng.standard_normal((12, 2, 2))
        a = 0.5 * (raw + np.swapaxes(raw, 1, 2)) + 3 * np.eye(2)
        b = rng.standard_normal((12, 2, 2))
        w = np.tile(0.2 * np.eye(2), (12, 1, 1))
        f = CoefficientField(grid=g, k=2, a=a, b=b,
                             kernel=PronyKernel(weights=(w,), taus=(0.7,)))
        base = str(tmp_path / "field")
        save_coefficient_field(f, base)
        back = load_coefficient_field(base)
        np.testing.assert_allclose(back.a, f.a)
        np.testing.assert_allclose(back.b, f.b)
        assert isinstance(back.kernel, PronyKernel)
        assert back.kernel.taus == (0.7,)
        np.testing.assert_allclose(back.kernel.weights[0], w)

    def test_tabulated_kernel_roundtrip(self, tmp_path):
        g = rw.build_grid(1, [6], 1.0, 1e-3, 0.1)
        times = np.linspace(0.0, 0.3, 7)
        samples = np.exp(-times)[:, None, None, None] * np.ones((1, 6, 1, 1))
        f = CoefficientField(grid=g, k=1, a=np.ones((6, 1, 1)),
                             kernel=TabulatedKernel(times=times, samples=samples))
        base = str(tmp_path / "tab")
        save_coefficient_field(f, base)
        back = load_coefficient_field(base)
        assert isinstance(back.kernel, TabulatedKernel)
        np.testing.assert_allclose(back.kernel.times, times)
        np.testing.assert_allclose(back.kernel.samples, samples)
