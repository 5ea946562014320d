"""Bytes on disk of every RWF1 writer, pinned by sha256, and the checked reader.

The fixture values are dyadic fractions and explicit bounds, so no file
content depends on a LAPACK eigen-solve or on the platform's libm.  Any
writer change that moves a byte of an existing format fails the digests,
so files written by earlier versions keep loading.
"""

import hashlib
import os

import numpy as np
import pytest

import roughwave as rw
from roughwave.errors import InvalidArgumentError
from roughwave.fields import (
    load_coefficient_field,
    read_field_array,
    save_coefficient_field,
    write_field_array,
)
from roughwave.forward import save_seismogram_binary
from roughwave.physics import kelvin_dim, load_model, save_model

DIGESTS = {
    "acoustic.json": "d61b8c910db5404352a8869abe141b7eede16009e67a02eafc3928eeef4c1190",
    "acoustic_kappa.rwf": "0b991efc907a6423a7d5482a9923b1a444f94530fc6492e56e9940632dfc68ee",
    "acoustic_rho.rwf": "f7c53fa8f570ce17a6e48e480bd5e1e1353b80681e7dde571e22d526b159018a",
    "field_prony.json": "2f513fdee29d78c9a8a7ba60b3d5a48a9224e1d86bf28651f20e27bea0bf4210",
    "field_prony_a.rwf": "f60d55fec106d7bbd3669e8f744a44b167a4383ac73ef7531a125f51c426a57c",
    "field_prony_b.rwf": "b40c64a7f25cf4c482016ee4406b9e285d017f0fd0be4f704dc28f06b3ff50fb",
    "field_prony_q0.rwf": "38489775585419ad8fff6f4f4d1ab79d1da3caa0381f840d0ea156c565bb1252",
    "field_tabulated.json": "8e4d5f254edcad4a014b76efce7b19b87cb24e51c7b4b121ada75f80cadc8526",
    "field_tabulated_a.rwf": "f60d55fec106d7bbd3669e8f744a44b167a4383ac73ef7531a125f51c426a57c",
    "field_tabulated_q.rwf": "76eb967dc1e8ff878ecffd0fd26ec88dbd67786e8db690a34fa67b800d8624d8",
    "seismogram.json": "8bb5cf327b1ad6191b2c881297b0ad0333a3b66d83bcebd97bb18233bcef5872",
    "seismogram.rwf": "9b8fd6c4aca13cf1ac9917e47d94c7b950b10eb792c0d922f99ee9b319c3e84e",
    "ve_prony.json": "341ced70ca483cd408619b7d5b99dd845664d1b8c4b9d4fe2bcc4495f26cdf05",
    "ve_prony_gamma0.rwf": "d5460b5496adcfad4d589594f72d5d83f8bba1b81969e16d13d1add0b03ccfdc",
    "ve_prony_gamma1.rwf": "f34115701ea768ddc1072616bfee6b0344e310f284d0efadc878e8220853e6d1",
    "ve_prony_gamma_e.rwf": "42148ffd8b0cccd82e919b7113c063ad972fbd6a3cea1548fa75002cef024547",
    "ve_prony_rho.rwf": "1cf4c10f92d42e323337a919054d38c1e47b5a26bfec97c1fd43cbe35924086d",
    "ve_tabulated.json": "1b4a1436a58452bbef14198648f87806ef2d7b7ad8876e6af328f75ace71e616",
    "ve_tabulated_gamma.rwf": "6e5b792dc86db22e5db1e20b9df9e596bfe889a0de0c89fd7b7988ae9dfeb8b0",
    "ve_tabulated_gamma_e.rwf": "42148ffd8b0cccd82e919b7113c063ad972fbd6a3cea1548fa75002cef024547",
    "ve_tabulated_rho.rwf": "1cf4c10f92d42e323337a919054d38c1e47b5a26bfec97c1fd43cbe35924086d",
    "ve_zero.json": "4ad550a4282ff4c3c4629e84cd22f19480ceab511731b1e387c5a7decb306743",
    "ve_zero_gamma_e.rwf": "42148ffd8b0cccd82e919b7113c063ad972fbd6a3cea1548fa75002cef024547",
    "ve_zero_rho.rwf": "1cf4c10f92d42e323337a919054d38c1e47b5a26bfec97c1fd43cbe35924086d",
}


def _spd_blocks(n_cells: int, k: int) -> np.ndarray:
    """Per-cell symmetric positive definite blocks with dyadic entries."""
    blocks = np.zeros((n_cells, k, k))
    for c in range(n_cells):
        blocks[c] = np.diag(1.0 + 0.25 * c + 0.5 * np.arange(k))
        blocks[c] += 0.125 * (np.ones((k, k)) - np.eye(k))
    return blocks


def write_fixture_files(root) -> list[str]:
    """Write one file set through every saver; returns the file names."""
    g1 = rw.build_grid(1, [5], 1.0, 0.125, 0.5)
    g2 = rw.build_grid(2, [3, 2], 1.0, 0.125, 0.5)
    n2, m = g2.n_cells, kelvin_dim(2)
    acoustic = rw.AcousticModel(grid=g1, kappa=1.0 + 0.25 * np.arange(5),
                                rho=2.0 - 0.125 * np.arange(5), s_kappa=2.0)
    save_model(acoustic, f"{root}/acoustic")

    gamma_e = _spd_blocks(n2, m)
    weights = (0.125 * np.tile(np.eye(m), (n2, 1, 1)), 0.0625 * _spd_blocks(n2, m))
    times = 0.125 * np.arange(4)
    samples = (0.5 - times)[:, None, None, None] * np.tile(np.eye(m), (n2, 1, 1))[None]
    kernels = {
        "ve_zero": rw.PronyKernel(),
        "ve_prony": rw.PronyKernel(weights=weights, taus=(0.5, 0.25)),
        "ve_tabulated": rw.TabulatedKernel(times=times, samples=samples),
    }
    for name, kernel in kernels.items():
        model = rw.ViscoelasticModel(grid=g2, rho=1.0 + 0.5 * np.arange(n2), gamma_elastic=gamma_e,
                                     gamma_kernel=kernel, g_lo=0.5, g_hi=8.0)
        save_model(model, f"{root}/{name}")

    k = 2
    field = rw.CoefficientField(
        grid=g1, k=k, a=_spd_blocks(5, k), b=0.25 * _spd_blocks(5, k)[:, ::-1],
        kernel=rw.PronyKernel(weights=(0.0625 * _spd_blocks(5, k),), taus=(0.75,)),
        c_lo=0.5, c_hi=4.0, c_b=2.0, c_q=1.0,
    )
    save_coefficient_field(field, f"{root}/field_prony")
    tab = rw.TabulatedKernel(times=times, samples=np.tile(samples[:, :1, :k, :k], (1, 5, 1, 1)))
    save_coefficient_field(rw.CoefficientField(grid=g1, k=k, a=_spd_blocks(5, k), kernel=tab,
                                               c_lo=0.5, c_hi=4.0, c_b=0.0, c_q=1.0),
                           f"{root}/field_tabulated")

    seis = rw.SeismogramData(times=0.125 * np.arange(6), data=0.5 * np.arange(18.0).reshape(3, 6),
                             receivers=np.array([[0.25], [0.5], [0.75]]), tag="pressure")
    save_seismogram_binary(seis, f"{root}/seismogram")
    return sorted(os.listdir(root))


class TestFormatStability:
    def test_files_are_byte_stable(self, tmp_path):
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in write_fixture_files(tmp_path)}
        assert digests == DIGESTS


class TestViscoelasticModelFiles:
    def make_model(self, kernel):
        g = rw.build_grid(2, [3, 2], 1.0, 1e-3, 0.05)
        m = kelvin_dim(2)
        return rw.ViscoelasticModel(grid=g, rho=1.0 + 0.5 * np.arange(6),
                                    gamma_elastic=_spd_blocks(6, m), gamma_kernel=kernel)

    def test_tabulated_kernel_roundtrip(self, tmp_path):
        m = kelvin_dim(2)
        times = np.linspace(0.0, 0.3, 5)
        # distinct per time, cell and entry, so a transposed layout cannot pass
        samples = (np.exp(-times)[:, None, None, None] * _spd_blocks(6, m)[None]
                   + times[:, None, None, None] * np.arange(6.0)[None, :, None, None])
        model = self.make_model(rw.TabulatedKernel(times=times, samples=samples))
        save_model(model, str(tmp_path / "ve"))
        back = load_model(str(tmp_path / "ve"))
        assert isinstance(back.gamma_kernel, rw.TabulatedKernel)
        np.testing.assert_array_equal(back.gamma_kernel.times, times)
        np.testing.assert_array_equal(back.gamma_kernel.samples, samples)
        np.testing.assert_array_equal(back.gamma_elastic, model.gamma_elastic)
        np.testing.assert_array_equal(back.rho, model.rho)
        assert back.grid == model.grid

    def test_no_kernel_roundtrip(self, tmp_path):
        model = self.make_model(rw.PronyKernel())
        save_model(model, str(tmp_path / "ve"))
        back = load_model(str(tmp_path / "ve"))
        assert back.gamma_kernel == rw.PronyKernel()
        assert (back.g_lo, back.g_hi) == (model.g_lo, model.g_hi)
        np.testing.assert_array_equal(back.gamma_elastic, model.gamma_elastic)
        assert sorted(os.listdir(tmp_path)) == ["ve.json", "ve_gamma_e.rwf", "ve_rho.rwf"]


class TestCheckedReader:
    def test_truncated_payload_names_the_file(self, tmp_path):
        write_fixture_files(tmp_path)
        path = tmp_path / "acoustic_rho.rwf"
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(InvalidArgumentError, match="acoustic_rho.rwf"):
            load_model(str(tmp_path / "acoustic"))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.rwf"
        path.write_bytes(b"RWF1" + b"\1" * 10)
        with pytest.raises(InvalidArgumentError, match="short.rwf"):
            read_field_array(path)

    def test_cell_count_must_match_the_manifest(self, tmp_path):
        write_fixture_files(tmp_path)
        write_field_array(tmp_path / "acoustic_kappa.rwf", (7,), 1, np.ones(7))
        with pytest.raises(InvalidArgumentError, match=r"acoustic_kappa.rwf.*cells \(7,\)"):
            load_model(str(tmp_path / "acoustic"))

    def test_width_must_match(self, tmp_path):
        write_fixture_files(tmp_path)
        write_field_array(tmp_path / "ve_prony_gamma_e.rwf", (3, 2), 2, np.ones((6, 2, 2)))
        with pytest.raises(InvalidArgumentError, match="ve_prony_gamma_e.rwf"):
            load_model(str(tmp_path / "ve_prony"))

    def test_values_per_cell_must_match(self, tmp_path):
        # a whole number of rows, but two time samples too few per cell
        write_fixture_files(tmp_path)
        write_field_array(tmp_path / "field_tabulated_q.rwf", (5,), 2, np.ones((5, 2, 2, 2)))
        with pytest.raises(InvalidArgumentError, match="values per cell"):
            load_coefficient_field(str(tmp_path / "field_tabulated"))

    def test_unknown_kernel_type_rejected(self, tmp_path):
        write_fixture_files(tmp_path)
        manifest = tmp_path / "ve_zero.json"
        manifest.write_text(manifest.read_text().replace('"zero"', '"fractional"'))
        with pytest.raises(InvalidArgumentError, match="fractional"):
            load_model(str(tmp_path / "ve_zero"))
