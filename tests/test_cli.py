import hashlib
import json
import os

import numpy as np
import pytest
from conftest import write_tabulated_gamma
from oracles import stored_convergence_series

from roughwave import cli, evolution, sensitivity
from roughwave.cli import (
    COMMANDS,
    build_sampler_from_spec,
    build_source,
    build_system,
    main,
    parse_config,
)
from roughwave.errors import ConfigError
from roughwave.fields import TabulatedKernel, build_grid, prony_fit
from roughwave.forward import SeismogramData, load_observed_data, save_seismogram_csv
from roughwave.physics import AcousticModel, ViscoelasticModel, save_model
from roughwave.sensitivity import misfit_gradient


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def base_model(cells=100, t_end=0.3, dt=1e-3):
    return {
        "type": "acoustic",
        "grid": {"dim": 1, "cells": [cells], "extent": 1.0, "dt": dt, "t_end": t_end},
        "kappa": 1.0,
        "rho": 1.0,
    }


def tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(name.encode())
            h.update(open(path, "rb").read())
    return h.hexdigest()


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "simulate",
            "model": base_model(),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
        })
        cfg = parse_config(path)
        assert cfg.leak_tolerance == 1e-6
        assert cfg.output == "out"
        assert cfg.seed == 0

    def test_missing_model_named(self, tmp_path):
        path = write_config(tmp_path, {"command": "simulate"})
        with pytest.raises(ConfigError, match="config.model"):
            parse_config(path)

    def test_unknown_command_lists_valid_tags(self, tmp_path):
        path = write_config(tmp_path, {"command": "explode", "model": base_model()})
        with pytest.raises(ConfigError, match="simulate, forward, gradient, check, study"):
            parse_config(path)

    def test_missing_source_named(self, tmp_path):
        path = write_config(tmp_path, {"command": "simulate", "model": base_model()})
        with pytest.raises(ConfigError, match="config.source"):
            parse_config(path)

    def test_gradient_needs_observed(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "gradient",
            "model": base_model(),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "sampler": {"tag": "pressure", "receivers": [[0.7]]},
        })
        with pytest.raises(ConfigError, match="config.observed"):
            parse_config(path)

    def test_multi_shot_gradient_needs_one_observed_per_source(self, tmp_path):
        two_shots = {
            "command": "gradient",
            "model": base_model(),
            "sources": [{"type": "ricker", "center": [x], "frequency": 8.0} for x in (0.3, 0.5)],
            "sampler": {"tag": "pressure", "receivers": [[0.7]]},
        }
        for observed in ("seis.csv", ["seis.csv"], ["a.csv", "b.csv", "c.csv"]):
            path = write_config(tmp_path, {**two_shots, "observed": observed})
            with pytest.raises(ConfigError, match="config.observed"):
                parse_config(path)
            assert main(["gradient", "--config", path]) == 2
        path = write_config(tmp_path, {**two_shots, "observed": ["a.csv", "b.csv"]})
        assert parse_config(path).observed == ["a.csv", "b.csv"]

    def test_removed_integrator_knobs_are_ignored(self, tmp_path):
        payload = {
            "command": "simulate",
            "model": base_model(),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
        }
        path = write_config(tmp_path, {**payload, "integrator": {
            "scheme": "implicit_midpoint", "tolerance": 1e-9, "max_iterations": 200,
            "cfl_safety": 0.5}})
        assert parse_config(path) == parse_config(write_config(tmp_path, payload, "plain.json"))

    def test_removed_store_stride_is_ignored(self, tmp_path):
        payload = {
            "command": "simulate",
            "model": base_model(cells=40, t_end=0.1),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "output": str(tmp_path / "out"),
        }
        path = write_config(tmp_path, {**payload, "integrator": {
            "scheme": "implicit_midpoint", "store_stride": 5}})
        assert parse_config(path) == parse_config(write_config(tmp_path, payload, "plain.json"))
        assert main(["simulate", "--config", path]) == 0

    def test_source_folds_into_sources(self, tmp_path):
        spec = {"type": "ricker", "center": [0.5], "frequency": 8.0}
        payload = {"command": "simulate", "model": base_model()}
        one = parse_config(write_config(tmp_path, {**payload, "source": spec}))
        assert one.sources == [spec]
        assert one == parse_config(write_config(tmp_path, {**payload, "sources": [spec]}, "list.json"))
        assert not hasattr(one, "source") and not hasattr(one, "jobs")

    def test_jobs_key_is_ignored(self, tmp_path):
        payload = {
            "command": "forward",
            "model": base_model(cells=40, t_end=0.1),
            "sources": [{"type": "ricker", "center": [x], "frequency": 8.0} for x in (0.3, 0.6)],
            "sampler": {"tag": "pressure", "receivers": [[0.7]]},
        }
        for name, extra in (("plain", {}), ("jobs", {"jobs": 4})):
            path = write_config(tmp_path, {**payload, **extra, "output": str(tmp_path / name)},
                                f"{name}.json")
            assert main(["forward", "--config", path]) == 0
        assert tree_digest(tmp_path / "jobs") == tree_digest(tmp_path / "plain")

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.json")

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(str(path))


class TestCommands:
    def test_simulate_writes_artifacts(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "simulate",
            "model": base_model(cells=60, t_end=0.1),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "output": str(tmp_path / "out"),
            "snapshot_every": 20,
        })
        assert main(["simulate", "--config", path]) == 0
        assert (tmp_path / "out" / "energy.csv").exists()
        assert (tmp_path / "out" / "snapshots" / "frame_000000.rwf").exists()

    def test_forward_then_gradient_roundtrip(self, tmp_path):
        fwd = write_config(tmp_path, {
            "command": "forward",
            "model": base_model(cells=80, t_end=0.4),
            "source": {"type": "ricker", "center": [0.3], "frequency": 8.0, "amplitude": 5.0},
            "sampler": {"tag": "pressure", "receivers": [[0.6]]},
            "output": str(tmp_path / "fwd"),
        }, name="fwd.json")
        assert main(["forward", "--config", fwd]) == 0
        seis = tmp_path / "fwd" / "seismogram_000.csv"
        assert seis.exists()

        grad = write_config(tmp_path, {
            "command": "gradient",
            "model": {**base_model(cells=80, t_end=0.4), "kappa": 1.1},
            "source": {"type": "ricker", "center": [0.3], "frequency": 8.0, "amplitude": 5.0},
            "sampler": {"tag": "pressure", "receivers": [[0.6]]},
            "observed": str(seis),
            "output": str(tmp_path / "grad"),
        }, name="grad.json")
        assert main(["gradient", "--config", grad]) == 0
        diag = json.loads((tmp_path / "grad" / "gradient_diagnostics.json").read_text())
        assert diag["objective"] > 0
        assert diag["diagnostics"]["dot_product_residual"] <= 1e-8
        assert (tmp_path / "grad" / "gradient_grad_a.rwf").exists()

    def test_multi_shot_gradient_pairs_each_shot_with_its_data(self, tmp_path):
        sources = [{"type": "ricker", "center": [x], "frequency": 8.0, "amplitude": 5.0}
                   for x in (0.3, 0.5)]
        sampler = {"tag": "pressure", "receivers": [[0.6], [0.8]]}
        fwd = write_config(tmp_path, {
            "command": "forward", "model": base_model(cells=60, t_end=0.3),
            "sources": sources, "sampler": sampler, "output": str(tmp_path / "fwd"),
        }, name="fwd.json")
        assert main(["forward", "--config", fwd]) == 0
        files = [str(tmp_path / "fwd" / f"seismogram_{i:03d}.csv") for i in range(2)]

        grad = write_config(tmp_path, {
            "command": "gradient", "model": {**base_model(cells=60, t_end=0.3), "kappa": 1.1},
            "sources": sources, "sampler": sampler, "observed": files,
            "output": str(tmp_path / "grad"),
        }, name="grad.json")
        assert main(["gradient", "--config", grad]) == 0
        diag = json.loads((tmp_path / "grad" / "gradient_diagnostics.json").read_text())

        cfg = parse_config(grad)
        _, system = build_system(cfg)
        samp = build_sampler_from_spec(cfg.sampler, system)
        per_shot = [
            misfit_gradient(system, build_source(spec, system), samp, load_observed_data(f)).objective
            for spec, f in zip(sources, files)
        ]
        assert per_shot[0] != per_shot[1]
        assert diag["objective"] == per_shot[0] + per_shot[1]

    def test_byte_identical_reruns(self, tmp_path):
        for out in ("run1", "run2"):
            path = write_config(tmp_path, {
                "command": "forward",
                "model": base_model(cells=50, t_end=0.2),
                "source": {"type": "ricker", "center": [0.4], "frequency": 8.0},
                "sampler": {"tag": "pressure", "receivers": [[0.7]]},
                "output": str(tmp_path / out),
                "seed": 7,
            }, name=f"{out}.json")
            assert main(["forward", "--config", path]) == 0
        assert tree_digest(tmp_path / "run1") == tree_digest(tmp_path / "run2")

    def test_gradient_fails_above_the_dot_product_bound(self, tmp_path, monkeypatch):
        fwd = write_config(tmp_path, {
            "command": "forward",
            "model": base_model(cells=20, t_end=0.05),
            "source": {"type": "ricker", "center": [0.3], "frequency": 8.0},
            "sampler": {"tag": "pressure", "receivers": [[0.6]]},
            "output": str(tmp_path / "fwd"),
        }, name="fwd.json")
        assert main(["forward", "--config", fwd]) == 0
        grad = write_config(tmp_path, {
            "command": "gradient",
            "model": {**base_model(cells=20, t_end=0.05), "kappa": 1.1},
            "source": {"type": "ricker", "center": [0.3], "frequency": 8.0},
            "sampler": {"tag": "pressure", "receivers": [[0.6]]},
            "observed": str(tmp_path / "fwd" / "seismogram_000.csv"),
            "output": str(tmp_path / "grad"),
        }, name="grad.json")
        assert main(["gradient", "--config", grad]) == 0
        # the relative gap that both the stand-alone and the fused dot test report
        monkeypatch.setattr(sensitivity, "_adjoint_identity_error", lambda *args: 1e-10)
        assert main(["gradient", "--config", grad]) == 3
        diag = json.loads((tmp_path / "grad" / "gradient_diagnostics.json").read_text())
        assert diag["diagnostics"]["dot_product_residual"] == 1e-10

    def test_check_passes_on_homogeneous_acoustics(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "check",
            "model": base_model(cells=100, t_end=0.4),
            "sampler": {"tag": "pressure", "receivers": [[0.7], [0.25]]},
            "seed": 11,
        })
        assert main(["check", "--config", path]) == 0

    def test_study_command(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "study",
            "model": {
                "type": "acoustic",
                "grid": {"dim": 1, "cells": [150], "extent": 1.0, "dt": 2e-3, "t_end": 0.4},
                "kappa": {"two_layer": {"left": 1.0, "right": 4.0, "interface": 0.6}},
                "rho": 1.0,
            },
            "source": {"type": "ricker", "center": [0.3], "frequency": 6.0},
            "study": {"kind": "measure_convergence", "schedule": [4, 8, 16]},
            "output": str(tmp_path / "study"),
        })
        assert main(["study", "--config", path]) == 0
        payload = json.loads((tmp_path / "study" / "study_measure_convergence.json").read_text())
        assert payload["passed"] is True

    def test_trace_regularity_study(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "study",
            "model": base_model(cells=60, dt=2.5e-3, t_end=0.3),
            "sampler": {"tag": "pressure", "receivers": [[0.7]]},
            "study": {"kind": "trace_regularity", "smoothness": [2], "refinements": 1,
                      "center": [0.35], "frequency": 5.0},
            "output": str(tmp_path / "trace"),
        })
        assert main(["study", "--config", path]) == 0
        payload = json.loads((tmp_path / "trace" / "study_trace_regularity.json").read_text())
        assert payload["schedule"] == [2.0]
        assert set(payload["series"]) == {"level0_derivative_bound", "level1_derivative_bound"}

    def test_cfl_violation_exits_nonzero(self, tmp_path, capsys):
        # the RK4 config whose dt broke its CFL bound now stops at the scheme check
        path = write_config(tmp_path, {
            "command": "simulate",
            "model": base_model(cells=100, dt=8e-3, t_end=0.1),
            "source": {"type": "ricker", "center": [0.5], "frequency": 5.0},
            "integrator": {"scheme": "rk4"},
            "output": str(tmp_path / "out"),
        })
        assert main(["simulate", "--config", path]) == 2
        assert "config error: config.integrator.scheme" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"command": "simulate"})
        assert main(["simulate", "--config", path]) == 2

    def test_command_mismatch_rejected(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "simulate",
            "model": base_model(),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
        })
        assert main(["forward", "--config", path]) == 2


class TestInputErrors:
    """Bad kernels and unreadable input files exit 2 and name the config field."""

    def expect_config_error(self, tmp_path, capsys, payload, where):
        path = write_config(tmp_path, payload)
        assert main([payload["command"], "--config", path]) == 2
        assert f"config error: {where}" in capsys.readouterr().err

    def viscoelastic(self, kernel):
        return {
            "command": "simulate",
            "model": {"type": "viscoelastic", "grid": base_model(cells=20)["grid"],
                      "lam": 1.2, "rho": 1.0, "kernel": kernel},
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
        }

    def test_viscoelastic_kernel_term_without_tau(self, tmp_path, capsys):
        kernel = {"type": "prony", "terms": [{"scale": 0.2}]}
        self.expect_config_error(tmp_path, capsys, self.viscoelastic(kernel),
                                 "config.model.kernel.terms.tau")

    @pytest.mark.parametrize("kind", ["tabulated", "fractional"])
    def test_viscoelastic_kernel_type_not_dropped(self, tmp_path, capsys, kind):
        self.expect_config_error(tmp_path, capsys, self.viscoelastic({"type": kind}),
                                 "config.model.kernel.type")

    def save_acoustic(self, tmp_path, name, cells):
        grid = build_grid(1, [cells], 1.0, 1e-3, 0.3)
        save_model(AcousticModel(grid=grid, kappa=2.0, rho=1.0), str(tmp_path / name))

    def saved_model_config(self, tmp_path):
        self.save_acoustic(tmp_path, "model", 20)
        return {
            "command": "simulate",
            "model": {"path": str(tmp_path / "model")},
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "output": str(tmp_path / "out"),
        }

    def test_saved_model_runs(self, tmp_path):
        path = write_config(tmp_path, self.saved_model_config(tmp_path))
        assert main(["simulate", "--config", path]) == 0

    def test_missing_model_manifest(self, tmp_path, capsys):
        payload = self.saved_model_config(tmp_path)
        payload["model"]["path"] = str(tmp_path / "absent")
        self.expect_config_error(tmp_path, capsys, payload, "config.model.path")

    def test_truncated_model_array(self, tmp_path, capsys):
        payload = self.saved_model_config(tmp_path)
        rho = tmp_path / "model_rho.rwf"
        rho.write_bytes(rho.read_bytes()[:-5])
        self.expect_config_error(tmp_path, capsys, payload, "config.model.path")

    def test_model_array_with_wrong_cell_count(self, tmp_path, capsys):
        payload = self.saved_model_config(tmp_path)
        self.save_acoustic(tmp_path, "other", 30)
        os.replace(tmp_path / "other_kappa.rwf", tmp_path / "model_kappa.rwf")
        self.expect_config_error(tmp_path, capsys, payload, "config.model.path")

    @pytest.mark.parametrize("key,value", [
        ("origin", [0.0]), ("dt", "0.01"), ("dt", float("nan")), ("h", [float("nan"), 0.125]),
        ("n_steps", 2.5), ("cells", [8.0, 8]), ("dim", 2.0), ("cells", 8), ("h", 0.125),
        ("origin", 0.0),
    ], ids=["origin_short", "dt_string", "dt_nan", "h_nan", "n_steps_fraction", "cells_float",
            "dim_float", "cells_scalar", "h_scalar", "origin_scalar"])
    def test_malformed_grid_in_the_model_manifest(self, tmp_path, capsys, key, value):
        base = str(tmp_path / "model")
        save_model(AcousticModel(grid=build_grid(2, [8, 8], 1.0, 1e-2, 0.1), kappa=2.0, rho=1.0),
                   base)
        with open(f"{base}.json") as fh:
            manifest = json.load(fh)
        manifest["grid"][key] = value
        with open(f"{base}.json", "w") as fh:
            json.dump(manifest, fh)
        payload = {"command": "forward", "model": {"path": base},
                   "source": {"type": "ricker", "center": [0.5, 0.5], "frequency": 8.0},
                   "sampler": {"tag": "pressure", "receivers": [[0.7, 0.5]]},
                   "output": str(tmp_path / "out")}
        self.expect_config_error(tmp_path, capsys, payload, "config.model.path")

    def test_viscoelastic_model_with_two_kernel_samples(self, tmp_path, capsys):
        grid = build_grid(1, [20], 1.0, 1e-3, 0.3)
        base = str(tmp_path / "model")
        save_model(ViscoelasticModel(grid=grid, rho=1.0, gamma_elastic=np.ones((20, 1, 1))), base)
        write_tabulated_gamma(base, [0.0, 1e-3], np.full((2, 20, 1, 1), 0.1))
        payload = {"command": "simulate", "model": {"path": base},
                   "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
                   "output": str(tmp_path / "out")}
        path = write_config(tmp_path, payload)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        # a step down to zero after 1e-3 is no sum of decays on the fit's grid
        assert "config error: config.model.path" in err
        assert "the Prony fit of the tabulated kernel misses it by" in err
        assert "in cell 0 (bound 0.01)" in err

    def test_viscoelastic_model_with_a_tabulated_gamma(self, tmp_path):
        # a hand-written tabulated gamma loads as its fit on the manifest's grid, and runs
        grid = build_grid(1, [20], 1.0, 1e-3, 0.3)
        base = str(tmp_path / "model")
        save_model(ViscoelasticModel(grid=grid, rho=1.0, gamma_elastic=np.ones((20, 1, 1))), base)
        times = 0.01 * np.arange(40)
        gamma = 0.3 * np.exp(-times / 0.2) * (1.0 + 0.5 * np.cos(12.0 * times))
        samples = gamma[:, None, None, None] * np.linspace(0.5, 1.0, 20)[None, :, None, None]
        write_tabulated_gamma(base, times, samples)
        payload = {"command": "simulate", "model": {"path": base},
                   "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
                   "output": str(tmp_path / "out")}
        path = write_config(tmp_path, payload)
        model, system = build_system(parse_config(path))
        fit = prony_fit(TabulatedKernel(times=times, samples=samples), grid.dt, 0.3)
        assert model.gamma_kernel.taus == system.kernel.taus == fit.taus
        for w, w_fit in zip(model.gamma_kernel.weights, fit.weights, strict=True):
            np.testing.assert_array_equal(w, w_fit)
        assert main(["simulate", "--config", path]) == 0
        energies = np.loadtxt(tmp_path / "out" / "energy.csv", delimiter=",", skiprows=1)
        assert energies.shape == (grid.n_steps + 1, 2) and energies[:, 1].max() > 0

    def test_kernel_term_not_an_object(self, tmp_path, capsys):
        self.expect_config_error(tmp_path, capsys, {
            "command": "simulate",
            "model": {**base_model(cells=20), "kernel": {"type": "prony", "terms": [0.2]}},
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
        }, "config.model.kernel.terms")

    @pytest.mark.parametrize("command", ["check", "gradient"])
    def test_negative_seed_in_the_config(self, tmp_path, capsys, command):
        self.expect_config_error(tmp_path, capsys, {
            "command": command, "model": base_model(cells=20, t_end=0.05),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "sampler": {"tag": "pressure", "receivers": [[0.7]]},
            "observed": str(tmp_path / "observed.csv"), "seed": -1,
        }, "config.seed")

    def test_negative_seed_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("ran with a negative seed"))
        path = write_config(tmp_path, {"command": "check", "model": base_model(cells=20)})
        assert main(["check", "--config", path, "--seed", "-1"]) == 2
        assert "config error: --seed: expected a number >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("channels, n_times, dt", [(2, 51, 1e-3), (1, 2, 1e-3),
                                                       (1, 50, 1e-3), (1, 51, 2e-3)])
    def test_observed_data_that_does_not_fit_the_run(self, tmp_path, capsys, monkeypatch,
                                                     channels, n_times, dt):
        # the run predicts 1 channel at 51 time levels (50 steps of 1e-3)
        monkeypatch.setattr(sensitivity, "misfit_gradient",
                            lambda *args, **kwargs: pytest.fail("solved before checking"))
        path = str(tmp_path / "observed.csv")
        times = dt * np.arange(n_times)
        save_seismogram_csv(SeismogramData(times=times, data=np.zeros((channels, n_times)),
                                           receivers=np.zeros((channels, 1))), path)
        self.expect_config_error(tmp_path, capsys, {
            "command": "gradient",
            "model": base_model(cells=20, t_end=0.05),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "sampler": {"tag": "pressure", "receivers": [[0.7]]},
            "observed": path,
            "output": str(tmp_path / "out"),
        }, "config.observed")

    def test_observed_data_with_a_nan_sample(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sensitivity, "misfit_gradient",
                            lambda *args, **kwargs: pytest.fail("solved before checking"))
        path = str(tmp_path / "observed.csv")
        data = np.ones((1, 51))
        data[0, 7] = np.nan
        save_seismogram_csv(SeismogramData(times=1e-3 * np.arange(51), data=data,
                                           receivers=np.zeros((1, 1))), path)
        self.expect_config_error(tmp_path, capsys, {
            "command": "gradient",
            "model": base_model(cells=20, t_end=0.05),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "sampler": {"tag": "pressure", "receivers": [[0.7]]},
            "observed": path,
            "output": str(tmp_path / "out"),
        }, f"config.observed: cannot read {path!r}: {path}: non-finite sample at channel 0, "
           "time index 7")
        assert not (tmp_path / "out").exists()

    def test_missing_observed_file(self, tmp_path, capsys):
        self.expect_config_error(tmp_path, capsys, {
            "command": "gradient",
            "model": base_model(cells=20),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "sampler": {"tag": "pressure", "receivers": [[0.7]]},
            "observed": str(tmp_path / "absent.csv"),
            "output": str(tmp_path / "out"),
        }, "config.observed")

    def test_header_only_observed_csv(self, tmp_path, capsys):
        path = tmp_path / "observed.csv"
        path.write_text("t,ch0\n")
        self.expect_config_error(tmp_path, capsys, {
            "command": "gradient",
            "model": base_model(cells=20, t_end=0.05),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "sampler": {"tag": "pressure", "receivers": [[0.7]]},
            "observed": str(path),
            "output": str(tmp_path / "out"),
        }, f"config.observed: cannot read {str(path)!r}: {path}: no rows")

    # JSON text that Python's json reads as a number (true as 1; NaN, Infinity and
    # 1e400 as floats) or as a list that is not flat numbers
    @pytest.mark.parametrize("where, text", [
        ("config.source.center", "[true]"),
        ("config.seed", "true"),
        ("config.model.kappa", '["a", 1.0]'),
        ("config.model.kappa", json.dumps([[1.0, 1.0]] * 10)),
        ("config.source.center", "[NaN]"),
        ("config.source.amplitude", "NaN"),
        ("config.source.frequency", "Infinity"),
        ("config.model.kappa", "1e400"),
        ("config.model.kappa", "1" + "0" * 400),
        ("config.source.onset", "1" + "0" * 400),
    ], ids=["center-true", "seed-true", "kappa-string", "kappa-nested", "center-nan",
            "amplitude-nan", "frequency-infinity", "kappa-1e400", "kappa-int-past-float",
            "onset-int-past-float"])
    def test_config_numbers_are_finite_numbers(self, tmp_path, capsys, where, text):
        payload = {"command": "simulate", "model": base_model(cells=20, t_end=0.05),
                   "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
                   "output": str(tmp_path / "out")}
        *section, key = where.split(".")[1:]
        (payload[section[0]] if section else payload)[key] = "VALUE"
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload).replace('"VALUE"', text))
        assert main(["simulate", "--config", str(path)]) == 2
        assert f"config error: {where}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_study_schedule_of_booleans(self, tmp_path, capsys):
        self.expect_config_error(tmp_path, capsys, {
            "command": "study", "model": base_model(cells=20, t_end=0.05),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "study": {"kind": "measure_convergence", "schedule": [True, 2, 3]},
            "output": str(tmp_path / "out"),
        }, "config.study.schedule")

    @pytest.mark.parametrize("command", ["simulate", "forward", "gradient"])
    def test_source_and_sources_together_named(self, tmp_path, capsys, command):
        spec = {"type": "ricker", "center": [0.5], "frequency": 8.0}
        self.expect_config_error(tmp_path, capsys, {
            "command": command,
            "model": base_model(cells=20, t_end=0.01),
            "source": spec,
            "sources": [spec, {**spec, "center": [0.3]}],
            "sampler": {"receivers": [[0.7]]},
            "observed": ["a.csv", "b.csv"],
            "output": str(tmp_path / "out"),
        }, "config.sources: give 'source' or 'sources', not both")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "study"])
    def test_one_shot_commands_reject_several_sources(self, tmp_path, capsys, monkeypatch,
                                                      command):
        monkeypatch.setattr(evolution, "_midpoint_solve",
                            lambda *args, **kwargs: pytest.fail("solved before checking"))
        spec = {"type": "ricker", "center": [0.5], "frequency": 8.0}
        self.expect_config_error(tmp_path, capsys, {
            "command": command,
            "model": base_model(cells=20, t_end=0.01),
            "sources": [spec, {**spec, "center": [0.3]}],
            "study": {"kind": "measure_convergence"},
            "output": str(tmp_path / "out"),
        }, f"config.sources: {command} runs one source, got 2")
        assert not (tmp_path / "out").exists()

    @staticmethod
    def malformed(case):
        payload = {
            "command": "simulate",
            "model": base_model(cells=20, t_end=0.01),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
        }
        key, value = case
        if key == "receivers":
            payload.update(command="forward", sampler={"receivers": value})
        elif key in ("forward", "check"):
            payload.update(command=key, sampler=value)
        elif key == "trace_regularity":
            extra = dict(value)
            payload["model"].update(extra.pop("model", {}))
            payload.update(command="study", study={"kind": "trace_regularity"}, **extra)
        elif key.startswith("study."):
            kind = "measure_convergence" if key == "study.schedule" else "trace_regularity"
            payload.update(command="study", sampler={"receivers": [[0.7]]},
                           study={"kind": kind, key[len("study."):]: value})
        else:
            *path, last = key.split(".")
            entry = payload
            for part in path:
                entry = entry[part]
            entry[last] = value
        return payload

    @pytest.mark.parametrize("case, where", [
        (("source", 3), "config.source"),
        (("sources", [3]), "config.sources"),
        (("model.kernel", 3), "config.model.kernel"),
        (("integrator", "rk4"), "config.integrator"),
        (("seed", "abc"), "config.seed"),
        (("leak_tolerance", "tiny"), "config.leak_tolerance"),
        (("snapshot_every", "often"), "config.snapshot_every"),
        (("source.footprint_width", 0), "config.source.footprint_width"),
        (("source.footprint_width", -0.1), "config.source.footprint_width"),
        (("source.delay", -0.1), "config.source.delay"),
        (("leak_tolerance", -1e-6), "config.leak_tolerance"),
        (("trace_regularity", {}), "config.study.receivers"),
        (("model.boundary", "dirichlet"), "config.model.boundary"),
        (("source", {"type": "ricker", "center": [0.5, 0.5], "frequency": 8.0}),
         "config.source.center"),
        (("source", {"type": "ricker", "center": ["a"], "frequency": 8.0}),
         "config.source.center"),
        (("receivers", [[0.5, 0.2]]), "config.sampler.receivers"),
        (("model.kappa", -1), "config.model.kappa"),
        (("trace_regularity", {"sampler": {"receivers": [[0.7]]},
                               "model": {"kernel": {"type": "prony",
                                                    "terms": [{"scale": 0.2, "tau": 0.1}]}}}),
         "config.model.kernel"),
        (("trace_regularity", {"sampler": {"receivers": [[0.7]]},
                               "model": {"type": "viscoelastic", "lam": 1.2}}),
         "config.model.type"),
        (("source.amplitude", "loud"), "config.source.amplitude"),
        (("source.onset", "soon"), "config.source.onset"),
        (("source.component", 1.5), "config.source.component"),
        (("source.component", 2), "config.source.component"),
        (("source.footprint_width", "wide"), "config.source.footprint_width"),
        (("source.delay", [0.1]), "config.source.delay"),
        (("source", {"type": "burst", "center": [0.5], "frequency": 8.0, "smoothness": "high"}),
         "config.source.smoothness"),
        (("model.grid.extent", "big"), "config.model.grid.extent"),
        (("model.grid.origin", [0.0, 1.0]), "config.model.grid.origin"),
        (("model.kappa", {"two_layer": {"left": 1.0, "right": 2.0, "interface": "mid"}}),
         "config.model.kappa.interface"),
        (("model.kappa", {"two_layer": {"left": 1.0, "right": 2.0, "axis": 1}}),
         "config.model.kappa.axis"),
        (("model", {"type": "viscoelastic", "grid": base_model(cells=20, t_end=0.01)["grid"],
                    "lam": 1.2, "mu": "soft"}), "config.model.mu"),
        (("output", 3), "config.output"),
        (("study.refinements", "two"), "config.study.refinements"),
        (("study.refinements", 0), "config.study.refinements"),
        (("study.frequency", "high"), "config.study.frequency"),
        (("study.smoothness", [2, "x"]), "config.study.smoothness"),
        (("study.center", [0.5, 0.5]), "config.study.center"),
        (("study.schedule", [4, 8]), "config.study.schedule"),
        (("forward", {"tag": "bogus", "receivers": [[0.5]]}), "config.sampler.tag"),
        (("check", {"tag": "bogus", "receivers": [[0.5]]}), "config.sampler.tag"),
        (("forward", {"tag": "normal_velocity", "receivers": [[0.5]]}), "config.sampler.normal"),
        (("check", {"tag": "normal_velocity", "receivers": [[0.5]]}), "config.sampler.normal"),
        (("forward", {"tag": "normal_velocity", "receivers": [[0.5]], "normal": "up"}),
         "config.sampler.normal"),
        (("check", {"receivers": [[1.5]]}), "config.sampler.receivers"),
    ], ids=["source", "sources", "kernel", "integrator", "seed", "leak_tolerance",
            "snapshot_every", "footprint_width_zero",
            "footprint_width_negative", "delay_negative", "leak_tolerance_negative",
            "trace_receivers", "boundary", "center", "center_type",
            "receivers", "kappa", "trace_kernel", "trace_viscoelastic", "amplitude", "onset",
            "component", "component_range", "footprint_width", "delay", "burst_smoothness",
            "extent", "origin", "interface", "axis", "mu", "output", "refinements",
            "refinements_range", "study_frequency", "study_smoothness", "study_center",
            "study_schedule", "forward_tag", "check_tag", "forward_normal", "check_normal",
            "normal_type", "check_receiver_outside"])
    def test_malformed_entry_named(self, tmp_path, capsys, case, where):
        self.expect_config_error(tmp_path, capsys, self.malformed(case), where)

    @pytest.mark.parametrize("case, where", [
        (("source", {"type": "burst", "center": [0.5], "frequency": 0}), "config.source.frequency"),
        (("source", {"type": "burst", "center": [0.5], "frequency": -3}), "config.source.frequency"),
        (("source.frequency", 0), "config.source.frequency"),
        (("source.onset", -1), "config.source.onset"),
        (("model.grid.dt", 0), "config.model.grid.dt"),
        (("model.grid.t_end", -0.1), "config.model.grid.t_end"),
        (("model.grid.extent", 0), "config.model.grid.extent"),
        (("model.grid.cells", [1]), "config.model.grid.cells"),
        (("model.grid.cells", ["a"]), "config.model.grid.cells"),
        (("model.grid.cells", [20, 20]), "config.model.grid.cells"),
        (("model.grid.dim", 4), "config.model.grid.dim"),
        (("snapshot_every", 0), "config.snapshot_every"),
        (("study.frequency", 0), "config.study.frequency"),
        (("source", {"type": "burst", "center": [0.5], "frequency": 8.0, "smoothness": 0}),
         "config.source.smoothness"),
        (("model.kernel", {"type": "prony", "terms": [{"scale": 0.2, "tau": 0}]}),
         "config.model.kernel.terms"),
        (("model.kernel", {"type": "prony", "terms": [{"scale": 0.2, "tau": 0.1},
                                                      {"scale": 0.2, "tau": -0.1}]}),
         "config.model.kernel.terms"),
    ], ids=["burst_frequency_zero", "burst_frequency_negative", "ricker_frequency", "onset",
            "dt", "t_end", "extent", "cells_one", "cells_type", "cells_count", "dim",
            "snapshot_every", "study_frequency", "burst_smoothness_zero", "tau_zero",
            "tau_negative"])
    def test_out_of_range_entry_named(self, tmp_path, capsys, monkeypatch, case, where):
        monkeypatch.setattr(evolution, "_midpoint_solve",
                            lambda *args, **kwargs: pytest.fail("solved before checking"))
        self.expect_config_error(tmp_path, capsys, self.malformed(case), where)

    @pytest.mark.parametrize("command, dim", [
        ("forward", 2), ("check", 2), ("forward", 1), ("gradient", 1), ("check", 1),
    ], ids=["forward", "check", "forward_1d", "gradient_1d", "check_1d"])
    def test_sampler_needs_the_acoustic_state(self, tmp_path, capsys, command, dim):
        # a viscoelastic state holds no pressure to sample: in 2D it has width 5,
        # and in 1D its (stress, velocity) has the acoustic width 2
        payload = {
            "command": command,
            "model": {"type": "viscoelastic", "lam": 1.2, "mu": 0.5,
                      "grid": {"dim": dim, "cells": [4] * dim, "dt": 1e-2, "t_end": 0.02}},
            "source": {"type": "ricker", "center": [0.5] * dim, "frequency": 8.0},
            "output": str(tmp_path / "out"),
        }
        if command != "check":
            payload["sampler"] = {"receivers": [[0.5] * dim]}
        if command == "gradient":
            payload["observed"] = str(tmp_path / "observed.csv")
        self.expect_config_error(tmp_path, capsys, payload, "config.model.type")

    def test_check_names_a_configured_sampler(self, tmp_path, capsys):
        self.expect_config_error(tmp_path, capsys, {
            "command": "check",
            "model": base_model(cells=20, t_end=0.01),
            "sampler": {"receivers": [[0.5, 0.2]]},
        }, "config.sampler.receivers")


class TestFlagOverrides:
    """--out and --seed win over the config's values."""

    @pytest.mark.parametrize("flag, value, key, configured", [
        ("--out", "elsewhere", "output", "configured"),
        ("--seed", "5", "seed", 1),
    ])
    def test_flag_wins(self, tmp_path, monkeypatch, flag, value, key, configured):
        seen = []
        monkeypatch.setattr(cli, "run", lambda cfg: seen.append(cfg) or 0)
        path = write_config(tmp_path, {
            "command": "simulate",
            "model": base_model(cells=20),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            key: configured,
        })
        assert main(["simulate", "--config", path]) == 0
        assert main(["simulate", "--config", path, flag, value]) == 0
        assert getattr(seen[0], key) == configured
        assert getattr(seen[1], key) == (value if key == "output" else int(value))

    def test_jobs_flag_is_gone(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("ran with --jobs"))
        path = write_config(tmp_path, {
            "command": "forward",
            "model": base_model(cells=20),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "sampler": {"receivers": [[0.7]]},
        })
        with pytest.raises(SystemExit) as exc:
            main(["forward", "--config", path, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestStudyMedium:
    """`study` runs on the configured boundary and kernel."""

    def study(self, tmp_path, name, kind, **model):
        out = tmp_path / name
        path = write_config(tmp_path, {
            "command": "study",
            "model": {**base_model(cells=64, t_end=0.2, dt=2e-3),
                      "kappa": {"two_layer": {"left": 1.0, "right": 4.0, "interface": 0.6}},
                      **model},
            "source": {"type": "ricker", "center": [0.3], "frequency": 6.0},
            "sampler": {"receivers": [[0.7]]},
            "study": {"kind": kind, "schedule": [4, 8, 16], "smoothness": [2], "refinements": 1},
            "output": str(out),
        }, name=f"{name}.json")
        main(["study", "--config", path])
        cfg = parse_config(path)
        return cfg, (out / f"study_{kind}.json").read_bytes()

    def test_measure_convergence_on_configured_boundary_and_kernel(self, tmp_path):
        from roughwave.experiments import measure_convergence_study

        prony = {"type": "prony", "terms": [{"scale": 5.0, "tau": 0.05}]}
        reports = []
        for name, model in (("periodic", {}), ("free", {"boundary": "acoustic_free"}),
                            ("prony", {"kernel": prony})):
            cfg, report = self.study(tmp_path, name, "measure_convergence", **model)
            medium, system = build_system(cfg)
            expected = measure_convergence_study(
                medium.coefficient_field(kernel=system.kernel),
                build_source(cfg.sources[0], system), [4, 8, 16],
                boundary=model.get("boundary", "periodic"))
            expected.save(str(tmp_path / f"{name}_library"))
            assert report == (tmp_path / f"{name}_library.json").read_bytes()
            reports.append(report)
        assert len(set(reports)) == 3

    @pytest.mark.parametrize("kernel", [None, {"type": "prony", "terms": [
        {"scale": 5.0, "tau": 0.05}, {"scale": 2.0, "tau": 0.5}]}], ids=["zero", "prony"])
    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_measure_convergence_equal_to_the_stored_oracle(self, tmp_path, dim, boundary, kernel):
        grid = {"dim": dim, "cells": {1: [48], 2: [12, 10]}[dim], "extent": 1.0, "dt": 0.01,
                "t_end": 0.2}
        path = write_config(tmp_path, {
            "command": "study",
            "model": {"type": "acoustic", "grid": grid, "rho": 1.0, "boundary": boundary,
                      "kappa": {"two_layer": {"left": 1.0, "right": 4.0, "interface": 0.6}},
                      **({"kernel": kernel} if kernel else {})},
            "source": {"type": "ricker", "center": [0.3] * dim, "frequency": 6.0},
            "study": {"kind": "measure_convergence", "schedule": [2, 4, 8]},
            "output": str(tmp_path / "out"),
        })
        main(["study", "--config", path])
        series = json.loads((tmp_path / "out" / "study_measure_convergence.json").read_text())["series"]
        cfg = parse_config(path)
        medium, system = build_system(cfg)
        expected = stored_convergence_series(medium.coefficient_field(kernel=system.kernel),
                                             build_source(cfg.sources[0], system), [2, 4, 8],
                                             boundary)
        assert sorted(series) == sorted(expected)
        for name, values in expected.items():
            assert np.array_equal(series[name], values), name
        assert min(series["solution_distance"]) > 0

    def test_trace_regularity_on_configured_boundary(self, tmp_path):
        from roughwave.experiments import trace_regularity_probe
        from roughwave.fields import make_burst_source

        reports = []
        for boundary in ("periodic", "acoustic_free"):
            cfg, report = self.study(tmp_path, boundary, "trace_regularity", boundary=boundary)
            medium, _ = build_system(cfg)
            expected = trace_regularity_probe(
                medium, [[0.7]],
                lambda grid, s: make_burst_source(grid, 2, [0.5], frequency=4.0, smoothness=s),
                smoothness_schedule=[2], refinements=1, boundary=boundary)
            expected.save(str(tmp_path / f"{boundary}_library"))
            assert report == (tmp_path / f"{boundary}_library.json").read_bytes()
            reports.append(report)
        assert reports[0] != reports[1]


class TestSchemes:
    """Implicit midpoint is the one scheme; every command names any other, RK4 included."""

    def payload(self, command, scheme):
        return {
            "command": command,
            "model": base_model(cells=20, t_end=0.05),
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
            "sampler": {"tag": "pressure", "receivers": [[0.7]]},
            "observed": "observed.csv",
            "study": {"kind": "measure_convergence"},
            "integrator": {"scheme": scheme},
        }

    def expect_scheme_error(self, tmp_path, capsys, command, scheme):
        path = write_config(tmp_path, self.payload(command, scheme))
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert "config error: config.integrator.scheme" in captured.err
        assert "RK4 was removed" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["gradient", "check"])
    def test_rk4_rejected_where_the_adjoint_runs(self, tmp_path, capsys, command):
        self.expect_scheme_error(tmp_path, capsys, command, "rk4")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_scheme_named(self, tmp_path, capsys, command):
        self.expect_scheme_error(tmp_path, capsys, command, "euler")

    @pytest.mark.parametrize("command", ["simulate", "forward", "study"])
    def test_rk4_rejected_for_forward_solves(self, tmp_path, capsys, command):
        self.expect_scheme_error(tmp_path, capsys, command, "rk4")


def test_check_passes_on_the_readme_two_layer_medium(tmp_path, capsys):
    # kappa 1 | 4 at x = 0.6: the slowness pencil changes sign at the fast layer
    path = write_config(tmp_path, {
        "command": "check",
        "model": {
            "type": "acoustic",
            "grid": {"dim": 1, "cells": [200], "extent": 1.0, "dt": 2.5e-3, "t_end": 0.5},
            "kappa": {"two_layer": {"left": 1.0, "right": 4.0, "interface": 0.6}},
            "rho": 1.0,
        },
        "sampler": {"tag": "pressure", "receivers": [[0.45], [0.8]]},
    })
    assert main(["check", "--config", path]) == 0
    assert "slowness_pencil_two_sided: PASS" in capsys.readouterr().out
