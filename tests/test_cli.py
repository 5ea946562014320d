import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest
from conftest import traced_peak
from oracles import (
    fsum_dot,
    stored_convergence_series,
    stored_derivative_linearity,
    stored_repeat_gap,
)

from roughwave import cli, evolution, sensitivity
from roughwave.cli import (
    COMMANDS,
    build_sampler_from_spec,
    build_source,
    build_system,
    main,
    parse_config,
    run_checks,
)
from roughwave.errors import ConfigError
from roughwave.evolution import solve_causal
from roughwave.fields import TabulatedKernel, build_grid, make_ricker_source, save_kernel
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

    def test_check_results_cover_all_modules(self, tmp_path):
        path = write_config(tmp_path, {
            "command": "check",
            "model": base_model(cells=80, t_end=0.3),
            "sampler": {"tag": "pressure", "receivers": [[0.7]]},
        })
        results = run_checks(parse_config(path))
        names = {name for name, _, _ in results}
        assert {"skew_symmetry", "mass_rayleigh_bounds", "mollify_preserves_bounds",
                "solve_causality", "energy_identity", "sampler_adjoint_identity",
                "adjoint_dot_product", "gradient_symmetry", "cone_two_sided",
                "slowness_pencil_two_sided", "ve_kernel_split",
                "christoffel_quasi_p"} <= names
        assert all(ok for _, ok, _ in results)

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

    def test_viscoelastic_model_with_two_kernel_samples(self, tmp_path, capsys):
        grid = build_grid(1, [20], 1.0, 1e-3, 0.3)
        base = str(tmp_path / "model")
        save_model(ViscoelasticModel(grid=grid, rho=1.0, gamma_elastic=np.ones((20, 1, 1))), base)
        with open(f"{base}.json") as fh:
            manifest = json.load(fh)
        short = TabulatedKernel(times=np.array([0.0, 1e-3]), samples=np.full((2, 20, 1, 1), 0.1))
        manifest["kernel"] = save_kernel(short, base, "gamma", grid, 1)
        with open(f"{base}.json", "w") as fh:
            json.dump(manifest, fh)
        payload = {"command": "simulate", "model": {"path": base},
                   "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
                   "output": str(tmp_path / "out")}
        path = write_config(tmp_path, payload)
        assert main(["simulate", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "config error: config.model.path" in err and "at least 3 samples, got 2" in err

    def test_kernel_term_not_an_object(self, tmp_path, capsys):
        self.expect_config_error(tmp_path, capsys, {
            "command": "simulate",
            "model": {**base_model(cells=20), "kernel": {"type": "prony", "terms": [0.2]}},
            "source": {"type": "ricker", "center": [0.5], "frequency": 8.0},
        }, "config.model.kernel.terms")

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
            "trace_receivers", "boundary", "center",
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
    ], ids=["burst_frequency_zero", "burst_frequency_negative", "ricker_frequency", "onset",
            "dt", "t_end", "extent", "cells_one", "cells_type", "cells_count", "dim",
            "snapshot_every", "study_frequency"])
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


def test_check_samples_no_symbol_speed_outside_1d(tmp_path, monkeypatch):
    import roughwave.physics

    calls = []
    monkeypatch.setattr(roughwave.physics, "max_symbol_speed",
                        lambda *args, **kwargs: calls.append(args) or 1.0)
    path = write_config(tmp_path, {
        "command": "check",
        "model": {**base_model(), "grid": {"dim": 2, "cells": [8, 8], "extent": 1.0,
                                           "dt": 1.25e-2, "t_end": 0.1}},
        "sampler": {"tag": "pressure", "receivers": [[0.7, 0.3]]},
    })
    names = {name for name, _, _ in run_checks(parse_config(path))}
    assert calls == []
    assert "cone_two_sided" not in names and "adjoint_dot_product" in names


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


def check_config(tmp_path, dim, kernel, cells, dt, t_end):
    """A two-layer acoustic ``check`` config with no memory or a two-term Prony kernel."""
    model = {"type": "acoustic",
             "grid": {"dim": dim, "cells": [cells] * dim, "extent": 1.0, "dt": dt, "t_end": t_end},
             "kappa": {"two_layer": {"left": 1.0, "right": 4.0, "interface": 0.6}}, "rho": 1.0}
    if kernel == "prony":
        model["kernel"] = {"type": "prony", "terms": [{"scale": 0.4, "tau": 0.05},
                                                      {"scale": 0.2, "tau": 0.3}]}
    return parse_config(write_config(tmp_path, {
        "command": "check", "model": model, "seed": 2,
        "sampler": {"tag": "pressure", "receivers": [[0.7] * dim, [0.25] * dim]}}))


class TestCheckHoldsOneTrajectory:
    @pytest.mark.parametrize("kernel", ["zero", "prony"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_streamed_comparisons_equal_stored_ones(self, tmp_path, dim, kernel):
        _, system = build_system(check_config(tmp_path, dim, kernel, 40 if dim == 1 else 10,
                                              1e-2, 0.3))
        src = make_ricker_source(system.grid, dim + 1, [0.5] * dim, peak_frequency=6.0, onset=0.02)
        traj = solve_causal(system, src)
        assert cli._repeat_gap(system, traj) == stored_repeat_gap(system, traj) == 0.0
        # a trajectory that is not its source's solve: the gap is that of two solves
        other = dataclasses.replace(traj, source=dataclasses.replace(src, footprint=3 * src.footprint))
        gap = cli._repeat_gap(system, other)
        assert gap > 0 and gap == stored_repeat_gap(system, other)
        lin, top = cli._derivative_linearity(system, traj, np.random.default_rng(4))
        assert top > 0
        assert (lin, top) == stored_derivative_linearity(system, traj, np.random.default_rng(4))

    @pytest.mark.parametrize("kernel", ["zero", "prony"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_dot_test_runs_through_the_shipped_gradient(self, tmp_path, monkeypatch, dim, kernel):
        # one dot-tested ``misfit_gradient``, the path ``gradient`` ships, and no sweep over
        # a stored trajectory
        calls = {"misfit_gradient": [], "adjoint_gradient": []}

        def counted(fn, seen):
            def call(*args, **kwargs):
                seen.append(kwargs)
                return fn(*args, **kwargs)
            return call

        for name, seen in calls.items():
            monkeypatch.setattr(sensitivity, name, counted(getattr(sensitivity, name), seen))
        results = run_checks(check_config(tmp_path, dim, kernel, 40 if dim == 1 else 10, 1e-2, 0.3))
        assert calls["adjoint_gradient"] == []
        [kwargs] = calls["misfit_gradient"]
        assert isinstance(kwargs.get("dot_test_rng"), np.random.Generator)
        assert [ok for name, ok, _ in results if name == "adjoint_dot_product"] == [True]

    @pytest.mark.parametrize("kernel", ["zero", "prony"])
    @pytest.mark.parametrize("dim, bound", [(2, 1.5), (1, 1.65)])
    def test_traced_peak_in_stored_series(self, tmp_path, dim, bound, kernel):
        # 2D 24^2 x 400 steps and 1D 400 x 1000 (the parent held about 6 series).  In 1D
        # the cone leak's (N + 1, n_cells) energy density, half a series, sits beside the
        # trajectory: the leak is summed over it whole, as it always was
        cfg = check_config(tmp_path, dim, kernel, *((24, 1e-3, 0.4) if dim == 2 else (400, 5e-4, 0.5)))
        _, system = build_system(cfg)
        assert system.grid.n_steps == (400 if dim == 2 else 1000)
        series_bytes = (system.grid.n_steps + 1) * system.n_state * 8
        results = []
        peak = traced_peak(lambda: results.extend(run_checks(cfg)))
        assert results and all(ok for _, ok, _ in results)
        assert peak <= bound * series_bytes


def fsum_case(case):
    """Vectors x, y whose products exercise one corner of an exactly rounded sum."""
    rng = np.random.default_rng(len(case))

    def spread(n):  # magnitudes over 10^-150 .. 10^150
        return rng.standard_normal(n) * 10.0 ** rng.integers(-150, 151, n)

    if case == "spread":
        return spread(3000), spread(3000)
    if case == "cancellation":  # every product has its negation; a 1e-300 remainder
        x, y = spread(1000), spread(1000)
        order = rng.permutation(2001)
        return (np.concatenate([x, x, [1e-150]])[order],
                np.concatenate([y, -y, [1e-150]])[order])
    if case == "subnormal":  # products below 2^-1022, some below 2^-1074 (0.0)
        return rng.standard_normal(500) * 1e-160, rng.standard_normal(500) * 1e-160
    if case == "above-1e300":
        return (rng.choice([-1.0, 1.0], 100) * rng.uniform(1, 10, 100) * 1e150,
                rng.uniform(1, 10, 100) * 1e150)
    if case == "ties-and-zeros":  # dyadic terms, half of them +-0.0
        x = rng.integers(-2**20, 2**20, 400) * 2.0 ** rng.integers(-80, 20, 400)
        x[rng.random(400) < 0.5] = rng.choice([0.0, -0.0])
        return x, rng.choice([-1.0, 1.0, 0.5, 2.0 ** -53], 400)
    if case == "one":
        return np.array([-3.5e-7]), np.array([1.25])
    if case == "long":
        return rng.standard_normal(20000), rng.standard_normal(20000)
    raise ValueError(case)


class TestFsumDot:
    """``cli._fsum_dot`` against ``math.fsum`` of the product list, bit for bit."""

    @staticmethod
    def counted_fsum(monkeypatch):
        calls, fsum = [], math.fsum
        monkeypatch.setattr(math, "fsum", lambda values: calls.append(1) or fsum(values))
        return calls

    @staticmethod
    def assert_same(got, want):
        assert got == want and math.copysign(1, got) == math.copysign(1, want)

    @pytest.mark.parametrize("case", ["spread", "cancellation", "subnormal", "above-1e300",
                                      "ties-and-zeros", "one", "long"])
    def test_equal_to_fsum(self, monkeypatch, case):
        x, y = fsum_case(case)
        want = fsum_dot(x, y)
        calls = self.counted_fsum(monkeypatch)
        got = cli._fsum_dot(x, y)
        assert calls == []  # summed by the kernel, not by the fallback
        self.assert_same(got, want)

    @pytest.mark.parametrize("x, y", [
        ([1.0, 2.0 ** -53], [1.0, 1.0]),  # a tie, to even below
        ([1.0 + 2.0 ** -52, 2.0 ** -53], [1.0, 1.0]),  # a tie, to even above
        ([-1.0, 2.0 ** -53, 2.0 ** -106], [1.0, -1.0, -1.0]),  # just past a tie
        ([2.0 ** -1074, 2.0 ** -1074, 3.0], [1.0, 1.0, 2.0 ** -1074]),  # subnormal sum
        ([1e300, 1e-300, -1e300], [1e5, 1.0, 1e5]),
        ([1.5, 2.0 ** -60, -1.5], [1.0, 1.0, 1.0]),
    ])
    def test_ties_and_extremes(self, monkeypatch, x, y):
        x, y = np.array(x), np.array(y)
        want = fsum_dot(x, y)
        calls = self.counted_fsum(monkeypatch)
        self.assert_same(cli._fsum_dot(x, y), want)
        assert calls == []

    @pytest.mark.parametrize("x, y", [
        ([], []),
        ([0.0, -0.0, -0.0], [1.0, 1.0, 1.0]),
        ([-0.0, -0.0], [1.0, 1.0]),
        ([1.5, -1.5], [3.0, 3.0]),
    ])
    def test_zero_totals_keep_the_sign_fsum_gives(self, monkeypatch, x, y):
        # fsum decides the sign of a zero total, and that has changed between versions
        want = fsum_dot(x, y)
        calls = self.counted_fsum(monkeypatch)
        self.assert_same(cli._fsum_dot(np.array(x), np.array(y)), want)
        assert calls == [1]

    @pytest.mark.parametrize("x", [[1.0, np.nan], [np.inf, -1e300], [1.0, -np.inf]])
    def test_a_product_that_is_not_finite_takes_the_fallback(self, monkeypatch, x):
        x, y = np.array(x), np.array([2.0, 3.0])
        want = fsum_dot(x, y)
        calls = self.counted_fsum(monkeypatch)
        got = cli._fsum_dot(x, y)
        assert calls == [1]
        assert (math.isnan(got) and math.isnan(want)) or got == want

    def test_overflow_raises_as_fsum_does(self, monkeypatch):
        # the partial sums pass DBL_MAX though the total does not
        x, y = np.array([1e308, 1e308, -1e308]), np.ones(3)
        with pytest.raises(OverflowError) as want:
            fsum_dot(x, y)
        calls = self.counted_fsum(monkeypatch)
        with pytest.raises(OverflowError) as got:
            cli._fsum_dot(x, y)
        assert calls == [1] and str(got.value) == str(want.value)
        with pytest.raises(ValueError):  # inf - inf
            cli._fsum_dot(np.array([np.inf, -np.inf]), np.ones(2))


@pytest.mark.parametrize("kernel", ["zero", "prony"])
@pytest.mark.parametrize("dim", [1, 2])
def test_check_mass_blocks_are_the_models(tmp_path, dim, kernel):
    # one spectrum serves mass_rayleigh_bounds (system.a_blocks) and
    # mollify_preserves_bounds (the model's field)
    model, system = build_system(check_config(tmp_path, dim, kernel, 40 if dim == 1 else 10,
                                              1e-2, 0.3))
    assert np.array_equal(model.coefficient_field().a, system.a_blocks)
