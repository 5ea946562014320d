"""The ``check`` suite's rows: which properties run, that each holds on working
code and can fail, and what the suite holds in memory."""

import dataclasses
import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import traced_peak
from oracles import stored_check_rows, stored_repeat_gap

from roughwave import cli, evolution, experiments, sensitivity
from roughwave.checks import run_checks
from roughwave.cli import build_sampler_from_spec, build_system, parse_config
from roughwave.evolution import solve_causal

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def check_rows(cfg):
    """``run_checks`` on a parsed ``check`` config, its inputs built as ``check`` builds them."""
    model, system = build_system(cfg)
    sampler = build_sampler_from_spec(cfg.sampler, system)
    return list(run_checks(model, system, sampler, cli._boundary(cfg, model), cfg.seed,
                           cfg.leak_tolerance))


def parsed_config(tmp_path, payload):
    path = tmp_path / "check.json"
    path.write_text(json.dumps(payload))
    return parse_config(str(path))


def homogeneous_1d(cells=100, t_end=0.3):
    return {"type": "acoustic",
            "grid": {"dim": 1, "cells": [cells], "extent": 1.0, "dt": 1e-3, "t_end": t_end},
            "kappa": 1.0, "rho": 1.0}


def test_check_results_cover_all_modules(tmp_path):
    cfg = parsed_config(tmp_path, {
        "command": "check",
        "model": homogeneous_1d(cells=80, t_end=0.3),
        "sampler": {"tag": "pressure", "receivers": [[0.7]]},
    })
    results = check_rows(cfg)
    names = {name for name, _, _ in results}
    assert {"skew_symmetry", "mass_rayleigh_bounds", "mollify_preserves_bounds",
            "solve_causality", "energy_identity", "sampler_adjoint_identity",
            "adjoint_dot_product", "gradient_symmetry", "cone_two_sided",
            "slowness_pencil_two_sided", "ve_kernel_split",
            "christoffel_quasi_p"} <= names
    assert all(ok for _, ok, _ in results)


def test_check_samples_no_symbol_speed_outside_1d(tmp_path, monkeypatch):
    import roughwave.physics

    calls = []
    monkeypatch.setattr(roughwave.physics, "max_symbol_speed",
                        lambda *args, **kwargs: calls.append(args) or 1.0)
    cfg = parsed_config(tmp_path, {
        "command": "check",
        "model": {**homogeneous_1d(), "grid": {"dim": 2, "cells": [8, 8], "extent": 1.0,
                                               "dt": 1.25e-2, "t_end": 0.1}},
        "sampler": {"tag": "pressure", "receivers": [[0.7, 0.3]]},
    })
    names = {name for name, _, _ in check_rows(cfg)}
    assert calls == []
    assert "cone_two_sided" not in names and "adjoint_dot_product" in names


def check_config(tmp_path, dim, kernel, cells, dt, t_end, boundary="periodic"):
    """A two-layer acoustic ``check`` config with no memory or a two-term Prony kernel."""
    model = {"type": "acoustic",
             "grid": {"dim": dim, "cells": [cells] * dim, "extent": 1.0, "dt": dt, "t_end": t_end},
             "kappa": {"two_layer": {"left": 1.0, "right": 4.0, "interface": 0.6}}, "rho": 1.0,
             "boundary": boundary}
    if kernel == "prony":
        model["kernel"] = {"type": "prony", "terms": [{"scale": 0.4, "tau": 0.05},
                                                      {"scale": 0.2, "tau": 0.3}]}
    return parsed_config(tmp_path, {
        "command": "check", "model": model, "seed": 2,
        "sampler": {"tag": "pressure", "receivers": [[0.7] * dim, [0.25] * dim]}})


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_skew_symmetry_fails_on_one_perturbed_entry(tmp_path, dim):
    # P + P^T is summed on the stored matrix, so one entry off by one ulp fails
    cfg = check_config(tmp_path, dim, "zero", {1: 40, 2: 10, 3: 6}[dim], 1e-2, 0.3)
    model, system = build_system(cfg)
    sampler = build_sampler_from_spec(cfg.sampler, system)

    def skew_row(system):
        return next(run_checks(model, system, sampler, "periodic", cfg.seed, cfg.leak_tolerance))

    assert skew_row(system) == ("skew_symmetry", True, "max |P + P^T| = 0.0e+00")
    skew = system.skew.copy()
    skew.data[skew.nnz // 2] *= 1 + 2.0 ** -52
    name, ok, detail = skew_row(dataclasses.replace(system, skew=skew))
    assert (name, ok) == ("skew_symmetry", False)
    assert detail != "max |P + P^T| = 0.0e+00"


class TestCheckHoldsOneTrajectory:
    @pytest.mark.parametrize("kernel", ["zero", "prony"])
    @pytest.mark.parametrize("boundary", ["periodic", "acoustic_free"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_rows_equal_the_stored_ones(self, tmp_path, dim, boundary, kernel):
        # the one pass reads every value that the stored solve and its four separate
        # solves gave; the repeat and the two derivative solves are the stored ones
        cfg = check_config(tmp_path, dim, kernel, {1: 40, 2: 10, 3: 6}[dim], 1e-2, 0.3, boundary)
        model, system = build_system(cfg)
        sampler = build_sampler_from_spec(cfg.sampler, system)
        rows = check_rows(cfg)
        stored = stored_check_rows(model, system, sampler, boundary, cfg.seed, cfg.leak_tolerance)
        assert rows[:-2] == stored
        assert [name for name, _, _ in rows[-2:]] == ["ve_kernel_split", "christoffel_quasi_p"]
        assert ("solve_determinism", True, "repeat-solve gap = 0.0e+00") in rows
        [(ok, detail)] = [(ok, detail) for name, ok, detail in rows
                          if name == "derivative_linearity"]
        assert ok and detail.startswith("|du(2m) - 2 du(m)| = ")

    @pytest.mark.parametrize("kernel", ["zero", "prony"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_a_repeat_that_is_not_the_base_solve_fails(self, tmp_path, monkeypatch, dim, kernel):
        # the repeat column steps three times the source: the gap is that of two stored
        # solves, and no other row moves
        cfg = check_config(tmp_path, dim, kernel, 40 if dim == 1 else 10, 1e-2, 0.3)
        _, system = build_system(cfg)
        rows, sources, steps = check_rows(cfg), [], evolution._midpoint_steps

        def tripled_repeat(systems, columns, *args, **kwargs):
            if len(columns) == 4:
                sources.append(columns[0])
                columns = [dataclasses.replace(columns[0], footprint=3 * columns[0].footprint),
                           *columns[1:]]
            return steps(systems, columns, *args, **kwargs)

        monkeypatch.setattr(evolution, "_midpoint_steps", tripled_repeat)
        failed = check_rows(cfg)
        [src] = sources
        traj = solve_causal(system, src)
        gap = stored_repeat_gap(system, dataclasses.replace(
            traj, source=dataclasses.replace(src, footprint=3 * src.footprint)))
        assert gap > 0
        assert [row for row in failed if row[0] == "solve_determinism"] == [
            ("solve_determinism", False, f"repeat-solve gap = {gap:.1e}")]
        assert ([row for row in failed if row[0] != "solve_determinism"]
                == [row for row in rows if row[0] != "solve_determinism"])

    def test_one_pass_opens_two_step_loops(self, tmp_path, monkeypatch):
        # outside the gradient: the base solve, and one solve of four columns behind it
        opened, in_gradient = [], []
        steps, gradient = evolution._midpoint_steps, sensitivity.misfit_gradient

        def counted(systems, sources, *args, **kwargs):
            if not in_gradient:
                opened.append(len(sources))
            return steps(systems, sources, *args, **kwargs)

        def marked(*args, **kwargs):
            in_gradient.append(True)
            try:
                return gradient(*args, **kwargs)
            finally:
                in_gradient.pop()

        for module in (evolution, sensitivity):
            monkeypatch.setattr(module, "_midpoint_steps", counted)
        monkeypatch.setattr(sensitivity, "misfit_gradient", marked)
        results = check_rows(check_config(tmp_path, 2, "zero", 10, 5e-3, 0.3))
        assert all(ok for _, ok, _ in results)
        assert opened == [1, 4]

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
        results = check_rows(check_config(tmp_path, dim, kernel, 40 if dim == 1 else 10, 1e-2, 0.3))
        assert calls["adjoint_gradient"] == []
        [kwargs] = calls["misfit_gradient"]
        assert isinstance(kwargs.get("dot_test_rng"), np.random.Generator)
        assert [ok for name, ok, _ in results if name == "adjoint_dot_product"] == [True]

    def test_one_energy_density_serves_both_cones(self, tmp_path, monkeypatch):
        # the pass fills one density, LEAK_ROWS time rows at a time, and both leaks read it
        blocks = []
        fill = experiments.density_rows
        monkeypatch.setattr(experiments, "density_rows",
                            lambda states, *args: blocks.append(len(states)) or fill(states, *args))
        results = check_rows(check_config(tmp_path, 1, "zero", 40, 1e-2, 0.3))
        assert blocks == [experiments.LEAK_ROWS, 31 - experiments.LEAK_ROWS]
        assert [ok for name, ok, _ in results if name == "cone_two_sided"] == [True]

    @pytest.mark.parametrize("kernel", ["zero", "prony"])
    @pytest.mark.parametrize("dim, bound", [(2, 0.85), (1, 1.2)])
    def test_traced_peak_in_stored_series(self, tmp_path, dim, bound, kernel):
        # 2D 24^2 x 400 steps and 1D 400 x 1000.  In 1D one (N + 1, n_cells) energy
        # density, half a series, is filled as the pass steps and serves both cones,
        # each leak summed over it whole
        cfg = check_config(tmp_path, dim, kernel, *((24, 1e-3, 0.4) if dim == 2 else (400, 5e-4, 0.5)))
        _, system = build_system(cfg)
        assert system.grid.n_steps == (400 if dim == 2 else 1000)
        series_bytes = (system.grid.n_steps + 1) * system.n_state * 8
        results = []
        peak = traced_peak(lambda: results.extend(check_rows(cfg)))
        assert results and all(ok for _, ok, _ in results)
        assert peak <= bound * series_bytes

    @pytest.mark.parametrize("kernel", ["zero", "prony"])
    def test_holds_no_series_beside_the_gradient(self, tmp_path, monkeypatch, kernel):
        # 2D 24^2 x 400 steps: outside its gradient, the suite peaks at no more than
        # the gradient's own peak and a quarter of one state series
        cfg = check_config(tmp_path, 2, kernel, 24, 1e-3, 0.4)
        _, system = build_system(cfg)
        series_bytes = (system.grid.n_steps + 1) * system.n_state * 8
        peaks, gradient = {}, sensitivity.misfit_gradient

        def traced(*args, **kwargs):
            peaks["before"] = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            try:
                return gradient(*args, **kwargs)
            finally:
                peaks["gradient"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()

        monkeypatch.setattr(sensitivity, "misfit_gradient", traced)
        results = []
        after = traced_peak(lambda: results.extend(check_rows(cfg)))
        assert results and all(ok for _, ok, _ in results)
        assert max(peaks["before"], after) <= peaks["gradient"] + 0.25 * series_bytes


@pytest.mark.parametrize("kernel", ["zero", "prony"])
@pytest.mark.parametrize("dim", [1, 2])
def test_check_mass_blocks_are_the_models(tmp_path, dim, kernel):
    # one spectrum serves mass_rayleigh_bounds (system.a_blocks) and
    # mollify_preserves_bounds (the model's field)
    model, system = build_system(check_config(tmp_path, dim, kernel, 40 if dim == 1 else 10,
                                              1e-2, 0.3))
    assert np.array_equal(model.coefficient_field().a, system.a_blocks)


@pytest.fixture
def workloads(monkeypatch, tmp_path):
    """``perfbench/workloads.py`` loaded as a module, its config files written to ``tmp_path``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT_DIR", tmp_path)
    return module


@pytest.mark.parametrize("variant", range(8))
def test_check_passes_on_every_benchmark_input_set(workloads, variant):
    # the check-2d workload's own gate: `check` on 2D 64^2 x 40 steps exits 0, 16/16
    check = workloads.WORKLOADS["check-2d"]
    assert workloads.N_VARIANTS == 8
    prep = check.build(check.inputs(variant, False))
    ok, detail = check.check(check.outcome(prep, check.call(prep)), None)
    assert ok and detail == "exit code 0, 16/16 properties passed", detail
