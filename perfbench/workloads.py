"""The benchmark's four workloads: seeded inputs, set-up, the timed call and
the correctness gate.

Each workload is generated from ``--seed``.  The seed selects one of
``N_VARIANTS`` input sets (``seed % N_VARIANTS``); each set is drawn from
its own NumPy generator and covers coefficients, source and receiver
positions, the observed-data perturbation and the dot-test generator.  The
catalogue is finite so that a stored reference output exists for every
seed (``refs/``, written by ``make_refs.py``).

Why each workload exists, and what it is expected to bypass, is written in
``README.md`` next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

N_VARIANTS = 8
HERE = Path(__file__).resolve().parent
REF_DIR = HERE / "refs"
OUT_DIR = HERE / "out"

# Gate tolerances, as stated in the workload definitions.
SEISMOGRAM_RTOL = 1e-9
GRADIENT_RTOL = 1e-9
DOT_TEST_MAX = 1e-13
STUDY_RTOL = 1e-9

STUDY_SCHEDULE = (4, 8, 16, 32)


def _rng(workload: str, variant: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), variant])


def _points(rng: np.random.Generator, n: int, dim: int, lo: float, hi: float) -> list[list[float]]:
    return rng.uniform(lo, hi, size=(n, dim)).round(6).tolist()


def max_rel_error(value: np.ndarray, ref: np.ndarray) -> float:
    """Max-norm relative error of ``value`` against ``ref``."""
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    if value.shape != ref.shape:
        return float("inf")
    return float(np.abs(value - ref).max() / max(float(np.abs(ref).max()), 1e-300))


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``inputs(variant, toy)`` returns plain numbers; ``build(inputs)`` is the
    set-up (timed as ``setup_s``) and returns what ``call`` needs;
    ``call(prep)`` is the one end-to-end call into the public API that is
    timed; ``outcome(prep, result)`` reduces the result to the arrays that
    are stored as the reference; ``check(outcome, ref)`` returns
    ``(ok, detail)``.  ``solves`` is the number of time-stepping solves one
    call makes, so ``work`` is shots x cells x steps summed over them.
    ``probe_system(prep)`` is the system whose step matrix is probed for the
    per-step solve and matvec.  A workload without ``has_reference`` gates on
    its own output alone.
    """

    name: str
    inputs: Callable[[int, bool], dict]
    build: Callable[[dict], dict]
    call: Callable[[dict], Any]
    outcome: Callable[[dict, Any], dict]
    check: Callable[[dict, dict | None], tuple[bool, str]]
    solves: int
    probe_system: Callable[[dict], Any] = lambda prep: prep["system"]
    has_reference: bool = True

    def n_steps(self, inp: dict) -> int:
        return int(np.ceil(inp["t_end"] / inp["dt"] - 1e-12))

    def n_cells(self, inp: dict) -> int:
        return int(np.prod(inp["cells"]))

    def work(self, inp: dict) -> int:
        return self.solves * self.n_cells(inp) * self.n_steps(inp)


def _two_layer(rng: np.random.Generator) -> dict:
    return {
        "kappa_left": round(float(rng.uniform(0.9, 1.1)), 6),
        "kappa_right": round(float(rng.uniform(3.6, 4.4)), 6),
        "interface": round(float(rng.uniform(0.4, 0.6)), 6),
    }


def _grid(rw, inp: dict):
    return rw.build_grid(len(inp["cells"]), inp["cells"], 1.0, dt=inp["dt"], t_end=inp["t_end"])


def _model(rw, grid, layers: dict):
    return rw.two_layer_acoustic(grid, layers["kappa_left"], layers["kappa_right"],
                                 interface=layers["interface"])


# ---------------------------------------------------------------------------
# forward-shots-2d
# ---------------------------------------------------------------------------


def _forward_inputs(variant: int, toy: bool) -> dict:
    rng = _rng("forward-shots-2d", variant)
    n = 16 if toy else 64
    return {
        "cells": [n, n], "dt": 0.004, "t_end": 0.08 if toy else 0.6,
        "layers": _two_layer(rng),
        "shots": _points(rng, 4, 2, 0.15, 0.85),
        "frequency": 8.0,
        "receivers": _points(rng, 4 if toy else 16, 2, 0.05, 0.95),
    }


def _forward_build(inp: dict) -> dict:
    import roughwave as rw

    grid = _grid(rw, inp)
    system = rw.acoustics_system(_model(rw, grid, inp["layers"]))
    sources = [rw.make_ricker_source(grid, system.k, c, peak_frequency=inp["frequency"])
               for c in inp["shots"]]
    sampler = rw.build_sampler(inp["receivers"], "pressure", grid, system.k)
    return {"system": system, "sources": sources, "sampler": sampler}


def _forward_call(prep: dict):
    from roughwave import forward

    return forward.forward_map_shots(prep["system"], prep["sources"], prep["sampler"], jobs=1)


def _forward_outcome(prep: dict, shots) -> dict:
    return {"seismograms": np.stack([s.data for s in shots])}


def _forward_check(out: dict, ref: dict | None) -> tuple[bool, str]:
    err = max_rel_error(out["seismograms"], ref["seismograms"])
    return err <= SEISMOGRAM_RTOL, f"seismogram max-norm relative error {err:.2e}"


# ---------------------------------------------------------------------------
# gradient-prony-2d
# ---------------------------------------------------------------------------

# Fixed probes of the gradient arrays: a subset of cells stored in full, and
# random projections that see every cell.
GRADIENT_CELLS = 128
GRADIENT_PROJECTIONS = 8


def _gradient_inputs(variant: int, toy: bool) -> dict:
    rng = _rng("gradient-prony-2d", variant)
    n = 12 if toy else 64
    layers = _two_layer(rng)
    prony = [
        {"scale": round(float(rng.uniform(0.3, 0.6)), 6), "tau": round(float(rng.uniform(0.03, 0.08)), 6)},
        {"scale": round(float(rng.uniform(0.1, 0.3)), 6), "tau": round(float(rng.uniform(0.2, 0.4)), 6)},
    ]
    true_layers = dict(layers)
    true_layers["kappa_right"] = round(layers["kappa_right"] * float(rng.uniform(1.03, 1.08)), 6)
    true_layers["interface"] = round(layers["interface"] + float(rng.uniform(0.02, 0.05)), 6)
    true_scale = round(float(rng.uniform(1.05, 1.15)), 6)
    return {
        "cells": [n, n], "dt": 0.002, "t_end": 0.06 if toy else 0.6,
        "layers": layers, "prony": prony,
        "true_layers": true_layers, "true_prony_scale": true_scale,
        "shot": _points(rng, 1, 2, 0.2, 0.8)[0],
        "frequency": 6.0,
        "receivers": _points(rng, 4 if toy else 16, 2, 0.05, 0.95),
        "dot_test_seed": int(rng.integers(2**31)),
    }


def _prony_kernel(rw, grid, k: int, terms: list[dict], factor: float = 1.0):
    eye = np.eye(k)
    return rw.PronyKernel(
        weights=tuple(np.tile(factor * t["scale"] * eye, (grid.n_cells, 1, 1)) for t in terms),
        taus=tuple(t["tau"] for t in terms),
    )


def _gradient_build(inp: dict) -> dict:
    import roughwave as rw

    grid = _grid(rw, inp)
    model = _model(rw, grid, inp["layers"])
    system = rw.acoustics_system(model, kernel=_prony_kernel(rw, grid, model.k, inp["prony"]))
    true_model = _model(rw, grid, inp["true_layers"])
    true_system = rw.acoustics_system(
        true_model,
        kernel=_prony_kernel(rw, grid, model.k, inp["prony"], inp["true_prony_scale"]),
    )
    source = rw.make_ricker_source(grid, system.k, inp["shot"], peak_frequency=inp["frequency"])
    sampler = rw.build_sampler(inp["receivers"], "pressure", grid, system.k)
    observed = rw.forward_map(true_system, source, sampler)
    return {"system": system, "source": source, "sampler": sampler, "observed": observed,
            "dot_test_seed": inp["dot_test_seed"]}


def _gradient_call(prep: dict):
    from roughwave import sensitivity

    return sensitivity.misfit_gradient(
        prep["system"], prep["source"], prep["sampler"], prep["observed"],
        dot_test_rng=np.random.default_rng(prep["dot_test_seed"]),
    )


def _gradient_arrays(report) -> dict[str, np.ndarray]:
    arrays = {"g_a": report.g_a, "g_b": report.g_b}
    arrays.update({f"g_q{j}": g for j, g in enumerate(report.g_q)})
    return arrays


def _gradient_outcome(prep: dict, report) -> dict:
    out = {"dot_product_residual": np.array(report.diagnostics["dot_product_residual"])}
    probe_rng = np.random.default_rng(0)
    for key, arr in _gradient_arrays(report).items():
        flat = arr.reshape(arr.shape[0], -1)
        cells = np.sort(probe_rng.choice(flat.shape[0], min(GRADIENT_CELLS, flat.shape[0]),
                                         replace=False))
        basis = probe_rng.standard_normal((GRADIENT_PROJECTIONS, flat.size))
        out[f"{key}_cells"] = flat[cells]
        out[f"{key}_proj"] = basis @ flat.ravel()
    return out


def _gradient_check(out: dict, ref: dict | None) -> tuple[bool, str]:
    if set(out) != set(ref):
        return False, f"gradient arrays {sorted(out)} do not match the reference {sorted(ref)}"
    dot = float(out["dot_product_residual"])
    worst = max(max_rel_error(out[key], ref[key]) for key in out if key != "dot_product_residual")
    ok = dot <= DOT_TEST_MAX and worst <= GRADIENT_RTOL
    return ok, f"dot-product residual {dot:.2e}, gradient relative error {worst:.2e}"


# ---------------------------------------------------------------------------
# check-2d
# ---------------------------------------------------------------------------

_CHECK_TOTAL = re.compile(r"^check: (\d+)/(\d+) properties passed$", re.M)


def _check_inputs(variant: int, toy: bool) -> dict:
    rng = _rng("check-2d", variant)
    n = 16 if toy else 64
    return {
        "cells": [n, n], "dt": 0.0125 if toy else 0.005, "t_end": 0.75 if toy else 0.2,
        "layers": _two_layer(rng),
        "receivers": _points(rng, 4, 2, 0.05, 0.95),
        "check_seed": int(rng.integers(2**31)),
        "variant": variant, "toy": toy,
    }


def _check_build(inp: dict) -> dict:
    from roughwave import cli

    layers = inp["layers"]
    config = {
        "command": "check",
        "model": {
            "type": "acoustic",
            "grid": {"dim": 2, "cells": inp["cells"], "dt": inp["dt"], "t_end": inp["t_end"]},
            "kappa": {"two_layer": {"left": layers["kappa_left"], "right": layers["kappa_right"],
                                    "interface": layers["interface"]}},
            "rho": 1.0,
            "boundary": "periodic",
        },
        "sampler": {"receivers": inp["receivers"], "tag": "pressure"},
        "seed": inp["check_seed"],
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"check-2d-{'toy-' if inp['toy'] else ''}{inp['variant']}.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True))
    cfg = cli.parse_config(str(path))
    _, system = cli.build_system(cfg)
    cli.build_sampler_from_spec(cfg.sampler, system)
    return {"config": str(path), "system": system}


def _check_call(prep: dict):
    from roughwave import cli

    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(["check", "--config", prep["config"]])
    return code, text.getvalue()


def _check_outcome(prep: dict, result) -> dict:
    code, text = result
    totals = _CHECK_TOTAL.findall(text)
    passed, total = (int(totals[-1][0]), int(totals[-1][1])) if totals else (0, 0)
    failing = text.count(": FAIL (")
    return {"exit_code": np.array(code), "properties_passed": np.array(passed),
            "properties_total": np.array(total), "failing": np.array(failing)}


def _check_check(out: dict, ref: dict | None) -> tuple[bool, str]:
    code = int(out["exit_code"])
    passed, total = int(out["properties_passed"]), int(out["properties_total"])
    ok = code == 0 and total > 0 and passed == total and int(out["failing"]) == 0
    return ok, f"exit code {code}, {passed}/{total} properties passed"


# ---------------------------------------------------------------------------
# study-1d
# ---------------------------------------------------------------------------


def _study_inputs(variant: int, toy: bool) -> dict:
    rng = _rng("study-1d", variant)
    layers = _two_layer(rng)
    layers["interface"] = round(float(rng.uniform(0.5, 0.7)), 6)
    return {
        "cells": [500 if toy else 2000], "dt": 0.004 if toy else 0.001, "t_end": 1.0,
        "layers": layers,
        "shot": _points(rng, 1, 1, 0.2, 0.4)[0],
        "frequency": 8.0,
        "receivers": _points(rng, 3, 1, 0.05, 0.95),
    }


def _study_build(inp: dict) -> dict:
    import roughwave as rw

    grid = _grid(rw, inp)
    model = _model(rw, grid, inp["layers"])
    rough = model.coefficient_field()
    source = rw.make_ricker_source(grid, model.k, inp["shot"], peak_frequency=inp["frequency"])
    sampler = rw.build_sampler(inp["receivers"], "pressure", grid, model.k)
    return {"rough": rough, "source": source, "sampler": sampler}


def _study_system(prep: dict):
    from roughwave.operators import assemble_system

    return assemble_system(prep["rough"])


def _study_call(prep: dict):
    from roughwave import experiments

    return experiments.measure_convergence_study(prep["rough"], prep["source"], STUDY_SCHEDULE,
                                                 sampler=prep["sampler"])


def _study_outcome(prep: dict, report) -> dict:
    return {"passed": np.array(bool(report.passed)),
            "solution_distance": np.array(report.series["solution_distance"])}


def _study_check(out: dict, ref: dict | None) -> tuple[bool, str]:
    err = max_rel_error(out["solution_distance"], ref["solution_distance"])
    ok = bool(out["passed"]) and err <= STUDY_RTOL
    return ok, f"passed = {bool(out['passed'])}, solution-distance relative error {err:.2e}"


WORKLOADS = {
    w.name: w
    for w in (
        # one forward solve per shot
        Workload("forward-shots-2d", _forward_inputs, _forward_build, _forward_call,
                 _forward_outcome, _forward_check, solves=4),
        # forward, adjoint, and the dot test's directional derivative and adjoint
        Workload("gradient-prony-2d", _gradient_inputs, _gradient_build, _gradient_call,
                 _gradient_outcome, _gradient_check, solves=4),
        # two causal solves, the 3x-source solve, two directional derivatives,
        # the dot test (derivative + adjoint) and the zero-residual gradient
        # (forward + adjoint)
        Workload("check-2d", _check_inputs, _check_build, _check_call,
                 _check_outcome, _check_check, solves=9, has_reference=False),
        # the rough-field reference plus one solve per schedule entry
        Workload("study-1d", _study_inputs, _study_build, _study_call,
                 _study_outcome, _study_check, solves=1 + len(STUDY_SCHEDULE),
                 probe_system=_study_system),
    )
}


def ref_path(name: str, toy: bool) -> Path:
    return REF_DIR / f"{name}{'-toy' if toy else ''}.npz"


def load_reference(workload: Workload, variant: int, toy: bool) -> dict | None:
    if not workload.has_reference:
        return None
    prefix = f"v{variant}."
    with np.load(ref_path(workload.name, toy)) as data:
        return {key[len(prefix):]: data[key] for key in data.files if key.startswith(prefix)}
