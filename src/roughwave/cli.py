"""Command-line entry point: simulate / forward / gradient / check / study.

Runs are described by a JSON config (documented in the README).  Exit
codes: 0 success, 2 config/validation error, 3 numerical-check failure.
Outputs are deterministic for a fixed config and seed: fixed float
formatting, sorted keys, no timestamps.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import evolution, experiments, fields, forward, physics, sensitivity
from .errors import ConfigError, InvalidArgumentError, RoughwaveError
from .evolution import energy_identity_residual, export_energy_csv, export_snapshots, solve_causal
from .fields import PronyKernel, SourceTerm, ZeroKernel, build_grid
from .operators import DiscreteSystem, block_apply

COMMANDS = ("simulate", "forward", "gradient", "check", "study")


@dataclass
class RunConfig:
    command: str
    model: dict
    sources: list[dict] = field(default_factory=list)  # one entry per shot
    sampler: dict | None = None
    observed: list[str] = field(default_factory=list)
    study: dict | None = None
    output: str = "out"
    seed: int = 0
    leak_tolerance: float = 1e-6
    snapshot_every: int = 10


def _need(cfg: dict, key: str, kind, where: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected a JSON object, got {type(cfg).__name__}", field=where)
    if key not in cfg:
        raise ConfigError("required field is missing", field=f"{where}.{key}")
    value = cfg[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}",
                          field=f"{where}.{key}")
    return value


def _optional(cfg: dict, key: str, kind, default, where: str = "config"):
    """``cfg[key]`` checked like ``_need``; ``default`` when absent or null."""
    return default if cfg.get(key) is None else _need(cfg, key, kind, where)


def _positive(value, where: str):
    """``value`` (a number, or a list of numbers) when every entry is > 0; None passes."""
    if value is not None and not np.all(np.asarray(value) > 0):
        raise ConfigError(f"must be positive, got {value}", field=where)
    return value


def _nonnegative(value, where: str):
    """``value`` (a number) when it is >= 0; None passes."""
    if value is not None and not value >= 0:
        raise ConfigError(f"expected a number >= 0, got {value}", field=where)
    return value


def _is_point(value, dim: int) -> bool:
    return (isinstance(value, list) and len(value) == dim
            and all(isinstance(x, (int, float)) for x in value))


def _per_axis(cfg: dict, key: str, default, dim: int, where: str):
    """``cfg[key]``: one number for every axis, or a list of one per axis."""
    value = _optional(cfg, key, (int, float, list), default, where)
    if isinstance(value, list) and not _is_point(value, dim):
        raise ConfigError(f"expected a number or a list of {dim} numbers", field=f"{where}.{key}")
    return value


def parse_config(path: str) -> RunConfig:
    """Load and validate a run configuration, filling defaults."""
    if not os.path.exists(path):
        raise ConfigError(f"config file {path!r} does not exist", field="config")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"not valid JSON: {exc}", field="config") from exc
    command = _need(raw, "command", str, "config")
    if command not in COMMANDS:
        raise ConfigError(
            f"unknown command {command!r}; valid commands are {', '.join(COMMANDS)}",
            field="config.command",
        )
    model = _need(raw, "model", dict, "config")
    if "path" not in model:
        _need(model, "type", str, "config.model")
        if model["type"] not in ("acoustic", "viscoelastic"):
            raise ConfigError("model type must be 'acoustic' or 'viscoelastic'",
                              field="config.model.type")
        _need(model, "grid", dict, "config.model")
    # one scheme: the implicit midpoint step, whose exact transpose the adjoint is
    scheme = _optional(raw, "integrator", dict, {}).get("scheme", "implicit_midpoint")
    if scheme != "implicit_midpoint":
        raise ConfigError(f"expected 'implicit_midpoint' (RK4 was removed), got {scheme!r}",
                          field="config.integrator.scheme")
    sources = _optional(raw, "sources", list, [])
    if not all(isinstance(s, dict) for s in sources):
        raise ConfigError("expected a list of JSON objects", field="config.sources")
    source = _optional(raw, "source", dict, None)
    if source is not None and sources:
        raise ConfigError("give 'source' or 'sources', not both", field="config.sources")
    sources = sources or ([] if source is None else [source])
    if command in ("simulate", "forward", "gradient") and not sources:
        raise ConfigError("required field is missing", field="config.source")
    observed = []
    if command == "gradient":
        if "observed" not in raw:
            raise ConfigError("gradient runs need observed data", field="config.observed")
        observed = raw["observed"] if isinstance(raw["observed"], list) else [raw["observed"]]
        n_shots = len(sources)
        if len(observed) != n_shots or not all(isinstance(p, str) for p in observed):
            raise ConfigError(f"expected one observed data path per source ({n_shots}), "
                              f"got {len(observed)}", field="config.observed")
    if command == "study":
        study = _need(raw, "study", dict, "config")
        _need(study, "kind", str, "config.study")
    if command in ("forward", "gradient") and raw.get("sampler") is None:
        raise ConfigError("required field is missing", field="config.sampler")
    return RunConfig(
        command=command,
        model=model,
        sources=sources,
        sampler=raw.get("sampler"),
        observed=observed,
        study=raw.get("study"),
        output=_optional(raw, "output", str, "out"),
        seed=_optional(raw, "seed", int, 0),
        leak_tolerance=_nonnegative(_optional(raw, "leak_tolerance", float, 1e-6),
                                    "config.leak_tolerance"),
        snapshot_every=_positive(_optional(raw, "snapshot_every", int, 10), "config.snapshot_every"),
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _build_grid(spec: dict) -> fields.Grid:
    where = "config.model.grid"
    dim = _need(spec, "dim", int, where)
    if dim not in (1, 2, 3):
        raise ConfigError(f"expected 1, 2 or 3, got {dim}", field=f"{where}.dim")
    cells = _need(spec, "cells", list, where)
    if len(cells) != dim or not all(isinstance(c, int) and c >= 2 for c in cells):
        raise ConfigError(f"expected {dim} integer(s) >= 2", field=f"{where}.cells")
    return build_grid(
        dim=dim,
        cells_per_axis=cells,
        extent=_positive(_per_axis(spec, "extent", 1.0, dim, where), f"{where}.extent"),
        dt=_positive(_need(spec, "dt", (int, float), where), f"{where}.dt"),
        t_end=_positive(_need(spec, "t_end", (int, float), where), f"{where}.t_end"),
        origin=_per_axis(spec, "origin", 0.0, dim, where),
    )


def _per_cell(spec, grid: fields.Grid, what: str) -> np.ndarray:
    if isinstance(spec, (int, float)):
        arr = np.full(grid.n_cells, float(spec))
    elif isinstance(spec, list):
        arr = np.asarray(spec, dtype=float)
        if arr.size != grid.n_cells:
            raise ConfigError(f"array length {arr.size} != cell count {grid.n_cells}", field=what)
    elif isinstance(spec, dict) and "two_layer" in spec:
        tl = _need(spec, "two_layer", dict, what)
        axis = _optional(tl, "axis", int, 0, what)
        if not 0 <= axis < grid.dim:
            raise ConfigError(f"expected an axis in 0..{grid.dim - 1}, got {axis}", field=f"{what}.axis")
        arr = np.where(grid.centers()[:, axis] >= _optional(tl, "interface", float, 0.5, what),
                       float(_need(tl, "right", (int, float), what)),
                       float(_need(tl, "left", (int, float), what)))
    else:
        raise ConfigError("expected a number, array, or {'two_layer': ...}", field=what)
    bad = np.flatnonzero(~(arr > 0))
    if bad.size:
        raise ConfigError(f"must be positive; cell {bad[0]} has {arr[bad[0]]:.6g}", field=what)
    return arr


def _build_kernel(model: dict, grid: fields.Grid, width: int):
    """Kernel of ``config.model.kernel`` on blocks of the given width (the
    acoustic state width, or the Kelvin stress width for viscoelasticity)."""
    spec = _optional(model, "kernel", dict, None, "config.model")
    if not spec or spec.get("type", "zero") == "zero":
        return None
    if spec["type"] == "prony":
        weights, taus = [], []
        for term in _need(spec, "terms", list, "config.model.kernel"):
            scale = float(_need(term, "scale", (int, float), "config.model.kernel.terms"))
            taus.append(float(_need(term, "tau", (int, float), "config.model.kernel.terms")))
            weights.append(np.tile(scale * np.eye(width), (grid.n_cells, 1, 1)))
        return PronyKernel(weights=tuple(weights), taus=tuple(taus))
    raise ConfigError("kernel type must be 'zero' or 'prony'", field="config.model.kernel.type")


def _read_input(load, path, where: str):
    """Load an input file; unreadable or inconsistent files are config errors."""
    try:
        return load(path)
    except (OSError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot read {path!r}: {exc}", field=where) from exc


def build_model(spec: dict):
    if "path" in spec:
        return _read_input(physics.load_model, spec["path"], "config.model.path")
    grid = _build_grid(spec["grid"])
    if spec["type"] == "acoustic":
        return physics.AcousticModel(
            grid=grid,
            kappa=_per_cell(_need(spec, "kappa", object, "config.model"), grid, "config.model.kappa"),
            rho=_per_cell(_need(spec, "rho", object, "config.model"), grid, "config.model.rho"),
        )
    lam = float(_need(spec, "lam", (int, float), "config.model"))
    mu = _optional(spec, "mu", float, 0.0, "config.model")
    gamma_e = np.tile(physics.isotropic_inverse_hooke(lam, mu, grid.dim), (grid.n_cells, 1, 1))
    return physics.ViscoelasticModel(
        grid=grid, rho=_per_cell(spec.get("rho", 1.0), grid, "config.model.rho"),
        gamma_elastic=gamma_e,
        gamma_kernel=_build_kernel(spec, grid, physics.kelvin_dim(grid.dim)),
    )


def _boundary(cfg: RunConfig, model) -> str:
    """``config.model.boundary``; viscoelastic systems are periodic only."""
    boundary = cfg.model.get("boundary", "periodic")
    acoustic = isinstance(model, physics.AcousticModel)
    allowed = ("periodic", "acoustic_free") if acoustic else ("periodic",)
    if boundary not in allowed:
        raise ConfigError(f"expected {' or '.join(map(repr, allowed))}, got {boundary!r}",
                          field="config.model.boundary")
    return boundary


def build_system(cfg: RunConfig):
    model = build_model(cfg.model)
    boundary = _boundary(cfg, model)
    if isinstance(model, physics.AcousticModel):
        kernel = _build_kernel(cfg.model, model.grid, model.k)
        return model, physics.acoustics_system(model, boundary=boundary, kernel=kernel)
    return model, physics.viscoelastic_system(model, boundary=boundary)


def _acoustic_system(cfg: RunConfig, who: str):
    """``build_system`` for runs that need an acoustic model; ``who`` names them."""
    model, system = build_system(cfg)
    if not isinstance(model, physics.AcousticModel):
        raise ConfigError(f"{who} need an acoustic model", field="config.model.type")
    return model, system


def build_source(spec: dict, system: DiscreteSystem) -> SourceTerm:
    kind = spec.get("type", "ricker")
    grid, k = system.grid, system.k
    center = _need(spec, "center", list, "config.source")
    if len(center) != grid.dim:
        raise ConfigError(f"expected {grid.dim} coordinate(s), got {len(center)}",
                          field="config.source.center")
    component = _optional(spec, "component", int, 0, "config.source")
    if not 0 <= component < k:
        raise ConfigError(f"expected 0..{k - 1}, got {component}", field="config.source.component")
    onset = _nonnegative(_optional(spec, "onset", float, 0.0, "config.source"),
                         "config.source.onset")
    common = dict(
        grid=grid, k=k, center=center, component=component, onset=onset,
        amplitude=_optional(spec, "amplitude", float, 1.0, "config.source"),
        footprint_width=_positive(_optional(spec, "footprint_width", float, None, "config.source"),
                                  "config.source.footprint_width"),
    )
    if kind == "ricker":
        return fields.make_ricker_source(
            peak_frequency=_positive(_need(spec, "frequency", float, "config.source"),
                                     "config.source.frequency"),
            delay=_nonnegative(_optional(spec, "delay", float, None, "config.source"),
                               "config.source.delay"), **common,
        )
    if kind == "burst":
        return fields.make_burst_source(
            frequency=_positive(_need(spec, "frequency", float, "config.source"),
                                "config.source.frequency"),
            smoothness=_optional(spec, "smoothness", int, 2, "config.source"), **common,
        )
    raise ConfigError("source type must be 'ricker' or 'burst'", field="config.source.type")


def _receivers(spec: dict, grid: fields.Grid, where: str) -> list:
    """``spec["receivers"]``, a list of points of ``grid.dim`` numbers each."""
    receivers = _need(spec, "receivers", list, where)
    if not receivers or not all(_is_point(r, grid.dim) for r in receivers):
        raise ConfigError(f"expected a list of points of {grid.dim} coordinate(s) each",
                          field=f"{where}.receivers")
    return receivers


def build_sampler_from_spec(spec: dict, system: DiscreteSystem) -> forward.Sampler:
    """The sampler of ``config.sampler``: pressure, or velocity along one or per-receiver normals."""
    grid = system.grid
    receivers = _receivers(spec, grid, "config.sampler")
    tag = _optional(spec, "tag", str, forward.PRESSURE, "config.sampler")
    if tag not in (forward.PRESSURE, forward.NORMAL_VELOCITY):
        raise ConfigError(f"expected 'pressure' or 'normal_velocity', got {tag!r}",
                          field="config.sampler.tag")
    normal = _optional(spec, "normal", list, None, "config.sampler")
    normals = normal if normal and isinstance(normal[0], list) else [normal]
    if tag == forward.NORMAL_VELOCITY and not (len(normals) in (1, len(receivers)) and all(
            _is_point(n, grid.dim) and any(n) for n in normals)):
        raise ConfigError(f"'normal_velocity' needs a nonzero normal of {grid.dim} number(s), "
                          "or one per receiver", field="config.sampler.normal")
    try:
        return forward.build_sampler(receivers, tag, grid, system.k, normal=normal)
    except InvalidArgumentError as exc:  # a receiver outside the domain
        raise ConfigError(str(exc), field="config.sampler.receivers") from exc


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _one_source(cfg: RunConfig, system: DiscreteSystem) -> SourceTerm:
    """The source of a run that solves one shot."""
    if not cfg.sources:
        raise ConfigError("required field is missing", field="config.source")
    if len(cfg.sources) > 1:
        raise ConfigError(f"{cfg.command} runs one source, got {len(cfg.sources)}",
                          field="config.sources")
    return build_source(cfg.sources[0], system)


def _cmd_simulate(cfg: RunConfig) -> int:
    model, system = build_system(cfg)
    source = _one_source(cfg, system)
    traj = solve_causal(system, source)
    os.makedirs(cfg.output, exist_ok=True)
    export_energy_csv(traj, os.path.join(cfg.output, "energy.csv"))
    export_snapshots(traj, os.path.join(cfg.output, "snapshots"), system.k, every=cfg.snapshot_every)
    res = energy_identity_residual(traj, system, source)
    print(f"simulate: {traj.n_steps} steps, final energy {traj.energies[-1]:.6e}, "
          f"max energy-identity residual {np.abs(res).max():.3e}")
    return 0


def _cmd_forward(cfg: RunConfig) -> int:
    model, system = _acoustic_system(cfg, "sampler tags")
    sampler = build_sampler_from_spec(cfg.sampler, system)
    sources = [build_source(s, system) for s in cfg.sources]
    shots = forward.forward_map_shots(system, sources, sampler)
    os.makedirs(cfg.output, exist_ok=True)
    for i, seis in enumerate(shots):
        forward.save_seismogram_csv(seis, os.path.join(cfg.output, f"seismogram_{i:03d}.csv"))
    print(f"forward: wrote {len(shots)} seismogram(s) with {sampler.n_channels} channel(s)")
    return 0


def _cmd_gradient(cfg: RunConfig) -> int:
    model, system = _acoustic_system(cfg, "sampler tags")
    sampler = build_sampler_from_spec(cfg.sampler, system)
    observed = [_read_input(forward.load_observed_data, path, "config.observed")
                for path in cfg.observed]
    times = system.grid.times()
    for path, data in zip(cfg.observed, observed):
        if data.data.shape != (sampler.n_channels, times.size) or not np.allclose(
                data.times, times, rtol=1e-10, atol=1e-14):
            raise ConfigError(f"{path!r} holds {data.data.shape[0]} channel(s) at "
                              f"{data.data.shape[1]} time level(s); the run predicts "
                              f"{sampler.n_channels} at the {times.size} levels of its grid",
                              field="config.observed")
    os.makedirs(cfg.output, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    total = None
    j_total = 0.0
    worst_dot = 0.0
    sources = [build_source(s, system) for s in cfg.sources]
    # deterministic accumulation in fixed source order
    for source, data in zip(sources, observed):
        report = sensitivity.misfit_gradient(system, source, sampler, data, dot_test_rng=rng)
        j_total += report.objective
        worst_dot = max(worst_dot, report.diagnostics.get("dot_product_residual", 0.0))
        if total is None:
            total = report
        else:
            total.g_a += report.g_a
            total.g_b += report.g_b
            total.g_q = tuple(g + r for g, r in zip(total.g_q, report.g_q))
    total.objective = j_total
    total.diagnostics["dot_product_residual"] = worst_dot
    sensitivity.save_gradient_report(total, system, os.path.join(cfg.output, "gradient"))
    print(f"gradient: J = {j_total:.10e}, dot-product diagnostic = {worst_dot:.3e}")
    return 0 if worst_dot <= sensitivity.DOT_PRODUCT_BOUND else 3


def _increasing(study: dict, key: str, default: list, min_len: int) -> list:
    """``config.study[key]``: at least ``min_len`` strictly increasing integers >= 1."""
    values = _optional(study, key, list, default, "config.study")
    if len(values) < min_len or not all(isinstance(v, int) and v >= 1 for v in values) or any(
            b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"expected at least {min_len} strictly increasing integers >= 1",
                          field=f"config.study.{key}")
    return values


def _cmd_study(cfg: RunConfig) -> int:
    model, system = _acoustic_system(cfg, "studies")
    kind = cfg.study["kind"]
    dim = model.grid.dim
    if kind == "measure_convergence":
        source = _one_source(cfg, system)
        schedule = _increasing(cfg.study, "schedule", [4, 8, 16, 32], 3)
        os.makedirs(cfg.output, exist_ok=True)
        report = experiments.measure_convergence_study(
            model.coefficient_field(kernel=system.kernel), source, schedule,
            boundary=_boundary(cfg, model),
        )
    elif kind == "trace_regularity":
        if not isinstance(system.kernel, ZeroKernel):
            raise ConfigError("trace_regularity studies need a memory-free medium",
                              field="config.model.kernel")
        from_study = cfg.study.get("receivers") or not cfg.sampler
        spec, where = (cfg.study, "config.study") if from_study else (cfg.sampler, "config.sampler")
        receivers = _receivers(spec, model.grid, where)
        center = _optional(cfg.study, "center", list, [0.5] * dim, "config.study")
        if not _is_point(center, dim):
            raise ConfigError(f"expected {dim} coordinate(s)", field="config.study.center")
        freq = _positive(_optional(cfg.study, "frequency", float, 4.0, "config.study"),
                         "config.study.frequency")
        smoothness = _increasing(cfg.study, "smoothness", [1, 2, 3], 1)
        refinements = _optional(cfg.study, "refinements", int, 2, "config.study")
        if refinements < 1:
            raise ConfigError("expected an integer >= 1", field="config.study.refinements")

        def factory(grid, s):
            return fields.make_burst_source(grid, model.k, center, frequency=freq, smoothness=s)

        os.makedirs(cfg.output, exist_ok=True)
        report = experiments.trace_regularity_probe(
            model, receivers, factory, smoothness_schedule=smoothness, refinements=refinements,
            boundary=_boundary(cfg, model),
        )
    else:
        raise ConfigError("study kind must be 'measure_convergence' or 'trace_regularity'",
                          field="config.study.kind")
    report.save(os.path.join(cfg.output, f"study_{kind}"))
    print(f"study {kind}: passed = {report.passed}")
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------
# the `check` invariant suite
# ---------------------------------------------------------------------------


def _fsum_dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum(x * y) of float64 vectors, correctly rounded: ``math.fsum((x * y).tolist())``
    without the list.  Each product is m 2^e with 2^52 <= |m 2^53| < 2^53; the integer
    m 2^53 splits into a high part (27 bits and sign) and a low part (26 bits), and
    ``bincount`` sums each per exponent, exactly in float64 while there are at most 2^26
    terms.  The exact total is one Python int times a power of two, rounded once by int
    to float conversion or true division, both correctly rounded in CPython (subnormals
    included).  A product that is not finite, a total that could near the overflow
    threshold, and an exact total of 0 (whose sign fsum decides) go to ``math.fsum``."""
    p = x * y
    if not 0 < p.size <= 1 << 26 or not np.isfinite(p).all():
        return math.fsum(p.tolist())
    m, e = np.frexp(p)
    e = e.astype(np.intp)
    e_lo, e_hi = int(e.min()), int(e.max())
    if e_hi + p.size.bit_length() > 1022:  # sum |p| may reach 2^1022
        return math.fsum(p.tolist())
    e -= e_lo
    m *= 2.0 ** 27
    hi = np.floor(m)
    m -= hi
    m *= 2.0 ** 26
    hi_sums = np.bincount(e, weights=hi).tolist()
    lo_sums = np.bincount(e, weights=m).tolist()
    total = 0
    for k in range(len(hi_sums)):
        total += ((int(hi_sums[k]) << 26) + int(lo_sums[k])) << k
    if total == 0:
        return math.fsum(p.tolist())
    scale = e_lo - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


def _repeat_gap(system: DiscreteSystem, traj) -> float:
    """max |u_n - u'_n| between ``traj`` and its causal solve repeated step by step."""
    repeat = evolution._midpoint_steps([system], [traj.source], np.zeros((system.n_state, 1)),
                                       None)
    return max(float(np.abs(u - z[0, 0, :, 0]).max()) for u, z in zip(traj.states[1:], repeat))


def _derivative_linearity(system: DiscreteSystem, traj, rng) -> tuple[float, float]:
    """max |du(2m) - 2 du(m)| and max |du(2m)| for a random perturbation m, the two
    derivative solves stepped together."""
    pert = sensitivity.random_perturbation(system, rng)
    pert2 = sensitivity.CoefficientPerturbation(
        delta_a=2 * pert.delta_a, delta_b=2 * pert.delta_b,
        delta_weights=pert.delta_weights and tuple(2 * w for w in pert.delta_weights))
    steps = zip(*(sensitivity.derivative_steps(system, traj.source, traj, p) for p in (pert, pert2)))
    lin, top = zip(*((np.abs(du2 - 2 * du1).max(), np.abs(du2).max()) for du1, du2 in steps))
    return float(max(lin)), float(max(top))


def run_checks(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    """Exercise every module invariant at desk scale on the configured system."""
    from dataclasses import replace as dc_replace

    from .evolution import step_residuals
    from .fields import make_ricker_source, mollify_field

    rng = np.random.default_rng(cfg.seed)
    model, system = _acoustic_system(cfg, "sampler tags")
    grid, k = system.grid, system.k
    center = [grid.origin[a] + 0.5 * grid.extent[a] for a in range(grid.dim)]
    sampler = build_sampler_from_spec(cfg.sampler or {"receivers": [center]}, system)
    results: list[tuple[str, bool, str]] = []

    def record(name: str, ok: bool, detail: str):
        results.append((name, bool(ok), detail))

    # operators: skew-symmetry, mass bounds
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(system.n_state)
        v = rng.standard_normal(system.n_state)
        s = abs(_fsum_dot(system.skew @ u, v) + _fsum_dot(u, system.skew @ v))
        worst = max(worst, s / (np.linalg.norm(u) * np.linalg.norm(v)))
    record("skew_symmetry", worst <= 1e-12, f"max |<Pu,v>+<u,Pv>|/(|u||v|) = {worst:.2e}")

    # the model's mass blocks are system.a_blocks: one spectrum serves both bound checks
    f0 = model.coefficient_field()
    eig0 = np.linalg.eigvalsh(f0.a)
    rq = []
    for _ in range(20):
        u = rng.standard_normal(system.n_state)
        rq.append(float(u @ block_apply(system.a_blocks, u)) / float(u @ u))
    lo, hi = float(eig0.min()), float(eig0.max())
    ok = min(rq) >= lo - 1e-10 and max(rq) <= hi + 1e-10
    record("mass_rayleigh_bounds", ok, f"quotients in [{min(rq):.4g}, {max(rq):.4g}] vs [{lo:.4g}, {hi:.4g}]")

    # fields: mollifier preservation + measure pseudo-metric
    sm = mollify_field(f0, 4, _boundary(cfg, model))
    eig1 = np.linalg.eigvalsh(sm.a)
    ok = eig1.min() >= eig0.min() - 1e-12 and eig1.max() <= eig0.max() + 1e-12
    record("mollify_preserves_bounds", ok,
           f"[{eig1.min():.4g}, {eig1.max():.4g}] within [{eig0.min():.4g}, {eig0.max():.4g}]")
    eps = 0.1 * max(float(f0.a.max() - f0.a.min()), 1e-3)
    d13 = fields.measure_distance(f0, sm, 2 * eps)
    d12 = fields.measure_distance(f0, f0, eps)
    d23 = fields.measure_distance(f0, sm, eps)
    record("measure_pseudo_metric", d13 <= d12 + d23 + 1e-15 and d12 == 0.0,
           f"d(f,g;2e)={d13:.4g} <= {d12 + d23:.4g}")

    # evolution: causality, determinism, conservation, identity residual
    duration = grid.dt * grid.n_steps
    peak_frequency = max(4.0 / max(grid.extent), 3.0 / duration)
    src = make_ricker_source(grid, k, center, peak_frequency=peak_frequency,
                             onset=0.05 * duration, amplitude=1.0)
    traj = solve_causal(system, src)
    n_quiet = int(np.count_nonzero(traj.times < src.onset))
    quiet = float(np.abs(traj.states[:n_quiet]).max()) if n_quiet else 0.0
    record("solve_causality", quiet == 0.0, f"max |u| before onset = {quiet:.1e}")

    gap = _repeat_gap(system, traj)
    record("solve_determinism", gap <= 1e-14, f"repeat-solve gap = {gap:.1e}")

    res = np.abs(step_residuals(traj, system, src)).max()
    bound = max(1.0, float(traj.states.max()), float(-traj.states.min()))
    record("step_residuals", res <= 1e-8 * bound, f"max half-step equation residual = {res:.2e}")

    eres = np.abs(energy_identity_residual(traj, system, src)).max()
    scale = max(traj.energies.max(), 1e-30)
    record("energy_identity", eres <= 2e-2 * scale, f"max residual {eres:.2e} vs energy {scale:.2e}")

    # forward: sampler adjoint identity and forward linearity
    u = rng.standard_normal(system.n_state)
    r = rng.standard_normal(sampler.n_channels)
    lhs = float(forward.apply_sampler(sampler, u) @ r)
    rhs = float(u @ forward.sampler_adjoint_source(sampler, r[:, None])[0])
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    record("sampler_adjoint_identity", rel <= 1e-12, f"relative gap = {rel:.1e}")

    seis1 = forward.sample_trajectory(sampler, traj)
    seis3 = forward.forward_map(system, dc_replace(src, footprint=3.0 * src.footprint), sampler)
    lin = float(np.abs(seis3.data - 3.0 * seis1.data).max())
    record("forward_linearity", lin <= 1e-10 * max(1.0, float(np.abs(seis3.data).max())),
           f"|F(3f) - 3F(f)| = {lin:.1e}")

    # sensitivity: linearity, then (after the trajectory is released) the dot product and
    # gradient symmetry, from one dot-tested gradient at zero residual
    if isinstance(system.kernel, (ZeroKernel, PronyKernel)):
        lin, top = _derivative_linearity(system, traj, rng)
        record("derivative_linearity", lin <= 1e-10 * max(1.0, top),
               f"|du(2m) - 2 du(m)| = {lin:.1e}")

    # experiments: two-sided cone check (the intruding cone is anchored at the
    # emission peak so the pulse delay cannot mask the overlap); the sampled
    # symbol speed is only needed, and only cheap, in 1D.  The leaks read the
    # trajectory, which is released before the gradient solves its own.
    speed = physics.max_wavespeed(system) if grid.dim == 1 else 0.0
    if speed > 0:
        leak_quiet = experiments.cone_leak(
            traj, experiments.cone_from_speed(center, src.onset, speed, margin=0.1))
        fast = experiments.ConeSpec(apex_x=tuple(center), apex_t=src.onset + 1.5 / peak_frequency,
                                    slowness=(1.1 / speed))
        leak_fast = experiments.cone_leak(traj, fast)
    del traj

    if isinstance(system.kernel, (ZeroKernel, PronyKernel)):
        report = sensitivity.misfit_gradient(system, src, sampler, seis1, dot_test_rng=rng)
        rel = report.diagnostics["dot_product_residual"]
        record("adjoint_dot_product", rel <= sensitivity.DOT_PRODUCT_BOUND, f"relative error = {rel:.2e}")
        sym = float(np.abs(report.g_a - np.swapaxes(report.g_a, 1, 2)).max())
        zero = float(np.abs(report.g_a).max() + np.abs(report.g_b).max()
                     + sum(np.abs(g).max() for g in report.g_q))
        record("gradient_symmetry", sym == 0.0, f"asymmetry = {sym:.1e}")
        record("zero_residual_zero_gradient",
               report.objective == 0.0 and zero == 0.0,
               f"J = {report.objective:.1e}, |g| = {zero:.1e}")

    if speed > 0:
        record("cone_two_sided", leak_quiet <= cfg.leak_tolerance and leak_fast > 1e-3,
               f"quiet leak {leak_quiet:.2e} vs intruding leak {leak_fast:.2e}")

        tau0 = 1.0 / speed
        inside = physics.slowness_pencil_min_eig(system, 0.95 * tau0)
        outside = physics.slowness_pencil_min_eig(system, 1.05 * tau0)
        record("slowness_pencil_two_sided", outside < 0 <= inside + 1e-12,
               f"min eig at 0.95/c: {inside:.2e}, at 1.05/c: {outside:.2e}")

    # physics: viscoelastic split and Christoffel speed
    ve_grid = build_grid(1, [8], 1.0, 1e-3, 1e-2)
    m = physics.kelvin_dim(1)
    gamma_e = np.tile(physics.isotropic_inverse_hooke(1.2, 0.0, 1), (ve_grid.n_cells, 1, 1))
    kern = PronyKernel(weights=(np.tile(0.3 * np.eye(m), (ve_grid.n_cells, 1, 1)),), taus=(0.5,))
    ve = physics.ViscoelasticModel(grid=ve_grid, rho=1.0, gamma_elastic=gamma_e, gamma_kernel=kern)
    err = physics.kernel_split_reconstruction_error(ve)
    record("ve_kernel_split", err <= 1e-8, f"reconstruction error = {err:.2e}")

    grid2 = build_grid(2, [4, 4], 1.0, 1e-3, 1e-2)
    lam_mu_rho = (2.0, 1.0, 1.25)
    gamma_e2 = np.tile(physics.isotropic_inverse_hooke(lam_mu_rho[0], lam_mu_rho[1], 2),
                       (grid2.n_cells, 1, 1))
    ve2 = physics.ViscoelasticModel(grid=grid2, rho=lam_mu_rho[2], gamma_elastic=gamma_e2)
    cp = physics.max_wavespeed(ve2)
    cp_ref = np.sqrt((lam_mu_rho[0] + 2 * lam_mu_rho[1]) / lam_mu_rho[2])
    record("christoffel_quasi_p", abs(cp - cp_ref) / cp_ref <= 5e-3,
           f"sampled {cp:.6g} vs closed form {cp_ref:.6g}")

    return results


def _cmd_check(cfg: RunConfig) -> int:
    results = run_checks(cfg)
    failed = 0
    for name, ok, detail in results:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed += 0 if ok else 1
    print(f"check: {len(results) - failed}/{len(results)} properties passed")
    return 0 if failed == 0 else 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(cfg: RunConfig) -> int:
    handlers = {
        "simulate": _cmd_simulate,
        "forward": _cmd_forward,
        "gradient": _cmd_gradient,
        "check": _cmd_check,
        "study": _cmd_study,
    }
    return handlers[cfg.command](cfg)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughwave",
        description="Wave solver and inverse-problem sensitivity toolkit for rough media",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized checks")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if cfg.command != args.command:
            raise ConfigError(
                f"config declares command {cfg.command!r} but {args.command!r} was requested",
                field="config.command",
            )
        if args.out is not None:
            cfg.output = args.out
        if args.seed is not None:
            cfg.seed = args.seed
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RoughwaveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
