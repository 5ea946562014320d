#!/usr/bin/env python3
"""roughwave benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--toy]

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the run times end-to-end calls with tracing
off and prints the end-to-end metrics; with ``--trace 1`` it times
untraced calls for half of ``--seconds``, then installs spans around the
package's public functions and times traced calls for the other half, and
prints the per-module metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  Spans and a
results record with the environment go to ``perfbench/out/``.

End-to-end times (``call_s``, ``setup_s``) are in reference seconds: each
call is scaled by the machine's speed while it ran, and the set-up by its
speed over the run's builds and calls, as gauged by ``speed.SpeedProbe``;
the wall times are printed and recorded next to them.

BLAS is pinned to one thread (at most ``nproc``): on two cores OpenBLAS's
default threading made a 4-shot 80² forward both slower and noisier.  The
run, with the interpreters it starts to time the import, is pinned to one
CPU, the one the speed probe gauges.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads as wl  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import MEMORY_SPANS, SPLU, TRACED_MODULES, CallTrace, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 5
BUILD_REPEATS = 3

END_TO_END_UNITS = {
    "call_s": "s",
    "cell_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def environment(cpu: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def import_seconds() -> float:
    """Median wall time to start a fresh interpreter and import the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", "import roughwave"], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"importing roughwave from {SRC} failed:\n{proc.stderr}")
    return statistics.median(times)


class Runner:
    """Times calls of one workload on one input set and applies its gate.

    With a ``probe`` each call is also timed in reference seconds
    (``ref_times``); without one, only in wall seconds (``times``).
    """

    def __init__(self, workload: wl.Workload, inputs: dict, prep: dict, ref: dict | None,
                 probe: SpeedProbe | None = None):
        self.workload, self.inputs, self.prep, self.ref = workload, inputs, prep, ref
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.times: list[float] = []
        self.ref_times: list[float] = []
        self.slowdowns: list[float] = []
        self.bursts: list[float] = []
        self.last_outcome: dict | None = None

    def _attempt(self):
        try:
            return self.workload.call(self.prep)
        except Exception as exc:  # a failing call is counted, the run goes on
            return exc

    def once(self) -> None:
        """Time one call, then apply the gate outside the timed region."""
        self.attempted += 1
        if self.probe is None:
            start = time.perf_counter()
            result = self._attempt()
            self.times.append(time.perf_counter() - start)
        else:
            result, net, bursts = self.probe.section(self._attempt)
            slowdown = self.probe.slowdown(bursts)
            self.bursts += bursts
            self.times.append(net)
            self.ref_times.append(net / slowdown)
            self.slowdowns.append(slowdown)
        if isinstance(result, Exception):
            traceback.print_exception(result)
            self.failed += 1
            return
        outcome = self.workload.outcome(self.prep, result)
        ok, detail = self.workload.check(outcome, self.ref)
        self.last_outcome = outcome
        if not ok:
            self.failed += 1
            print(f"gate failed: {detail}", file=sys.stderr)

    def loop(self, seconds: float, before=None) -> list[float]:
        """Call at least once, then again while the median call still fits in
        ``seconds``; ``before(i)`` runs ahead of call ``i``, outside its time.
        Returns the times of these calls."""
        first = len(self.times)
        start = time.perf_counter()
        while (len(self.times) == first
               or time.perf_counter() - start + statistics.median(self.times[first:]) <= seconds):
            if before is not None:
                before(len(self.times) - first)
            self.once()
        return self.times[first:]


def end_to_end(runner: Runner, seconds: float, setup_wall_s: float) -> dict:
    """``runner.bursts`` holds the builds' bursts on entry; the set-up is
    scaled by the slowdown over those and the calls' bursts."""
    times = runner.loop(seconds)
    call_s = statistics.median(runner.ref_times)
    setup_s = setup_wall_s / runner.probe.slowdown(runner.bursts)
    print(f"setup: {setup_s:.4f} reference s, {setup_wall_s:.4f} wall s")
    print(f"calls: {len(times)} samples, median {call_s:.4f} reference s, "
          f"{statistics.median(times):.4f} wall s, "
          f"slowdown {statistics.median(runner.slowdowns):.3f}, "
          f"failed_ratio {runner.failed}/{runner.attempted}, "
          f"wall times {' '.join(f'{t:.3f}' for t in times)}")
    values = {
        "call_s": call_s,
        "cell_steps_per_s": runner.workload.work(runner.inputs) / call_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def median_time(fn, min_reps: int, budget_s: float) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_step(system, dt: float) -> dict:
    """One sparse matvec and one step solve on the workload's own step matrix."""
    from roughwave.evolution import StepOperators

    ops = StepOperators(system, dt)
    lu_nnz = int(ops.lu.L.nnz + ops.lu.U.nnz)
    rhs = np.random.default_rng(0).standard_normal(ops.n_state)
    matvec = median_time(lambda: ops.c_matrix @ rhs, 50, 0.2)
    solve = median_time(lambda: ops.lu.solve(rhs), 10, 0.3)
    n = ops.n_state
    # L and U values (8 B) with row indices (4 B), their column pointers, the
    # right-hand side read, permuted in and out and written (8 B each), and
    # both permutation vectors (4 B each); cache reuse is ignored.
    computed_bytes = 12 * lu_nnz + 2 * 4 * (n + 1) + 4 * 8 * n + 2 * 4 * n
    return {"lu_nnz": lu_nnz, "matvec_s": matvec, "solve_s": solve, "bytes": computed_bytes}


def per_layer(runner: Runner, seconds: float, tracer: Tracer) -> dict:
    workload = runner.workload
    untraced = runner.loop(seconds / 2)
    probe = probe_step(workload.probe_system(runner.prep), runner.inputs["dt"])

    tracer.install()
    tracer.call = "setup"
    workload.build(runner.inputs)
    tracer.call = None
    setup = CallTrace([s for s in tracer.spans if s.call == "setup"])

    def label(i: int) -> None:
        tracer.call = f"call{i}"

    traced = runner.loop(seconds / 2, before=label)
    tracer.call = None
    passes = [CallTrace([s for s in tracer.spans if s.call == f"call{i}"])
              for i in range(len(traced))]

    peak_mb = 0.0
    if any(p.count(*MEMORY_SPANS) for p in passes):
        tracer.call = "memory"
        tracemalloc.start()
        try:
            runner.once()
        finally:
            tracemalloc.stop()
            tracer.call = None
        peak_mb = max((b for c, b in tracer.memory_growth if c == "memory"), default=0) / 2**20

    n_steps = workload.n_steps(runner.inputs)
    cli_passed = int((runner.last_outcome or {}).get("properties_passed", 0))

    def per_call(p: CallTrace) -> dict:
        adjoint_calls = p.count("sensitivity.adjoint_solve")
        values = {
            "fields.source_eval_calls": (p.count("fields.SourceTerm.evaluate"), "count"),
            "fields.source_eval_s": (p.inclusive("fields.SourceTerm.evaluate"), "s"),
            "fields.mollify_s": (p.inclusive("fields.mollify_field"), "s"),
            "fields.measure_distance_s": (p.inclusive("fields.measure_distance"), "s"),
            "operators.energy_calls": (p.count("operators.energy"), "count"),
            "operators.energy_s": (p.inclusive("operators.energy"), "s"),
            "operators.symbol_speed_s": (p.inclusive("operators.max_symbol_speed"), "s"),
            "evolution.factorizations": (p.count(SPLU), "count"),
            "evolution.factor_s": (p.inclusive(SPLU), "s"),
            "evolution.solve_causal_calls": (p.count("evolution.solve_causal"), "count"),
            "evolution.solve_causal_self_s": (p.self_of("evolution.solve_causal"), "s"),
            "evolution.step_residuals_s": (p.inclusive("evolution.step_residuals"), "s"),
            "evolution.energy_identity_s": (p.inclusive("evolution.energy_identity_residual"), "s"),
            "physics.max_wavespeed_s": (p.inclusive("physics.max_wavespeed"), "s"),
            "forward.sample_s": (p.inclusive("forward.sample_trajectory", "forward.apply_sampler"), "s"),
            "forward.forward_map_self_s": (p.self_of("forward.forward_map"), "s"),
            "sensitivity.adjoint_calls": (adjoint_calls, "count"),
            "sensitivity.adjoint_s": (p.inclusive("sensitivity.adjoint_solve"), "s"),
            "sensitivity.adjoint_step_ms": (
                1e3 * p.self_of("sensitivity.adjoint_solve") / (adjoint_calls * n_steps)
                if adjoint_calls else 0.0, "ms"),
            "sensitivity.contract_s": (p.inclusive("sensitivity.assemble_gradient"), "s"),
            "sensitivity.directional_s": (p.inclusive("sensitivity.directional_derivative"), "s"),
            "sensitivity.dot_test_s": (p.inclusive("sensitivity.dot_product_test"), "s"),
            "experiments.study_self_s": (p.self_of("experiments.measure_convergence_study"), "s"),
            "cli.run_checks_self_s": (p.self_of("cli.run_checks"), "s"),
            "trace.spans_per_call": (len(p.spans), "count"),
        }
        values.update({f"{m}.self_s": (p.module_self(m), "s") for m in TRACED_MODULES})
        return values

    rows = [per_call(p) for p in passes]
    # Counts repeat exactly from call to call; median_low keeps them whole.
    metrics = {name: {"value": (statistics.median_low if unit == "count" else statistics.median)(
                   [r[name][0] for r in rows]), "unit": unit}
               for name, (_, unit) in rows[0].items()}
    metrics.update({
        "operators.assemble_s": {"value": setup.inclusive(
            "operators.assemble_system", "operators.assemble_mass", "operators.assemble_skew"),
            "unit": "s"},
        "forward.build_sampler_s": {"value": setup.inclusive("forward.build_sampler"), "unit": "s"},
        "operators.matvec_ms": {"value": 1e3 * probe["matvec_s"], "unit": "ms"},
        "evolution.lu_nnz": {"value": probe["lu_nnz"], "unit": "count"},
        "evolution.step_solve_ms": {"value": 1e3 * probe["solve_s"], "unit": "ms"},
        "evolution.solve_over_matvec": {"value": probe["solve_s"] / probe["matvec_s"],
                                        "unit": "ratio"},
        "evolution.solve_bytes_computed": {"value": probe["bytes"], "unit": "B"},
        "sensitivity.traced_peak_mb": {"value": peak_mb, "unit": "MB"},
        "cli.properties_passed": {"value": cli_passed, "unit": "count"},
        "trace.overhead_ratio": {"value": statistics.median(traced) / statistics.median(untraced),
                                 "unit": "ratio"},
    })
    print(f"calls: {len(untraced)} untraced, {len(traced)} traced, "
          f"failed_ratio {runner.failed}/{runner.attempted}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy problem sizes, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "roughwave" / "__init__.py").is_file():
        print(f"no roughwave package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = environment(cpu)
    try:
        import_s = import_seconds()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import roughwave  # noqa: F401  (imported here so that no timed build pays for it)

    workload = wl.WORKLOADS[args.workload]
    variant = args.seed % wl.N_VARIANTS
    inputs = workload.inputs(variant, args.toy)
    probe = SpeedProbe()
    build_times, build_bursts = [], []
    for _ in range(BUILD_REPEATS):
        prep, net, bursts = probe.section(lambda: workload.build(inputs))
        build_times.append(net)
        build_bursts += bursts
    setup_wall_s = import_s + statistics.median(build_times)
    runner = Runner(workload, inputs, prep, wl.load_reference(workload, variant, args.toy),
                    probe=None if args.trace else probe)
    runner.bursts += build_bursts
    print(f"workload {workload.name} seed {args.seed} (input set {variant}), "
          f"work {workload.work(inputs)} cell-steps per call, env {json.dumps(env)}")

    if args.trace:
        tracer = Tracer()
        metrics = per_layer(runner, args.seconds, tracer)
    else:
        metrics = end_to_end(runner, args.seconds, setup_wall_s)

    wl.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}{'-toy' if args.toy else ''}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(wl.OUT_DIR / f"{stem}.spans.jsonl")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {"workload": workload.name, "seed": args.seed, "input_set": variant,
              "inputs": inputs, "toy": args.toy, "seconds": args.seconds, "env": env,
              "call_times_s": runner.times, "call_ref_times_s": runner.ref_times,
              "call_slowdowns": runner.slowdowns, **result}
    (wl.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
