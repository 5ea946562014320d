"""Smoke test of the benchmark harness: every workload at toy size emits every
declared metric with its unit, passes its gate, and makes the exact number
of factorizations the seed code makes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FACTORIZATIONS = {"forward-shots-2d": 4, "gradient-prony-2d": 7, "check-2d": 10, "study-1d": 5}

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402


def run(trace: int, workload: str, cwd: Path = ROOT, toy: bool = True):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "11", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd + (["--toy"] if toy else []), cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_declared_metrics(workload, trace):
    proc = run(trace, workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace:
        assert result["metrics"]["evolution.factorizations"]["value"] == FACTORIZATIONS[workload]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_inputs_follow_the_seed():
    for name, workload in wl.WORKLOADS.items():
        sets = [json.dumps(workload.inputs(v, False), sort_keys=True) for v in range(wl.N_VARIANTS)]
        assert sets == [json.dumps(workload.inputs(v, False), sort_keys=True)
                        for v in range(wl.N_VARIANTS)], name
        assert len(set(sets)) == wl.N_VARIANTS, name


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(0, "study-1d", cwd=tmp_path, toy=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
