"""Machine-speed reference for the end-to-end timings.

On a shared virtual machine the speed of a vCPU drifts by up to a factor of
two over tens of seconds, with the load of other tenants, and a slow
stretch can outlast a whole run; the median wall time of a run then spreads
across runs by more than any bound a regression check can use.  So each timed
section (an end-to-end call, a set-up build) is scaled by how fast the
machine ran during it.

The gauge is a fixed reference burst that does not touch roughwave: a
short pure-Python loop, which slows with the core, and a random gather from
a 16 MB table, which slows with the core and with contention for the shared
cache and memory.  The workloads differ in which of the two they follow.
Regressing log call time on log burst time, per call, the ``check`` suite
had a slope of 0.96 on the loop and 0.66 on the gather, the 1D study 1.27
and 1.12, the 2D forward 1.64 and 1.01 (a slope of 1 means the ratio
cancels the drift exactly).  The sum of the two kept the per-run medians of
the three automated workloads steadiest; a streaming sum, also tried,
followed the calls far less (slopes 2.2-2.6).  During a
section a ``SIGALRM`` handler runs one burst every ``INTERVAL_S``; Python
runs signal handlers in the main thread between bytecodes, so the bursts
land on the section's CPU (the run is pinned to one), spread over its whole
length, each after the section's own work has cooled the table in cache.
The section's slowdown is the median burst duration over ``REF_BURST_S``,
and its reference time is its wall time, less the time its bursts took,
divided by that slowdown: the seconds it would have taken with the burst at
its nominal duration.  Bursts run back to back find the table warm and read
fast, so none run outside a section, except one right after a section too
short for the timer.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable

import numpy as np

INTERVAL_S = 0.05
# Duration of one burst at the reference speed: about its median inside
# workload calls on the 2-vCPU x86-64 virtual machine the benchmark was
# written on.  It only sets the scale of the reported seconds, the same for
# every commit.
REF_BURST_S = 2.0e-3

_LOOP = 20_000
_TABLE = 2_000_000
_GATHER = 50_000


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.standard_normal(_TABLE)
        self._index = rng.integers(0, _TABLE, _GATHER)
        self._inner: list[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)

    def burst(self) -> float:
        """Run the reference burst once; return its duration."""
        start = time.perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += i * i
        self._table.take(self._index)
        return time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self._inner.append(self.burst())

    def section(self, fn: Callable[[], Any]) -> tuple[Any, float, list[float]]:
        """Run ``fn()``; return its result, its wall seconds less the bursts
        that ran inside it, and those bursts' durations (at least one)."""
        self._inner = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        inner, self._inner = self._inner, []
        return result, wall - sum(inner), inner or [self.burst()]

    @staticmethod
    def slowdown(bursts: list[float]) -> float:
        """How much slower than at the reference speed the bursts ran."""
        return statistics.median(bursts) / REF_BURST_S
