"""Fine layering homogenizes: rough coefficients must reach their Backus limit.

Layers of kappa alternating 1 | 3 converge weak-* to their mean, kappa = 2, but
waves normal to the layers see the harmonic mean, 1/kappa_eff = mean(1/kappa),
so kappa_eff = 1.5 (Backus, JGR 67(11), 1962).  The data map is therefore not
weak-* continuous, and a rough-coefficient solver must reproduce that limit.
The reference data are the same solver's on constant media.
"""

import numpy as np
import pytest

import roughwave as rw
from roughwave.forward import build_sampler, forward_map

CELLS = 1600
PERIODS = (128, 32, 16, 8, 4)  # cells per 1 | 3 pair; a two-cell period needs a staggered stencil


@pytest.fixture(scope="module")
def layering_gaps():
    """Max data gap of each layered medium to the kappa_eff = 1.5 and the kappa = 2 data,
    relative to the peak of the kappa_eff = 1.5 data: 1D periodic, dt = h/2, t = 0.6,
    rho = 1, an 8 Hz Ricker source at 0.3 and ten pressure receivers on 0.30 .. 0.66."""
    grid = rw.build_grid(1, [CELLS], 1.0, 0.5 / CELLS, 0.6)
    source = rw.make_ricker_source(grid, 2, [0.3], peak_frequency=8.0)
    sampler = build_sampler(np.linspace(0.30, 0.66, 10)[:, None], "pressure", grid, 2)

    def data(kappa):
        system = rw.acoustics_system(rw.AcousticModel(grid=grid, kappa=kappa, rho=1.0))
        return forward_map(system, source, sampler).data

    backus, mean = data(1.5), data(2.0)
    peak = np.abs(backus).max()
    cell = np.arange(CELLS)
    gaps = {}
    for period in PERIODS:
        layered = data(np.where(cell % period < period // 2, 1.0, 3.0))
        gaps[period] = (np.abs(layered - backus).max() / peak, np.abs(layered - mean).max() / peak)
    return gaps


def test_gap_to_the_backus_data_falls_with_each_halving_of_the_period(layering_gaps):
    to_backus = [layering_gaps[p][0] for p in PERIODS]
    assert all(finer < coarser for coarser, finer in zip(to_backus, to_backus[1:]))
    assert to_backus[-1] < 5e-3


def test_gap_to_the_arithmetic_mean_data_stays_at_least_one(layering_gaps):
    assert min(layering_gaps[p][1] for p in PERIODS) >= 1.0
