"""The closed-form oracles in ``oracles.py`` on cases with known answers."""

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import traced_peak
from oracles import (
    DISTANCE_ROWS,
    advection_oracle,
    dalembert_pressure,
    oscillatory_response_magnitude,
    oscillatory_rhs,
    smooth_bump,
    sup_l2_distance,
)
from roughwave.errors import InvalidArgumentError


class TestAdvectionOracle:
    def test_zero_rhs(self):
        assert advection_oracle(1.0, lambda t, x: 0.0, 2.0, 0.3) == 0.0

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(InvalidArgumentError):
            advection_oracle(0.0, lambda t, x: 0.0, 1.0, 0.0)

    def test_smooth_bump_unit_mass(self):
        val, _ = quad(smooth_bump, -1, 1, limit=200)
        assert val == pytest.approx(1.0, abs=1e-10)
        assert smooth_bump(1.2) == 0.0

    def test_unit_speed_oscillatory_identity(self):
        # u[1, f_eps](t, x) = cos((x + t)/eps) chi(x + t) once the bump mass
        # has fully swept past (x <= -1, here guaranteed by t = 2.5)
        eps, t = 0.05, 2.5
        f = oscillatory_rhs(eps)
        for x in (-2.6, -2.2, -1.8):
            u = advection_oracle(1.0, f, t, x, t_lower=x + t - 1.0001, points=4001)
            ref = float(np.cos((x + t) / eps) * smooth_bump(x + t))
            assert abs(u - ref) < 1e-10

    def test_off_speed_magnitude_decays_with_eps(self):
        # O(eps/|c-1|) suppression: magnitude decays as eps halves
        mags = [oscillatory_response_magnitude(1.5, eps, 2.5) for eps in (0.2, 0.1, 0.05)]
        assert mags[1] < 0.75 * mags[0]
        assert mags[2] < 0.75 * mags[1]


class TestDalembert:
    def test_quiet_before_onset(self):
        assert dalembert_pressure(1.0, 1.0, lambda s, y: 1.0, 0.0, 0.3) == 0.0

    def test_constant_source_closed_form(self):
        # g = 1 everywhere: p(x, t) = kappa * t / ... the two-way integral of a
        # constant integrand is just kappa * t
        val = dalembert_pressure(2.0, 1.0, lambda s, y: 1.0, 0.5, 0.0, points=401)
        assert val == pytest.approx(2.0 * 0.5, rel=1e-12)


class TestSupL2Distance:
    @pytest.mark.parametrize("rows", [1, DISTANCE_ROWS - 1, DISTANCE_ROWS, DISTANCE_ROWS + 1, 200])
    def test_equals_one_norm_over_the_difference(self, rows):
        rng = np.random.default_rng(rows)
        a, b = rng.standard_normal((2, rows, 300))
        ref = float(np.sqrt(0.01) * np.linalg.norm(a - b, axis=1).max())
        assert sup_l2_distance(a, b, 0.01) == ref

    def test_holds_no_difference_series(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 1000, 400))
        assert traced_peak(sup_l2_distance, a, b, 1.0) <= 0.2 * a.nbytes
