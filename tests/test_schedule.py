import math

import numpy as np
import pytest

from ecsa import EnhancedCuckooSearch, cosine_schedule


def expected_value(eta_min, eta_max, t_cur, t_i):
    return eta_min + 0.5 * (eta_max - eta_min) * (1.0 + math.cos(math.pi * t_cur / t_i))


class TestCosineValue:
    def test_cycle_start_is_max(self):
        assert cosine_schedule(0.25, 0.5, 100, 2.0, 1)[0] == 0.5

    def test_cycle_end_is_min(self):
        # the restart fires before position t_i is emitted, so the last
        # value of a cycle is the cycle minimum, one step short of eta_min
        values = cosine_schedule(0.25, 0.5, 100, 1.0, 100)
        assert values.min() == values[-1]
        assert values[-1] == expected_value(0.25, 0.5, 99, 100)
        assert values[-1] == pytest.approx(0.25, abs=0.125 * (1 - math.cos(math.pi / 100)))

    def test_cycle_midpoint_is_mean(self):
        assert cosine_schedule(0.25, 0.5, 100, 2.0, 51)[50] == pytest.approx(0.375, abs=1e-15)

    def test_monotone_non_increasing_within_cycle(self):
        values = cosine_schedule(0.1, 0.9, 37, 1.0, 37)
        assert np.all(np.diff(values) <= 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="eta_min"):
            cosine_schedule(0.5, 0.25, 10, 1.0, 5)
        with pytest.raises(ValueError, match="t0"):
            cosine_schedule(0.1, 0.2, 0, 1.0, 5)
        # a fractional t0 never reaches its restart: t_cur == t_i is never true
        with pytest.raises(ValueError, match="t0 must be an integer, got 1.5"):
            cosine_schedule(0.25, 0.5, 1.5, 2.0, 6)
        with pytest.raises(ValueError, match="t_mult"):
            cosine_schedule(0.1, 0.2, 10, 0.5, 5)
        with pytest.raises(ValueError):
            cosine_schedule(0.1, 0.2, 10, 1.0, -1)

    @pytest.mark.parametrize("t_mult", [1e308, math.inf])
    def test_overflowing_restart_rejected(self, t_mult):
        # the second cycle's length overflows to infinity (it used to raise OverflowError)
        with pytest.raises(ValueError, match=r"t_mult=\S+ is too large"):
            cosine_schedule(0.1, 0.2, 2, t_mult, 5)
        with pytest.raises(ValueError, match="t_mult must be >= 1, got nan"):
            cosine_schedule(0.1, 0.2, 2, math.nan, 5)
        # no value after the restart is emitted, so the restart is never computed
        assert cosine_schedule(0.1, 0.2, 2, t_mult, 2).tolist() == [0.2, expected_value(0.1, 0.2, 1, 2)]


class TestAdvance:
    def test_interior_step(self):
        values = cosine_schedule(0.0, 1.0, 10, 2.0, 10)
        assert values[5] == expected_value(0.0, 1.0, 5, 10)
        assert values[6] == expected_value(0.0, 1.0, 6, 10)

    def test_restart_scales_cycle(self):
        values = cosine_schedule(0.0, 1.0, 10, 2.0, 31)
        restarts = np.flatnonzero(values == 1.0).tolist()
        assert restarts == [0, 10, 30]  # cycles of 10, then 20
        assert values[29] == expected_value(0.0, 1.0, 19, 20)

    def test_restart_with_constant_length(self):
        values = cosine_schedule(0.0, 1.0, 10, 1.0, 31)
        assert np.flatnonzero(values == 1.0).tolist() == [0, 10, 20, 30]

    def test_restart_jump_returns_to_max(self):
        values = cosine_schedule(0.25, 0.5, 10, 2.0, 11)
        assert values[9] < 0.5
        assert values[10] == 0.5

    def test_emitted_period_equals_cycle_length(self):
        # values are emitted at positions 0..t_i-1; the restart lands ON
        # the iteration where the previous cycle length runs out
        values = cosine_schedule(0.25, 0.5, 100, 2.0, 301)
        assert values[0] == 0.5
        assert values[50] == pytest.approx(0.375, abs=1e-12)
        assert values[100] == pytest.approx(0.5, abs=1e-12)  # first restart
        assert values[300] == pytest.approx(0.5, abs=1e-12)  # second restart


class TestEcsaParams:
    """The enhanced variant's (pa, alpha) pair: two schedules on one clock."""

    def schedules(self, n):
        return EnhancedCuckooSearch(iterations=n)._schedules()

    def test_cycle_start_endpoints(self):
        pa, alpha = self.schedules(1)
        assert (pa[0], alpha[0]) == (0.5, 0.05)

    def test_cycle_end_endpoints(self):
        pa, alpha = self.schedules(100)
        assert pa[99] == expected_value(0.25, 0.5, 99, 100)
        assert alpha[99] == expected_value(0.01, 0.05, 99, 100)
        assert pa[99] == pytest.approx(0.25, abs=1e-4)
        assert alpha[99] == pytest.approx(0.01, abs=1e-4)

    def test_cycle_midpoint(self):
        pa, alpha = self.schedules(51)
        assert pa[50] == pytest.approx(0.375, abs=1e-15)
        assert alpha[50] == pytest.approx(0.03, abs=1e-15)

    def test_bounded_over_500_iterations(self):
        pa, alpha = self.schedules(500)
        assert pa.shape == alpha.shape == (500,)
        assert np.all((0.25 <= pa) & (pa <= 0.5))
        assert np.all((0.01 <= alpha) & (alpha <= 0.05))
        # one clock: both restart on the same iterations
        assert np.array_equal(np.flatnonzero(pa == 0.5), np.flatnonzero(alpha == 0.05))


def test_constant_schedule_is_flat():
    # a degenerate cosine schedule is exactly the standard algorithm's constant array
    assert np.array_equal(cosine_schedule(0.25, 0.25, 1, 1.0, 10), np.full(10, 0.25))
    assert np.array_equal(cosine_schedule(0.01, 0.01, 7, 1.3, 40), np.full(40, 0.01))
