"""Tests for the online statistics accumulators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.stats import RateMeter, TimeWeighted


class TestTimeWeighted:
    def test_constant_signal(self):
        tw = TimeWeighted(t0=0.0, value=2.0)
        assert tw.average(until=10.0) == pytest.approx(2.0)

    def test_step_signal(self):
        tw = TimeWeighted(t0=0.0, value=0.0)
        tw.update(5.0, 1.0)   # 0 for 5s, then 1
        assert tw.average(until=10.0) == pytest.approx(0.5)
        assert tw.average(until=12.0) == pytest.approx(7.0 / 12.0)

    def test_time_backwards_rejected(self):
        tw = TimeWeighted()
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(4.0, 2.0)

    def test_until_before_last_update_rejected(self):
        tw = TimeWeighted()
        tw.update(5.0, 1.0)
        with pytest.raises(ValueError):
            tw.average(until=4.0)

    @given(st.lists(st.tuples(st.floats(min_value=0.001, max_value=10, allow_nan=False),
                              st.floats(min_value=-100, max_value=100, allow_nan=False)),
                    min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_average_within_value_bounds(self, steps):
        tw = TimeWeighted(t0=0.0, value=steps[0][1])
        t = 0.0
        values = [steps[0][1]]
        for dt, v in steps:
            t += dt
            tw.update(t, v)
            values.append(v)
        avg = tw.average(until=t + 1.0)
        assert min(values) - 1e-9 <= avg <= max(values) + 1e-9


class TestRateMeter:
    def test_constant_rate(self):
        m = RateMeter(bin_width=1.0)
        for i in range(10):
            m.add(float(i), 5)
        assert m.rate(t=10.0, window=10.0) == pytest.approx(5.0)

    def test_peak_bin_rate(self):
        m = RateMeter(bin_width=0.5)
        m.add(0.1, 1)
        m.add(1.1, 10)
        # the busiest bin, read through a one-bin window
        assert m.rate(t=1.5, window=0.5) == 20.0

    def test_out_of_order_rejected(self):
        m = RateMeter(bin_width=1.0)
        m.add(5.0)
        with pytest.raises(ValueError):
            m.add(2.0)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            RateMeter(bin_width=0)
        m = RateMeter()
        with pytest.raises(ValueError):
            m.rate(1.0, window=0)
