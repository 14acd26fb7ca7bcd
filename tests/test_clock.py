"""Emulated clock arithmetic and the dual-clock merge rule."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacersim import (
    DualClock,
    EphcClock,
    MergeAction,
    merge_estimate,
    target_counter,
)


class TestNow:
    def test_offset_only(self):
        assert EphcClock(cycle_period=Fraction(2400), offset=Fraction(5)).now() == 5

    def test_count_times_period(self):
        c = EphcClock(cycle_period=Fraction(2400), offset=Fraction(100), cycle_count=10)
        assert c.now() == 24100

    def test_gpio_target(self):
        c = EphcClock(cycle_period=Fraction(12000), cycle_count=3)
        assert c.now() == 36000

    def test_closed_form_vs_ticking(self):
        c = EphcClock(cycle_period=Fraction(2400))
        c.tick(10**6)
        assert c.now() == 2_400_000_000
        assert c.now_exact() == Fraction(2400) * 10**6


class TestTick:
    def test_single_and_zero(self):
        c = EphcClock(cycle_period=Fraction(2400))
        c.tick()
        assert c.cycle_count == 1
        c.tick(0)
        assert c.cycle_count == 1


class TestAdjust:
    def test_offset_shift(self):
        c = EphcClock(cycle_period=Fraction(2400), offset=Fraction(5))
        before = c.now()
        c.adjust_offset(-5)
        assert c.now() == before - 5

    def test_set_time(self):
        c = EphcClock(cycle_period=Fraction(2400), cycle_count=7)
        c.set_time(123456)
        assert c.now() == 123456

    def test_rate_ratio_exact(self):
        c = EphcClock(cycle_period=Fraction(2400))
        c.adjust_rate(1 + Fraction(1, 10**6), 10**6)
        assert c.cycle_period == Fraction(2400) + Fraction(2400, 10**6)

    def test_rate_continuity(self):
        c = EphcClock(cycle_period=Fraction(2400), offset=Fraction(17), cycle_count=12345)
        before = c.now_exact()
        c.adjust_rate(Fraction(999, 1000), 1000)
        assert c.cycle_period == Fraction(2400 * 999, 1000)
        assert abs(c.now_exact() - before) == 0

    @given(count=st.integers(0, 10**9),
           num=st.integers(1, 2000), den=st.integers(1, 2000))
    @settings(max_examples=200)
    def test_rate_continuity_property(self, count, num, den):
        c = EphcClock(cycle_period=Fraction(2400), cycle_count=count)
        before = c.now_exact()
        c.adjust_rate(Fraction(num, den), den)
        assert c.cycle_period == Fraction(2400 * num, den)
        assert c.now_exact() == before


class TestMerge:
    def test_small_divergence_averages(self):
        dc = DualClock(tx=EphcClock(cycle_period=Fraction(1), offset=Fraction(110)),
                       rx=EphcClock(cycle_period=Fraction(1), offset=Fraction(100)),
                       tau=10)
        merged, action = dc.merge()
        assert merged == 110
        assert action is MergeAction.NONE

    def test_large_divergence_snaps_lagging(self):
        dc = DualClock(tx=EphcClock(cycle_period=Fraction(1), offset=Fraction(100)),
                       rx=EphcClock(cycle_period=Fraction(1), offset=Fraction(200)),
                       tau=10)
        merged, action = dc.merge()
        assert merged == 200
        assert action is MergeAction.SET_TX_TO_RX
        assert dc.tx.now() == 200

    @given(t=st.integers(0, 10**6), dtx=st.integers(0, 100), drx=st.integers(0, 100))
    @settings(max_examples=300)
    def test_error_bound_half_tau(self, t, dtx, drx):
        # Both readings lag true time by at most tau: the merged estimate
        # is then within tau/2 of true time.
        tau = 100
        est = merge_estimate(t - dtx, t - drx, tau)
        assert abs(est - t) <= Fraction(tau, 2)


class FractionClock:
    """Reference model: the clock's linear model in Fraction arithmetic."""

    def __init__(self, cycle_period, offset, cycle_count):
        self.period = Fraction(cycle_period)
        self.offset = Fraction(offset)
        if self.period <= 0:
            raise ValueError("cycle_period must be > 0")
        self.count = cycle_count

    def now_exact(self):
        return self.count * self.period + self.offset

    def now(self):
        x = self.now_exact()
        half = Fraction(1, 2)
        return -int(-x + half) if x < 0 else int(x + half)

    def tick(self, n):
        if n < 0:
            raise ValueError("tick count must be >= 0")
        self.count += n

    def adjust_offset(self, delta):
        self.offset += Fraction(delta)

    def set_time(self, t):
        self.offset = Fraction(t) - self.count * self.period

    def adjust_rate(self, ratio, grid):
        ratio = Fraction(ratio)
        if ratio <= 0:
            raise ValueError("rate ratio must be > 0")
        if grid < 1:
            raise ValueError("grid must be >= 1")
        # Fraction rounds half to even.
        new = Fraction(round(self.period * ratio * grid), grid)
        if new <= 0:
            raise ValueError("adjusted cycle_period must be > 0")
        self.offset += self.count * (self.period - new)
        self.period = new

    def target_counter(self, t):
        rel = Fraction(t) - self.offset
        return int(rel // self.period) if rel >= 0 else -1


BIG = 10**12
fractions = st.fractions(min_value=-BIG, max_value=BIG, max_denominator=10**9)
values = st.one_of(
    st.integers(-BIG, BIG),
    st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False),
    fractions,
)
ratios = st.one_of(
    st.integers(-1, 3),
    st.floats(-0.5, 3.0, allow_nan=False),
    st.floats(1 - 1e-5, 1 + 1e-5),
    st.fractions(min_value=-1, max_value=3, max_denominator=10**7),
)
grids = st.one_of(st.sampled_from([1, 2, 1000, 10**6, 1 << 32, 1 << 64]),
                  st.integers(-1, 10**6))
steps = st.lists(
    st.one_of(
        st.tuples(st.just("tick"), st.integers(-1, BIG)),
        st.tuples(st.just("adjust_offset"), values),
        st.tuples(st.just("set_time"), values),
        st.tuples(st.just("adjust_rate"), ratios, grids),
    ),
    max_size=25,
)


def _outcome(fn, *args):
    try:
        fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)
    return None


def _assert_matches(clock, model, times):
    assert clock.cycle_count == model.count
    assert clock.cycle_period == model.period
    assert clock.offset == model.offset
    assert clock.now_exact() == model.now_exact()
    assert clock.now() == model.now()
    assert clock == EphcClock(cycle_period=model.period, offset=model.offset,
                              cycle_count=model.count)
    for t in (*times, model.now(), model.now_exact(), model.now_exact() + model.period):
        if type(t) is not int:
            t = Fraction(t)
        assert target_counter(clock, t) == model.target_counter(t)


class TestScaledIntegerClock:
    @given(period=st.one_of(st.integers(1, 10**6), st.fractions(min_value=Fraction(1, 10**6),
                                                               max_value=10**6),
                            st.floats(1e-6, 1e6)),
           offset=values, count=st.integers(0, BIG), program=steps,
           times=st.lists(st.one_of(st.integers(-BIG, 10**16), fractions), max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_model(self, period, offset, count, program, times):
        clock = EphcClock(cycle_period=period, offset=offset, cycle_count=count)
        model = FractionClock(period, offset, count)
        _assert_matches(clock, model, times)
        for op, *args in program:
            expected = _outcome(getattr(model, op), *args)
            assert _outcome(getattr(clock, op), *args) is expected
            _assert_matches(clock, model, times)

    @pytest.mark.parametrize("period", [0, -1, 0.0, Fraction(-1, 3)])
    def test_nonpositive_period_rejected(self, period):
        with pytest.raises(ValueError):
            EphcClock(cycle_period=period)

    def test_now_exact_type(self):
        assert type(EphcClock(cycle_period=3, offset=-2, cycle_count=5).now_exact()) is int
        c = EphcClock(cycle_period=Fraction(3, 2), cycle_count=1)
        assert c.now_exact() == Fraction(3, 2)

    def test_now_rounds_half_away_from_zero(self):
        assert EphcClock(cycle_period=1, offset=Fraction(5, 2)).now() == 3
        assert EphcClock(cycle_period=1, offset=Fraction(-5, 2)).now() == -3
        assert EphcClock(cycle_period=1, offset=Fraction(-7, 3)).now() == -2

    def test_quantize_ties_to_even(self):
        c = EphcClock(cycle_period=Fraction(5, 4), cycle_count=8)
        before = c.now_exact()
        c.adjust_rate(1, 2)  # 2.5 -> 2
        assert c.cycle_period == 1
        assert c.now_exact() == before
        c = EphcClock(cycle_period=Fraction(3, 4))
        c.adjust_rate(1, 2)  # 1.5 -> 2
        assert c.cycle_period == 1

    def test_quantize_to_zero_rejected(self):
        c = EphcClock(cycle_period=Fraction(1, 10), offset=7, cycle_count=3)
        with pytest.raises(ValueError):
            c.adjust_rate(1, 1)
        assert c == EphcClock(cycle_period=Fraction(1, 10), offset=7, cycle_count=3)

    def test_numpy_integer_arguments(self):
        c = EphcClock(cycle_period=np.int64(3), cycle_count=2)
        c.adjust_offset(np.int64(-4)).set_time(np.int64(10)).adjust_rate(np.int64(2), 1)
        assert c == EphcClock(cycle_period=6, offset=-2, cycle_count=2)
        assert target_counter(c, np.int64(16)) == 3

    def test_repr_readable(self):
        c = EphcClock(cycle_period=Fraction(2400), offset=0.5, cycle_count=3)
        assert repr(c) == ("EphcClock(cycle_period=Fraction(2400, 1), "
                           "offset=Fraction(1, 2), cycle_count=3)")
