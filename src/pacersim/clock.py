"""Emulated hardware clock derived from a packet counter.

Time is a linear function of the number of transmitted slots:
``now = cycle_count * cycle_period + offset``. Synchronization only ever
touches the period and the offset; the counter itself is driven solely by
transmissions, so adjusting the clock never disturbs packet scheduling.

The period and the offset are stored as scaled integers: two numerators
``_p`` and ``_o`` over one shared denominator ``_den``. The arithmetic is
exact, so ppm-scale rate adjustments compose without accumulating rounding
error over billions of ticks, yet the hot methods normalise no rational per
call: ``int``, ``float`` and ``Fraction`` arguments enter through
``as_integer_ratio()`` and are rescaled to the common denominator only when
it is not already a multiple of theirs. A rate change snaps the new period to
a 1/grid lattice in the same step (``snap_to_grid``, which the ptp servo
shares), so ``_den`` grows only by the denominators of offsets and set times
(powers of two for floats) and stays bounded over long servo runs without a
gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Union

TimeLike = Union[int, float, Fraction]


def as_ratio(x) -> tuple[int, int]:
    """Exact (numerator, denominator > 0) of a rational number."""
    try:
        return x.as_integer_ratio()
    except AttributeError:  # e.g. numpy integers
        f = Fraction(x)
        return f.numerator, f.denominator


def _round_div(n: int, d: int) -> int:
    """n / d (d > 0) rounded to the nearest integer, ties away from zero."""
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((d - 2 * n) // (2 * d))


def snap_to_grid(num: int, den: int) -> int:
    """num / den (den > 0) rounded to the nearest integer, ties to even.

    This is the period-snapping rule of a rate change: with the clock's
    denominator ``dg * grid``, ``snap_to_grid(p * a, dg * b)`` is the new
    period in 1/grid units after scaling ``p`` by ``a / b``. Raises
    ValueError when that period would not be positive.
    """
    q, r = divmod(num, den)
    r *= 2
    if r > den or (r == den and q & 1):
        q += 1
    if q <= 0:
        raise ValueError("adjusted cycle_period must be > 0")
    return q


class EphcClock:
    __slots__ = ("_p", "_o", "_den", "cycle_count")

    def __init__(self, cycle_period: TimeLike, offset: TimeLike = 0,
                 cycle_count: int = 0):
        period = Fraction(cycle_period)
        offset = Fraction(offset)
        if period <= 0:
            raise ValueError("cycle_period must be > 0")
        den = lcm(period.denominator, offset.denominator)
        self._p = period.numerator * (den // period.denominator)
        self._o = offset.numerator * (den // offset.denominator)
        self._den = den
        self.cycle_count = cycle_count

    @property
    def cycle_period(self) -> Fraction:
        """ns per tick, > 0."""
        return Fraction(self._p, self._den)

    @property
    def offset(self) -> Fraction:
        """Signed ns."""
        return Fraction(self._o, self._den)

    def __eq__(self, other):
        if not isinstance(other, EphcClock):
            return NotImplemented
        return (self.cycle_count == other.cycle_count
                and self._p * other._den == other._p * self._den
                and self._o * other._den == other._o * self._den)

    __hash__ = None  # mutable

    def __repr__(self):
        return (f"EphcClock(cycle_period={self.cycle_period!r}, "
                f"offset={self.offset!r}, cycle_count={self.cycle_count!r})")

    def now_exact(self) -> Union[int, Fraction]:
        n = self.cycle_count * self._p + self._o
        return n if self._den == 1 else Fraction(n, self._den)

    def now(self) -> int:
        return _round_div(self.cycle_count * self._p + self._o, self._den)

    def tick(self, n: int = 1):
        """Advance the packet counter; the only way cycle_count changes."""
        if n < 0:
            raise ValueError("tick count must be >= 0")
        self.cycle_count += n
        return self

    def _rescale(self, b: int) -> None:
        # Make _den a multiple of b (the lcm), keeping the represented values.
        if self._den % b:
            m = b // gcd(self._den, b)
            self._p *= m
            self._o *= m
            self._den *= m

    def adjust_offset(self, delta: TimeLike):
        a, b = as_ratio(delta)
        self._rescale(b)
        self._o += a * (self._den // b)
        return self

    def set_time(self, t: TimeLike):
        a, b = as_ratio(t)
        self._rescale(b)
        self._o = a * (self._den // b) - self.cycle_count * self._p
        return self

    def adjust_rate(self, ratio, grid: int):
        """Scale the cycle period by ``ratio`` and snap it to the nearest
        multiple of 1/grid (ties to even), re-anchoring the offset so that
        the reported time is continuous at the adjustment instant."""
        a, b = as_ratio(ratio)
        if a <= 0:
            raise ValueError("rate ratio must be > 0")
        if grid < 1:
            raise ValueError("grid must be >= 1")
        self._rescale(grid)
        dg = self._den // grid
        p = self._p
        # Scaling then snapping moves the offset by count * (P - Q/grid):
        # the 1/b of the intermediate period cancels.
        p_new = snap_to_grid(p * a, dg * b) * dg
        self._o += self.cycle_count * (p - p_new)
        self._p = p_new
        return self


def time_to_slot(t: TimeLike, delta: TimeLike, num_slots: int) -> int:
    """Ring slot that a transmission starting at time ``t`` occupies."""
    if num_slots < 1:
        raise ValueError("num_slots must be >= 1")
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be > 0")
    if t < 0:
        raise ValueError("t must be >= 0")
    return int(Fraction(t) / delta) % num_slots


class MergeAction(Enum):
    NONE = "none"
    SET_TX_TO_RX = "set_tx_to_rx"
    SET_RX_TO_TX = "set_rx_to_tx"


def merge_estimate(t_tx, t_rx, tau):
    """Combined timestamp for two clocks within the 2*tau agreement band.

    Assuming each clock lags true time by at most tau, the midpoint of
    [max(t_tx, t_rx), min(t_tx, t_rx) + tau] is within tau/2 of true time.
    """
    return (max(t_tx, t_rx) + min(t_tx, t_rx) + tau) / 2


@dataclass
class DualClock:
    tx: EphcClock
    rx: EphcClock
    tau: int  # worst-case per-clock lag, ns

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be > 0")

    def merge(self) -> tuple[int, MergeAction]:
        """Unified time from the transmit and receive clocks.

        Divergence beyond 2*tau indicates a fault in the lagging clock, which
        is snapped to the leading one. Neither clock's counter changes.
        """
        t_tx = self.tx.now()
        t_rx = self.rx.now()
        if abs(t_tx - t_rx) > 2 * self.tau:
            if t_tx < t_rx:
                self.tx.set_time(t_rx)
                return t_rx, MergeAction.SET_TX_TO_RX
            self.rx.set_time(t_tx)
            return t_tx, MergeAction.SET_RX_TO_TX
        merged = _round_div(t_tx + t_rx + self.tau, 2)
        return merged, MergeAction.NONE
