"""Two-step clock synchronization with a timestamp-noise model.

A master and a slave clock exchange four timestamps per round. The slave
corrects its offset from the two-way exchange and its rate from the span
ratio of consecutive sync messages, optionally smoothing the rate estimate
with a moving-average filter. Timestamp noise is drawn per round from
per-direction granularity/jitter ranges, and closed-form worst-case bounds
(`delta_ts`, `delta_drift`) are provided for the induced offset and drift
errors.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .clock import snap_to_grid
from .errors import DegenerateInterval, ServoDiverged

#: Gap between the slave receiving sync and sending its delay request, ns.
TURNAROUND_NS = 30_000
#: Most rounds one study may run; a study keeps a trace entry per round.
MAX_ROUNDS = 100_000


@dataclass
class PtpErrorModel:
    g_master: float = 0.0  # clock granularity, ns
    g_slave: float = 0.0
    j_master_in: float = 0.0  # worst-case timestamp jitter per direction, ns
    j_master_out: float = 0.0
    j_slave_in: float = 0.0
    j_slave_out: float = 0.0

    def __post_init__(self):
        for name in ("g_master", "g_slave", "j_master_in", "j_master_out",
                     "j_slave_in", "j_slave_out"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        # numpy's uniform draw raises OverflowError on a range whose width is
        # not finite; each width is a granularity plus a jitter.
        for (lo, hi), stamp, terms in zip(self.error_ranges(), ("t1", "t2", "t3", "t4"),
                                          ("g_master + j_master_out", "g_slave + j_slave_in",
                                           "g_slave + j_slave_out", "g_master + j_master_in")):
            if not math.isfinite(hi - lo):
                raise ValueError(f"{stamp} draw width {terms} must be finite, got {hi - lo}")

    def error_ranges(self):
        """Uniform draw ranges (lo, hi) for the four timestamps t1..t4."""
        gm, gs = self.g_master, self.g_slave
        return (
            (-gm / 2, gm / 2 + self.j_master_out),  # t1: master send
            (-gs / 2, gs / 2 + self.j_slave_in),    # t2: slave receive
            (-gs / 2, gs / 2 + self.j_slave_out),   # t3: slave send
            (-gm / 2, gm / 2 + self.j_master_in),   # t4: master receive
        )


@dataclass
class PtpConfig:
    sync_interval: int = 100_000_000  # ns
    network_delay: int = 10_000  # ns, symmetric
    initial_freq_offset_ppm: float = 1.0
    filter_window: int = 10
    rounds: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        # The slave's delay request leaves TURNAROUND_NS after each sync, so a
        # shorter interval would send the next sync before it.
        if self.sync_interval < TURNAROUND_NS:
            raise ValueError(f"sync_interval must be >= {TURNAROUND_NS}")
        if self.network_delay < 0:
            raise ValueError("network_delay must be >= 0")
        # The slave period is 1 + ppm / 1e6 ns, which must be positive.
        if not -1_000_000 < self.initial_freq_offset_ppm < math.inf:
            raise ValueError("initial_freq_offset_ppm must be a finite number > -1000000")
        if self.filter_window < 1:
            raise ValueError("filter_window must be >= 1")
        if self.rounds > MAX_ROUNDS:
            raise ValueError(f"rounds {self.rounds} exceeds MAX_ROUNDS ({MAX_ROUNDS})")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")


def compute_offset(t1, t2, t3, t4):
    """Two-way offset estimate [(t2 - t1) - (t4 - t3)] / 2."""
    return ((t2 - t1) - (t4 - t3)) / 2


def estimate_freq_ratio(t1, t2, t1_next, t2_next):
    """Master span over slave span between consecutive sync messages."""
    if t2_next == t2:
        raise DegenerateInterval("slave span is zero")
    return (t1_next - t1) / (t2_next - t2)


def delta_ts(model: PtpErrorModel) -> float:
    """Worst-case absolute error of a single two-way offset estimate."""
    return 0.5 * (
        model.g_master
        + model.g_slave
        + max(
            model.j_master_in + model.j_master_out,
            model.j_slave_in + model.j_slave_out,
        )
    )


def delta_drift(interval: int, rho_master: float, model: PtpErrorModel) -> float:
    """Worst-case drift accumulated over one sync interval after rate
    correction from a noisy span-ratio estimate.

    ``rho_master`` is the master clock rate in slave nanoseconds per true
    nanosecond, which is 1 up to parts-per-million terms.
    """
    es = model.g_slave + model.j_slave_in
    em = model.g_master + model.j_master_out
    if interval <= es:
        raise DegenerateInterval("interval must exceed slave-side error range")
    i = Fraction(interval)
    bound = i * Fraction(rho_master) * max(
        Fraction(es) / (i - Fraction(es)),
        Fraction(em) / (i + Fraction(es)),
    )
    return float(bound)


def ma_filter(history, window: int):
    """Mean of the last ``window`` entries (fewer while warming up)."""
    if not history:
        raise ValueError("history must be non-empty")
    tail = history[-window:]
    return sum(tail) / len(tail)


def sample_offset_errors(model: PtpErrorModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Monte-Carlo draws of the offset-estimate error under the noise model.

    The per-timestamp distributions are only range-bounded, so each error is
    drawn from a mixture of its interior (uniform) and its two endpoints.
    The endpoint mass makes the worst-case corners reachable in feasible
    sample counts without ever leaving the modeled ranges.
    """
    draws = []
    for lo, hi in model.error_ranges():
        e = rng.uniform(lo, hi, n)
        pick = rng.uniform(0.0, 1.0, n)
        e = np.where(pick < 0.1, lo, e)
        e = np.where(pick > 0.9, hi, e)
        draws.append(e)
    e1, e2, e3, e4 = draws
    return ((e2 - e1) - (e4 - e3)) / 2


@dataclass
class SyncTrace:
    true_offset: list = field(default_factory=list)  # ns, at sync receipt
    offset_error: list = field(default_factory=list)  # estimate - true offset
    drift_error: list = field(default_factory=list)  # offset drift per interval
    freq_ratio: list = field(default_factory=list)  # rate correction applied
    convergence_round: Optional[int] = None
    #: Bit length of the servo clock's denominator at the end of the run;
    #: it never shrinks, so this is also the run's maximum.
    den_bits: int = 0

    def rows(self):
        for k in range(len(self.true_offset)):
            yield (
                k,
                self.true_offset[k],
                self.offset_error[k],
                self.drift_error[k],
                self.freq_ratio[k],
            )

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(
                ["round", "true_offset_ns", "offset_error_ns", "drift_error_ns", "freq_ratio"]
            )
            for row in self.rows():
                w.writerow([row[0]] + [repr(v) for v in row[1:]])


#: Every rate change snaps the slave period to this grid (1/GRID ns), which
#: shifts the rate by less than 1e-19 and keeps the clock's denominator from
#: growing with the number of rounds.
PERIOD_GRID = 1 << 64
#: Rounds of timestamp errors drawn per RNG call.
DRAW_CHUNK = 1024


def run_sync_sim(config: PtpConfig, model: PtpErrorModel, filtered: bool) -> SyncTrace:
    """Closed-loop synchronization run; deterministic for a given seed.

    The slave clock is paced at one tick per nanosecond of true time with a
    period scaled by the initial frequency offset; the master reports true
    time. Each round draws the four timestamp errors, applies the full
    offset correction, and slews the rate from the (optionally filtered)
    span-ratio estimate. Raises ServoDiverged, naming the round, when a rate
    correction cannot be applied: the ratio is not a positive finite number,
    or the period it gives snaps to zero on the grid.

    The slave's exact state is EphcClock's, held in local integers: it reads
    ``(count * p + o) / den`` at counter ``count``, and ``den`` is a multiple
    of PERIOD_GRID from the start, so a rate step snaps the period with
    ``snap_to_grid`` and no rescaling. Every reading is a correctly rounded
    float of the exact rational, so the trace does not depend on how the
    numerators are scaled.
    """
    rng = np.random.default_rng(config.rng_seed)
    period = 1 + Fraction(config.initial_freq_offset_ppm) / 1_000_000
    m = PERIOD_GRID // math.gcd(period.denominator, PERIOD_GRID)
    p = period.numerator * m  # period numerator
    o = 0  # offset numerator
    den = period.denominator * m
    dg = den // PERIOD_GRID
    interval = config.sync_interval
    d = config.network_delay
    gap = TURNAROUND_NS
    dts = delta_ts(model)
    rounds = config.rounds
    lo, hi = zip(*model.error_ranges())

    trace = SyncTrace()
    history: list[float] = []
    prev_t1 = prev_t2 = None
    prev_residual = None  # numerator over den of S(t) - t after the last round
    clean_streak = 0
    draws = []

    for k in range(rounds):
        j = k % DRAW_CHUNK
        if j == 0:
            # Row-major draws: the same stream as four scalar calls per round.
            size = (min(DRAW_CHUNK, rounds - k), 4)
            draws = rng.uniform(lo, hi, size=size).tolist()
        e1, e2, e3, e4 = draws[j]
        t_sync = k * interval  # true send time of this round's sync
        t_recv = t_sync + d

        # The slave counter ticks once per true ns, so count == true time.
        t1 = t_sync + e1
        n = t_recv * p + o
        t2 = n / den + e2
        count = t_recv + gap
        n += gap * p
        t3 = n / den + e3
        t4 = count + d + e4

        # S(t) - t over den; int / int is correctly rounded, as float(Fraction) is.
        true_num = n - count * den
        true_off = true_num / den
        est = compute_offset(t1, t2, t3, t4)
        err = est - true_off
        trace.true_offset.append(true_off)
        trace.offset_error.append(err)
        if prev_residual is None:
            trace.drift_error.append(0.0)
        else:
            # No offset or rate step runs between the two readings, so den
            # is unchanged.
            trace.drift_error.append((true_num - prev_residual) / den)

        # Offset step o -= est, over a den that is a multiple of est's.
        a, b = est.as_integer_ratio()
        if den % b:
            m = b // math.gcd(den, b)
            p *= m
            o *= m
            den *= m
            dg *= m
        o -= a * (den // b)

        ratio_applied = 1.0
        if prev_t1 is not None:
            raw = estimate_freq_ratio(prev_t1, prev_t2, t1, t2)
            history.append(raw)
            ratio_applied = (
                ma_filter(history, config.filter_window) if filtered else raw
            )
            if not 0.0 < ratio_applied < math.inf:
                raise ServoDiverged(k, ratio_applied)
            # Rate step: scale p by a / b and snap it to the grid, keeping
            # the reading at this count continuous.
            a, b = ratio_applied.as_integer_ratio()
            try:
                p_new = snap_to_grid(p * a, dg * b) * dg
            except ValueError as exc:
                raise ServoDiverged(k, ratio_applied) from exc
            o += count * (p - p_new)
            p = p_new
        trace.freq_ratio.append(ratio_applied)

        prev_t1, prev_t2 = t1, t2
        prev_residual = t_recv * (p - den) + o

        if abs(err) <= 2 * dts:
            clean_streak += 1
            if clean_streak >= 10 and trace.convergence_round is None:
                trace.convergence_round = k
        else:
            clean_streak = 0

    trace.den_bits = den.bit_length()
    return trace
