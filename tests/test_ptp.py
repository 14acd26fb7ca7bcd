"""Two-way sync math, analytic error bounds, and the closed-loop servo."""

import random
from fractions import Fraction
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacersim import (
    EphcClock,
    PacersimError,
    PtpConfig,
    PtpErrorModel,
    compute_offset,
    delta_drift,
    delta_ts,
    estimate_freq_ratio,
    ma_filter,
    run_sync_sim,
)
from pacersim.errors import DegenerateInterval, ServoDiverged
from pacersim.ptp import TURNAROUND_NS, SyncTrace, sample_offset_errors

ZERO = PtpErrorModel(0, 0, 0, 0, 0, 0)
DEFAULT = PtpErrorModel(g_master=2400, g_slave=2400, j_master_in=1000,
                        j_master_out=1000, j_slave_in=1000, j_slave_out=1000)
HARDWARE = PtpErrorModel(g_master=8, g_slave=8, j_master_in=4, j_master_out=4,
                         j_slave_in=4, j_slave_out=4)


class TestComputeOffset:
    def test_slave_ahead(self):
        assert compute_offset(0, 15, 20, 25) == 5

    def test_synced(self):
        assert compute_offset(0, 10, 20, 30) == 0

    @given(t1=st.integers(0, 10**9), d=st.integers(0, 10**6),
           o=st.integers(-10**6, 10**6), eps=st.integers(-10**4, 10**4))
    @settings(max_examples=200)
    def test_symmetric_noise_cancels(self, t1, d, o, eps):
        t2, t3 = t1 + d + o, t1 + 2 * d
        t4 = t3 + d - o
        base = compute_offset(t1, t2, t3, t4)
        shifted = compute_offset(t1 + eps, t2 + eps, t3 + eps, t4 + eps)
        assert shifted == base == o


class TestFreqRatio:
    def test_slave_fast(self):
        r = estimate_freq_ratio(0, 0, 10**8, 10**8 + 100)
        assert r == pytest.approx(1 - 1e-6, rel=1e-9)

    def test_identity(self):
        assert estimate_freq_ratio(5, 7, 105, 107) == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateInterval):
            estimate_freq_ratio(0, 7, 100, 7)


class TestDeltaTs:
    def test_examples(self):
        assert delta_ts(ZERO) == 0
        assert delta_ts(PtpErrorModel(32, 8, 50, 50, 25, 25)) == 70
        assert delta_ts(PtpErrorModel(8, 8, 0, 0, 16, 16)) == 24

    def test_tightness_monte_carlo(self):
        rng = random.Random(42)
        import numpy as np

        nprng = np.random.default_rng(42)
        for _ in range(5):
            model = PtpErrorModel(*(rng.randrange(0, 5000) for _ in range(6)))
            bound = delta_ts(model)
            errs = sample_offset_errors(model, 100_000, nprng)
            worst = float(abs(errs).max())
            assert worst <= bound + 1e-9
            assert worst >= 0.95 * bound


class TestDeltaDrift:
    def test_zero_model(self):
        assert delta_drift(10**8, 1.0, ZERO) == 0

    def test_rational_example(self):
        got = delta_drift(10**8, 1.0, PtpErrorModel(0, 8, 0, 0, 100, 0))
        assert got == pytest.approx(10**8 * 108 / (10**8 - 108), rel=1e-12)

    def test_monotone_in_jitter(self):
        base = DEFAULT
        for bump in ["j_slave_in", "j_master_out"]:
            kw = dict(g_master=base.g_master, g_slave=base.g_slave,
                      j_master_in=base.j_master_in, j_master_out=base.j_master_out,
                      j_slave_in=base.j_slave_in, j_slave_out=base.j_slave_out)
            kw[bump] += 500
            assert delta_drift(10**8, 1.0, PtpErrorModel(**kw)) \
                >= delta_drift(10**8, 1.0, base)

    def test_degenerate_interval(self):
        with pytest.raises(DegenerateInterval):
            delta_drift(100, 1.0, PtpErrorModel(0, 90, 0, 0, 20, 0))


class TestMaFilter:
    def test_constant(self):
        assert ma_filter([3.0] * 25, 10) == 3.0

    def test_window_one(self):
        assert ma_filter([1.0, 2.0, 5.0], 1) == 5.0

    def test_warmup_mean(self):
        assert ma_filter([1.0, 3.0], 10) == 2.0


class TestServo:
    def test_zero_error_model_locks(self):
        cfg = PtpConfig(rounds=50, rng_seed=0)
        trace = run_sync_sim(cfg, ZERO, filtered=False)
        # After the first correction every estimate sees the true offset, so
        # the offset error collapses to sub-ns numerics. The rate servo sees
        # spans perturbed by its own offset steps, so without noise the
        # drift settles into a bounded limit cycle at the initial ppm scale
        # instead of reaching exactly zero.
        ppm_drift = 1e8 * 1e-6  # interval * initial frequency offset
        assert all(abs(e) < 0.1 for e in trace.offset_error[1:])
        assert all(abs(d) <= ppm_drift * 1.01 for d in trace.drift_error[2:])
        assert min(abs(d) for d in trace.drift_error[2:]) < 0.5

    def test_filtered_run_within_bounds(self):
        cfg = PtpConfig(rounds=300, rng_seed=5)
        trace = run_sync_sim(cfg, DEFAULT, filtered=True)
        bound = delta_ts(DEFAULT)
        assert all(abs(e) <= bound for e in trace.offset_error)

    def test_filter_reduces_drift(self):
        cfg = PtpConfig(rounds=500, rng_seed=11)
        filt = run_sync_sim(cfg, DEFAULT, filtered=True)
        raw = run_sync_sim(cfg, DEFAULT, filtered=False)
        mean = lambda xs: sum(abs(x) for x in xs) / len(xs)
        assert mean(raw.drift_error[1:]) > mean(filt.drift_error[1:])

    def test_deterministic(self):
        cfg = PtpConfig(rounds=100, rng_seed=3)
        a = run_sync_sim(cfg, DEFAULT, filtered=True)
        b = run_sync_sim(cfg, DEFAULT, filtered=True)
        assert a.offset_error == b.offset_error
        assert a.drift_error == b.drift_error

    def test_trace_csv_roundtrip(self, tmp_path):
        cfg = PtpConfig(rounds=40, rng_seed=2)
        trace = run_sync_sim(cfg, DEFAULT, filtered=True)
        p = tmp_path / "trace.csv"
        trace.write_csv(p)
        import csv

        with open(p, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        assert [float(r["offset_error_ns"]) for r in rows] == trace.offset_error


class _FractionClock:
    """The emulated clock in Fraction arithmetic, as the servo oracle uses it."""

    def __init__(self, cycle_period):
        self.cycle_period = Fraction(cycle_period)
        self.offset = Fraction(0)
        self.cycle_count = 0

    def now_exact(self):
        return self.cycle_count * self.cycle_period + self.offset

    def tick(self, n):
        self.cycle_count += n

    def adjust_offset(self, delta):
        self.offset += Fraction(delta)

    def adjust_rate(self, ratio):
        ratio = Fraction(ratio)
        if ratio <= 0:
            raise ValueError("rate ratio must be > 0")
        new_period = self.cycle_period * ratio
        self.offset += self.cycle_count * (self.cycle_period - new_period)
        self.cycle_period = new_period


def oracle_sync_sim(config, model, filtered, trace):
    """The servo loop in exact Fraction arithmetic with one RNG call per
    timestamp: the reference that run_sync_sim must match bit for bit.
    Fills ``trace`` as it goes, so a failing round can be read from it."""
    rng = np.random.default_rng(config.rng_seed)
    slave = _FractionClock(1 + Fraction(config.initial_freq_offset_ppm) / 1_000_000)
    interval = config.sync_interval
    d = config.network_delay
    gap = TURNAROUND_NS
    dts = delta_ts(model)

    history = []
    prev_t1 = prev_t2 = None
    prev_residual: Optional[Fraction] = None
    clean_streak = 0

    for k in range(config.rounds):
        t_sync = k * interval
        t_recv = t_sync + d
        e1, e2, e3, e4 = (rng.uniform(lo, hi) for lo, hi in model.error_ranges())

        slave.tick(t_recv - slave.cycle_count)
        t1 = t_sync + e1
        t2 = float(slave.now_exact()) + e2
        slave.tick(gap)
        t3 = float(slave.now_exact()) + e3
        t4 = t_sync + d + gap + d + e4

        true_off = slave.now_exact() - slave.cycle_count
        est = compute_offset(t1, t2, t3, t4)
        trace.true_offset.append(float(true_off))
        trace.offset_error.append(est - float(true_off))
        if prev_residual is None:
            trace.drift_error.append(0.0)
        else:
            trace.drift_error.append(float(true_off - prev_residual))

        slave.adjust_offset(-Fraction(est))

        ratio_applied = 1.0
        if prev_t1 is not None:
            raw = estimate_freq_ratio(prev_t1, prev_t2, t1, t2)
            history.append(raw)
            ratio_applied = ma_filter(history, config.filter_window) if filtered else raw
            slave.adjust_rate(Fraction(ratio_applied))
            snapped = Fraction(round(slave.cycle_period * (1 << 64)), 1 << 64)
            slave.adjust_rate(snapped / slave.cycle_period)
        trace.freq_ratio.append(ratio_applied)

        prev_t1, prev_t2 = t1, t2
        prev_residual = t_recv * slave.cycle_period + slave.offset - t_recv

        if abs(trace.offset_error[-1]) <= 2 * dts:
            clean_streak += 1
            if clean_streak >= 10 and trace.convergence_round is None:
                trace.convergence_round = k
        else:
            clean_streak = 0
    return trace


def _bits(trace):
    return (
        trace.convergence_round,
        [tuple(float.hex(v) for v in col) for col in (
            trace.true_offset, trace.offset_error, trace.drift_error, trace.freq_ratio)],
    )


class TestServoEquivalence:
    @pytest.mark.parametrize("rounds", [0, 1, 2, 2500])
    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("model, interval, ppm", [
        (ZERO, 100_000_000, 1.0),
        (DEFAULT, 100_000_000, -0.731),
        (HARDWARE, 10_000_000, 0.377),
    ], ids=["zero", "default", "hardware"])
    def test_matches_fraction_oracle(self, model, interval, ppm, filtered, rounds,
                                     monkeypatch):
        # The clock's size after every rate step: one step per round after the
        # first, and a denominator that does not grow with the round count.
        den_bits = []
        adjust_rate = EphcClock.adjust_rate

        def watched(clock, ratio, grid):
            adjust_rate(clock, ratio, grid)
            den_bits.append(clock._den.bit_length())
            return clock

        monkeypatch.setattr(EphcClock, "adjust_rate", watched)
        cfg = PtpConfig(sync_interval=interval, network_delay=23_456,
                        initial_freq_offset_ppm=ppm, rounds=rounds, rng_seed=rounds + 7)
        got = run_sync_sim(cfg, model, filtered)
        want = oracle_sync_sim(cfg, model, filtered, SyncTrace())
        assert len(got.offset_error) == rounds
        assert _bits(got) == _bits(want)
        assert len(den_bits) == max(rounds - 1, 0)
        assert max(den_bits, default=0) <= 128

    @pytest.mark.parametrize("model", [DEFAULT, HARDWARE])
    def test_window_one_matches_oracle(self, model):
        cfg = PtpConfig(filter_window=1, rounds=300, rng_seed=19)
        got = run_sync_sim(cfg, model, filtered=True)
        want = oracle_sync_sim(cfg, model, True, SyncTrace())
        assert _bits(got) == _bits(want)

    def test_divergence_in_the_oracle_round(self):
        # Software timestamps at a 1 ms interval, unfiltered: the rate
        # estimate turns negative.
        cfg = PtpConfig(sync_interval=1_000_000)
        partial = SyncTrace()
        with pytest.raises(ValueError):
            oracle_sync_sim(cfg, DEFAULT, False, partial)
        with pytest.raises(ServoDiverged) as ei:
            run_sync_sim(cfg, DEFAULT, filtered=False)
        err = ei.value
        assert err.round == len(partial.freq_ratio)
        assert isinstance(err, PacersimError) and isinstance(err, ValueError)
        assert not err.ratio > 0
        assert f"round {err.round}" in str(err)
        # Every round before the failing one matched the oracle.
        ok = PtpConfig(sync_interval=1_000_000, rounds=err.round)
        assert _bits(run_sync_sim(ok, DEFAULT, filtered=False)) == \
            _bits(oracle_sync_sim(ok, DEFAULT, False, SyncTrace()))
