"""End-to-end engine: determinism, metrics, gates, and isolation."""

import csv
import dataclasses
import math

import pytest

from pacersim import (
    BeLoad,
    Bridge,
    FlowDef,
    GateWindow,
    RingConfig,
    Scenario,
    inter_arrival_jitter,
    pdv,
    run,
)
from pacersim.engine import (
    MAX_RUN_PACKETS,
    _ownership,
    read_metrics_csv,
    write_metrics_csv,
    write_summary_csv,
)
from pacersim.errors import InsufficientSamples, ValidationError

RT = 1


def base_scenario(**kw):
    defaults = dict(
        ring=RingConfig(num_slots=8, slot_size=300, batch_size=1),
        duration=2_000_000,
        flows=[FlowDef(flow_id=3, traffic_class=RT, period=19_200, phase=38_400,
                       payload_len=200)],
        release_delta=19_200,
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestMetricsFunctions:
    def test_pdv_constant(self):
        assert pdv([7, 7, 7, 7]) == (0.0, 0.0)

    def test_pdv_hand_value(self):
        stddev, maxdev = pdv([10, 12, 14])
        assert stddev == pytest.approx(2 * math.sqrt(2 / 3))
        assert maxdev == 2

    def test_jitter_periodic(self):
        assert inter_arrival_jitter([0, 100, 200, 300], 100) == (0.0, 0.0)

    def test_insufficient(self):
        with pytest.raises(InsufficientSamples):
            pdv([1])
        with pytest.raises(InsufficientSamples):
            inter_arrival_jitter([1], 10)


class TestIdealDeterminism:
    def test_zero_pdv_and_jitter(self):
        res = run(base_scenario())
        recs = res.flow_records(3)
        assert len(recs) > 50
        assert res.report.dropped == 0
        assert pdv([r.recv_time - r.send_time for r in recs]) == (0.0, 0.0)
        assert inter_arrival_jitter([r.recv_time for r in recs], 19_200) == (0.0, 0.0)
        # on-time insertion: wire time equals the scheduled slot exactly
        assert all(r.send_time == r.scheduled_time for r in recs)

    def test_bit_identical_reruns(self):
        a, b = run(base_scenario()), run(base_scenario())
        assert a.records == b.records

    def test_late_packet_dropped_not_delayed(self):
        delta = 2400
        flow = FlowDef(flow_id=3, traffic_class=RT, period=19_200, phase=38_400,
                       payload_len=200, late_by={4: 19_200 + delta})
        res = run(base_scenario(flows=[flow]))
        assert res.report.dropped == 1
        assert res.report.drop_causes == {"OutOfWindow": 1}
        seqs = [r.seq for r in res.flow_records(3)]
        assert 4 not in seqs  # never delivered late
        assert all(r.send_time == r.scheduled_time for r in res.flow_records(3))


class TestTiedHandoffs:
    def test_hand_offs_clamped_to_zero(self):
        # Both first instances sit below release_delta, so both hand-offs
        # clamp to 0 and tie on (handoff, instance).
        flows = [FlowDef(flow_id=1, traffic_class=1, period=19_200, phase=4_800,
                         payload_len=200),
                 FlowDef(flow_id=2, traffic_class=2, period=19_200, phase=7_200,
                         payload_len=200)]
        res = run(base_scenario(flows=flows, duration=200_000))
        assert res.report.dropped == 0
        assert [(r.flow_id, r.seq) for r in res.records[:4]] == \
            [(1, 0), (2, 0), (1, 1), (2, 1)]
        assert all(r.send_time == r.scheduled_time for r in res.records)

    def test_equal_deadlines_go_in_hand_off_order(self):
        # Flow 2's instance 1 and flow 1's late instance 0 share a scheduled
        # time and a hand-off slot; the earlier hand-off takes the slot,
        # whatever the instance numbers.
        flows = [FlowDef(flow_id=1, traffic_class=RT, period=19_200, phase=48_000,
                         payload_len=200, count=1, late_by={0: 500}),
                 FlowDef(flow_id=2, traffic_class=RT, period=19_200, phase=28_800,
                         payload_len=200, count=2)]
        res = run(base_scenario(flows=flows, duration=200_000, release_delta=20_200))
        assert [(r.flow_id, r.seq, r.send_time) for r in res.records] == \
            [(2, 0, 28_800), (2, 1, 48_000)]
        assert res.report.drop_causes == {"NotPlaceholder": 1}


class TestIsolation:
    def make(self, frac, payload=1400):
        n = 32
        owned_be = int(n * frac)
        ownership = {i: (0 if i < owned_be else RT) for i in range(n)}
        return Scenario(
            ring=RingConfig(num_slots=n, slot_size=1500, batch_size=1),
            duration=50_000_000,
            flows=[],
            be_loads=[BeLoad(payload_len=payload)],
            ownership=ownership,
        )

    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0])
    def test_goodput_capped_at_ownership_share(self, frac):
        res = run(self.make(frac))
        expect = frac * 1e9 * 1400 / 1500
        assert res.be_goodput == pytest.approx(expect, rel=0.01)

    def test_padding_share(self):
        res = run(self.make(1.0, payload=100))
        assert res.be_goodput == pytest.approx(1e9 * 100 / 1500, rel=0.01)


class TestGateBridge:
    def gate(self):
        return GateWindow(offset=1000, width=16_000, cycle=100_000)

    def test_arrival_at_window_start(self):
        b = Bridge("b0", gates={5: self.gate()})
        assert b.step(5, 1000) == 1000

    def test_just_after_close_held(self):
        b = Bridge("b0", gates={5: self.gate()})
        assert b.step(5, 17_001) == 101_000  # next cycle's window start

    def test_ungated_flow_passes(self):
        b = Bridge("b0", forward_delay=700)
        assert b.step(9, 123) == 823

    def test_gated_run_repeats(self):
        # A one-nanosecond window that the flow's frames miss: the run
        # counts the misses, and running the scenario again gives the same
        # result, the count included.
        gate = GateWindow(offset=0, width=1, cycle=19_200)
        sc = base_scenario(bridges=[Bridge("b0", forward_delay=500, gates={3: gate})])
        first = run(sc)
        assert first.gate_misses == len(first.records) > 0
        assert run(sc) == first

    def test_chain_counts_each_bridge(self):
        # Flow 1 passes ungated through b0 and misses its 1 us window at b1
        # by 2.1 us, so it waits 16.1 us there; flow 2 meets both its
        # windows. Slots are 2400 ns; each hop adds 100 ns of propagation.
        flows = [FlowDef(flow_id=1, traffic_class=1, period=19_200, phase=38_400,
                         payload_len=200, count=2),
                 FlowDef(flow_id=2, traffic_class=2, period=19_200, phase=40_800,
                         payload_len=200, count=2)]
        bridges = [
            Bridge("b0", forward_delay=500,
                   gates={2: GateWindow(offset=4_900, width=2_400, cycle=19_200)}),
            Bridge("b1", forward_delay=700,
                   gates={1: GateWindow(offset=0, width=1_000, cycle=19_200),
                          2: GateWindow(offset=5_500, width=100, cycle=19_200)}),
        ]
        res = run(base_scenario(flows=flows, bridges=bridges, propagation=100,
                                duration=80_000))
        assert [(r.flow_id, r.send_time, r.recv_time) for r in res.records] == [
            (1, 38_400, 58_400), (2, 40_800, 44_700),
            (1, 57_600, 77_600), (2, 60_000, 63_900)]
        assert res.misses_by_bridge == [0, 2]
        assert res.gate_misses == 2


class TestMultiHop:
    def test_aligned_gates_constant_delay(self):
        delta = 10_000  # 1250 B slots
        ring = RingConfig(num_slots=32, slot_size=1250, batch_size=1)
        flows = [FlowDef(flow_id=i + 1, traffic_class=RT,
                         period=4_000_000 * (2 ** (i % 4)),
                         phase=320_000 + i * 40_000, payload_len=1000)
                 for i in range(4)]
        hyper = 32_000_000
        bridges = []
        for h in range(4):
            gates = {}
            for f in flows:
                arrive0 = f.phase + delta + h * 1000  # hop adds forward_delay
                gates[f.flow_id] = GateWindow(offset=arrive0 % f.period,
                                              width=16_000, cycle=f.period)
            bridges.append(Bridge(f"b{h}", forward_delay=1000, gates=gates))
        sc = Scenario(ring=ring, duration=hyper, flows=flows, bridges=bridges,
                      release_delta=80_000)
        res = run(sc)
        assert res.gate_misses == 0
        for f in flows:
            delays = res.delays(f.flow_id)
            assert len(delays) >= 1
            assert max(delays) == min(delays)


class TestCsv:
    def test_metrics_roundtrip(self, tmp_path):
        res = run(base_scenario())
        p = tmp_path / "metrics.csv"
        write_metrics_csv(res, p)
        rows = read_metrics_csv(p)
        assert [(r.flow_id, r.seq, r.send_time, r.recv_time) for r in rows] == \
            [(r.flow_id, r.seq, r.send_time, r.recv_time) for r in res.records]

    def test_summary_written(self, tmp_path):
        res = run(base_scenario())
        p = tmp_path / "summary.csv"
        write_summary_csv(res, p)
        text = p.read_text()
        assert text.startswith("flow_id,count,mean_delay_ns,pdv_ns,jitter_ns")
        assert "__all__" in text


    def test_summary_drops_by_flow(self, tmp_path):
        # Flow 3's instance 2 is handed off after its slot is sent; every
        # frame of flow 4 is larger than the 300 B slot, so it has no record.
        flows = [FlowDef(flow_id=3, traffic_class=RT, period=19_200, phase=38_400,
                         payload_len=200, late_by={2: 40_000}),
                 FlowDef(flow_id=4, traffic_class=RT, period=192_000, phase=40_800,
                         payload_len=400, count=3)]
        res = run(base_scenario(flows=flows))
        assert res.drops_by_flow == {3: {"OutOfWindow": 1}, 4: {"PayloadTooLarge": 3}}
        p = tmp_path / "summary.csv"
        write_summary_csv(res, p)
        with open(p, newline="") as fh:
            rows = {row["flow_id"]: row for row in csv.DictReader(fh)}
        assert list(rows) == ["3", "4", "__all__"]
        assert rows["3"]["drops_by_cause"] == "OutOfWindow=1"
        assert (rows["4"]["count"], rows["4"]["drops_by_cause"]) == ("0", "PayloadTooLarge=3")
        assert rows["__all__"]["drops_by_cause"] == "OutOfWindow=1;PayloadTooLarge=3"


class TestValidation:
    def test_rt_flow_on_be_class_rejected(self):
        with pytest.raises(ValidationError):
            base_scenario(flows=[FlowDef(flow_id=1, traffic_class=0,
                                         period=19_200, phase=0,
                                         payload_len=64)])

    @pytest.mark.parametrize("kw", [dict(period=0), dict(period=-19_200),
                                    dict(payload_len=0), dict(count=-1)])
    def test_flow_range_rejected(self, kw):
        # A zero period never reaches the duration: run would grow memory
        # without bound, so the flow is refused where it is built.
        args = dict(flow_id=1, traffic_class=RT, period=19_200, phase=0,
                    payload_len=64)
        with pytest.raises(ValidationError, match=next(iter(kw))):
            FlowDef(**{**args, **kw})

    def test_negative_release_delta_rejected(self):
        with pytest.raises(ValidationError, match="release_delta"):
            base_scenario(release_delta=-5)

    def test_negative_propagation_rejected(self):
        # A negative delay would deliver a frame before it is sent.
        with pytest.raises(ValidationError, match="propagation"):
            base_scenario(propagation=-5)

    def test_negative_forward_delay_rejected(self):
        with pytest.raises(ValidationError, match="forward_delay"):
            Bridge("b0", forward_delay=-1)

    def test_fractional_slot_wire_time_rejected(self):
        # 64 B at 10 Gb/s lasts 51.2 ns on the wire: no integral time grid.
        with pytest.raises(ValidationError, match="wire time"):
            base_scenario(ring=RingConfig(num_slots=8, slot_size=64, batch_size=1,
                                          line_rate=10_000_000_000))

    def test_checked_fields_cannot_be_set_in_place(self):
        # run relies on the scenario's checks, so a field changes only
        # through dataclasses.replace, which runs them again.
        s = base_scenario()
        ring = RingConfig(num_slots=8, slot_size=64, batch_size=1,
                          line_rate=10_000_000_000)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.ring = ring
        with pytest.raises(ValidationError, match="wire time"):
            dataclasses.replace(s, ring=ring)

    @pytest.mark.parametrize("pos", [8, 9, -1])
    def test_ownership_outside_ring_rejected(self, pos):
        with pytest.raises(ValidationError, match="ownership"):
            base_scenario(ownership={pos: RT})

    def test_oversize_be_payload_rejected(self):
        # Every frame of the load would be refused, so the scenario is.
        with pytest.raises(ValidationError, match="payload_len 301 exceeds slot_size"):
            base_scenario(be_loads=[BeLoad(0, 301)])

    def test_ring_size_capped(self):
        with pytest.raises(ValidationError, match="ring.num_slots"):
            base_scenario(ring=RingConfig(num_slots=10**30, slot_size=300,
                                          batch_size=1))

    def test_run_slots_capped(self):
        s = base_scenario()
        with pytest.raises(ValidationError, match="duration"):
            base_scenario(duration=10**30)
        with pytest.raises(ValidationError, match="duration"):
            dataclasses.replace(s, duration=10**30)

    def test_run_packets_capped(self):
        # One packet per ns over 2 ms: 2,000,000 hand-offs on 833 slots.
        flood = FlowDef(flow_id=7, traffic_class=RT, period=1, phase=0, payload_len=64)
        with pytest.raises(ValidationError, match="flow 7 .*MAX_RUN_PACKETS"):
            base_scenario(flows=[flood])
        # The instances are counted from the phase and capped by count.
        base_scenario(flows=[dataclasses.replace(flood, count=MAX_RUN_PACKETS)])
        base_scenario(flows=[dataclasses.replace(
            flood, phase=2_000_000 - MAX_RUN_PACKETS)])
        late = dataclasses.replace(flood, phase=2_000_000 - MAX_RUN_PACKETS - 1)
        with pytest.raises(ValidationError, match="flow 7"):
            base_scenario(flows=[late])
        # The message names the flow whose packets cross the cap.
        half = dataclasses.replace(flood, flow_id=1, count=MAX_RUN_PACKETS // 2)
        over = dataclasses.replace(half, flow_id=2, count=half.count + 1)
        with pytest.raises(ValidationError, match="flow 2 "):
            base_scenario(flows=[half, over, dataclasses.replace(half, flow_id=3)])
        s = base_scenario(flows=[dataclasses.replace(flood, period=2)])
        with pytest.raises(ValidationError, match="flow 7"):
            dataclasses.replace(s, duration=2_000_002)

    def test_duplicate_flow_ids_rejected(self):
        # Records and gates are keyed by flow_id, so two flows sharing one
        # would be merged into one flow's metrics and one gate.
        flows = [FlowDef(flow_id=1, traffic_class=RT, period=19_200, phase=phase,
                         payload_len=64) for phase in (0, 9_600)]
        with pytest.raises(ValidationError, match="flow_id 1"):
            base_scenario(flows=flows)


class TestBestEffortLoads:
    """8-slot ring, 64 slots: the first two slots go out before any fill."""

    def scenario(self, **kw):
        return Scenario(ring=RingConfig(num_slots=8, slot_size=64, batch_size=1),
                        duration=64 * 512, **kw)

    def test_two_loads_of_one_class_rejected(self):
        with pytest.raises(ValidationError):
            self.scenario(be_loads=[BeLoad(0, 64), BeLoad(0, 46)])

    def test_load_on_rt_class_rejected(self):
        flow = FlowDef(flow_id=1, traffic_class=5, period=4096, phase=0,
                       payload_len=64)
        with pytest.raises(ValidationError):
            self.scenario(flows=[flow], be_loads=[BeLoad(5, 64)])

    def test_every_load_filled(self):
        res = run(self.scenario(be_loads=[BeLoad(0, 64), BeLoad(2, 46)]))
        # Default layout alternates classes 0 and 2; counters 2..63 carry
        # 31 frames of each.
        assert res.be_frames == 62
        assert res.be_payload_bytes == 31 * 64 + 31 * 46
        assert res.report.inserted_be == 70  # counters 2..71: 8 still queued

    def test_nonzero_class_in_default_layout(self):
        res = run(self.scenario(be_loads=[BeLoad(5, 64)]))
        assert res.be_frames == 62
        assert res.records == []

    def test_nonzero_class_counted_as_best_effort(self):
        res = run(self.scenario(be_loads=[BeLoad(5, 64)],
                                ownership={i: 5 for i in range(8)}))
        assert res.be_frames == 62
        assert res.be_payload_bytes == 62 * 64
        assert res.records == []

    def test_default_layout_round_robins_rt_then_loads(self):
        flows = [FlowDef(flow_id=i, traffic_class=c, period=4096, phase=0,
                         payload_len=64, count=0) for i, c in ((1, 3), (2, 1))]
        sc = self.scenario(flows=flows, be_loads=[BeLoad(4, 64), BeLoad(0, 64)])
        ownership = _ownership(sc)
        assert [ownership[c] for c in range(8)] == [1, 3, 4, 0] * 2
