"""Ring construction, consume/reclaim semantics, and the throughput model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacersim import (
    BEST_EFFORT,
    DmaRing,
    OutboundPacket,
    RingConfig,
    SlotState,
    insert_best_effort,
    relative_throughput,
)
from pacersim.errors import InvalidConfig, NoSlotAvailable, RingUnderrun


def make_ring(n=12, batch=5, **kw):
    cfg = RingConfig(num_slots=n, slot_size=300, batch_size=batch, **kw)
    return DmaRing(cfg, ownership={i: BEST_EFFORT for i in range(n)})


class TestConstruction:
    def test_all_placeholders_and_counters(self):
        ring = make_ring(n=32, batch=8)
        assert ring.consumer_index == 0
        assert ring.producer_index == 8
        for i in range(32):
            d = ring.descriptor_at(i)
            assert d.state is SlotState.PLACEHOLDER
            assert d.frame is None

    def test_twelve_slot_layout(self):
        ring = make_ring(n=12, batch=5)
        assert ring.producer_index == 5
        assert sum(1 for i in range(12)
                   if ring.descriptor_at(i).state is SlotState.PLACEHOLDER) == 12

    def test_bad_configs(self):
        with pytest.raises(InvalidConfig):
            RingConfig(num_slots=4, slot_size=300, batch_size=5)  # batch > N
        with pytest.raises(InvalidConfig):
            RingConfig(num_slots=4, slot_size=63, batch_size=1)  # below minimum
        with pytest.raises(InvalidConfig):
            RingConfig(num_slots=4, slot_size=1519, batch_size=1)

    def test_wire_time_values(self):
        assert RingConfig(4, 300, 1).wire_time == 2400
        assert RingConfig(4, 1500, 1).wire_time == 12000
        assert RingConfig(4, 1250, 1).wire_time == 10000


class TestConsume:
    def test_consume_zero_is_noop(self):
        ring = make_ring()
        before = (ring.consumer_index, ring.producer_index)
        assert ring.nic_consume(0) == []
        assert (ring.consumer_index, ring.producer_index) == before

    def test_consume_records_counter_positions(self):
        # Advancing the consumer from 2 to 5 transmits the frames at
        # counters 2, 3 and 4 (the third through fifth physical slots).
        ring = make_ring(n=12, batch=5)
        ring.nic_consume(2)
        recs = ring.nic_consume(3)
        assert [r.position for r in recs] == [2, 3, 4]
        assert ring.consumer_index == 5
        for r in recs:
            assert not r.crc_valid  # placeholders carry a corrupted check
            assert r.payload_len == 300  # and fill the whole slot

    def test_underrun_raises(self):
        ring = make_ring(n=12, batch=5)
        with pytest.raises(RingUnderrun):
            ring.nic_consume(6)  # only 5 produced

    def test_consumed_slots_marked_in_flight(self):
        ring = make_ring()
        ring.nic_consume(3)
        for c in range(3):
            assert ring.descriptor_at(c).state is SlotState.IN_FLIGHT


class TestPoll:
    def test_reclaim_after_consume(self):
        ring = make_ring(n=12, batch=3)
        ring.nic_consume(3)
        rep = ring.poll_cycle()
        assert rep.reclaimed == (0, 1, 2)
        assert ring.producer_index == 6
        for c in range(3):
            assert ring.descriptor_at(c).state is SlotState.PLACEHOLDER

    def test_poll_without_consumption(self):
        ring = make_ring(n=12, batch=5)
        rep = ring.poll_cycle()
        assert rep.reclaimed == ()
        assert ring.producer_index == 10
        ring.poll_cycle()
        assert ring.producer_index == 12  # clamped at consumer + N
        ring.poll_cycle()
        assert ring.producer_index == 12

    def test_invariant_maintained(self):
        ring = make_ring(n=8, batch=3)
        for _ in range(50):
            ring.nic_consume(1)
            ring.poll_cycle()
            assert 0 <= ring.producer_index - ring.consumer_index <= 8


class TestWindow:
    def test_window_formula(self):
        ring = make_ring(n=12, batch=5)
        ring.nic_consume(2)
        assert ring.insertion_window() == (7, 14)

    def test_window_free_running(self):
        ring = make_ring(n=4, batch=1)
        for _ in range(100):
            ring.nic_consume(1)
            ring.poll_cycle()
        assert ring.insertion_window() == (101, 104)


class TestRelativeThroughput:
    def test_saturating_batch(self):
        cfg = RingConfig(1024, 300, 512, polling_period=1_000_000)
        # 512 * 2.4 us >= 1000 us, so the budget is met.
        assert relative_throughput(cfg) == 1.0

    def test_busy_poll(self):
        cfg = RingConfig(32, 300, 1, polling_period=0, polling_overhead=0)
        assert relative_throughput(cfg) == 1.0

    def test_sub_budget_cells(self):
        assert relative_throughput(RingConfig(32, 300, 8, polling_period=10_000)) == 1.0
        got = relative_throughput(RingConfig(32, 300, 8, polling_period=100_000))
        assert got == pytest.approx(0.192)

    @given(batch=st.integers(1, 32), period=st.integers(0, 10**7),
           overhead=st.integers(0, 10**5))
    @settings(max_examples=200)
    def test_bounds_and_monotonicity(self, batch, period, overhead):
        cfg = RingConfig(32, 300, batch, polling_period=period,
                         polling_overhead=overhead)
        r = relative_throughput(cfg)
        assert 0.0 < r <= 1.0
        bigger = RingConfig(32, 300, batch, polling_period=period + 1000,
                            polling_overhead=overhead)
        assert relative_throughput(bigger) <= r


class TestRandomTraces:
    @given(seed=st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_invariants_under_random_stepping(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.choice([4, 8, 12, 32])
        batch = rng.randint(1, n)
        ring = make_ring(n=n, batch=batch)
        for _ in range(300):
            if rng.random() < 0.5:
                avail = ring.producer_index - ring.consumer_index
                k = rng.randint(0, avail)
                ring.nic_consume(k)
            else:
                ring.poll_cycle()
            assert 0 <= ring.producer_index - ring.consumer_index <= n


def ring_state(ring):
    """Everything transmit_slot may touch, for twin-ring comparisons."""
    return (ring.consumer_index, ring.producer_index, ring._reclaim_cursor,
            dict(ring._scan_cursor),
            [(d.state, d.owner_class, d.frame) for d in ring.descriptors])


class TestTransmitSlot:
    """transmit_slot() against its reference, nic_consume(1) + poll_cycle()."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_consume_then_poll(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.choice([1, 2, 4, 8, 12])
        batch = rng.randint(1, n)
        owners = {i: rng.randint(0, 2) for i in range(n)}
        cfg = RingConfig(num_slots=n, slot_size=300, batch_size=batch)
        fused, ref = DmaRing(cfg, dict(owners)), DmaRing(cfg, dict(owners))
        for _ in range(rng.randint(1, 120)):
            op = rng.random()
            if op < 0.5:
                try:
                    got = fused.transmit_slot()
                except RingUnderrun:
                    with pytest.raises(RingUnderrun):
                        ref.nic_consume(1)
                else:
                    (want,) = ref.nic_consume(1)
                    ref.poll_cycle()
                    # The returned frame is the one the record describes.
                    assert (got is None) == (not want.crc_valid)
                    if got is not None:
                        assert (got.payload_len, got.flow_id, got.scheduled_time,
                                got.seq) == (want.payload_len, want.flow_id,
                                             want.scheduled_time, want.seq)
            elif op < 0.65:
                # Decoupled NIC: leaves a lagging reclaim (or an empty ring).
                k = rng.randint(0, fused.producer_index - fused.consumer_index)
                assert fused.nic_consume(k) == ref.nic_consume(k)
            elif op < 0.7:
                assert fused.poll_cycle() == ref.poll_cycle()
            else:
                seq = rng.randint(0, 99)
                pkt = OutboundPacket(flow_id=f"f{seq}", traffic_class=rng.randint(0, 2),
                                     payload_len=rng.randint(1, 300), seq=seq)
                for ring in (fused, ref):
                    try:
                        insert_best_effort(ring, pkt)
                    except NoSlotAvailable:
                        pass
            assert ring_state(fused) == ring_state(ref)

    def test_underrun_leaves_ring_unchanged(self):
        ring = make_ring(n=8, batch=3)
        ring.nic_consume(3)  # consumer reaches the producer, nothing polled
        before = ring_state(ring)
        with pytest.raises(RingUnderrun):
            ring.transmit_slot()
        assert ring_state(ring) == before

    def test_lagging_reclaim_reclaims_whole_range(self):
        ring = make_ring(n=8, batch=4)
        ring.nic_consume(3)
        assert ring.transmit_slot() is None
        assert ring._reclaim_cursor == ring.consumer_index == 4
        assert all(ring.descriptor_at(c).state is SlotState.PLACEHOLDER
                   for c in range(4))
        assert ring.producer_index == 8
