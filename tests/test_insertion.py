"""Scheduled insertion into the ring window, strict and relaxed."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacersim import (
    BEST_EFFORT,
    DmaRing,
    EphcClock,
    InsertMode,
    OutboundPacket,
    RingConfig,
    SlotState,
    insert_best_effort,
    target_counter,
    try_insert,
)
from pacersim.errors import (
    InsertError,
    NoSlotAvailable,
    NotPlaceholder,
    OutOfWindow,
    OwnershipViolation,
    PayloadTooLarge,
)

RT = 1
DELTA = 2400  # 300 B at 1 Gbps


def make_ring(n=12, batch=5, ownership=None):
    cfg = RingConfig(num_slots=n, slot_size=300, batch_size=batch)
    if ownership is None:
        ownership = {i: RT for i in range(n)}
    return DmaRing(cfg, ownership=ownership)


def clock_at(count=0):
    return EphcClock(cycle_period=Fraction(DELTA), cycle_count=count)


def rt_packet(counter, payload=200):
    return OutboundPacket(flow_id=9, traffic_class=RT, payload_len=payload,
                          scheduled_time=counter * DELTA)


def advance(ring, k):
    ring.nic_consume(k)
    ring.poll_cycle()


class TestTargetCounter:
    def test_maps_time_to_absolute_counter(self):
        clk = clock_at()
        assert target_counter(clk, 0) == 0
        assert target_counter(clk, 8 * DELTA) == 8
        assert target_counter(clk, 8 * DELTA + 1) == 8


class TestStrict:
    def test_in_window_success(self):
        ring = make_ring()
        advance(ring, 2)  # window [7, 14)
        pkt = rt_packet(8)
        pos = try_insert(ring, pkt, clock_at(2), InsertMode.STRICT)
        assert pos == 8
        d = ring.descriptor_at(8)
        assert d.state is SlotState.ARMED
        assert d.frame is pkt

    def test_below_window_rejected(self):
        ring = make_ring()
        advance(ring, 2)
        with pytest.raises(OutOfWindow):
            try_insert(ring, rt_packet(3), clock_at(2), InsertMode.STRICT)

    def test_above_window_rejected(self):
        ring = make_ring()
        advance(ring, 2)
        with pytest.raises(OutOfWindow):
            try_insert(ring, rt_packet(14), clock_at(2), InsertMode.STRICT)

    def test_ownership_enforced(self):
        owners = {i: RT for i in range(12)}
        owners[9 % 12] = 2  # someone else's slot
        ring = make_ring(ownership=owners)
        advance(ring, 2)
        with pytest.raises(OwnershipViolation):
            try_insert(ring, rt_packet(9), clock_at(2), InsertMode.STRICT)

    def test_armed_slot_rejected(self):
        ring = make_ring()
        advance(ring, 2)
        try_insert(ring, rt_packet(8), clock_at(2), InsertMode.STRICT)
        with pytest.raises(NotPlaceholder):
            try_insert(ring, rt_packet(8), clock_at(2), InsertMode.STRICT)

    def test_payload_too_large(self):
        ring = make_ring()
        advance(ring, 2)
        with pytest.raises(PayloadTooLarge):
            try_insert(ring, rt_packet(8, payload=301), clock_at(2), InsertMode.STRICT)


class TestRelaxed:
    def test_falls_back_to_scan(self):
        owners = {i: RT for i in range(12)}
        owners[9] = 2
        ring = make_ring(ownership=owners)
        advance(ring, 2)  # window [7, 14)
        pos = try_insert(ring, rt_packet(9), clock_at(2), InsertMode.RELAXED)
        assert pos == 7  # earliest in-window placeholder of the right class

    def test_scan_exhausted(self):
        owners = {i: 2 for i in range(12)}
        ring = make_ring(ownership=owners)
        advance(ring, 2)
        with pytest.raises(NoSlotAvailable):
            try_insert(ring, rt_packet(8), clock_at(2), InsertMode.RELAXED)


class TestBestEffort:
    def test_lowest_counter_chosen(self):
        ring = make_ring(ownership={i: BEST_EFFORT for i in range(12)})
        advance(ring, 2)
        pkt = OutboundPacket(flow_id=-1, traffic_class=BEST_EFFORT, payload_len=64)
        assert insert_best_effort(ring, pkt) == 7

    def test_skips_rt_slots(self):
        owners = {i: (RT if i % 2 else BEST_EFFORT) for i in range(12)}
        ring = make_ring(ownership=owners)
        advance(ring, 2)
        pkt = OutboundPacket(flow_id=-1, traffic_class=BEST_EFFORT, payload_len=64)
        # counters 7..13 map to slots 7..11,0,1; BE-owned are the even slots.
        assert insert_best_effort(ring, pkt) == 8

    def test_exhaustion(self):
        ring = make_ring(ownership={i: BEST_EFFORT for i in range(12)})
        advance(ring, 2)
        pkt = OutboundPacket(flow_id=-1, traffic_class=BEST_EFFORT, payload_len=64)
        for _ in range(7):  # window [7, 14) has 7 counters
            insert_best_effort(ring, pkt)
        with pytest.raises(NoSlotAvailable):
            insert_best_effort(ring, pkt)


def linear_scan(ring, traffic_class):
    """Reference lookup: earliest placeholder of the class in [lo, hi)."""
    lo, hi = ring.insertion_window()
    for c in range(lo, hi):
        d = ring.descriptor_at(c)
        if d.state is SlotState.PLACEHOLDER and d.owner_class == traffic_class:
            return c
    return None


OPS = st.lists(
    st.tuples(
        st.sampled_from(["consume", "poll", "strict", "relaxed", "best_effort",
                         "peek"]),
        st.integers(0, 1 << 16),  # picks k or the target counter
        st.integers(0, 2),  # picks the traffic class
    ),
    max_size=300,
)


class TestScanCursor:
    @settings(max_examples=300, deadline=None)
    @given(n=st.sampled_from([8, 16, 32]), data=st.data())
    def test_matches_linear_scan(self, n, data):
        batch = data.draw(st.integers(1, n), label="batch")
        classes = data.draw(st.integers(1, 3), label="classes")
        owners = data.draw(st.lists(st.integers(0, classes - 1), min_size=n,
                                    max_size=n), label="owners")
        ring = make_ring(n=n, batch=batch, ownership=dict(enumerate(owners)))
        clock = clock_at()
        for op, r, cls in data.draw(OPS, label="ops"):
            cls %= classes
            lo, hi = ring.insertion_window()
            target = lo - 2 + r % (hi - lo + 4)
            rt = OutboundPacket(flow_id=1, traffic_class=cls, payload_len=100,
                                scheduled_time=target * DELTA)
            if op == "consume":
                ring.nic_consume(r % (ring.producer_index - ring.consumer_index + 1))
            elif op == "poll":
                ring.poll_cycle()
            elif op == "strict":
                try:
                    try_insert(ring, rt, clock, InsertMode.STRICT)
                except InsertError:
                    pass
            elif op == "peek":
                assert ring.first_placeholder(cls) == linear_scan(ring, cls)
            else:
                if op == "relaxed":
                    d = ring.descriptor_at(target)
                    on_target = (lo <= target < hi and d.frame is None
                                 and d.state is SlotState.PLACEHOLDER
                                 and d.owner_class == cls)
                    expect = target if on_target else linear_scan(ring, cls)
                    insert = lambda: try_insert(ring, rt, clock, InsertMode.RELAXED)
                else:
                    expect = linear_scan(ring, cls)
                    be = OutboundPacket(flow_id=-1, traffic_class=cls, payload_len=64)
                    insert = lambda: insert_best_effort(ring, be)
                if expect is None:
                    with pytest.raises(NoSlotAvailable):
                        insert()
                else:
                    assert insert() == expect
                    assert ring.descriptor_at(expect).state is SlotState.ARMED


def ring_state(ring):
    return (ring.consumer_index, ring.producer_index, ring._reclaim_cursor,
            dict(ring._scan_cursor),
            [(d.state, d.owner_class, d.frame) for d in ring.descriptors])


def be_packet(traffic_class, payload_len=64):
    return OutboundPacket(flow_id=None, traffic_class=traffic_class,
                          payload_len=payload_len)


def fill_by_lookup(ring, pkt):
    """Reference fill: first_placeholder + insert_best_effort until none is left."""
    filled = 0
    while ring.first_placeholder(pkt.traffic_class) is not None:
        insert_best_effort(ring, pkt)
        filled += 1
    return filled


class TestFillPlaceholders:
    @settings(max_examples=300, deadline=None)
    @given(n=st.sampled_from([1, 4, 8, 16]), data=st.data())
    def test_matches_lookup_loop(self, n, data):
        batch = data.draw(st.integers(1, n), label="batch")
        classes = data.draw(st.integers(1, 3), label="classes")
        owners = data.draw(st.lists(st.integers(0, classes - 1), min_size=n,
                                    max_size=n), label="owners")
        one_pass = make_ring(n=n, batch=batch, ownership=dict(enumerate(owners)))
        ref = make_ring(n=n, batch=batch, ownership=dict(enumerate(owners)))
        clock = clock_at()
        ops = st.lists(st.tuples(
            st.sampled_from(["consume", "poll", "strict", "fill"]),
            st.integers(0, 1 << 16), st.integers(0, 2),
            st.sampled_from([1, 64, 300, 301])), max_size=200)
        for op, r, cls, payload in data.draw(ops, label="ops"):
            cls %= classes
            if op == "consume":
                k = r % (ref.producer_index - ref.consumer_index + 1)
                for ring in (one_pass, ref):
                    ring.nic_consume(k)
            elif op == "poll":
                for ring in (one_pass, ref):
                    ring.poll_cycle()
            elif op == "strict":
                lo, hi = ref.insertion_window()
                pkt = OutboundPacket(flow_id=1, traffic_class=cls, payload_len=100,
                                     scheduled_time=(lo - 1 + r % (hi - lo + 2)) * DELTA)
                for ring in (one_pass, ref):
                    try:
                        try_insert(ring, pkt, clock, InsertMode.STRICT)
                    except InsertError:
                        pass
            else:
                pkt = be_packet(cls, payload)
                outcomes = []
                for ring, fill in ((one_pass, DmaRing.fill_placeholders),
                                   (ref, fill_by_lookup)):
                    try:
                        outcomes.append(fill(ring, pkt))
                    except PayloadTooLarge as exc:
                        outcomes.append(type(exc))
                assert outcomes[0] == outcomes[1]
            assert ring_state(one_pass) == ring_state(ref)

    def test_arms_every_owned_placeholder(self):
        ring = make_ring(n=8, batch=2, ownership={i: i % 2 for i in range(8)})
        pkt = be_packet(0)
        assert ring.fill_placeholders(pkt) == 3  # counters 2, 4, 6 of [2, 8)
        assert [c for c in range(8) if ring.descriptor_at(c).frame is pkt] == [2, 4, 6]
        assert ring.fill_placeholders(pkt) == 0
        assert ring._scan_cursor[0] == 8

    def test_oversize_payload_raises_only_with_a_placeholder(self):
        ring = make_ring(n=8, batch=2, ownership={i: 1 for i in range(8)})
        assert ring.fill_placeholders(be_packet(0, 301)) == 0  # class 0 owns no slot
        with pytest.raises(PayloadTooLarge):
            ring.fill_placeholders(be_packet(1, 301))

    def test_scheduled_packet_rejected(self):
        ring = make_ring(n=8, batch=2, ownership={i: 1 for i in range(8)})
        with pytest.raises(ValueError, match="scheduled_time"):
            ring.fill_placeholders(rt_packet(4))
        assert all(d.frame is None for d in ring.descriptors)
