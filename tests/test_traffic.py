"""Traffic-class queues and the queue-to-ring service pass."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pacersim import (
    BEST_EFFORT,
    BeQueue,
    DmaRing,
    EphcClock,
    InsertMode,
    OutboundPacket,
    RingConfig,
    RtQueue,
    ServicePolicy,
    SlotState,
    service,
)

RT = 1
DELTA = 2400


def rt_pkt(sched, seq=0):
    return OutboundPacket(flow_id=1, traffic_class=RT, payload_len=100,
                          scheduled_time=sched, seq=seq)


def be_pkt(seq=0):
    return OutboundPacket(flow_id=-1, traffic_class=BEST_EFFORT, payload_len=64,
                          seq=seq)


class TestRtQueue:
    def test_single_element_root(self):
        q = RtQueue()
        q.enqueue(rt_pkt(500))
        assert q.peek().scheduled_time == 500

    def test_dequeue_sorted(self):
        rng = random.Random(7)
        times = [rng.randrange(10**9) for _ in range(10_000)]
        q = RtQueue(capacity=20_000)
        for i, t in enumerate(times):
            assert q.enqueue(rt_pkt(t, seq=i))
        out = [q.pop().scheduled_time for _ in range(len(times))]
        assert out == sorted(times)

    def test_full_queue_drops_and_counts(self):
        q = RtQueue(capacity=2)
        assert q.enqueue(rt_pkt(1))
        assert q.enqueue(rt_pkt(2))
        assert not q.enqueue(rt_pkt(3))
        assert q.dropped_full == 1
        assert len(q) == 2


class TestBeQueue:
    def test_fifo(self):
        q = BeQueue()
        for i in range(3):
            q.enqueue(be_pkt(seq=i))
        assert [q.pop().seq for i in range(3)] == [0, 1, 2]

    def test_interleaved_matches_reference(self):
        from collections import deque

        rng = random.Random(3)
        q, ref = BeQueue(), deque()
        for step in range(2000):
            if ref and rng.random() < 0.45:
                assert q.pop().seq == ref.popleft()
            else:
                q.enqueue(be_pkt(seq=step))
                ref.append(step)

    def test_capacity(self):
        q = BeQueue(capacity=1)
        assert q.enqueue(be_pkt())
        assert not q.enqueue(be_pkt())
        assert q.dropped_full == 1


def make_state(n=12, batch=5, ownership=None, consumed=2, count=2):
    cfg = RingConfig(num_slots=n, slot_size=300, batch_size=batch)
    if ownership is None:
        ownership = {i: RT for i in range(n)}
    ring = DmaRing(cfg, ownership=ownership)
    ring.nic_consume(consumed)
    ring.poll_cycle()
    clock = EphcClock(cycle_period=Fraction(DELTA), cycle_count=count)
    return ring, clock


class TestService:
    def test_window_edge_inserted_now(self):
        ring, clock = make_state()  # window [7, 14)
        rt, be = RtQueue(), BeQueue()
        rt.enqueue(rt_pkt(7 * DELTA))
        rep = service(rt, be, ring, clock, ServicePolicy(release_delta=0),
                      InsertMode.STRICT)
        assert rep.inserted_rt == 1
        assert ring.descriptor_at(7).state is SlotState.ARMED

    def test_far_future_deferred(self):
        ring, clock = make_state()
        rt, be = RtQueue(), BeQueue()
        rt.enqueue(rt_pkt((2 + 2 * 12) * DELTA))  # two revolutions ahead
        rep = service(rt, be, ring, clock, ServicePolicy(release_delta=DELTA),
                      InsertMode.STRICT)
        assert rep.inserted_rt == 0
        assert len(rt) == 1

    def test_early_release_respects_delta(self):
        # A packet beyond the window is still released once inside
        # scheduled_time - release_delta.
        ring, clock = make_state()
        rt, be = RtQueue(), BeQueue()
        sched = (2 + 24) * DELTA
        rt.enqueue(rt_pkt(sched))
        policy = ServicePolicy(release_delta=sched - 2 * DELTA)
        rep = service(rt, be, ring, clock, policy, InsertMode.STRICT)
        # released, but its counter is above the window: strict drop.
        assert rep.dropped == 1
        assert rep.drop_causes == {"OutOfWindow": 1}

    def test_late_strict_drop(self):
        ring, clock = make_state()
        rt, be = RtQueue(), BeQueue()
        rt.enqueue(rt_pkt(1 * DELTA))  # counter 1 < window low edge
        rep = service(rt, be, ring, clock, ServicePolicy(release_delta=0),
                      InsertMode.STRICT)
        assert rep.dropped == 1
        assert rep.inserted_rt == 0

    def test_be_fills_available_placeholders(self):
        owners = {i: (BEST_EFFORT if i in (7, 8, 9) else RT) for i in range(12)}
        ring, clock = make_state(ownership=owners)
        rt, be = RtQueue(), BeQueue()
        for i in range(5):
            be.enqueue(be_pkt(seq=i))
        rep = service(rt, be, ring, clock, ServicePolicy(release_delta=0),
                      InsertMode.STRICT)
        assert rep.inserted_be == 3
        assert len(be) == 2

    def test_be_never_takes_rt_slot(self):
        owners = {i: RT for i in range(12)}
        ring, clock = make_state(ownership=owners)
        rt, be = RtQueue(), BeQueue()
        be.enqueue(be_pkt())
        rep = service(rt, be, ring, clock, ServicePolicy(release_delta=0),
                      InsertMode.STRICT)
        assert rep.inserted_be == 0
        for c in range(*ring.insertion_window()):
            assert ring.descriptor_at(c).state is SlotState.PLACEHOLDER

    @given(seed=st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_conservation(self, seed):
        rng = random.Random(seed)
        owners = {i: rng.choice([RT, BEST_EFFORT]) for i in range(12)}
        ring, clock = make_state(ownership=owners, consumed=0, count=0)
        rt, be = RtQueue(), BeQueue()
        enqueued = 0
        for i in range(30):
            sched = rng.randrange(0, 40) * DELTA
            if rt.enqueue(rt_pkt(sched, seq=i)):
                enqueued += 1
        rep = service(rt, be, ring, clock, ServicePolicy(release_delta=10**9),
                      InsertMode.STRICT)
        assert rep.inserted_rt + rep.dropped + len(rt) == enqueued
