"""engine.run against a copy of the per-slot loop it replaced.

``reference_run`` steps every slot through the decoupled ring API
(``nic_consume(1)`` then ``poll_cycle()``), ticks the clock every slot, calls
``service`` every slot and refills a best-effort queue with a new packet per
free entry. ``engine.run`` makes a slot one ``transmit_slot`` call, services
only when real-time packets are queued and fills best-effort placeholders in
one pass. On the scenarios both support (at most one best-effort load, of
class 0) they must agree on every result and on the exception raised.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pacersim.clock import EphcClock
from pacersim.engine import (
    BeLoad,
    Bridge,
    FlowDef,
    GateWindow,
    PacketRecord,
    Scenario,
    run,
)
from pacersim.insertion import InsertMode, OutboundPacket
from pacersim.ring import BEST_EFFORT, DmaRing, RingConfig
from pacersim.traffic import BeQueue, RtQueue, ServicePolicy, ServiceReport, service


def reference_build_ring(scenario):
    ownership = scenario.ownership
    if ownership is None:
        classes = sorted({f.traffic_class for f in scenario.flows})
        if scenario.be_loads:
            classes.append(BEST_EFFORT)
        if classes:
            ownership = {
                pos: classes[pos % len(classes)]
                for pos in range(scenario.ring.num_slots)
            }
        else:
            ownership = {}
    return DmaRing(scenario.ring, ownership=ownership)


def reference_run(scenario):
    """The per-slot loop: (records, report, be_frames, be_payload, gate_misses)."""
    ring = reference_build_ring(scenario)
    delta = int(ring.config.wire_time)
    clock = EphcClock(cycle_period=Fraction(delta))
    policy = ServicePolicy(release_delta=scenario.release_delta)
    rt = RtQueue(capacity=1 << 20)
    be = BeQueue(capacity=1 << 20)

    pending = []
    seq_counter = 0
    for f in scenario.flows:
        k = 0
        while True:
            sched = f.phase + k * f.period
            if sched >= scenario.duration or (f.count is not None and k >= f.count):
                break
            handoff = max(0, sched - scenario.release_delta) + f.late_by.get(k, 0)
            pkt = OutboundPacket(flow_id=f.flow_id, traffic_class=f.traffic_class,
                                 payload_len=f.payload_len, scheduled_time=sched,
                                 seq=seq_counter)
            seq_counter += 1
            pending.append((handoff, k, pkt))
            k += 1
    pending.sort(key=lambda e: (e[0], e[1], e[2].seq))
    pending_idx = 0
    seq_of = {pkt.seq: k for _, k, pkt in pending}

    report = ServiceReport()
    wire = []
    be_payload = 0
    be_frames = 0
    n = ring.config.num_slots
    for step in range(scenario.duration // delta):
        now = step * delta
        for rec in ring.nic_consume(1):
            if not rec.crc_valid:
                continue
            if rec.owner_class == BEST_EFFORT:
                be_payload += rec.payload_len
                be_frames += 1
                continue
            arrival = now + delta + scenario.propagation
            for bridge in scenario.bridges:
                arrival = bridge.step(rec.flow_id, arrival) + scenario.propagation
            sched = rec.scheduled_time if rec.scheduled_time is not None else now
            wire.append(PacketRecord(rec.flow_id, rec.seq, sched, now, arrival))
        ring.poll_cycle()

        while pending_idx < len(pending) and pending[pending_idx][0] <= now:
            if not rt.enqueue(pending[pending_idx][2]):
                report._count_drop("QueueFull")
            pending_idx += 1
        if scenario.be_loads:
            load = scenario.be_loads[0]
            while len(be) < n:
                be.enqueue(OutboundPacket(flow_id=-1, traffic_class=load.traffic_class,
                                          payload_len=load.payload_len))
        service(rt, be, ring, clock, policy, scenario.mode, report=report)
        clock.tick()

    records = [PacketRecord(r.flow_id, seq_of.get(r.seq, r.seq), r.scheduled_time,
                            r.send_time, r.recv_time) for r in wire]
    return (records, report, be_frames, be_payload,
            sum(b.misses for b in scenario.bridges))


def outcome(runner, scenario):
    try:
        return runner(scenario)
    except Exception as exc:  # the type must match, not the message
        return type(exc)


def new_run(scenario):
    res = run(scenario)
    return (res.records, res.report, res.be_frames, res.be_payload_bytes,
            res.gate_misses)


SLOT_SIZES = (64, 100, 125, 300)  # 512, 800, 1000, 2400 ns at 1 Gb/s


def random_scenario(seed):
    """A small scenario from ``seed``; call twice for two independent copies."""
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3, 4, 8])
    slot_size = rng.choice(SLOT_SIZES)
    delta = slot_size * 8
    ring = RingConfig(num_slots=n, slot_size=slot_size, batch_size=rng.randint(1, n))
    steps = rng.randint(1, 60)
    flows = []
    for fid in range(1, rng.randint(0, 3) + 1):
        period = rng.choice([rng.randint(1, 4) * delta, rng.randint(delta // 2, 5 * delta)])
        late = {rng.randint(0, 5): rng.randint(0, 6) * delta
                for _ in range(rng.randint(0, 2))}
        flows.append(FlowDef(
            flow_id=fid, traffic_class=rng.randint(1, 3), period=period,
            phase=rng.randint(0, 12 * delta),
            payload_len=rng.randint(1, slot_size + (8 if rng.random() < 0.1 else 0)),
            count=rng.choice([None, rng.randint(0, 8)]), late_by=late))
    be_loads = []
    if rng.random() < 0.6:
        oversize = rng.random() < 0.05
        be_loads.append(BeLoad(
            payload_len=slot_size + 1 if oversize else rng.randint(1, slot_size)))
    ownership = None
    if rng.random() < 0.6:
        # Explicit layouts: slots of class 0 or of another RT class, and
        # classes that own no slot at all.
        owned = rng.sample(range(n), rng.randint(0, n))
        ownership = {pos: rng.randint(0, 3) for pos in owned}
    bridges = []
    for h in range(rng.randint(0, 2)):
        gates = {f.flow_id: GateWindow(offset=rng.randint(0, 4 * delta),
                                       width=rng.randint(1, f.period), cycle=f.period)
                 for f in flows if rng.random() < 0.7}
        bridges.append(Bridge(f"b{h}", forward_delay=rng.randint(0, delta), gates=gates))
    return Scenario(
        ring=ring, duration=steps * delta + rng.randint(0, delta - 1), flows=flows,
        be_loads=be_loads, bridges=bridges, propagation=rng.randint(0, 3 * delta),
        mode=rng.choice([InsertMode.STRICT, InsertMode.RELAXED]),
        release_delta=rng.randint(0, 10) * delta + rng.choice([0, rng.randint(0, delta)]),
        ownership=ownership)


class TestAgainstPerSlotLoop:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_random_scenarios(self, seed):
        assert outcome(new_run, random_scenario(seed)) == \
            outcome(reference_run, random_scenario(seed))

    def test_sweep_reaches_every_case(self):
        # A fixed sweep that must reach every drop cause, gate misses, an
        # oversize best-effort payload, N = 1 and batch = N in both modes.
        causes, seen = set(), set()
        for seed in range(400):
            scenario = random_scenario(seed)
            got = outcome(new_run, scenario)
            assert got == outcome(reference_run, random_scenario(seed)), seed
            ring = scenario.ring
            seen.add(("mode", scenario.mode))
            if ring.num_slots == 1:
                seen.add("N=1")
            if ring.batch_size == ring.num_slots > 1:
                seen.add("batch=N")
            if any(f.late_by for f in scenario.flows):
                seen.add("late_by")
            if isinstance(got, type):
                seen.add(got.__name__)
                continue
            records, report, be_frames, _, gate_misses = got
            causes |= set(report.drop_causes)
            if gate_misses:
                seen.add("gate misses")
            if be_frames and records:
                seen.add("rt and be frames")
        assert causes >= {"OutOfWindow", "NoSlotAvailable", "OwnershipViolation",
                          "NotPlaceholder"}
        assert seen >= {("mode", InsertMode.STRICT), ("mode", InsertMode.RELAXED),
                        "N=1", "batch=N", "late_by", "PayloadTooLarge",
                        "gate misses", "rt and be frames"}
