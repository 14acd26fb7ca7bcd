"""engine.run against a copy of the per-slot loop it replaced.

``reference_run`` steps every slot through the decoupled ring API
(``nic_consume(1)`` then ``poll_cycle()``), ticks the clock every slot, queues
real-time hand-offs in an ``RtQueue`` and calls ``traffic.service`` every
slot: once with the real-time queue and the first best-effort load's queue,
then once per further load, in load order, with an empty real-time queue.
Each load's queue is refilled with a new packet per free entry. It counts a
gate miss at each hop whose departure is not the arrival plus the bridge's
forward delay.
``engine.run`` uses no queue and no ``service``: it makes a slot one
``transmit_slot`` call, inserts the real-time packets due in the slot with
``try_insert`` in an order one sort works out per run, and fills best-effort
placeholders in one pass per load. For up to three loads, of any classes
that no real-time flow uses, they must agree on every result and on the
exception raised, drop counts included.
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
        classes += [load.traffic_class for load in scenario.be_loads]
        if classes:
            ownership = {
                pos: classes[pos % len(classes)]
                for pos in range(scenario.ring.num_slots)
            }
        else:
            ownership = {}
    return DmaRing(scenario.ring, ownership=ownership)


def reference_run(scenario, seen=None):
    """The per-slot loop: (records, report, be_frames, be_payload, gate_misses).

    Adds "held past its hand-off slot" to the set ``seen``, if one is given,
    when a real-time packet is still queued after its slot's ``service`` call.
    """
    ring = reference_build_ring(scenario)
    delta = int(ring.config.wire_time)
    clock = EphcClock(cycle_period=Fraction(delta))
    policy = ServicePolicy(release_delta=scenario.release_delta)
    rt = RtQueue(capacity=1 << 20)
    no_rt = RtQueue()  # served with every load after the first
    be_queues = [BeQueue(capacity=1 << 20) for _ in scenario.be_loads]
    first_be, *later_be = be_queues or [BeQueue()]
    be_classes = {load.traffic_class for load in scenario.be_loads}

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
    gate_misses = 0
    n = ring.config.num_slots
    for step in range(scenario.duration // delta):
        now = step * delta
        for rec in ring.nic_consume(1):
            if not rec.crc_valid:
                continue
            if rec.owner_class in be_classes:
                be_payload += rec.payload_len
                be_frames += 1
                continue
            arrival = now + delta + scenario.propagation
            for bridge in scenario.bridges:
                departure = bridge.step(rec.flow_id, arrival)
                gate_misses += departure != arrival + bridge.forward_delay
                arrival = departure + scenario.propagation
            sched = rec.scheduled_time if rec.scheduled_time is not None else now
            wire.append(PacketRecord(rec.flow_id, rec.seq, sched, now, arrival))
        ring.poll_cycle()

        while pending_idx < len(pending) and pending[pending_idx][0] <= now:
            if not rt.enqueue(pending[pending_idx][2]):
                report._count_drop("QueueFull")
            pending_idx += 1
        for load, be in zip(scenario.be_loads, be_queues):
            while len(be) < n:
                be.enqueue(OutboundPacket(flow_id=-1, traffic_class=load.traffic_class,
                                          payload_len=load.payload_len))
        service(rt, first_be, ring, clock, policy, scenario.mode, report=report)
        if len(rt) and seen is not None:
            seen.add("held past its hand-off slot")
        for be in later_be:
            service(no_rt, be, ring, clock, policy, scenario.mode, report=report)
        clock.tick()

    records = [PacketRecord(r.flow_id, seq_of.get(r.seq, r.seq), r.scheduled_time,
                            r.send_time, r.recv_time) for r in wire]
    return records, report, be_frames, be_payload, gate_misses


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
        # Periods below delta / 2 hand off several packets of a flow per slot.
        period = rng.choice([rng.randint(1, 4) * delta, rng.randint(delta // 2, 5 * delta),
                             rng.randint(delta // 8, delta // 2 - 1)])
        # Late, early (before slot 0 or before the release time) and past
        # the end of the run.
        late = {rng.randint(0, 5): rng.choice([rng.randint(0, 6), rng.randint(-12, -1),
                                               rng.randint(steps + 1, steps + 3)]) * delta
                for _ in range(rng.randint(0, 2))}
        flows.append(FlowDef(
            flow_id=fid, traffic_class=rng.randint(1, 3), period=period,
            phase=rng.randint(0, 12 * delta),
            payload_len=rng.randint(1, slot_size + (8 if rng.random() < 0.1 else 0)),
            count=rng.choice([None, rng.randint(0, 8)]), late_by=late))
    be_loads = []
    if rng.random() < 0.6:
        # One to three loads, on distinct classes that no real-time flow uses.
        free = [c for c in range(6) if c not in {f.traffic_class for f in flows}]
        for cls in rng.sample(free, rng.randint(1, 3)):
            oversize = rng.random() < 0.05
            be_loads.append(BeLoad(
                traffic_class=cls,
                payload_len=slot_size + 1 if oversize else rng.randint(1, slot_size)))
    ownership = None
    if rng.random() < 0.6:
        # Explicit layouts: slots of a best-effort or real-time class, and
        # classes that own no slot at all.
        owned = rng.sample(range(n), rng.randint(0, n))
        ownership = {pos: rng.randint(0, 5) for pos in owned}
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


def handoff_cases(scenario):
    """The unusual hand-offs among the scenario's packets."""
    delta = int(scenario.ring.wire_time)
    release_delta = scenario.release_delta
    cases = set()
    for f in scenario.flows:
        slots = []
        for k, sched in enumerate(range(f.phase, scenario.duration, f.period)):
            if f.count is not None and k >= f.count:
                break
            handoff = max(0, sched - release_delta) + f.late_by.get(k, 0)
            if handoff < 0:
                cases.add("hand-off before slot 0")
            elif handoff < sched - release_delta:
                cases.add("hand-off before its release time")
            if handoff >= scenario.duration:
                cases.add("hand-off after the run")
            slots.append(max(0, -(-handoff // delta)))
        if len(set(slots)) < len(slots):
            cases.add("one flow's hand-offs in one slot")
    return cases


class TestAgainstPerSlotLoop:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_random_scenarios(self, seed):
        assert outcome(new_run, random_scenario(seed)) == \
            outcome(reference_run, random_scenario(seed))

    def test_sweep_reaches_every_case(self):
        # A fixed sweep that must reach every drop cause, gate misses, an
        # oversize best-effort payload, N = 1 and batch = N in both modes.
        # Running one scenario object twice must give equal results.
        causes, seen = set(), set()
        for seed in range(400):
            scenario = random_scenario(seed)
            got = outcome(new_run, scenario)
            assert got == outcome(lambda s: reference_run(s, seen),
                                  random_scenario(seed)), seed
            assert outcome(new_run, scenario) == got, seed
            ring = scenario.ring
            seen.add(("mode", scenario.mode))
            if ring.num_slots == 1:
                seen.add("N=1")
            if ring.batch_size == ring.num_slots > 1:
                seen.add("batch=N")
            if any(f.late_by for f in scenario.flows):
                seen.add("late_by")
            if len(scenario.be_loads) > 1:
                seen.add("several loads")
            if any(load.traffic_class != BEST_EFFORT for load in scenario.be_loads):
                seen.add("load of a non-zero class")
            seen |= handoff_cases(scenario)
            if isinstance(got, type):
                seen.add(got.__name__)
                continue
            records, report, be_frames, _, gate_misses = got
            assert report.dropped == sum(report.drop_causes.values()), seed
            causes |= set(report.drop_causes)
            if gate_misses:
                seen.add("gate misses")
            if be_frames and records:
                seen.add("rt and be frames")
        assert causes >= {"OutOfWindow", "NoSlotAvailable", "OwnershipViolation",
                          "NotPlaceholder"}
        assert seen >= {("mode", InsertMode.STRICT), ("mode", InsertMode.RELAXED),
                        "N=1", "batch=N", "late_by", "PayloadTooLarge",
                        "gate misses", "rt and be frames", "several loads",
                        "load of a non-zero class"}
        assert seen >= {"hand-off before slot 0", "hand-off before its release time",
                        "hand-off after the run", "one flow's hand-offs in one slot",
                        "held past its hand-off slot"}
