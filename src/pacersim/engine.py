"""Discrete-event simulation of a paced ring feeding a switched network.

A real-time packet's wire time is its ring counter times the slot time
``delta``, so ``run`` places real-time packets by integer arithmetic instead
of stepping slots or building a clock: a packet scheduled at ``t >= 0``
targets counter ``t // delta`` (the floor), and one scheduled before 0
targets -1, below every insertion window, as ``insertion.target_counter``
reads the ring's clock, whose offset is 0. A packet is a plain tuple of its
times, its instance number and its ``FlowDef``, and an armed counter maps
to ``(flow_id, seq, scheduled time)``; no ``OutboundPacket`` is built for
it. One sort per run gives each packet its due slot ``at`` and its place
among the packets due there (``_due_packets``). After slot ``at`` is sent the
insertion window is ``[at + 1 + batch, at + 1 + N)``, and the only ring
state a packet can meet in it is the earlier real-time arms and the
best-effort fills, which by then hold every counter a load's class owns
below ``at + N`` (none before slot 0's fill). So a walk over the due list
with a map of armed counters and the slot ownership gives each packet its
counter or the drop cause ``insertion.try_insert`` would raise, in the same
order of checks; relaxed mode falls back to the class's first unarmed
counter in the window. Each drop is counted by cause in the report and by
flow and cause in ``SimResult.drops_by_flow``. Armed counters below the
run's slot count go on the wire in counter order. Only a scenario with
saturating best-effort loads builds a ``DmaRing``: one ``transmit_slot``
call per slot and one ``fill_placeholders`` pass per load, which arms the
load's one packet in every placeholder its class owns in the window, carry
the loads' frames.
Real-time frames then traverse an optional chain of store-and-forward
bridges with time gates before reaching the receiver; best-effort frames
are counted. A flow's gate and forward delay at each bridge are fixed for
the run, so ``run`` builds each flow's hop chain once and walks it inline
per frame; ``Bridge.step`` is the same one-hop rule, and the test oracle
calls it.

All times are integer nanoseconds (slot durations are integral for the
supported frame sizes), so a noise-free scenario yields bit-identical
timestamps and exactly zero delay variation.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple, Optional

from .errors import InsufficientSamples, ValidationError
from .insertion import InsertMode, OutboundPacket
from .ring import BEST_EFFORT, DmaRing, RingConfig, _new_record
from .traffic import DEFAULT_RELEASE_DELTA, ServiceReport
from .traffic import service  # noqa: F401  pacerbench's tracer wraps engine.service

#: Most descriptors a scenario's ring may have; ``run`` builds the ring in
#: memory. NIC descriptor rings hold a few thousand at most.
MAX_RING_SLOTS = 1 << 16
#: Most slots one run may simulate (``duration`` over the slot wire time);
#: ``run`` steps every slot when the scenario has best-effort loads.
MAX_RUN_SLOTS = 10**6
#: Most real-time packets one run's flows may hand off, summed over the
#: flows; ``run`` works out each one's slot or drop cause.
MAX_RUN_PACKETS = 10**6


@dataclass(frozen=True)
class FlowDef:
    """A periodic real-time flow handed off to the driver."""

    flow_id: int
    traffic_class: int
    period: int  # ns
    phase: int  # ns, first scheduled transmission
    payload_len: int
    count: Optional[int] = None  # instances; None = fill the duration
    #: seq -> extra ns added to the hand-off time (models a late application);
    #: the scheduled slot is unchanged, so a strict ring drops the packet.
    late_by: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.period <= 0:
            raise ValidationError(f"flow {self.flow_id}: period must be > 0")
        if self.payload_len < 1:
            raise ValidationError(f"flow {self.flow_id}: payload_len must be >= 1")
        if self.count is not None and self.count < 0:
            raise ValidationError(f"flow {self.flow_id}: count must be None or >= 0")


@dataclass(frozen=True)
class BeLoad:
    """Saturating best-effort source: every placeholder its class owns in the
    insertion window is filled in every slot. A class has at most one load."""

    traffic_class: int = BEST_EFFORT
    payload_len: int = 64

    def __post_init__(self):
        if self.payload_len < 1:
            raise ValidationError("best-effort payload_len must be >= 1")


@dataclass(frozen=True)
class GateWindow:
    """Periodic open interval [offset, offset + width) mod cycle."""

    offset: int
    width: int
    cycle: int

    def __post_init__(self):
        if not (0 < self.width <= self.cycle):
            raise ValidationError("gate width must satisfy 0 < width <= cycle")


@dataclass(frozen=True)
class Bridge:
    """Store-and-forward bridge applying a per-flow time gate on arrival."""

    name: str
    forward_delay: int = 0  # ns added to every forwarded frame
    gates: dict = field(default_factory=dict)  # flow_id -> GateWindow

    def __post_init__(self):
        if self.forward_delay < 0:
            raise ValidationError("forward_delay must be >= 0")

    def step(self, flow_id, arrival: int) -> int:
        """Departure time of a frame; one outside its gate window waits for the next."""
        departure = arrival + self.forward_delay
        gate = self.gates.get(flow_id)
        if gate is not None:
            rel = (arrival - gate.offset) % gate.cycle
            if rel >= gate.width:
                departure += gate.cycle - rel
        return departure


@dataclass(frozen=True)  # run relies on __post_init__'s checks
class Scenario:
    ring: RingConfig
    duration: int  # ns
    flows: list = field(default_factory=list)  # FlowDef
    be_loads: list = field(default_factory=list)  # BeLoad
    bridges: list = field(default_factory=list)  # Bridge, traversed in order
    propagation: int = 0  # ns, link propagation per hop (hops = bridges + 1)
    mode: InsertMode = InsertMode.STRICT
    release_delta: int = DEFAULT_RELEASE_DELTA
    ownership: Optional[dict] = None  # slot position -> traffic class

    def __post_init__(self):
        if self.duration <= 0:
            raise ValidationError("duration must be > 0")
        if self.release_delta < 0:
            raise ValidationError("release_delta must be >= 0")
        if self.propagation < 0:
            raise ValidationError("propagation must be >= 0")
        wire_time = self.ring.wire_time
        if wire_time.denominator != 1:
            raise ValidationError("slot wire time must be an integral nanosecond count")
        n = self.ring.num_slots
        if n > MAX_RING_SLOTS:
            raise ValidationError(
                f"ring.num_slots {n} exceeds MAX_RING_SLOTS ({MAX_RING_SLOTS})")
        if self.duration // wire_time.numerator > MAX_RUN_SLOTS:
            raise ValidationError(
                f"duration {self.duration} ns is over MAX_RUN_SLOTS ({MAX_RUN_SLOTS}) "
                f"slots of {wire_time.numerator} ns")
        for pos in self.ownership or ():
            if not 0 <= pos < n:
                raise ValidationError(f"ownership position {pos} outside ring of {n}")
        flow_ids = set()
        packets = 0
        for f in self.flows:
            if f.flow_id in flow_ids:
                raise ValidationError(f"two flows with flow_id {f.flow_id}")
            flow_ids.add(f.flow_id)
            # len(range(f.phase, duration, f.period)), capped by f.count
            instances = max(0, (self.duration - f.phase + f.period - 1) // f.period)
            if f.count is not None and f.count < instances:
                instances = f.count
            packets += instances
            if packets > MAX_RUN_PACKETS:
                raise ValidationError(
                    f"flow {f.flow_id} takes the run's real-time packets to {packets}, "
                    f"over MAX_RUN_PACKETS ({MAX_RUN_PACKETS})")
        classes = {f.traffic_class for f in self.flows}
        if BEST_EFFORT in classes:
            raise ValidationError("real-time flows may not use the best-effort class")
        be_classes = set()
        for load in self.be_loads:
            if load.traffic_class in be_classes:
                raise ValidationError(
                    f"two best-effort loads of class {load.traffic_class}")
            if load.traffic_class in classes:
                raise ValidationError(
                    f"best-effort load of class {load.traffic_class} shares "
                    f"its class with a real-time flow")
            if load.payload_len > self.ring.slot_size:
                raise ValidationError(
                    f"best-effort load of class {load.traffic_class}: payload_len "
                    f"{load.payload_len} exceeds slot_size {self.ring.slot_size}")
            be_classes.add(load.traffic_class)


class PacketRecord(NamedTuple):
    flow_id: int
    seq: int  # per-flow instance number
    scheduled_time: int
    send_time: int
    recv_time: int


@dataclass
class SimResult:
    records: list  # PacketRecord, wire order
    report: ServiceReport
    drops_by_flow: dict  # flow_id -> {cause: n}, summing to report.drop_causes
    misses_by_bridge: list  # gate misses at each bridge, in bridge order
    be_payload_bytes: int
    be_frames: int
    duration: int
    line_rate: float

    @property
    def gate_misses(self) -> int:
        """Frames held for a gate window, summed over the hops."""
        return sum(self.misses_by_bridge)

    def flow_records(self, flow_id) -> list:
        return [r for r in self.records if r.flow_id == flow_id]

    def delays(self, flow_id) -> list:
        return [r.recv_time - r.send_time for r in self.flow_records(flow_id)]

    @property
    def be_goodput(self) -> float:
        """Delivered best-effort payload rate, bits per second."""
        return self.be_payload_bytes * 8 / (self.duration * 1e-9)


def pdv(delays) -> tuple[float, float]:
    """Packet delay variation: (population stddev, max deviation from mean)."""
    if len(delays) < 2:
        raise InsufficientSamples("need at least 2 delay samples")
    mean = sum(delays) / len(delays)
    return statistics.pstdev(delays), max(abs(d - mean) for d in delays)


def inter_arrival_jitter(times, period) -> tuple[float, float]:
    """Deviation of consecutive arrival gaps from the nominal period."""
    if len(times) < 2:
        raise InsufficientSamples("need at least 2 arrival samples")
    devs = [(b - a) - period for a, b in zip(times, times[1:])]
    mean = sum(devs) / len(devs)
    return statistics.pstdev(devs), max(abs(d) for d in devs)


#: The hop of a bridge that does not gate a flow: its window never closes.
_ALWAYS_OPEN = GateWindow(0, 1, 1)


def _ownership(scenario: Scenario) -> dict:
    """Slot position -> traffic class; a position it leaves out is BEST_EFFORT.

    Without an explicit map, the default layout round-robins the sorted
    real-time classes, then each best-effort load's class, over the ring.
    """
    if scenario.ownership is not None:
        return scenario.ownership
    classes = sorted({f.traffic_class for f in scenario.flows})
    classes += [load.traffic_class for load in scenario.be_loads]
    if not classes:
        return {}
    return {pos: classes[pos % len(classes)] for pos in range(scenario.ring.num_slots)}


def _due_packets(scenario: Scenario, delta: int, steps: int, n: int) -> list:
    """(due slot, scheduled time, hand-off, k, index, flow) in insertion order.

    A packet is instance ``k`` of its ``FlowDef``, scheduled at ``sched``. It
    is handed off in the first slot starting at or after its hand-off time
    (slot 0 if that is at or before 0), and is due there unless a negative
    ``late_by`` hands it off before its release time: then it waits until
    that time, or until its counter ``sched // delta`` (-1 for a negative
    ``sched``) enters the insertion window, whose top after slot ``s`` is
    ``s + 1 + N``. One sort puts the packets earliest deadline first within
    a slot, ties in hand-off order. ``index`` is the flow's place in
    ``scenario.flows``: ``k`` already orders one flow's packets, so the
    sort keeps the creation order of packets that tie and never compares
    two flows.
    """
    release_delta = scenario.release_delta
    due = []
    for index, f in enumerate(scenario.flows):
        late_by = f.late_by
        for k, sched in enumerate(islice(range(f.phase, scenario.duration, f.period),
                                         f.count)):
            release = sched - release_delta
            handoff = release if release > 0 else 0
            if late_by:
                handoff += late_by.get(k, 0)
            at = -(-handoff // delta) if handoff > 0 else 0  # hand-off slot
            if handoff < release:
                c = sched // delta if sched >= 0 else -1
                at = max(at, min(-(-release // delta), c - n))
            if at < steps:  # else handed off after the last slot
                due.append((at, sched, handoff, k, index, f))
    due.sort()
    return due


def run(scenario: Scenario) -> SimResult:
    config = scenario.ring
    delta = int(config.wire_time)  # integral: Scenario checks it
    steps = scenario.duration // delta
    n = config.num_slots
    batch = config.batch_size
    slot_size = config.slot_size
    relaxed = scenario.mode is InsertMode.RELAXED
    ownership = _ownership(scenario)
    owner_of = ownership.get
    be_classes = {load.traffic_class for load in scenario.be_loads}
    report = ServiceReport()
    drops_by_flow = {}  # flow_id -> {cause: n}

    def count_drop(flow_id, cause):
        report._count_drop(cause)
        flow_drops = drops_by_flow.setdefault(flow_id, {})
        flow_drops[cause] = flow_drops.get(cause, 0) + 1

    # Each packet's armed counter or drop cause, by try_insert's checks in
    # its order; the module docstring says why the window, the ownership and
    # the armed counters are all the ring state a packet can meet.
    armed = {}  # counter -> (flow_id, seq, scheduled time)
    cursor = {}  # class -> first counter the relaxed fallback has not ruled out
    for at, sched, _, k, _, f in _due_packets(scenario, delta, steps, n):
        if f.payload_len > slot_size:
            count_drop(f.flow_id, "PayloadTooLarge")
            continue
        cls = f.traffic_class
        c = sched // delta if sched >= 0 else -1  # counter c is sent at c * delta
        lo = at + 1 + batch
        hi = at + 1 + n
        if not lo <= c < hi:
            cause = "OutOfWindow"
        elif c in armed:
            cause = "NotPlaceholder"
        else:
            owner = owner_of(c % n, BEST_EFFORT)
            if owner == cls:
                armed[c] = (f.flow_id, k, sched)
                continue
            if owner in be_classes and 0 < at and c < at + n:
                cause = "NotPlaceholder"  # a load's frame is armed there
            else:
                cause = "OwnershipViolation"
        if relaxed:
            # The first counter of the class in the window that no packet
            # has armed. Counters below the class's cursor were ruled out
            # and stay so (arms are never undone), so each lookup resumes
            # there: amortized O(1), as DmaRing's scan cursor.
            c = max(cursor.get(cls, lo), lo)
            while c < hi and (c in armed or owner_of(c % n, BEST_EFFORT) != cls):
                c += 1
            cursor[cls] = c
            if c < hi:
                armed[c] = (f.flow_id, k, sched)
                continue
            cause = "NoSlotAvailable"
        count_drop(f.flow_id, cause)
    report.inserted_rt = len(armed)  # arms are never undone

    records: list[PacketRecord] = []
    propagation = scenario.propagation
    first_arrival = delta + propagation  # after the slot's start
    # Each flow's hops, (offset, width, cycle, forward delay + propagation,
    # bridge index), walked inline by the rule of Bridge.step: a frame
    # outside its window waits for the next opening. A bridge that does not
    # gate the flow is a window that never closes.
    misses_by_bridge = [0] * len(scenario.bridges)
    chains = {f.flow_id: tuple(
        (g.offset, g.width, g.cycle, bridge.forward_delay + propagation, i)
        for i, bridge in enumerate(scenario.bridges)
        for g in (bridge.gates.get(f.flow_id, _ALWAYS_OPEN),))
        for f in scenario.flows}
    # Counter c goes on the wire during slot c; arms at or past `steps` never do.
    for c in sorted(armed):
        if c >= steps:
            break
        flow_id, seq, sched = armed[c]
        now = c * delta
        arrival = now + first_arrival
        for offset, width, cycle, hop_delay, i in chains[flow_id]:
            rel = (arrival - offset) % cycle
            if rel >= width:
                arrival += cycle - rel  # held for its gate window
                misses_by_bridge[i] += 1
            arrival += hop_delay
        records.append(_new_record(PacketRecord, (
            flow_id, seq, sched, now, arrival)))

    # Best-effort loads: the ring, stepped slot by slot, carries only their
    # frames. Each load has one packet, armed in every slot the load fills.
    be_payload = 0
    be_frames = 0
    if scenario.be_loads:
        ring = DmaRing(config, ownership=ownership)
        be_packets = [
            OutboundPacket(flow_id=None, traffic_class=load.traffic_class,
                           payload_len=load.payload_len)
            for load in scenario.be_loads]
        transmit_slot = ring.transmit_slot
        fill_placeholders = ring.fill_placeholders
        for _ in range(steps):
            frame = transmit_slot()
            if frame is not None:
                be_payload += frame.payload_len
                be_frames += 1
            for pkt in be_packets:
                report.inserted_be += fill_placeholders(pkt)

    return SimResult(
        records=records,
        report=report,
        drops_by_flow=drops_by_flow,
        misses_by_bridge=misses_by_bridge,
        be_payload_bytes=be_payload,
        be_frames=be_frames,
        duration=scenario.duration,
        line_rate=scenario.ring.line_rate,
    )


# -- CSV output --------------------------------------------------------------

METRICS_FIELDS = ["flow_id", "seq", "send_time_ns", "recv_time_ns", "delay_ns"]
SUMMARY_FIELDS = ["flow_id", "count", "mean_delay_ns", "pdv_ns", "jitter_ns",
                  "drops_by_cause"]


def write_metrics_csv(result: SimResult, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(METRICS_FIELDS)
        for r in result.records:
            w.writerow([r.flow_id, r.seq, r.send_time, r.recv_time,
                        r.recv_time - r.send_time])


def read_metrics_csv(path) -> list:
    """Rows of metrics.csv as (flow_id, seq, send_time, recv_time) records."""
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_FIELDS:
            raise ValidationError(f"unexpected metrics header {reader.fieldnames}")
        for row in reader:
            out.append(PacketRecord(
                flow_id=int(row["flow_id"]),
                seq=int(row["seq"]),
                scheduled_time=int(row["send_time_ns"]),
                send_time=int(row["send_time_ns"]),
                recv_time=int(row["recv_time_ns"]),
            ))
    return out


def _format_drops(causes: dict) -> str:
    return ";".join(f"{k}={v}" for k, v in sorted(causes.items()))


def write_summary_csv(result: SimResult, path) -> None:
    """One row per flow with a delivered or dropped packet, then ``__all__``."""
    flows = sorted({r.flow_id for r in result.records} | result.drops_by_flow.keys())
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SUMMARY_FIELDS)
        for fid in flows:
            recs = result.flow_records(fid)
            delays = [r.recv_time - r.send_time for r in recs]
            if len(delays) >= 2:
                stddev, _ = pdv(delays)
            else:
                stddev = 0.0
            if len(recs) >= 2:
                periods = [b.send_time - a.send_time for a, b in zip(recs, recs[1:])]
                jit = statistics.pstdev(periods)
            else:
                jit = 0.0
            mean = sum(delays) / len(delays) if delays else 0.0
            w.writerow([fid, len(delays), repr(mean), repr(stddev), repr(jit),
                        _format_drops(result.drops_by_flow.get(fid, {}))])
        w.writerow(["__all__", len(result.records), "", "", "",
                    _format_drops(result.report.drop_causes)])
