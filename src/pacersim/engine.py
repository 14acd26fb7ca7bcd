"""Discrete-event simulation of a paced ring feeding a switched network.

The transmit side is modeled one slot at a time, and a slot is one ring
call: ``DmaRing.transmit_slot`` puts the frame at the consumer on the wire,
reclaims it, tops the ring up with placeholders and returns the packet that
was armed there (None for a placeholder). The real-time packets due in the
slot then go straight to ``insertion.try_insert``, in an order one sort
works out per run (``_due_packets``); no queue, capacity bound or
``traffic.service`` call sits between the application and the ring. Each
saturating best-effort load has one packet per run, which
``DmaRing.fill_placeholders`` arms in every placeholder the load's class
owns in the insertion window. Real-time frames (those with a scheduled
time) then traverse an optional chain of store-and-forward bridges with
time gates before reaching the receiver; best-effort frames are counted.

All times are integer nanoseconds (slot durations are integral for the
supported frame sizes), so a noise-free scenario yields bit-identical
timestamps and exactly zero delay variation.
"""

from __future__ import annotations

import csv
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Optional

from .clock import EphcClock
from .errors import InsertError, InsufficientSamples, ValidationError
from .insertion import InsertMode, OutboundPacket, target_counter, try_insert
from .ring import BEST_EFFORT, DmaRing, RingConfig, _new_record
from .traffic import DEFAULT_RELEASE_DELTA, ServiceReport
from .traffic import service  # noqa: F401  pacerbench's tracer wraps engine.service


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
        if self.ring.wire_time.denominator != 1:
            raise ValidationError("slot wire time must be an integral nanosecond count")
        n = self.ring.num_slots
        for pos in self.ownership or ():
            if not 0 <= pos < n:
                raise ValidationError(f"ownership position {pos} outside ring of {n}")
        flow_ids = set()
        for f in self.flows:
            if f.flow_id in flow_ids:
                raise ValidationError(f"two flows with flow_id {f.flow_id}")
            flow_ids.add(f.flow_id)
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
    gate_misses: int
    be_payload_bytes: int
    be_frames: int
    duration: int
    line_rate: float

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


def _build_ring(scenario: Scenario) -> DmaRing:
    ownership = scenario.ownership
    if ownership is None:
        classes = sorted({f.traffic_class for f in scenario.flows})
        classes += [load.traffic_class for load in scenario.be_loads]
        if classes:
            # Default layout: round-robin the sorted RT classes, then each
            # best-effort load's class, over the ring.
            ownership = {
                pos: classes[pos % len(classes)]
                for pos in range(scenario.ring.num_slots)
            }
        else:
            ownership = {}
    return DmaRing(scenario.ring, ownership=ownership)


def _due_packets(scenario: Scenario, clock: EphcClock, steps: int, n: int) -> list:
    """(due slot, scheduled time, hand-off, k, index, packet) in insertion order.

    A packet is handed off in the first slot starting at or after its
    hand-off time (slot 0 if that is at or before 0), and is due there unless
    a negative ``late_by`` hands it off before its release time: then it waits
    until that time, or until its counter enters the insertion window, whose
    top after slot ``s`` is ``s + 1 + N``. One sort puts the packets earliest
    deadline first within a slot, ties in hand-off order.
    """
    delta = int(clock.cycle_period)
    release_delta = scenario.release_delta
    due = []
    for f in scenario.flows:
        for k, sched in enumerate(islice(range(f.phase, scenario.duration, f.period),
                                         f.count)):
            handoff = max(0, sched - release_delta) + f.late_by.get(k, 0)
            at = -(-handoff // delta) if handoff > 0 else 0  # hand-off slot
            if at >= steps:
                continue  # handed off after the last slot
            if handoff < sched - release_delta:
                release = -(-(sched - release_delta) // delta)
                at = max(at, min(release, target_counter(clock, sched) - n))
            if at < steps:
                # The frame carries its per-flow instance number as its seq;
                # ties on (handoff, k) fall back to creation order.
                due.append((at, sched, handoff, k, len(due), OutboundPacket(
                    flow_id=f.flow_id, traffic_class=f.traffic_class,
                    payload_len=f.payload_len, scheduled_time=sched, seq=k)))
    due.sort()
    return due


def run(scenario: Scenario) -> SimResult:
    ring = _build_ring(scenario)
    delta = int(ring.config.wire_time)  # integral: Scenario checks it
    steps = scenario.duration // delta
    # The ring's clock: counter c goes on the wire at c * delta. Only
    # try_insert reads it, to map a scheduled time to its counter.
    clock = EphcClock(cycle_period=Fraction(delta))
    mode = scenario.mode
    report = ServiceReport()
    due = _due_packets(scenario, clock, steps, ring.config.num_slots)
    due.append((steps,))  # sentinel: never due
    due_idx = 0

    records: list[PacketRecord] = []
    be_payload = 0
    be_frames = 0
    gate_misses = 0
    # One packet per load, armed in every slot the load fills.
    be_packets = [
        OutboundPacket(flow_id=None, traffic_class=load.traffic_class,
                       payload_len=load.payload_len)
        for load in scenario.be_loads]
    propagation = scenario.propagation
    hops = [(bridge.step, bridge.forward_delay) for bridge in scenario.bridges]
    transmit_slot = ring.transmit_slot
    fill_placeholders = ring.fill_placeholders

    for step in range(steps):
        now = step * delta
        # The NIC transmits the frame at counter `step` during this slot.
        frame = transmit_slot()
        if frame is not None:
            # Only fill_placeholders arms a frame with no scheduled time.
            if frame.scheduled_time is None:
                be_payload += frame.payload_len
                be_frames += 1
            else:
                flow_id = frame.flow_id
                arrival = now + delta + propagation
                for step_hop, forward_delay in hops:
                    departure = step_hop(flow_id, arrival)
                    if departure != arrival + forward_delay:
                        gate_misses += 1  # held for its gate window
                    arrival = departure + propagation
                records.append(_new_record(PacketRecord, (
                    flow_id, frame.seq, frame.scheduled_time, now, arrival)))

        while due[due_idx][0] <= step:
            try:
                try_insert(ring, due[due_idx][5], clock, mode)
                report.inserted_rt += 1
            except InsertError as exc:
                report._count_drop(type(exc).__name__)
            due_idx += 1
        for pkt in be_packets:
            report.inserted_be += fill_placeholders(pkt)

    return SimResult(
        records=records,
        report=report,
        gate_misses=gate_misses,
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
    flows = sorted({r.flow_id for r in result.records})
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
            w.writerow([fid, len(delays), repr(mean), repr(stddev), repr(jit), ""])
        w.writerow(["__all__", len(result.records), "", "", "",
                    _format_drops(result.report.drop_causes)])
