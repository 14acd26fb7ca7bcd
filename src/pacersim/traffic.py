"""Pre-buffering queues between applications and the ring.

Real-time packets wait in a min-heap keyed by scheduled time and are handed
to insertion in earliest-deadline-first order once their slot enters the
insertion window (or an early-release lead time has elapsed). Best-effort
packets wait in a FIFO and fill whatever placeholder slots their class owns.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .clock import EphcClock
from .errors import InsertError
from .insertion import InsertMode, OutboundPacket, insert_best_effort, target_counter, try_insert
from .ring import DmaRing

DEFAULT_CAPACITY = 4096
#: Early-release lead time before scheduled_time, ns.
DEFAULT_RELEASE_DELTA = 50_000


@dataclass
class ServicePolicy:
    release_delta: int = DEFAULT_RELEASE_DELTA

    def __post_init__(self):
        if self.release_delta < 0:
            raise ValueError("release_delta must be >= 0")


class RtQueue:
    """Min-heap of scheduled packets; root holds the earliest scheduled time."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._heap: list = []
        self._seq = 0
        self.dropped_full = 0

    def __len__(self):
        return len(self._heap)

    def enqueue(self, pkt: OutboundPacket) -> bool:
        """False (and a counted drop) when the queue is at capacity."""
        if pkt.scheduled_time is None:
            raise ValueError("real-time packets need a scheduled_time")
        if len(self._heap) >= self.capacity:
            self.dropped_full += 1
            return False
        heapq.heappush(self._heap, (pkt.scheduled_time, self._seq, pkt))
        self._seq += 1
        return True

    def peek(self) -> OutboundPacket:
        return self._heap[0][2]

    def pop(self) -> OutboundPacket:
        return heapq.heappop(self._heap)[2]


class BeQueue:
    """FIFO of best-effort packets; dequeue order equals enqueue order."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._q: deque = deque()
        self.dropped_full = 0

    def __len__(self):
        return len(self._q)

    def enqueue(self, pkt: OutboundPacket) -> bool:
        if len(self._q) >= self.capacity:
            self.dropped_full += 1
            return False
        self._q.append(pkt)
        return True

    def peek(self) -> OutboundPacket:
        return self._q[0]

    def pop(self) -> OutboundPacket:
        return self._q.popleft()


@dataclass
class ServiceReport:
    inserted_rt: int = 0
    inserted_be: int = 0
    dropped: int = 0
    drop_causes: dict = field(default_factory=dict)

    def _count_drop(self, cause: str):
        self.dropped += 1
        self.drop_causes[cause] = self.drop_causes.get(cause, 0) + 1


def service(
    rt: RtQueue,
    be: BeQueue,
    ring: DmaRing,
    clock: EphcClock,
    policy: ServicePolicy,
    mode: InsertMode,
    report: Optional[ServiceReport] = None,
) -> ServiceReport:
    """Release due packets from both queues into the ring.

    RT packets are popped in EDF order while the root's slot is inside the
    insertion window or its early-release time has arrived; late packets are
    dropped (strict) or retargeted (relaxed) and counted. BE packets then
    fill the available placeholders of their class until none remain.
    """
    if report is None:
        report = ServiceReport()
    now = clock.now_exact() if len(rt) else None
    while len(rt):
        pkt = rt.peek()
        # The time test first: when it holds, the counter is computed once
        # per packet, in try_insert.
        due = (now >= pkt.scheduled_time - policy.release_delta
               or target_counter(clock, pkt.scheduled_time) < ring.insertion_window()[1])
        if not due:
            break
        rt.pop()
        try:
            try_insert(ring, pkt, clock, mode)
            report.inserted_rt += 1
        except InsertError as exc:
            report._count_drop(type(exc).__name__)
    while len(be):
        pkt = be.peek()
        if ring.first_placeholder(pkt.traffic_class) is None:
            break
        insert_best_effort(ring, pkt)
        be.pop()
        report.inserted_be += 1
    return report
