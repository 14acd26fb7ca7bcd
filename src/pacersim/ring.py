"""DMA ring state machine and the continuous-pacing poll cycle.

The ring keeps a simulated NIC transmitting fixed-size slots back to back.
Slots that carry no application payload hold placeholder frames with a
deliberately invalid CRC; the receiving NIC drops those in hardware, so the
wire stays busy while the host only pays for real packets.

Counters are free-running: the physical slot of counter ``c`` is ``c % N``.
Positions reported by :meth:`DmaRing.nic_consume` are 0-based counter values.

:meth:`DmaRing.nic_consume` and :meth:`DmaRing.poll_cycle` are the decoupled
NIC and driver halves; :meth:`DmaRing.transmit_slot` is one slot time of the
two coupled (consume one, then poll) and returns the frame sent, and
:meth:`DmaRing.fill_placeholders` arms one best-effort packet in every
placeholder its class owns, in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import InvalidConfig, PayloadTooLarge, RingUnderrun

if TYPE_CHECKING:
    from .insertion import OutboundPacket

#: Traffic-class id reserved for best-effort traffic. Ring slots not claimed
#: by a real-time application default to this class.
BEST_EFFORT = 0

MIN_SLOT_SIZE = 64
MAX_SLOT_SIZE = 1518


class SlotState(Enum):
    PLACEHOLDER = "placeholder"
    ARMED = "armed"
    IN_FLIGHT = "in_flight"


@dataclass
class RingConfig:
    num_slots: int
    slot_size: int
    batch_size: int
    polling_period: int = 0  # ns between poll cycles
    polling_overhead: int = 0  # ns of processing per poll cycle
    line_rate: int = 1_000_000_000  # bits per second
    wire_overhead: int = 0  # preamble + interframe gap, bytes

    def __post_init__(self):
        if self.num_slots < 1:
            raise InvalidConfig("num_slots must be >= 1")
        if not 1 <= self.batch_size <= self.num_slots:
            raise InvalidConfig("batch_size must satisfy 1 <= batch_size <= num_slots")
        if not MIN_SLOT_SIZE <= self.slot_size <= MAX_SLOT_SIZE:
            raise InvalidConfig(
                f"slot_size must be in [{MIN_SLOT_SIZE}, {MAX_SLOT_SIZE}]"
            )
        if self.line_rate <= 0:
            raise InvalidConfig("line_rate must be > 0")
        if self.polling_period < 0 or self.polling_overhead < 0:
            raise InvalidConfig("polling times must be >= 0")
        if self.wire_overhead < 0:
            raise InvalidConfig("wire_overhead must be >= 0")

    @property
    def wire_time(self) -> Fraction:
        """Time one slot occupies the wire, in ns (exact)."""
        return Fraction((self.slot_size + self.wire_overhead) * 8 * 10**9, self.line_rate)


@dataclass(slots=True)
class Descriptor:
    state: SlotState = SlotState.PLACEHOLDER
    owner_class: int = BEST_EFFORT
    frame: Optional[OutboundPacket] = None  # the armed packet; None = placeholder


class TransmittedRecord(NamedTuple):
    position: int  # free-running counter of the consumed slot
    payload_len: int
    crc_valid: bool
    flow_id: Optional[str]
    owner_class: int
    scheduled_time: Optional[int]
    seq: int


#: Builds a record from a field tuple without the keyword-handling __new__.
_new_record = tuple.__new__


class ReclaimReport(NamedTuple):
    reclaimed: tuple  # counter positions reset to placeholder
    producer_index: int


class DmaRing:
    """Fixed-size descriptor ring with free-running producer/consumer counters.

    Single-writer: all mutation happens from one logical thread (the event
    engine); instances may be handed between threads but never shared mutably.

    Placeholder lookup keeps one scan cursor per traffic class. Only counters
    in ``[lo, _reclaim_cursor + N)`` of the insertion window ``[lo, hi)`` can
    hold a placeholder: their slot's previous lap (``c - N``) has already been
    reclaimed, whereas a counter at or above ``_reclaim_cursor + N`` shares its
    slot with counter ``c - N``, which is consumed (``c - N`` is below the
    consumer) but not yet reclaimed, hence ``IN_FLIGHT``. Only
    :meth:`poll_cycle` turns a slot back into a placeholder, and reclaiming
    counter ``c`` frees counter ``c + N``, which is at or above the old bound
    ``_reclaim_cursor + N``. So a placeholder never appears below a scan that
    has already passed it, and a class's scan can resume where its previous
    scan stopped: each counter is examined at most twice per class (once more
    when it was the hit), which makes a lookup amortized O(1).
    """

    def __init__(self, config: RingConfig, ownership: Optional[dict] = None):
        self.config = config
        n = config.num_slots
        ownership = ownership or {}
        for pos in ownership:
            if not 0 <= pos < n:
                raise InvalidConfig(f"ownership position {pos} outside ring of {n}")
        self.descriptors = [Descriptor(SlotState.PLACEHOLDER, ownership.get(pos, BEST_EFFORT))
                            for pos in range(n)]
        self.consumer_index = 0
        self.producer_index = config.batch_size
        self._reclaim_cursor = 0  # counters below this have been reclaimed
        self._scan_cursor: dict[int, int] = {}  # class -> counter to resume at

    # -- helpers -----------------------------------------------------------

    def slot_of(self, counter: int) -> int:
        return counter % self.config.num_slots

    def descriptor_at(self, counter: int) -> Descriptor:
        return self.descriptors[counter % self.config.num_slots]

    def owner_of(self, counter: int) -> int:
        return self.descriptor_at(counter).owner_class

    # -- operations --------------------------------------------------------

    def nic_consume(self, k: int) -> list[TransmittedRecord]:
        """Advance the NIC's consumer index by ``k`` completed transmissions.

        A placeholder's record reads the full slot size, an invalid CRC and
        no flow, schedule or seq; an armed slot's record copies its frame.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        first = self.consumer_index
        if first + k > self.producer_index:
            raise RingUnderrun(
                f"consume of {k} would pass producer "
                f"({first} + {k} > {self.producer_index})"
            )
        descriptors = self.descriptors
        n = self.config.num_slots
        slot_size = self.config.slot_size
        in_flight = SlotState.IN_FLIGHT
        records = []
        for c in range(first, first + k):
            d = descriptors[c % n]
            f = d.frame
            if f is None:
                fields = (c, slot_size, False, None, d.owner_class, None, 0)
            else:
                fields = (c, f.payload_len, True, f.flow_id, d.owner_class,
                          f.scheduled_time, f.seq)
            records.append(_new_record(TransmittedRecord, fields))
            d.state = in_flight
        self.consumer_index = first + k
        return records

    def poll_cycle(self) -> ReclaimReport:
        """Reclaim completed descriptors and advance the producer by one batch.

        Idempotent when nothing was consumed since the last poll. The producer
        advance clamps at the full-ring bound so producer - consumer <= N.
        """
        first, end = self._reclaim_cursor, self.consumer_index
        config = self.config
        n = config.num_slots
        if end > first:
            descriptors = self.descriptors
            placeholder = SlotState.PLACEHOLDER
            for c in range(first, end):
                d = descriptors[c % n]
                d.state = placeholder
                d.frame = None
            self._reclaim_cursor = end
        self.producer_index = min(
            self.producer_index + config.batch_size, end + n
        )
        return _new_record(ReclaimReport, (tuple(range(first, end)), self.producer_index))

    def insertion_window(self) -> tuple[int, int]:
        """Half-open counter interval [lo, hi) accepting immediate insertion."""
        lo = self.consumer_index + self.config.batch_size
        hi = self.consumer_index + self.config.num_slots
        return lo, hi

    def _scan_range(self, traffic_class: int) -> tuple[int, int]:
        # [start, end) of the class's placeholder scan: from its cursor
        # (clamped to lo) up to _reclaim_cursor + N <= hi, past which every
        # counter is still IN_FLIGHT (see the class docstring). A scan that
        # reaches end leaves the class's cursor there.
        lo = self.consumer_index + self.config.batch_size
        bound = self._reclaim_cursor + self.config.num_slots
        # Comparisons, not max(): this runs every slot of a best-effort load.
        start = self._scan_cursor.get(traffic_class, lo)
        if start < lo:
            start = lo
        return start, (bound if bound > start else start)

    def first_placeholder(self, traffic_class: int) -> Optional[int]:
        """Earliest in-window counter holding a placeholder the class owns.

        Returns None when the window holds none. The scan resumes from the
        class's cursor and stops at ``_reclaim_cursor + N`` (see the class
        docstring for why that skips no placeholder). The cursor stays on a
        hit, so a caller that does not arm it finds it again next time.
        """
        start, end = self._scan_range(traffic_class)
        n = self.config.num_slots
        descriptors = self.descriptors
        placeholder = SlotState.PLACEHOLDER
        for c in range(start, end):
            d = descriptors[c % n]
            if d.state is placeholder and d.owner_class == traffic_class:
                self._scan_cursor[traffic_class] = c
                return c
        self._scan_cursor[traffic_class] = end
        return None

    def fill_placeholders(self, pkt: OutboundPacket) -> int:
        """Arm the best-effort packet ``pkt`` in every in-window placeholder
        its class owns; returns how many were armed.

        Equals ``insertion.insert_best_effort(ring, pkt)`` until no
        placeholder is left, but makes one pass. Raises ValueError for a
        packet with a ``scheduled_time``, and PayloadTooLarge (arming
        nothing more) on the first placeholder found when the payload
        exceeds the slot size.
        """
        if pkt.scheduled_time is not None:
            raise ValueError("best-effort packets carry no scheduled_time")
        traffic_class = pkt.traffic_class
        start, end = self._scan_range(traffic_class)
        config = self.config
        n = config.num_slots
        descriptors = self.descriptors
        placeholder = SlotState.PLACEHOLDER
        armed = SlotState.ARMED
        filled = 0
        for c in range(start, end):
            d = descriptors[c % n]
            if d.state is placeholder and d.owner_class == traffic_class:
                if pkt.payload_len > config.slot_size:
                    self._scan_cursor[traffic_class] = c
                    raise PayloadTooLarge(
                        f"payload {pkt.payload_len} exceeds slot size {config.slot_size}"
                    )
                d.state = armed
                d.frame = pkt  # padded to slot_size on the wire
                filled += 1
        self._scan_cursor[traffic_class] = end
        return filled

    def transmit_slot(self) -> Optional[OutboundPacket]:
        """One slot time of the coupled NIC and driver.

        Equals ``nic_consume(1)`` followed by ``poll_cycle()``: the same
        counters, descriptors and RingUnderrun, and a lagging reclaim (left
        by an earlier ``nic_consume`` without a poll) reclaims the whole
        range up to the consumer. Returns the packet armed at the consumer,
        or None for a placeholder; builds no record and no ReclaimReport.
        """
        c = self.consumer_index
        if c >= self.producer_index:
            raise RingUnderrun(
                f"consume of 1 would pass producer ({c} + 1 > {self.producer_index})"
            )
        config = self.config
        n = config.num_slots
        descriptors = self.descriptors
        d = descriptors[c % n]
        frame = d.frame
        end = c + 1
        if self._reclaim_cursor == c:  # the usual case: reclaim just c
            d.state = SlotState.PLACEHOLDER
            d.frame = None
        else:  # an earlier nic_consume was not polled
            placeholder = SlotState.PLACEHOLDER
            for r in range(self._reclaim_cursor, end):
                d = descriptors[r % n]
                d.state = placeholder
                d.frame = None
        self.consumer_index = self._reclaim_cursor = end
        producer = self.producer_index + config.batch_size
        self.producer_index = producer if producer < end + n else end + n  # min()
        return frame


def relative_throughput(config: RingConfig) -> float:
    """Predicted fraction of line rate the pacing loop sustains.

    The loop keeps pace when a batch of slots lasts at least one polling
    period plus its processing overhead; otherwise throughput degrades to
    the fraction of wire time the loop manages to feed.
    """
    batch_time = config.batch_size * config.wire_time
    budget = max(batch_time, Fraction(config.polling_period + config.polling_overhead))
    if budget == 0:
        return 1.0
    return float(min(Fraction(1), batch_time / budget))
