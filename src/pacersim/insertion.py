"""Scheduled packet insertion into the paced ring.

Maps a desired transmission time to a ring slot and arms the descriptor
after three validation checks: the target must still hold a placeholder,
must lie in the immediate insertion window, and must belong to the packet's
traffic class. Strict mode drops on any failure; relaxed mode falls back to
the earliest usable slot in the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .clock import EphcClock, as_ratio
from .errors import (
    NoSlotAvailable,
    NotPlaceholder,
    OutOfWindow,
    OwnershipViolation,
    PayloadTooLarge,
)
from .ring import Descriptor, DmaRing, SlotState


@dataclass
class OutboundPacket:
    flow_id: str
    traffic_class: int
    payload_len: int
    scheduled_time: Optional[int] = None  # EPHC ns; None for best-effort
    seq: int = 0

    def __post_init__(self):
        if self.payload_len < 1:
            raise ValueError("payload_len must be >= 1")


class InsertMode(Enum):
    STRICT = "strict"
    RELAXED = "relaxed"


def target_counter(clock: EphcClock, scheduled_time) -> int:
    """Free-running counter whose transmission starts at ``scheduled_time``.

    Counter c's slot goes on the wire at c * cycle_period + offset on the
    clock that the ring's transmissions drive, so the counter is recovered
    from the time by inverting the clock's linear model. Using the absolute
    counter (rather than only the mod-N slot) lets late packets be detected
    instead of silently slipping a full ring revolution.
    """
    p, o, den = clock._p, clock._o, clock._den
    # t >= (c * p + o) / den  <=>  c <= (t * den - o) / p, with t = a / b.
    if type(scheduled_time) is int:
        rel = scheduled_time * den - o
        return rel // p if rel >= 0 else -1
    a, b = as_ratio(scheduled_time)
    rel = a * den - o * b
    return rel // (p * b) if rel >= 0 else -1


def _arm(d: Descriptor, pkt: OutboundPacket) -> None:
    d.state = SlotState.ARMED
    d.frame = pkt  # padded to slot_size on the wire


def _arm_first(ring: DmaRing, pkt: OutboundPacket) -> int:
    # Arm the earliest placeholder of the packet's class in the window
    # [lo, hi). The ring resumes from the class's scan cursor and stops at
    # _reclaim_cursor + N: counters above that bound are still IN_FLIGHT, and
    # reclaim only frees counters at or above the previous bound, so no
    # placeholder lies below the cursor (see DmaRing). The result equals a
    # full scan of [lo, hi).
    c = ring.first_placeholder(pkt.traffic_class)
    if c is None:
        raise NoSlotAvailable(f"no placeholder owned by class {pkt.traffic_class} in window")
    _arm(ring.descriptor_at(c), pkt)
    return c


def try_insert(
    ring: DmaRing, pkt: OutboundPacket, clock: EphcClock, mode: InsertMode
) -> int:
    """Arm the slot matching the packet's scheduled time; returns the counter.

    Raises NotPlaceholder / OutOfWindow / OwnershipViolation in strict mode;
    relaxed mode retargets inside the window and raises NoSlotAvailable only
    when the window holds no usable slot for the packet's class.
    """
    if pkt.scheduled_time is None:
        raise ValueError("try_insert requires a scheduled_time")
    if pkt.payload_len > ring.config.slot_size:
        raise PayloadTooLarge(
            f"payload {pkt.payload_len} exceeds slot size {ring.config.slot_size}"
        )
    c = target_counter(clock, pkt.scheduled_time)
    lo, hi = ring.insertion_window()
    if not lo <= c < hi:
        err = OutOfWindow(f"target counter {c} outside insertion window [{lo}, {hi})")
    else:
        d = ring.descriptor_at(c)
        if d.state is not SlotState.PLACEHOLDER:
            err = NotPlaceholder(f"slot {ring.slot_of(c)} is not a placeholder")
        elif d.owner_class != pkt.traffic_class:
            err = OwnershipViolation(
                f"slot {ring.slot_of(c)} owned by class {d.owner_class}, "
                f"packet is class {pkt.traffic_class}"
            )
        else:
            _arm(d, pkt)
            return c
    if mode is InsertMode.STRICT:
        raise err
    return _arm_first(ring, pkt)


def insert_best_effort(ring: DmaRing, pkt: OutboundPacket) -> int:
    """Arm the earliest in-window placeholder owned by the packet's class."""
    if pkt.scheduled_time is not None:
        raise ValueError("best-effort packets carry no scheduled_time")
    if pkt.payload_len > ring.config.slot_size:
        raise PayloadTooLarge(
            f"payload {pkt.payload_len} exceeds slot size {ring.config.slot_size}"
        )
    return _arm_first(ring, pkt)
