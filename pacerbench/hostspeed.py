"""Host-speed gauge: a fixed piece of pure-Python work timed between jobs.

On a shared host the CPU time of the same work drifts by 30% or more within
a minute (other tenants on the sibling hardware thread, frequency changes),
so parts of a run, or whole runs, are fast or slow. ``reference_loop`` does
work of the kinds the program does — exact-rational arithmetic with scalar
numpy draws, attribute scans over small objects, heap pushes of fresh
objects — and never touches the program, so a change to the program cannot
change its time. A run samples it every half second; each job's CPU time is
divided by the local sample median as a multiple of REF_NOMINAL_S.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from time import process_time
from types import SimpleNamespace

import numpy as np

#: Median CPU time of ``reference_loop`` on the 2-vCPU host the benchmark was
#: tuned on; corrected metrics are in CPU seconds of that host.
REF_NOMINAL_S = 0.012

_SLOTS = [SimpleNamespace(state=i % 3, owner=i % 5) for i in range(64)]


def reference_loop() -> float:
    """CPU seconds this call took."""
    t0 = process_time()
    rng = np.random.default_rng(12345)
    period = Fraction(1_000_001, 1_000_000)
    offset = Fraction(0)
    acc = []
    for i in range(300):
        offset += period * i - Fraction(i, 3)
        acc.append(float(offset) + rng.uniform(-1.0, 1.0))
        period = Fraction(round(period * (1 << 40)), 1 << 40)
    hits = 0
    for _ in range(300):
        for s in _SLOTS:
            if s.state == 1 and s.owner != 2:
                hits += 1
    heap: list = []
    for i in range(3000):
        heapq.heappush(heap, (i * 7919 % 1000, i, SimpleNamespace(seq=i)))
        if len(heap) > 50:
            heapq.heappop(heap)
    return process_time() - t0
