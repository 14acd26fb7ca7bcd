"""Slot-partition scheduling for periodic flows sharing a paced ring.

Each application owns a disjoint set of ring slots (its partition) and every
flow instance must transmit from its application's partition, keep its
pairwise spacing within the flow's jitter budget, and never collide in time
with other instances of the same application. Each flow's release phase is a
free variable in [0, period); instances are anchored at phase + l * period,
which satisfies the pairwise-spacing constraint exactly.

The solver is a deterministic backtracking search over flow phases with slot
ownership propagation; partitions fall out as the slots each application's
flows actually use.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .errors import Overflow, ParseError, ValidationError

MAX_TIME_NS = 2**63 - 1


@dataclass(frozen=True)
class FlowSpec:
    app_id: int
    flow_id: int
    period: int  # ns, multiple of the slot duration
    max_jitter: int  # ns
    packet_size: int = 64

    def __post_init__(self):
        if self.period <= 0:
            raise ValidationError("flow period must be > 0")
        if self.max_jitter < 0:
            raise ValidationError("flow max_jitter must be >= 0")


@dataclass
class ProblemInstance:
    flows: list[FlowSpec]
    num_slots: int
    delta: int  # slot duration, ns
    horizon: Optional[int] = None  # defaults to lcm(hyperperiod, N * delta)

    def __post_init__(self):
        if self.num_slots < 1:
            raise ValidationError("num_slots must be >= 1")
        if self.delta <= 0:
            raise ValidationError("delta must be > 0")
        for f in self.flows:
            if f.period % self.delta != 0:
                raise ValidationError(
                    f"flow ({f.app_id},{f.flow_id}) period {f.period} is not a "
                    f"multiple of delta {self.delta}"
                )
        ring_cycle = self.num_slots * self.delta
        if self.horizon is None:
            h = hyperperiod(self.flows) if self.flows else ring_cycle
            self.horizon = math.lcm(h, ring_cycle)
        else:
            if self.horizon <= 0:
                raise ValidationError(f"horizon must be > 0, got {self.horizon}")
            if self.horizon % ring_cycle != 0:
                raise ValidationError("horizon must be a multiple of N * delta")
            for f in self.flows:
                if self.horizon % f.period != 0:
                    raise ValidationError(
                        "horizon must be a multiple of every flow period"
                    )


@dataclass
class Solution:
    partitions: dict  # app_id -> frozenset of slot positions
    schedule: dict  # (app_id, flow_id, instance) -> transmission time ns


class Violation(Enum):
    PARTITION_OVERLAP = "partition_overlap"
    SLOT_OUTSIDE_PARTITION = "slot_outside_partition"
    JITTER_EXCEEDED = "jitter_exceeded"
    SAME_APP_TIME_COLLISION = "same_app_time_collision"
    CROSS_APP_SLOT_CONFLICT = "cross_app_slot_conflict"
    BAD_INSTANCE_COUNT = "bad_instance_count"
    TIME_NOT_SLOT_ALIGNED = "time_not_slot_aligned"


def hyperperiod(flows) -> int:
    """Least common multiple of all flow periods."""
    if not flows:
        raise ValueError("hyperperiod of an empty flow set is undefined")
    h = math.lcm(*(f.period for f in flows))
    if h > MAX_TIME_NS:
        raise Overflow(f"hyperperiod {h} exceeds the time range")
    return h


def utilization(instance: ProblemInstance) -> float:
    """Fraction of ring slots claimed per ring cycle."""
    return float(sum(Fraction(instance.delta, f.period) for f in instance.flows))


def validate(instance: ProblemInstance, solution: Solution) -> list[tuple]:
    """All constraint violations of a candidate solution (empty iff valid)."""
    out = []
    n, delta = instance.num_slots, instance.delta

    apps = sorted(solution.partitions)
    for i, a in enumerate(apps):
        for b in apps[i + 1:]:
            overlap = set(solution.partitions[a]) & set(solution.partitions[b])
            if overlap:
                out.append((Violation.PARTITION_OVERLAP, (a, b, tuple(sorted(overlap)))))

    by_flow: dict = {}
    for (app, flow, inst), t in solution.schedule.items():
        by_flow.setdefault((app, flow), {})[inst] = t

    for f in instance.flows:
        times = by_flow.get((f.app_id, f.flow_id), {})
        expected = instance.horizon // f.period
        if len(times) != expected:
            out.append(
                (Violation.BAD_INSTANCE_COUNT, (f.app_id, f.flow_id, len(times), expected))
            )
        part = solution.partitions.get(f.app_id, frozenset())
        for inst, t in sorted(times.items()):
            if t % delta != 0:
                out.append((Violation.TIME_NOT_SLOT_ALIGNED, (f.app_id, f.flow_id, inst, t)))
            slot = (t // delta) % n
            if slot not in part:
                out.append(
                    (Violation.SLOT_OUTSIDE_PARTITION, (f.app_id, f.flow_id, inst, slot))
                )
        items = sorted(times.items())
        for x in range(len(items)):
            for y in range(x + 1, len(items)):
                a, ta = items[x]
                b, tb = items[y]
                if abs(abs(ta - tb) - abs(a - b) * f.period) > f.max_jitter:
                    out.append(
                        (Violation.JITTER_EXCEEDED, (f.app_id, f.flow_id, a, b, ta, tb))
                    )

    by_app_times: dict = {}
    slot_user: dict = {}
    for (app, flow, inst), t in sorted(solution.schedule.items()):
        seen = by_app_times.setdefault(app, {})
        if t in seen:
            out.append((Violation.SAME_APP_TIME_COLLISION, (app, seen[t], (flow, inst), t)))
        else:
            seen[t] = (flow, inst)
        slot = (t // delta) % n
        prior = slot_user.get((t, slot))
        if prior is not None and prior != app:
            out.append((Violation.CROSS_APP_SLOT_CONFLICT, (prior, app, t)))
        slot_user[(t, slot)] = app
    return out


class SolveStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    TIMEOUT = "timeout"


@dataclass
class SolveResult:
    status: SolveStatus
    solution: Optional[Solution] = None
    elapsed: float = 0.0


class _Timeout(Exception):
    pass


def solve(instance: ProblemInstance, timeout: float = 10.0) -> SolveResult:
    """Deterministic complete search for a partition set and schedule.

    Flows are assigned in order of descending per-slot demand (ascending
    period), phases tried in ascending order. INFEASIBLE is only reported
    after the search space is exhausted.
    """
    start = time.monotonic()
    deadline = start + timeout
    n, delta = instance.num_slots, instance.delta
    horizon = instance.horizon

    flows = sorted(instance.flows, key=lambda f: (f.period, f.app_id, f.flow_id))
    # Precompute per-flow instance times/slots as functions of the phase index.
    specs = []
    for f in flows:
        q = f.period // delta  # slots per period
        m = horizon // f.period  # instances in the horizon
        specs.append((f, q, m))

    slot_owner: dict[int, int] = {}
    app_times: dict[int, set] = {}
    assignment: list[int] = []  # phase index per flow, in `flows` order

    def feasible_at(idx: int, phase_idx: int):
        f, q, m = specs[idx]
        app = f.app_id
        times = [(phase_idx + l * q) * delta for l in range(m)]
        slots = {(phase_idx + l * q) % n for l in range(m)}
        for s in slots:
            owner = slot_owner.get(s)
            if owner is not None and owner != app:
                return None
        used = app_times.get(app)
        if used and any(t in used for t in times):
            return None
        return times, slots

    def place(idx: int) -> bool:
        if time.monotonic() > deadline:
            raise _Timeout
        if idx == len(specs):
            return True
        f, q, m = specs[idx]
        for phase_idx in range(f.period // delta):
            fit = feasible_at(idx, phase_idx)
            if fit is None:
                continue
            times, slots = fit
            newly = [s for s in slots if s not in slot_owner]
            for s in newly:
                slot_owner[s] = f.app_id
            used = app_times.setdefault(f.app_id, set())
            used.update(times)
            assignment.append(phase_idx)
            if place(idx + 1):
                return True
            assignment.pop()
            used.difference_update(times)
            for s in newly:
                del slot_owner[s]
        return False

    try:
        ok = place(0)
    except _Timeout:
        return SolveResult(SolveStatus.TIMEOUT, elapsed=time.monotonic() - start)

    if not ok:
        return SolveResult(SolveStatus.INFEASIBLE, elapsed=time.monotonic() - start)

    partitions: dict = {}
    schedule: dict = {}
    for (f, q, m), phase_idx in zip(specs, assignment):
        slots = frozenset((phase_idx + l * q) % n for l in range(m))
        partitions[f.app_id] = partitions.get(f.app_id, frozenset()) | slots
        for l in range(m):
            schedule[(f.app_id, f.flow_id, l)] = (phase_idx + l * q) * delta
    sol = Solution(partitions, schedule)
    return SolveResult(SolveStatus.FEASIBLE, sol, time.monotonic() - start)


def enumerate_feasible(instance: ProblemInstance) -> Optional[Solution]:
    """Exhaustive oracle: try every combination of flow phases and accept the
    first whose derived solution validates clean. Only viable for tiny rings."""
    import itertools

    n, delta = instance.num_slots, instance.delta
    horizon = instance.horizon
    flows = list(instance.flows)
    phase_ranges = [range(f.period // delta) for f in flows]
    for combo in itertools.product(*phase_ranges):
        partitions: dict = {}
        schedule: dict = {}
        for f, phase_idx in zip(flows, combo):
            q = f.period // delta
            m = horizon // f.period
            slots = frozenset((phase_idx + l * q) % n for l in range(m))
            partitions[f.app_id] = partitions.get(f.app_id, frozenset()) | slots
            for l in range(m):
                schedule[(f.app_id, f.flow_id, l)] = (phase_idx + l * q) * delta
        sol = Solution(partitions, schedule)
        if not validate(instance, sol):
            return sol
    return None


# -- instance generation (schedulability studies) ---------------------------

#: Harmonic period menu, ns. Chains are built by repeated doubling/tripling
#: from the base so every drawn set has a bounded hyperperiod.
BASE_PERIOD_NS = 80_000
MAX_PERIOD_NS = 1_600_000


@dataclass
class GeneratorParams:
    utilization: float
    seed: int
    num_slots: int = 32
    delta: int = 10_000
    jitter_frac_lo: float = 0.05
    jitter_frac_hi: float = 0.20
    max_classes: int = 8
    min_flows: int = 2
    max_flows: int = 16


def _harmonic_chain(rng) -> list[int]:
    chain = [BASE_PERIOD_NS]
    while chain[-1] * 2 <= MAX_PERIOD_NS:
        step = 2 if rng.random() < 0.7 else 3
        nxt = chain[-1] * step
        if nxt > MAX_PERIOD_NS:
            break
        chain.append(nxt)
    return chain


def generate_instance(params: GeneratorParams, rng=None) -> ProblemInstance:
    """One random instance at (or just above) the target utilization.

    Deterministic per seed. Flows are appended until the utilization target
    is reached, so instances generated from the same seed at increasing
    targets are nested prefixes of one another.
    """
    import random

    rng = rng or random.Random(params.seed)
    chain = _harmonic_chain(rng)
    n_classes = rng.randint(1, params.max_classes)
    flows = []
    util = 0.0
    want_min = params.min_flows if params.utilization > 0 else 0
    while (util < params.utilization or len(flows) < want_min) \
            and len(flows) < params.max_flows:
        period = rng.choice(chain)
        app = rng.randint(1, n_classes)
        frac = rng.uniform(params.jitter_frac_lo, params.jitter_frac_hi)
        jitter = int(round(frac * period))
        flows.append(
            FlowSpec(app_id=app, flow_id=len(flows), period=period, max_jitter=jitter)
        )
        util += params.delta / period
    return ProblemInstance(flows=flows, num_slots=params.num_slots, delta=params.delta)


def sub_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def generate_instances(params: GeneratorParams, count: int) -> list[ProblemInstance]:
    """``count`` instances; instance i uses sub_seed(seed, i)."""
    import random

    return [
        generate_instance(params, random.Random(sub_seed(params.seed, i)))
        for i in range(count)
    ]


@dataclass
class SweepPoint:
    utilization: float
    feasible: int
    infeasible: int
    timeout: int

    @property
    def fraction(self) -> float:
        total = self.feasible + self.infeasible + self.timeout
        return self.feasible / total if total else 0.0


def _solve_one(args):
    inst, timeout = args
    return solve(inst, timeout=timeout).status


def sweep_schedulability(
    utilizations,
    instances_per_point: int = 64,
    seed: int = 0,
    timeout: float = 10.0,
    jobs: int = 1,
    num_slots: int = 32,
    delta: int = 10_000,
) -> list[SweepPoint]:
    """Feasibility fraction per utilization target.

    Instances at different utilizations share sub-seeds, so flow sets are
    nested across the sweep and the feasible fraction is non-increasing.
    ``jobs`` must be >= 1; at most as many worker processes start as this
    process may use CPUs, and one runs the sweep in-process.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(jobs, cpus)
    tasks = []
    for u in utilizations:
        params = GeneratorParams(utilization=u, seed=seed, num_slots=num_slots, delta=delta)
        for inst in generate_instances(params, instances_per_point):
            tasks.append((u, inst))

    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            statuses = list(pool.map(_solve_one, [(i, timeout) for _, i in tasks], chunksize=4))
    else:
        statuses = [_solve_one((i, timeout)) for _, i in tasks]

    points = {u: SweepPoint(u, 0, 0, 0) for u in utilizations}
    for (u, _), status in zip(tasks, statuses):
        p = points[u]
        if status is SolveStatus.FEASIBLE:
            p.feasible += 1
        elif status is SolveStatus.INFEASIBLE:
            p.infeasible += 1
        else:
            p.timeout += 1
    return [points[u] for u in utilizations]


# -- line-oriented text serialization ---------------------------------------


def instance_to_text(instance: ProblemInstance) -> str:
    lines = [f"ring {instance.num_slots} {instance.delta} {instance.horizon}"]
    for f in instance.flows:
        lines.append(
            f"flow {f.app_id} {f.period / 1000:g} {f.max_jitter / 1000:g} {f.packet_size}"
        )
    return "\n".join(lines) + "\n"


def parse_instance_text(text: str) -> ProblemInstance:
    num_slots = delta = horizon = None
    flows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "ring":
                num_slots, delta = int(parts[1]), int(parts[2])
                horizon = int(parts[3]) if len(parts) > 3 else None
            elif parts[0] == "flow":
                app = int(parts[1])
                period = int(round(float(parts[2]) * 1000))
                jitter = int(round(float(parts[3]) * 1000))
                size = int(parts[4]) if len(parts) > 4 else 64
                flows.append(
                    FlowSpec(app_id=app, flow_id=len(flows), period=period,
                             max_jitter=jitter, packet_size=size)
                )
            else:
                raise ParseError(f"unknown record {parts[0]!r}", line=lineno, column=1)
        except (IndexError, ValueError, OverflowError) as exc:
            raise ParseError(f"malformed {parts[0]!r} record: {exc}", line=lineno, column=1)
    if num_slots is None:
        raise ParseError("missing 'ring' record")
    return ProblemInstance(flows=flows, num_slots=num_slots, delta=delta, horizon=horizon)


def solution_to_text(instance: ProblemInstance, solution: Solution) -> str:
    lines = []
    for app in sorted(solution.partitions):
        slots = ",".join(str(s) for s in sorted(solution.partitions[app]))
        lines.append(f"partition {app} {slots}")
    for (app, flow, inst), t in sorted(solution.schedule.items()):
        lines.append(f"time {app} {flow} {inst} {t}")
    return "\n".join(lines) + "\n"


def parse_solution_text(text: str) -> Solution:
    partitions: dict = {}
    schedule: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "partition":
                partitions[int(parts[1])] = frozenset(
                    int(s) for s in parts[2].split(",") if s
                )
            elif parts[0] == "time":
                schedule[(int(parts[1]), int(parts[2]), int(parts[3]))] = int(parts[4])
            else:
                raise ParseError(f"unknown record {parts[0]!r}", line=lineno, column=1)
        except (IndexError, ValueError) as exc:
            raise ParseError(f"malformed record: {exc}", line=lineno, column=1)
    return Solution(partitions, schedule)
