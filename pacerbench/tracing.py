"""Per-layer tracing from outside the program.

``install`` replaces public functions and methods of the pacersim modules with
wrappers that record a span per call (name, start, end, parent) and a few
counts, and returns a function that puts the originals back. Each name is
wrapped where its caller looks it up: ``engine.service`` for the engine's call
into traffic, ``traffic.try_insert`` / ``insert_best_effort`` /
``target_counter`` for the traffic manager's calls into insertion, methods on
their classes (``EphcClock``, ``DmaRing``, ``Bridge``, ``BeQueue``).

Spans stay in memory in flat arrays and are summarised, and written out, when
the run ends. A span's self time is its duration minus the durations of its
child spans; a layer's self time is the sum over its span names.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

#: Span name -> the layer whose self time it counts towards.
SPAN_LAYER = {
    "engine.run": "engine",
    "engine.bridge_step": "engine",
    "traffic.service": "traffic",
    "traffic.be_enqueue": "traffic",
    "insertion.try_insert": "insertion",
    "insertion.insert_best_effort": "insertion",
    "insertion.target_counter": "insertion",
    "ring.nic_consume": "ring",
    "ring.poll_cycle": "ring",
    "clock.now_exact": "clock",
    "clock.tick": "clock",
    "clock.adjust_rate": "clock",
    "clock.adjust_offset": "clock",
    "ptp.run_sync_sim": "ptp",
    "ptp.ma_filter": "ptp",
    "scheduling.solve": "scheduling",
    "scheduling.validate": "scheduling",
}
LAYERS = ("engine", "traffic", "insertion", "ring", "clock", "ptp", "scheduling")


class Tracer:
    def __init__(self):
        self.names = list(SPAN_LAYER)
        self.start = array("d")
        self.end = array("d")
        self.name = array("B")
        self.parent = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.solve_ms: list[float] = []

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.name.append(name_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, after=None, on_error=None):
        """Wrap ``fn``; ``after(args, result)`` and ``on_error(exc)`` count."""
        name_id = self.names.index(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                close(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            close(idx)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- summary ---------------------------------------------------------------

    def self_times(self):
        """(per-name self seconds, per-name calls, top-level seconds)."""
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.uint8)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(name, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name, minlength=len(self.names))
        top = float(dur[~nested].sum())
        return (dict(zip(self.names, self_s.tolist())),
                dict(zip(self.names, calls.tolist())), top)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 name=np.frombuffer(self.name, dtype=np.uint8),
                 parent=np.frombuffer(self.parent, dtype=np.int64))


def install(mods, tracer: Tracer):
    """Wrap the layers' public entry points; returns the undo function."""
    undo = []
    counts = tracer.counts

    def patch(owner, attr, name, after=None, on_error=None):
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.span(name, original, after, on_error))

    # engine
    def after_run(args, res):
        scenario = args[0]
        counts["engine.runs"] += 1
        slots = scenario.duration // int(scenario.ring.wire_time)
        counts["engine.slots"] += slots
        counts["engine.gate_misses"] += res.gate_misses
        counts["engine.rt_dropped"] += res.report.dropped
        counts["engine.rt_offered"] += res.report.dropped + res.report.inserted_rt
        counts["ring.valid"] += len(res.records) + res.be_frames

    patch(mods.engine, "run", "engine.run", after_run)
    patch(mods.engine.Bridge, "step", "engine.bridge_step")

    # traffic: the depth and progress of each service call are read around it
    service = tracer.span("traffic.service", mods.engine.service)

    def service_counted(rt, be, ring, clock, policy, mode, report=None):
        counts["traffic.rt_depth_sum"] += len(rt)
        before = (report.inserted_rt + report.inserted_be) if report else 0
        out = service(rt, be, ring, clock, policy, mode, report=report)
        if out.inserted_rt + out.inserted_be == before:
            counts["traffic.idle_calls"] += 1
        return out

    undo.append((mods.engine, "service", mods.engine.service))
    mods.engine.service = service_counted

    def after_enqueue(args, ok):
        counts["traffic.be_enqueues"] += 1

    patch(mods.traffic.BeQueue, "enqueue", "traffic.be_enqueue", after_enqueue)

    # insertion
    insert_error = mods.errors.InsertError
    no_slot = mods.errors.NoSlotAvailable

    def rt_error(exc):
        if isinstance(exc, insert_error):
            counts["insertion.rt_rejects"] += 1

    def be_error(exc):
        if isinstance(exc, no_slot):
            counts["insertion.be_misses"] += 1

    patch(mods.traffic, "try_insert", "insertion.try_insert", on_error=rt_error)
    patch(mods.traffic, "insert_best_effort", "insertion.insert_best_effort",
          on_error=be_error)
    patch(mods.traffic, "target_counter", "insertion.target_counter")
    patch(mods.insertion, "target_counter", "insertion.target_counter")

    # ring
    def after_poll(args, report):
        counts["ring.reclaimed"] += len(report.reclaimed)

    patch(mods.ring.DmaRing, "nic_consume", "ring.nic_consume")
    patch(mods.ring.DmaRing, "poll_cycle", "ring.poll_cycle", after_poll)

    # clock
    clock_cls = mods.clock.EphcClock
    for method in ("now_exact", "tick", "adjust_rate", "adjust_offset"):
        patch(clock_cls, method, f"clock.{method}")

    # ptp
    def after_sync(args, trace):
        bound = mods.ptp.delta_ts(args[1])
        counts["ptp.runs"] += 1
        counts["ptp.rounds"] += len(trace.offset_error)
        counts["ptp.converged"] += trace.convergence_round is not None
        counts["ptp.within_bound"] += sum(1 for e in trace.offset_error
                                          if abs(e) <= bound)

    patch(mods.ptp, "run_sync_sim", "ptp.run_sync_sim", after_sync)
    patch(mods.ptp, "ma_filter", "ptp.ma_filter")

    # scheduling
    def after_solve(args, res):
        counts[f"scheduling.{res.status.value}"] += 1
        tracer.solve_ms.append(res.elapsed * 1000)

    patch(mods.scheduling, "solve", "scheduling.solve", after_solve)
    patch(mods.scheduling, "validate", "scheduling.validate")

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, untraced_wall_s: float,
                  parse_s: float) -> dict:
    """Every per-layer metric, as name -> (value, unit)."""
    self_s, calls, top = tracer.self_times()
    c = tracer.counts
    solve_ms = sorted(tracer.solve_ms)
    consumed = calls["ring.nic_consume"]
    be_calls = calls["insertion.insert_best_effort"]
    service_calls = calls["traffic.service"]
    m = {
        "ring.consume_calls": (consumed, "count"),
        "ring.consume_s": (self_s["ring.nic_consume"], "s"),
        "ring.poll_calls": (calls["ring.poll_cycle"], "count"),
        "ring.poll_s": (self_s["ring.poll_cycle"], "s"),
        "ring.reclaimed": (c["ring.reclaimed"], "count"),
        "ring.valid_frac": (_frac(c["ring.valid"], c["engine.slots"]), "ratio"),
        "insertion.rt_calls": (calls["insertion.try_insert"], "count"),
        "insertion.rt_s": (self_s["insertion.try_insert"], "s"),
        "insertion.rt_rejects": (c["insertion.rt_rejects"], "count"),
        "insertion.be_calls": (be_calls, "count"),
        "insertion.be_s": (self_s["insertion.insert_best_effort"], "s"),
        "insertion.be_hit_frac": (_frac(be_calls - c["insertion.be_misses"], be_calls),
                                  "ratio"),
        "insertion.target_counter_calls": (calls["insertion.target_counter"], "count"),
        "insertion.target_counter_s": (self_s["insertion.target_counter"], "s"),
        "traffic.service_calls": (service_calls, "count"),
        "traffic.service_self_s": (self_s["traffic.service"], "s"),
        "traffic.idle_service_frac": (_frac(c["traffic.idle_calls"], service_calls),
                                      "ratio"),
        "traffic.rt_depth_mean": (_frac(c["traffic.rt_depth_sum"], service_calls),
                                  "packets"),
        "traffic.be_enqueues": (c["traffic.be_enqueues"], "count"),
        "clock.now_exact_calls": (calls["clock.now_exact"], "count"),
        "clock.now_exact_s": (self_s["clock.now_exact"], "s"),
        "clock.tick_calls": (calls["clock.tick"], "count"),
        "clock.adjust_rate_calls": (calls["clock.adjust_rate"], "count"),
        "clock.adjust_rate_s": (self_s["clock.adjust_rate"], "s"),
        "ptp.runs": (c["ptp.runs"], "count"),
        "ptp.rounds": (c["ptp.rounds"], "count"),
        "ptp.run_self_s": (self_s["ptp.run_sync_sim"], "s"),
        "ptp.ma_filter_s": (self_s["ptp.ma_filter"], "s"),
        "ptp.converged_frac": (_frac(c["ptp.converged"], c["ptp.runs"]), "ratio"),
        "ptp.within_bound_frac": (_frac(c["ptp.within_bound"], c["ptp.rounds"]),
                                  "ratio"),
        "scheduling.solve_calls": (calls["scheduling.solve"], "count"),
        "scheduling.solve_s": (self_s["scheduling.solve"], "s"),
        "scheduling.solve_p90_ms": (
            statistics.quantiles(solve_ms, n=10, method="inclusive")[8]
            if len(solve_ms) >= 2 else float(sum(solve_ms)), "ms"),
        "scheduling.feasible": (c["scheduling.feasible"], "count"),
        "scheduling.infeasible": (c["scheduling.infeasible"], "count"),
        "scheduling.timeout": (c["scheduling.timeout"], "count"),
        "scheduling.validate_s": (self_s["scheduling.validate"], "s"),
        "engine.runs": (c["engine.runs"], "count"),
        "engine.slots": (c["engine.slots"], "count"),
        "engine.run_self_s": (self_s["engine.run"], "s"),
        "engine.bridge_calls": (calls["engine.bridge_step"], "count"),
        "engine.bridge_s": (self_s["engine.bridge_step"], "s"),
        "engine.gate_misses": (c["engine.gate_misses"], "count"),
        "engine.rt_drop_frac": (_frac(c["engine.rt_dropped"], c["engine.rt_offered"]),
                                "ratio"),
        "config.parse_s": (parse_s, "s"),
    }
    for layer in LAYERS:
        total = sum(s for n, s in self_s.items() if SPAN_LAYER[n] == layer)
        m[f"{layer}.self_s"] = (total, "s")
    m["bench.self_s"] = (wall_s - top, "s")
    m["trace.wall_s"] = (wall_s, "s")
    m["trace.overhead"] = (_frac(wall_s, untraced_wall_s), "ratio")
    return m
