"""The benchmark's three workloads: seeded inputs, one job, and its checks.

Each workload turns a seed into a pool of inputs, parses them through the
program's own parsers (config texts are written as JSON, which is YAML flow
style), and runs one job per input. A job is split into
``run`` (the program's work, which is timed) and ``check`` (the output checks
and the record that enters the result digest, which are not timed).

All program calls go through the module objects in ``mods`` (``mods.engine``,
``mods.scheduling`` ...) and are looked up at call time, so the wrappers that
``tracing`` installs on those modules see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import process_time

import json


@dataclass
class JobResult:
    """What a job did and what the benchmark checks about it."""

    steps: int = 0  # simulated ring slots (engine) or sync rounds (ptp)
    sim_s: float = 0.0  # CPU seconds inside engine.run / ptp.run_sync_sim
    raw: object = None  # the program's result, handed to ``check``
    near_timeout: float = 0.0  # solve seconds, when within 2x of the timeout


@dataclass
class Checked:
    record: tuple  # simulated results; enters the digest
    problems: list = field(default_factory=list)  # failed output checks


def sub_seed(seed: int, index: int) -> int:
    """Seed of input ``index``, the same derivation scheduling.sub_seed uses."""
    return seed * 1_000_003 + index


# -- be_saturated -----------------------------------------------------------
#
# 64 B slots at 1 Gb/s (512 ns each) and a best-effort queue that never runs
# dry, so every slot the best-effort class owns carries a frame and each
# insert scans the window. Ring sizes are stratified: every block of five
# consecutive inputs holds each size once, so a run's size mix does not
# depend on the seed.

BE_SIZES = (64, 128, 256, 512, 1024)
BE_SLOT_SIZE = 64
BE_DELTA = 512  # ns per 64 B slot at 1 Gb/s
#: Real-time ownership repeats every BE_PATTERN slots and each job simulates
#: a whole number of patterns, so the best-effort share of the simulated
#: slots equals its share of the ring exactly.
BE_PATTERN = 64
BE_JOB_SLOTS = 6 * BE_PATTERN
BE_RELEASE_DELTA = 32 * BE_DELTA


def _first_at_or_after(slot: int, period: int, t: int, delta: int) -> int:
    """Earliest time >= t of a slot that recurs every ``period`` slots."""
    while slot * delta < t:
        slot += period
    return slot * delta


def be_texts(mods, seed: int, count: int) -> list[str]:
    rng = random.Random(sub_seed(seed, 0))
    texts = []
    while len(texts) < count:
        sizes = list(BE_SIZES)
        rng.shuffle(sizes)
        for n in sizes:
            k = rng.randint(1, 3)  # real-time flows, one class each
            offsets = rng.sample(range(BE_PATTERN), k)
            ownership = {
                off + BE_PATTERN * i: cls
                for cls, off in enumerate(offsets, 1)
                for i in range(n // BE_PATTERN)
            }
            flows = [
                {
                    "flow_id": cls,
                    "traffic_class": cls,
                    "period": BE_PATTERN * BE_DELTA,
                    # Epoch rule: the first instance is at or after the
                    # release lead, so every hand-off gets its full lead.
                    "phase": _first_at_or_after(off, BE_PATTERN, BE_RELEASE_DELTA,
                                                BE_DELTA),
                    "payload_len": rng.randint(46, BE_SLOT_SIZE),
                }
                for cls, off in enumerate(offsets, 1)
            ]
            doc = {
                "kind": "scenario",
                "ring": {"num_slots": n, "slot_size": BE_SLOT_SIZE, "batch_size": 1},
                "duration": BE_JOB_SLOTS * BE_DELTA,
                "mode": "strict",
                "release_delta": BE_RELEASE_DELTA,
                "ownership": ownership,
                "flows": flows,
                "be_loads": [{"traffic_class": 0,
                              "payload_len": rng.choice((46, BE_SLOT_SIZE))}],
            }
            texts.append(json.dumps(doc))
    return texts[:count]


def be_parse(mods, text):
    kind, scenario = mods.config.parse_config(text)
    if kind != "scenario":
        raise ValueError(f"expected a scenario, got {kind!r}")
    return scenario


def be_run(mods, scenario) -> JobResult:
    t0 = process_time()
    res = mods.engine.run(scenario)
    sim_s = process_time() - t0
    return JobResult(steps=scenario.duration // BE_DELTA, sim_s=sim_s, raw=res)


def be_check(mods, scenario, res) -> Checked:
    problems = []
    ring = scenario.ring
    share = 1 - len(scenario.ownership) / ring.num_slots
    payload = scenario.be_loads[0].payload_len
    expect = share * ring.line_rate * payload / ring.slot_size
    if abs(res.be_goodput - expect) > 0.01 * expect:
        problems.append(f"best-effort goodput {res.be_goodput:.0f} b/s not within "
                        f"1% of {expect:.0f} b/s")
    if res.report.dropped:
        problems.append(f"{res.report.dropped} real-time drops")
    for f in scenario.flows:
        want = len(range(f.phase, scenario.duration, f.period))
        got = len(res.flow_records(f.flow_id))
        if got != want:
            problems.append(f"flow {f.flow_id}: {got} of {want} instances sent")
    late = [r for r in res.records if r.send_time != r.scheduled_time]
    if late:
        problems.append(f"{len(late)} real-time frames off their scheduled time")
    record = (
        ring.num_slots, res.be_frames, res.be_payload_bytes,
        res.report.inserted_rt, res.report.inserted_be,
        tuple((r.flow_id, r.seq, r.send_time, r.recv_time) for r in res.records),
    )
    return Checked(record, problems)


# -- tsn_deploy ---------------------------------------------------------------
#
# Solve, validate and deploy a slot-partition schedule, then simulate it over
# a 4-bridge gated chain. 80 us slots (1000 B at 100 Mb/s) on an 8-slot ring
# with one to three flows per instance: across the utilization band the
# feasible share falls from about 0.94 to about 0.54. A flow has at most 20
# phases (1.6 ms / 80 us), so a search, early-exit or exhaustive, visits at
# most 20**3 phase combinations and ends in milliseconds: every verdict is
# reached far inside the fixed timeout (the slowest of 18000 sampled solves
# took 12 ms against a 10 s timeout), so the set of TIMEOUT instances is
# empty whatever the host's speed.

TSN_SLOTS = 8
TSN_DELTA = 80_000
TSN_SLOT_SIZE = 1000
TSN_LINE_RATE = 100_000_000
TSN_UTILIZATIONS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
TSN_MAX_FLOWS = 3
TSN_TIMEOUT_S = 10.0  # the CLI's default
TSN_RELEASE_DELTA = 4 * TSN_DELTA
#: Simulated time after the epoch: 288 slots, a whole number of horizons for
#: every instance this generator draws (horizons are 8, 16, 24 or 72 slots).
TSN_SPAN = 288 * TSN_DELTA
TSN_BRIDGES = 4
TSN_FORWARD_DELAY = 2_000
TSN_PROPAGATION = 500


def tsn_instances(mods, seed: int, count: int) -> list:
    sched = mods.scheduling
    out = []
    for i in range(count):
        params = sched.GeneratorParams(
            utilization=TSN_UTILIZATIONS[i % len(TSN_UTILIZATIONS)], seed=seed,
            num_slots=TSN_SLOTS, delta=TSN_DELTA, min_flows=1,
            max_flows=TSN_MAX_FLOWS,
        )
        out.append(sched.generate_instance(params, random.Random(sub_seed(seed, i))))
    return out


def tsn_parse(mods, instance):
    """Round-trip an instance through its text form; the parse is checked."""
    parsed = mods.scheduling.parse_instance_text(
        mods.scheduling.instance_to_text(instance))
    if parsed != instance:
        raise ValueError("instance text round trip changed the instance")
    return parsed


def tsn_run(mods, instance) -> JobResult:
    sched, eng = mods.scheduling, mods.engine
    solved = sched.solve(instance, timeout=TSN_TIMEOUT_S)
    near = solved.elapsed if solved.elapsed >= TSN_TIMEOUT_S / 2 else 0.0
    status = solved.status.value
    if status != "feasible":
        return JobResult(raw=(status, None, None, None), near_timeout=near)
    violations = sched.validate(instance, solved.solution)

    # Epoch rule: map the schedule at the first horizon multiple at or after
    # release_delta, so every packet gets its full release lead and the first
    # batch+1 slots, committed as placeholders before any hand-off, stay out
    # of the schedule.
    horizon = instance.horizon
    if TSN_SPAN % horizon:
        raise ValueError(f"horizon {horizon} ns does not divide the simulated span")
    epoch = -(-TSN_RELEASE_DELTA // horizon) * horizon
    schedule = solved.solution.schedule
    flows = [
        eng.FlowDef(flow_id=f.flow_id, traffic_class=f.app_id, period=f.period,
                    phase=epoch + schedule[(f.app_id, f.flow_id, 0)],
                    payload_len=f.packet_size, count=TSN_SPAN // f.period)
        for f in instance.flows
    ]
    ownership = {slot: app for app, slots in solved.solution.partitions.items()
                 for slot in slots}
    bridges = []
    for h in range(TSN_BRIDGES):
        lead = instance.delta + (h + 1) * TSN_PROPAGATION + h * TSN_FORWARD_DELAY
        gates = {f.flow_id: eng.GateWindow(offset=(f.phase + lead) % f.period,
                                           width=instance.delta, cycle=f.period)
                 for f in flows}
        bridges.append(eng.Bridge(f"bridge{h}", forward_delay=TSN_FORWARD_DELAY,
                                  gates=gates))
    scenario = eng.Scenario(
        ring=mods.ring.RingConfig(num_slots=instance.num_slots,
                                  slot_size=TSN_SLOT_SIZE, batch_size=1,
                                  line_rate=TSN_LINE_RATE),
        duration=epoch + TSN_SPAN, flows=flows, bridges=bridges,
        propagation=TSN_PROPAGATION, release_delta=TSN_RELEASE_DELTA,
        ownership=ownership,
    )
    t0 = process_time()
    res = eng.run(scenario)
    sim_s = process_time() - t0
    return JobResult(steps=scenario.duration // TSN_DELTA, sim_s=sim_s,
                     raw=(status, solved.solution, violations, (scenario, res)),
                     near_timeout=near)


def tsn_check(mods, instance, raw) -> Checked:
    status, solution, violations, deployed = raw
    if status == "timeout":
        return Checked((status,), ["solver TIMEOUT"])
    if status == "infeasible":
        return Checked((status,))
    problems = []
    if violations:
        problems.append(f"validate reported {len(violations)} violations")
    scenario, res = deployed
    if res.report.dropped:
        problems.append(f"{res.report.dropped} drops")
    if res.gate_misses:
        problems.append(f"{res.gate_misses} gate misses")
    expected_delay = (instance.delta + (TSN_BRIDGES + 1) * TSN_PROPAGATION
                      + TSN_BRIDGES * TSN_FORWARD_DELAY)
    for f in scenario.flows:
        recs = res.flow_records(f.flow_id)
        if len(recs) != f.count:
            problems.append(f"flow {f.flow_id}: {len(recs)} of {f.count} delivered")
        if any(r.send_time != r.scheduled_time for r in recs):
            problems.append(f"flow {f.flow_id}: sent off its scheduled time")
        if any(r.recv_time - r.send_time != expected_delay for r in recs):
            problems.append(f"flow {f.flow_id}: delay not constant (PDV > 0)")
    record = (
        status,
        tuple(sorted((app, tuple(sorted(s))) for app, s in solution.partitions.items())),
        tuple(sorted(solution.schedule.items())),
        tuple((r.flow_id, r.seq, r.send_time, r.recv_time) for r in res.records),
    )
    return Checked(record, problems)


# -- ptp_sync -----------------------------------------------------------------
#
# Closed-loop sync studies. Filtered and unfiltered runs of six (error model,
# sync interval) pairs cycle in a fixed order, so a run's mix does not depend
# on the seed; the seed draws each study's RNG seed, initial frequency offset
# and network delay. Each model is paired with intervals where the servo is in
# its analytic regime (see README.md for the pairs left out and why).

SW = {"g_master": 2400, "g_slave": 2400, "j_master_in": 1000,
      "j_master_out": 1000, "j_slave_in": 1000, "j_slave_out": 1000}
HW = {"g_master": 8, "g_slave": 8, "j_master_in": 4, "j_master_out": 4,
      "j_slave_in": 4, "j_slave_out": 4}
HW_MASTER = {"g_master": 8, "g_slave": 2400, "j_master_in": 4, "j_master_out": 4,
             "j_slave_in": 1000, "j_slave_out": 1000}
#: (timestamp error model, sync interval ns): software timestamps on both
#: ends, hardware on both, hardware master with a software slave.
PTP_STUDIES = (
    (SW, 100_000_000), (SW, 1_000_000_000),
    (HW, 10_000_000), (HW, 100_000_000),
    (HW_MASTER, 100_000_000), (HW_MASTER, 1_000_000_000),
)
PTP_ROUNDS = 1000


def ptp_texts(mods, seed: int, count: int) -> list[tuple[str, bool]]:
    out = []
    for i in range(count):
        rng = random.Random(sub_seed(seed, i))
        model, interval = PTP_STUDIES[(i // 2) % len(PTP_STUDIES)]
        doc = {
            "kind": "ptp",
            "sync_interval": interval,
            "network_delay": rng.randrange(1_000, 50_001),
            "initial_freq_offset_ppm": round(rng.uniform(-1.0, 1.0), 3),
            "filter_window": 10,
            "rounds": PTP_ROUNDS,
            "rng_seed": rng.randrange(2**32),
            "error_model": model,
        }
        out.append((json.dumps(doc), i % 2 == 1))
    return out


def ptp_parse(mods, item):
    text, filtered = item
    kind, (config, model) = mods.config.parse_config(text)
    if kind != "ptp":
        raise ValueError(f"expected a ptp study, got {kind!r}")
    return config, model, filtered


def ptp_run(mods, study) -> JobResult:
    config, model, filtered = study
    t0 = process_time()
    trace = mods.ptp.run_sync_sim(config, model, filtered)
    sim_s = process_time() - t0
    return JobResult(steps=len(trace.offset_error), sim_s=sim_s, raw=trace)


def ptp_check(mods, study, trace) -> Checked:
    config, model, filtered = study
    problems = []
    bound = mods.ptp.delta_ts(model)
    over = sum(1 for e in trace.offset_error if abs(e) > bound)
    if over:
        problems.append(f"{over} rounds with |offset error| > delta_ts = {bound}")
    if filtered:
        conv = trace.convergence_round
        if conv is None:
            problems.append("filtered run never converged")
        else:
            drift_bound = 2 * mods.ptp.delta_drift(config.sync_interval, 1.0, model)
            worst = max((abs(d) for d in trace.drift_error[conv + 1:]), default=0.0)
            if worst > drift_bound:
                problems.append(f"post-convergence |drift| {worst} > {drift_bound}")
    record = (filtered, trace.convergence_round, tuple(trace.offset_error),
              tuple(trace.drift_error), tuple(trace.freq_ratio))
    return Checked(record, problems)


# -- registry -------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps_name: str  # the end-to-end name of steps per second, for the report
    pool: int  # inputs made per seed; a run cycles through them in order
    block: int  # jobs per throughput sample: whole cycles of the input mix
    inputs: object  # (mods, seed, count) -> raw seeded inputs
    parse: object  # (mods, raw input) -> parsed input
    run: object  # (mods, input) -> JobResult
    check: object  # (mods, input, JobResult.raw) -> Checked


WORKLOADS = {
    w.name: w
    for w in (
        Workload("be_saturated",
                 "Every slot carries a frame, so best-effort insertion, ring "
                 "reclaim and queue churn do the work; scheduling and ptp do none.",
                 "sim_slots_per_s", 100, 5, be_texts, be_parse, be_run, be_check),
        Workload("tsn_deploy",
                 "The ring is mostly placeholders, so per-slot engine, clock and "
                 "target_counter overhead dominates, best-effort insertion is "
                 "bypassed, and the solver runs both early-exit and exhaustive "
                 "searches.",
                 "sim_slots_per_s", 4000, 40, tsn_instances, tsn_parse, tsn_run,
                 tsn_check),
        Workload("ptp_sync",
                 "EphcClock rate and offset exact-rational arithmetic and per-round "
                 "scalar RNG draws do the work; ring, engine and scheduling do none.",
                 "sync_rounds_per_s", 120, 12, ptp_texts, ptp_parse, ptp_run, ptp_check),
    )
}
