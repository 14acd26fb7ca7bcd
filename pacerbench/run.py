"""Closed-loop benchmark of pacersim: one workload, one seed, one process.

    python3 pacerbench/run.py --workload tsn_deploy --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``. One
client runs jobs back to back, each starting when the previous one has
finished, for ``--seconds`` seconds of wall time (and at least MIN_JOBS jobs).
With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run; the last line of standard output is one
JSON object. The exit code is 1 when an output check fails and 2 when the
program cannot be imported. See README.md in this directory.
"""

import os
import time

PROCESS_T0 = time.perf_counter()

# Pin the numeric libraries to one thread before anything imports them: the
# benchmark is a single client in a single process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

from hostspeed import REF_NOMINAL_S, reference_loop  # noqa: E402
from tracing import LAYERS, Tracer, install, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

#: Jobs every run completes, so that at least ten lie beyond p90. The result
#: digest covers these jobs, which every run executes whatever the host speed.
MIN_JOBS = 100
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
#: Wall seconds between host-speed samples in the timed phase.
GAUGE_EVERY_S = 0.5
LAYER_MODULES = ("errors", "clock", "ring", "insertion", "traffic", "ptp",
                 "scheduling", "engine", "config")
SPAWN_EVENTS = {"os.fork", "os.forkpty", "os.posix_spawn", "os.spawn", "os.system",
                "os.exec", "subprocess.Popen"}
_spawned: list = []


def _audit(event, args):
    if event in SPAWN_EVENTS:
        _spawned.append(event)


def fresh_import():
    """Import the program anew from src/ and return its modules by layer."""
    for name in [m for m in sys.modules if m == "pacersim" or m.startswith("pacersim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("pacersim")
    if Path(pkg.__file__).resolve().parent != SRC / "pacersim":
        raise ImportError(f"pacersim imported from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"pacersim.{m}") for m in LAYER_MODULES})


def set_up(workload, seed):
    """Import, generate the seeded inputs and parse them: one set-up."""
    t0 = process_time()
    mods = fresh_import()
    raw = workload.inputs(mods, seed, workload.pool)
    t_parse = process_time()
    inputs = [workload.parse(mods, item) for item in raw]
    t1 = process_time()
    return mods, inputs, t1 - t0, t1 - t_parse


def run_jobs(workload, mods, inputs, stop):
    """Closed loop: job j runs input j mod pool; ``stop(j, wall)`` ends it."""
    latencies, steps, sim_s, problems, near_timeout = [], [], [], [], []
    records = []  # first MIN_JOBS check records, for the digest
    first_seen = {}  # pool index -> record hash, to check repeats
    gauge, near_gauge = [], []  # host-speed samples; each job's latest one
    t_start = next_gauge = perf_counter()
    j = 0
    while not stop(j, perf_counter() - t_start):
        if perf_counter() >= next_gauge:
            gauge.append(reference_loop())
            next_gauge = perf_counter() + GAUGE_EVERY_S
        near_gauge.append(len(gauge) - 1)
        inp = inputs[j % len(inputs)]
        t0 = process_time()
        try:
            res = workload.run(mods, inp)
        except Exception as exc:  # a job that raises is a failed job
            latencies.append(process_time() - t0)
            steps.append(0)
            sim_s.append(0.0)
            problems.append((j, f"raised {type(exc).__name__}: {exc}"))
            j += 1
            continue
        latencies.append(process_time() - t0)
        steps.append(res.steps)
        sim_s.append(res.sim_s)
        if res.near_timeout:
            near_timeout.append((j, res.near_timeout))
        checked = workload.check(mods, inp, res.raw)
        problems.extend((j, p) for p in checked.problems)
        h = hashlib.sha256(repr(checked.record).encode()).hexdigest()
        if first_seen.setdefault(j % len(inputs), h) != h:
            problems.append((j, "repeat of an input gave a different result"))
        if j < MIN_JOBS:
            records.append(h)
        j += 1
    wall = perf_counter() - t_start
    digest = hashlib.sha256("".join(records).encode()).hexdigest()
    # Each job's host speed: the median of the five samples around it, as a
    # multiple of the nominal reference time.
    local = [statistics.median(gauge[max(0, k - 2):k + 3]) / REF_NOMINAL_S
             for k in range(len(gauge))]
    return types.SimpleNamespace(latencies=latencies, problems=problems, steps=steps,
                                 sim_s=sim_s, wall=wall, digest=digest,
                                 near_timeout=near_timeout, jobs=j,
                                 speed=[local[k] for k in near_gauge])


def block_rate(num, den, size):
    """Median over consecutive whole blocks of ``size`` jobs of sum(num)/sum(den)."""
    rates = []
    for i in range(0, len(den) - size + 1, size):
        d = sum(den[i:i + size])
        if d > 0:
            rates.append(sum(num[i:i + size]) / d)
    return statistics.median(rates)


def single_process_problems():
    out = [f"spawned via {e}" for e in sorted(set(_spawned))]
    if threading.active_count() != 1:
        out.append(f"{threading.active_count()} threads running")
    children = Path(f"/proc/self/task/{threading.get_native_id()}/children")
    if children.exists() and children.read_text().split():
        out.append("child processes running")
    return out


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    sys.addaudithook(_audit)

    setup_times, parse_times = [], []
    for _ in range(SETUP_REPEATS):
        mods = inputs = None  # each set-up starts from the same heap
        gc.collect()
        try:
            mods, inputs, total, parse = set_up(workload, args.seed)
        except ImportError as exc:
            print(f"cannot import the program: {exc}", file=sys.stderr)
            return 2
        setup_times.append(total)
        parse_times.append(parse)
    setup_s = statistics.median(setup_times)
    parse_s = statistics.median(parse_times)
    setup_first_s = perf_counter() - PROCESS_T0

    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"why: {workload.why}")
    if args.trace:
        metrics, run = traced(workload, mods, inputs, args, parse_s)
    else:
        run = run_jobs(workload, mods, inputs,
                       lambda j, wall: j >= MIN_JOBS and wall >= args.seconds)
        metrics = end_to_end(workload, run, setup_s, setup_first_s)

    problems = [f"job {args.seed}:{j}: {p}" for j, p in run.problems]
    problems += single_process_problems()
    failed = len({j for j, _ in run.problems})
    print(f"attempted {run.jobs} failed {failed} "
          f"failed_frac {failed / run.jobs:.6g} ratio")
    print(f"digest sha256:{run.digest} (first {min(run.jobs, MIN_JOBS)} jobs)")
    for j, s in run.near_timeout:
        print(f"near timeout: job {args.seed}:{j} solved in {s:.3f} s")
    for p in problems:
        print(f"FAILED {p}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": run.jobs, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def timed_metrics(workload, latencies, sim_s, steps, setup_s) -> dict:
    lat_ms = sorted(x * 1000 for x in latencies)
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (block_rate([1] * len(latencies), latencies, workload.block), "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "sim_steps_per_s": (block_rate(steps, sim_s, workload.block), "steps/s"),
    }


def end_to_end(workload, run, setup_s, setup_first_s) -> dict:
    """End-to-end metrics from CPU times corrected for host speed."""
    speed = run.speed
    raw = timed_metrics(workload, run.latencies, run.sim_s, run.steps, setup_s)
    m = timed_metrics(workload, [t / f for t, f in zip(run.latencies, speed)],
                      [t / f for t, f in zip(run.sim_s, speed)], run.steps,
                      setup_s / speed[0])
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    p90 = m["job_p90_ms"][0]
    beyond = sum(1 for t, f in zip(run.latencies, speed) if t / f * 1000 > p90)
    print(f"host speed: reference loop at {min(speed):.4f} to {max(speed):.4f} x nominal "
          f"(median {statistics.median(speed):.4f}); CPU times are divided by it, "
          f"figures as measured in brackets")
    for key, (value, unit) in m.items():
        name = key
        if key == "sim_steps_per_s":
            name, unit = workload.steps_name, f"{workload.steps_name.split('_')[1]}/s"
        note = f" [{raw[key][0]:.6f}]" if key in raw else ""
        if key == "setup_s":
            note += (f" (median of {SETUP_REPEATS} set-ups; process start to first "
                     f"timed job {setup_first_s:.6f} s wall)")
        if key == "job_p90_ms":
            note += f" ({run.jobs} jobs, {beyond} beyond p90)"
        print(f"{name} {value:.6f} {unit}{note}")
    return m


def traced(workload, mods, inputs, args, parse_s):
    """Run jobs untraced, then the same jobs traced; per-layer metrics."""
    calibrate = max(args.seconds / 5, 1.0)
    plain = run_jobs(workload, mods, inputs,
                     lambda j, wall: wall >= calibrate and j >= 10)
    tracer = Tracer()
    uninstall = install(mods, tracer)
    try:
        run = run_jobs(workload, mods, inputs,
                       lambda j, wall: j >= plain.jobs)
    finally:
        uninstall()
    if run.digest != plain.digest:
        run.problems.append((0, "traced results differ from untraced results"))
    metrics = layer_metrics(tracer, run.wall, plain.wall, parse_s)
    tracer.write(TRACE_DIR / f"{workload.name}.npz")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    layers = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    print(f"layer self times {layers:.6f} s + bench self {metrics['bench.self_s'][0]:.6f} s"
          f" = traced wall {run.wall:.6f} s over {run.jobs} jobs "
          f"(overhead {metrics['trace.overhead'][0]:.3f}x)")
    return metrics, run


if __name__ == "__main__":
    sys.exit(main())
