"""Command line front end.

Exit codes: 0 on success, 1 when a run reports a negative result
(infeasible schedule, solver timeout) or stops on a simulator error (a
diverged sync servo, for one), 2 on bad input.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from . import engine, scheduling
from .config import load_config
from .errors import PacersimError, ParseError, ValidationError
from .ptp import run_sync_sim


def _fail_usage(exc) -> "NoReturn":
    click.echo(f"error: {exc}", err=True)  # a ParseError names its location
    sys.exit(2)


@click.group()
def main():
    """Deterministic packet pacing simulator."""


@main.command()
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Directory for metrics.csv / summary.csv.")
@click.option("--duration", type=int, default=None,
              help="Override the scenario duration, ns.")
@click.option("--format", "fmt", type=click.Choice(["csv"]), default="csv",
              show_default=True)
def simulate(config_path, out_dir, duration, fmt):
    """Run a network scenario and write per-packet and per-flow CSVs."""
    import dataclasses

    try:
        kind, scenario = load_config(config_path)
        if kind != "scenario":
            raise ValidationError(f"expected a scenario config, got kind {kind!r}")
        if duration is not None:
            scenario = dataclasses.replace(scenario, duration=duration)
    except (ParseError, ValidationError) as exc:
        _fail_usage(exc)
    try:
        result = engine.run(scenario)
    except PacersimError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    engine.write_metrics_csv(result, out / "metrics.csv")
    engine.write_summary_csv(result, out / "summary.csv")
    click.echo(f"packets={len(result.records)} dropped={result.report.dropped} "
               f"gate_misses={result.gate_misses} "
               f"misses_by_bridge={','.join(map(str, result.misses_by_bridge))} "
               f"be_goodput_bps={result.be_goodput:.0f}")


@main.command("ptp-study")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out-dir", type=click.Path(file_okay=False), default=".",
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=None,
              help="Override the config seed.")
@click.option("--unfiltered", is_flag=True,
              help="Disable the moving-average frequency filter.")
def ptp_study(config_path, out_dir, seed, unfiltered):
    """Run a clock synchronization study and write a per-round trace CSV."""
    try:
        kind, parsed = load_config(config_path)
        if kind != "ptp":
            raise ValidationError(f"expected a ptp config, got kind {kind!r}")
    except (ParseError, ValidationError) as exc:
        _fail_usage(exc)
    cfg, model = parsed
    if seed is not None:
        cfg.rng_seed = seed
    try:
        trace = run_sync_sim(cfg, model, filtered=not unfiltered)
    except PacersimError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace.write_csv(out / "ptp_trace.csv")
    worst = max(abs(e) for e in trace.offset_error)
    click.echo(f"rounds={len(trace.offset_error)} "
               f"worst_offset_error_ns={worst:.1f} "
               f"convergence_round={trace.convergence_round}")


@main.command()
@click.argument("instance_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--timeout", type=float, default=10.0, show_default=True,
              help="Solver timeout, seconds.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the solution text here instead of stdout.")
def schedule(instance_path, timeout, out):
    """Solve one slot-partition scheduling instance."""
    try:
        instance = scheduling.parse_instance_text(Path(instance_path).read_text())
    except (ParseError, ValidationError) as exc:
        _fail_usage(exc)
    result = scheduling.solve(instance, timeout=timeout)
    click.echo(f"status={result.status.value} elapsed={result.elapsed:.3f}s")
    if result.status is not scheduling.SolveStatus.FEASIBLE:
        sys.exit(1)
    text = scheduling.solution_to_text(instance, result.solution)
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command("sweep-schedulability")
@click.argument("config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the sweep CSV here instead of stdout.")
@click.option("--jobs", type=int, default=None, help="Override parallel workers.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
def sweep_schedulability(config_path, out, jobs, seed):
    """Measure the feasible fraction across a utilization sweep."""
    try:
        kind, cfg = load_config(config_path)
        if kind != "sweep":
            raise ValidationError(f"expected a sweep config, got kind {kind!r}")
    except (ParseError, ValidationError) as exc:
        _fail_usage(exc)
    if jobs is not None:
        cfg.jobs = jobs
    if seed is not None:
        cfg.seed = seed
    try:  # each generated instance checks the ring geometry
        points = scheduling.sweep_schedulability(
            cfg.utilizations,
            instances_per_point=cfg.instances_per_point,
            seed=cfg.seed,
            timeout=cfg.timeout,
            jobs=cfg.jobs,
            num_slots=cfg.num_slots,
            delta=cfg.delta,
        )
    except ValidationError as exc:
        _fail_usage(exc)
    lines = ["utilization,feasible,infeasible,timeout,fraction"]
    for p in points:
        lines.append(f"{p.utilization},{p.feasible},{p.infeasible},"
                     f"{p.timeout},{p.fraction:.6f}")
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
