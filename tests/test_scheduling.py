"""Partition scheduling: validation oracle, solver, generator, serialization."""

import concurrent.futures
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacersim import (
    FlowSpec,
    GeneratorParams,
    ProblemInstance,
    Solution,
    SolveStatus,
    enumerate_feasible,
    generate_instance,
    generate_instances,
    hyperperiod,
    solve,
    sweep_schedulability,
    utilization,
    validate,
)
from pacersim.errors import Overflow, ParseError, ValidationError
from pacersim.scheduling import (
    instance_to_text,
    parse_instance_text,
    parse_solution_text,
    solution_to_text,
)

US = 1000
MS = 1000_000


class TestHyperperiod:
    def test_microsecond_set(self):
        flows = [FlowSpec(1, i, p * US, 0) for i, p in enumerate([80, 160, 240])]
        assert hyperperiod(flows) == 480 * US

    def test_case_study_set(self):
        flows = [FlowSpec(1, i, p * MS, 0) for i, p in enumerate([4, 8, 16, 32])]
        assert hyperperiod(flows) == 32 * MS

    def test_overflow(self):
        primes = [10_000_019, 10_000_079, 10_000_103, 10_000_121, 10_000_139,
                  10_000_141, 10_000_169, 10_000_189]
        flows = [FlowSpec(1, i, p, 0) for i, p in enumerate(primes)]
        with pytest.raises(Overflow):
            hyperperiod(flows)


class TestUtilization:
    def test_half(self):
        inst = ProblemInstance([FlowSpec(1, 0, 20_000, 0)], num_slots=4, delta=10_000)
        assert utilization(inst) == 0.5

    def test_empty(self):
        inst = ProblemInstance([], num_slots=4, delta=10_000)
        assert utilization(inst) == 0.0

    def test_eight_flows(self):
        flows = [FlowSpec(1, i, 160 * US, 0) for i in range(8)]
        inst = ProblemInstance(flows, num_slots=32, delta=10 * US)
        assert utilization(inst) == 0.5


class TestValidate:
    def trivial(self):
        inst = ProblemInstance([FlowSpec(1, 0, 40_000, 0)], num_slots=4, delta=10_000)
        sol = Solution(partitions={1: frozenset({0})},
                       schedule={(1, 0, 0): 0})
        return inst, sol

    def test_trivially_valid(self):
        inst, sol = self.trivial()
        assert validate(inst, sol) == []

    def test_slot_outside_partition(self):
        inst, sol = self.trivial()
        sol.schedule[(1, 0, 0)] = 10_000  # slot 1, partition is {0}
        kinds = [v[0].value for v in validate(inst, sol)]
        assert "slot_outside_partition" in kinds

    def test_same_app_collision(self):
        inst = ProblemInstance(
            [FlowSpec(1, 0, 40_000, 0), FlowSpec(1, 1, 40_000, 0)],
            num_slots=4, delta=10_000)
        sol = Solution(partitions={1: frozenset({0})},
                       schedule={(1, 0, 0): 0, (1, 1, 0): 0})
        kinds = [v[0].value for v in validate(inst, sol)]
        assert "same_app_time_collision" in kinds

    def test_jitter_violation_detected(self):
        inst = ProblemInstance([FlowSpec(1, 0, 20_000, 0)], num_slots=4,
                               delta=10_000)
        sol = Solution(partitions={1: frozenset({0, 1, 2})},
                       schedule={(1, 0, 0): 0, (1, 0, 1): 10_000})
        kinds = [v[0].value for v in validate(inst, sol)]
        assert "jitter_exceeded" in kinds


class TestSolve:
    def test_single_flow_two_slots(self):
        inst = ProblemInstance([FlowSpec(1, 0, 20_000, 0)], num_slots=4,
                               delta=10_000)
        res = solve(inst)
        assert res.status is SolveStatus.FEASIBLE
        assert validate(inst, res.solution) == []
        assert res.solution.partitions[1] in (frozenset({0, 2}), frozenset({1, 3}))

    def test_overloaded_single_slot_infeasible(self):
        inst = ProblemInstance(
            [FlowSpec(1, 0, 10_000, 0), FlowSpec(1, 1, 10_000, 0)],
            num_slots=1, delta=10_000)
        assert solve(inst).status is SolveStatus.INFEASIBLE

    def test_low_utilization_regime_nearly_always_feasible(self):
        feasible = 0
        for seed in range(64):
            params = GeneratorParams(utilization=0.15, seed=seed, max_flows=4)
            inst = generate_instance(params)
            if solve(inst, timeout=10.0).status is SolveStatus.FEASIBLE:
                feasible += 1
        assert feasible >= 63  # >= 99% of 64 seeds

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_enumeration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        delta = 10_000
        flows = []
        for i in range(rng.randint(1, 3)):
            q = rng.choice([1, 2, 4])
            flows.append(FlowSpec(app_id=rng.randint(1, 2), flow_id=i,
                                  period=q * delta,
                                  max_jitter=rng.choice([0, delta // 2])))
        horizon = n * delta * rng.choice([1, 2, 4])
        for f in flows:
            if horizon % f.period:
                horizon = ProblemInstance(flows, num_slots=n, delta=delta).horizon
                break
        inst = ProblemInstance(flows, num_slots=n, delta=delta, horizon=horizon)
        got = solve(inst, timeout=30.0)
        oracle = enumerate_feasible(inst)
        assert (got.status is SolveStatus.FEASIBLE) == (oracle is not None)
        if got.solution is not None:
            assert validate(inst, got.solution) == []


class TestGenerator:
    def test_zero_utilization_empty(self):
        inst = generate_instance(GeneratorParams(utilization=0.0, seed=1))
        assert inst.flows == []

    def test_deterministic(self):
        a = generate_instance(GeneratorParams(utilization=0.3, seed=9))
        b = generate_instance(GeneratorParams(utilization=0.3, seed=9))
        assert a.flows == b.flows

    def test_nested_across_utilization(self):
        import random as _random

        from pacersim.scheduling import sub_seed

        for i in range(8):
            lo = generate_instance(GeneratorParams(utilization=0.1, seed=0),
                                   _random.Random(sub_seed(0, i)))
            hi = generate_instance(GeneratorParams(utilization=0.4, seed=0),
                                   _random.Random(sub_seed(0, i)))
            assert hi.flows[:len(lo.flows)] == lo.flows

    def test_parameter_ranges(self):
        for seed in range(20):
            inst = generate_instance(GeneratorParams(utilization=0.25, seed=seed))
            assert 2 <= len(inst.flows) <= 16
            for f in inst.flows:
                assert 80_000 <= f.period <= 1_600_000
                assert f.period % 10_000 == 0
                assert 0.05 * f.period <= f.max_jitter <= 0.20 * f.period + 1
                assert 1 <= f.app_id <= 8

    def test_count(self):
        insts = generate_instances(GeneratorParams(utilization=0.2, seed=4), 64)
        assert len(insts) == 64


class TestSweep:
    def test_small_sweep_monotone(self):
        pts = sweep_schedulability([0.05, 0.20, 0.35, 0.50],
                                   instances_per_point=16, seed=2, timeout=10.0)
        fracs = [p.fraction for p in pts]
        assert fracs[0] >= 0.95
        assert all(a >= b for a, b in zip(fracs, fracs[1:]))


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestSweepJobs:
    SMALL = dict(utilizations=[0.05, 0.2], instances_per_point=3, seed=1)

    @pytest.fixture
    def pool(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(RecordingPool, "created", [])
        return RecordingPool

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, pool, jobs):
        with pytest.raises(ValidationError, match="jobs"):
            sweep_schedulability(jobs=jobs, **self.SMALL)
        assert pool.created == []

    def test_workers_capped_at_usable_cpus(self, pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        serial = sweep_schedulability(jobs=1, **self.SMALL)
        assert pool.created == []
        assert sweep_schedulability(jobs=10**6, **self.SMALL) == serial
        assert sweep_schedulability(jobs=2, **self.SMALL) == serial
        assert pool.created == [3, 2]

    def test_one_usable_cpu_runs_serially(self, pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        sweep_schedulability(jobs=4, **self.SMALL)
        assert pool.created == []


class TestTextFormat:
    def test_instance_roundtrip(self):
        inst = generate_instance(GeneratorParams(utilization=0.3, seed=8))
        text = instance_to_text(inst)
        back = parse_instance_text(text)
        assert back.flows == inst.flows
        assert (back.num_slots, back.delta, back.horizon) == \
            (inst.num_slots, inst.delta, inst.horizon)
        assert instance_to_text(back) == text

    def test_solution_roundtrip(self):
        inst = ProblemInstance([FlowSpec(1, 0, 20_000, 0)], num_slots=4,
                               delta=10_000)
        sol = solve(inst).solution
        back = parse_solution_text(solution_to_text(inst, sol))
        assert back.partitions == sol.partitions
        assert back.schedule == sol.schedule

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_instance_text("flow 1 80 4 64\n")  # missing ring record
        with pytest.raises(ParseError):
            parse_instance_text("ring 32 10000\nbogus 1 2\n")
        for flow in ("flow 1 inf 1", "flow 1 10 1e400"):  # no integer ns count
            with pytest.raises(ParseError) as ei:
                parse_instance_text(f"ring 32 10000\n{flow}\n")
            assert ei.value.line == 2

    def test_validation_errors(self):
        with pytest.raises(ValidationError):
            ProblemInstance([FlowSpec(1, 0, 15_000, 0)], num_slots=4, delta=10_000)

    @pytest.mark.parametrize("horizon", [0, -40_000])
    def test_nonpositive_horizon_rejected(self, horizon):
        # Both are multiples of N * delta and of the period, but schedule
        # no instance at all.
        with pytest.raises(ValidationError, match="horizon"):
            ProblemInstance([FlowSpec(1, 0, 10_000, 1_000)], num_slots=4,
                            delta=10_000, horizon=horizon)
