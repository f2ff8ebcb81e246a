"""The benchmark's output checks accept a real replay and reject broken ones.

Run from the repository root::

    PYTHONPATH=src:perfbench python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses

import pytest

from checks import Checks
from repro.cluster.resources import SystemConfig
from repro.sched.fcfs import FCFSScheduler
from repro.sim.simulator import Simulator
from repro.workload.suites import build_workload
from repro.workload.theta import ThetaTraceConfig, generate_theta_trace


@pytest.fixture(scope="module")
def replay():
    system = SystemConfig.mini_theta(nodes=32, bb_units=16)
    base = generate_theta_trace(
        ThetaTraceConfig(total_nodes=32, n_jobs=60, mean_interarrival=300.0), seed=3
    )
    trace = build_workload("S3", base, system, seed=3)
    result = Simulator(system, FCFSScheduler(window_size=5)).run(trace)
    return system, trace, result


def run_checks(system, trace, result) -> Checks:
    checks = Checks()
    checks.replay("t", trace, result, system)
    return checks


def test_real_replay_passes(replay):
    checks = run_checks(*replay)
    assert checks.ok, checks.failures
    assert checks.passed > 0


def test_start_before_submit_fails(replay):
    system, trace, result = replay
    jobs = [j.copy() for j in result.jobs]
    for new, old in zip(jobs, result.jobs):
        new.start_time, new.end_time = old.start_time, old.end_time
    jobs[5].start_time = jobs[5].submit_time - 1.0
    jobs[5].end_time = jobs[5].start_time + jobs[5].runtime
    broken = dataclasses.replace(result, jobs=jobs)
    assert not run_checks(system, trace, broken).ok


def test_over_capacity_fails(replay):
    system, trace, result = replay
    jobs = [j.copy() for j in result.jobs]
    for new, old in zip(jobs, result.jobs):
        new.start_time, new.end_time = old.start_time, old.end_time
    # Every job at once cannot fit a 32-node machine.
    for job in jobs:
        job.start_time = max(j.submit_time for j in jobs)
        job.end_time = job.start_time + job.runtime
    checks = Checks()
    checks.capacity("t", jobs, system)
    assert not checks.ok


def test_misreported_metric_fails(replay):
    system, trace, result = replay
    report = dataclasses.replace(result.metrics, avg_wait=result.metrics.avg_wait * (1 + 1e-6))
    assert not run_checks(system, trace, dataclasses.replace(result, metrics=report)).ok


def test_missing_job_fails(replay):
    system, trace, result = replay
    broken = dataclasses.replace(result, jobs=result.jobs[:-1])
    assert not run_checks(system, trace, broken).ok


def test_grid_detects_missing_cell_and_mismatch():
    rep = {"n_jobs": 10, "avg_wait": 1.0, "max_wait": 2.0, "avg_slowdown": 1.5,
           "p95_slowdown": 2.0, "utilization": {"node": 0.5, "burst_buffer": 0.2}}
    out = {"reports": {"S1": {"heuristic@1": rep, "mrsch@1": rep}}}
    checks = Checks()
    checks.grid("g", out, ("heuristic", "mrsch"), ("S1",), (1,), 10,
                {"S1": {"heuristic@1": rep}})
    assert checks.ok, checks.failures
    checks = Checks()
    checks.grid("g", out, ("heuristic", "mrsch"), ("S1",), (1,), 10,
                {"S1": {"heuristic@1": {**rep, "avg_wait": 1.5}}})
    assert not checks.ok
    checks = Checks()
    checks.grid("g", out, ("heuristic", "mrsch", "scalar_rl"), ("S1",), (1,), 10, {})
    assert not checks.ok
