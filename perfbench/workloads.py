"""The four benchmark workloads: how each builds its inputs and runs one round.

Every input is generated here from the benchmark seed; the program under
test only ever receives the generated traces, job sets and scenarios.
A workload object is built once per process (its *set-up*), which
generates input 0. Then, for the measured phase, ``prepare(r)``
generates input r outside any timing, ``run_round(r)`` runs round r on
it and appends its scheduling-pass latencies to ``pass_s``;
``check_round`` checks that round's outputs outside its timing; ``finish``
makes the checks that need the whole run. Every round is a new input,
so a run's figures average over as many inputs as fit in it: the cost
of one input differs from the next by up to 1.6x on the Theta traces.
Each round is the same operation on the same kind of input, so the
share of failed operations cannot depend on how many rounds fit in a run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: Initial DFP weights are fixed, independent of the workload seed: the
#: seed varies the jobs, never the policy.
AGENT_SEED = 2022

#: One id per workload, mixed into every derived seed so two workloads
#: run with the same ``--seed`` still get unrelated inputs.
WORKLOAD_IDS = {
    "theta_saturated": 1,
    "theta_light": 2,
    "curriculum_train": 3,
    "fig5_grid_cold": 4,
}


def derive_seed(seed: int, workload: str, k: int) -> int:
    """The k-th input seed of ``workload`` under benchmark seed ``seed``."""
    seq = np.random.SeedSequence([seed, WORKLOAD_IDS[workload], k])
    return int(seq.generate_state(1)[0])


class TimedScheduler:
    """Times every ``Scheduler.schedule`` call of one scheduler instance.

    One scheduling pass is the paper's scheduling instance (§V-F): the
    latency a resource manager waits on at every trigger. The wrapper is
    an instance attribute, so the class and every other scheduler are
    untouched.
    """

    def __init__(self, sched) -> None:
        self.pass_s: list[float] = []
        record = self.pass_s.append

        def schedule(ctx, _sched=sched, _now=time.perf_counter):
            t0 = _now()
            # Looked up per call, so a traced run's class wrapper is seen.
            type(_sched).schedule(_sched, ctx)
            record(_now() - t0)

        sched.schedule = schedule


class ThetaReplay:
    """MRSch (fixed initial weights, inference) replaying Theta-scale traces.

    Round r replays trace r. Trace 0 and its job times are kept: after the
    measured rounds it is replayed once more (unless a traced run already
    repeated it), and a repeated replay must start and end every job at
    the same instant.
    """

    ops_per_round = 1
    #: inputs a traced run replays, each untraced and traced
    traced_inputs = 3

    def __init__(self, name: str, seed: int, n_jobs: int, mean_interarrival: float) -> None:
        from repro.cluster.resources import SystemConfig
        from repro.core.mrsch import MRSchScheduler
        from repro.sim.simulator import Simulator
        from repro.workload.theta import ThetaTraceConfig

        self.name, self.seed = name, seed
        self.system = SystemConfig.theta()
        self.config = ThetaTraceConfig(
            total_nodes=self.system.capacity("node"),
            n_jobs=n_jobs,
            mean_interarrival=mean_interarrival,
        )
        self.traces: dict[int, list] = {}
        self.prepare(0)
        self.sched = MRSchScheduler(self.system, window_size=10, seed=AGENT_SEED)
        self.pass_s = TimedScheduler(self.sched).pass_s
        self.sim = Simulator(self.system, self.sched)
        self.last = None
        #: (start, end) of every job in the checked first replay of a kept trace
        self.first_times: dict[int, list] = {}
        self.repeats = 0
        self.reports = []

    def prepare(self, r: int) -> None:
        """Generate trace r; of the earlier traces only trace 0 is kept."""
        from repro.workload.suites import build_workload
        from repro.workload.theta import generate_theta_trace

        if r in self.traces:
            return
        for k in [k for k in self.traces if k != 0]:
            del self.traces[k]
            self.first_times.pop(k, None)
        trace_seed = derive_seed(self.seed, self.name, r)
        base = generate_theta_trace(self.config, seed=trace_seed)
        self.traces[r] = build_workload("S3", base, self.system, seed=trace_seed)

    def run_round(self, r: int) -> int:
        self.last = self.sim.run(self.traces[r])
        return len(self.last.jobs)

    def check_round(self, checks, r: int) -> None:
        result, self.last = self.last, None
        times = [(job.start_time, job.end_time) for job in result.jobs]
        if r not in self.first_times:
            checks.replay(f"round {r}", self.traces[r], result, self.system)
            self.first_times[r] = times
            self.reports.append(result.metrics)
            return
        # A repeat of a checked replay: equal times mean an equal job table.
        self.repeats += 1
        checks.require(
            times == self.first_times[r],
            f"round {r}: a repeated replay started or ended jobs at other times",
        )

    def finish(self, checks) -> None:
        # Repeated inference replays in one process must give identical
        # start times.
        if not self.repeats:
            self.last = self.sim.run(self.traces[0])
            self.check_round(checks, 0)

    def quality(self) -> dict:
        return quality_of(self.reports)


class CurriculumTrain:
    """The §III-D three-phase curriculum at mini-Theta.

    An input is one curriculum: one sampled, one real and one synthetic
    job set of 150 jobs each. A round builds a fresh MRSch agent from the
    fixed initial weights and trains it through curriculum r. Curriculum
    0 is kept: after the measured rounds it is trained on once more
    (unless a traced run already did), and the repeat must reproduce the
    loss trajectory and every rollout's job times bit for bit.
    """

    jobs_per_set = 150
    nodes, bb_units = 128, 64
    order = ("sampled", "real", "synthetic")
    #: one set per phase, so a round is always three training episodes
    ops_per_round = len(order)
    traced_inputs = 2

    def __init__(self, seed: int) -> None:
        from repro.cluster.resources import SystemConfig
        from repro.core.mrsch import MRSchScheduler

        self.seed = seed
        self.system = SystemConfig.mini_theta(nodes=self.nodes, bb_units=self.bb_units)
        self.curricula: dict[int, dict] = {}
        #: per kept input, the job sets in the order the curriculum trains on them
        self.jobsets: dict[int, list] = {}
        self.prepare(0)
        self._make = lambda: MRSchScheduler(self.system, window_size=10, seed=AGENT_SEED)
        self.pass_s: list[float] = []
        self.last: dict | None = None
        self.first_losses: dict[int, list[float]] = {}
        self.first_times: dict[int, list] = {}
        self.repeats = 0

    def prepare(self, r: int) -> None:
        """Generate curriculum r; of the earlier ones only curriculum 0 is kept."""
        if r in self.curricula:
            return
        for k in [k for k in self.curricula if k != 0]:
            for kept in (self.curricula, self.jobsets, self.first_losses, self.first_times):
                kept.pop(k, None)
        self.curricula[r] = self._curriculum(self.seed, r)
        self.jobsets[r] = [jobs for phase in self.order for jobs in self.curricula[r][phase]]

    def _curriculum(self, seed: int, k: int) -> dict:
        from repro.workload.sampling import build_curriculum
        from repro.workload.suites import build_workload
        from repro.workload.theta import ThetaTraceConfig, generate_theta_trace

        template = ThetaTraceConfig(total_nodes=self.nodes, n_jobs=self.jobs_per_set)
        base = generate_theta_trace(
            ThetaTraceConfig(total_nodes=self.nodes, n_jobs=3 * self.jobs_per_set),
            seed=derive_seed(seed, "curriculum_train", 3 * k),
        )
        raw = build_curriculum(
            base, template, n_sampled=1, n_real=1, n_synthetic=1,
            jobs_per_set=self.jobs_per_set, seed=derive_seed(seed, "curriculum_train", 3 * k + 1),
        )
        rng = np.random.default_rng(derive_seed(seed, "curriculum_train", 3 * k + 2))
        return {
            phase: [build_workload("S3", jobs, self.system, seed=rng) for jobs in sets]
            for phase, sets in raw.items()
        }

    def run_round(self, r: int) -> int:
        from repro.core.training import curriculum_training
        from repro.sim.episode import EpisodeState

        sched = self._make()
        initial = {k: v.copy() for k, v in sched.agent.state_dict().items()}
        passes = TimedScheduler(sched).pass_s
        batches = [0]
        agent = sched.agent

        def train_batch():
            batches[0] += 1
            return type(agent).train_batch(agent)

        agent.train_batch = train_batch
        # Each rollout's finished episode, to check its job table.
        rollouts = []
        inner_finish = EpisodeState.finish

        def finish(state, _inner=inner_finish):
            result = _inner(state)
            rollouts.append(result)
            return result

        EpisodeState.finish = finish
        try:
            result = curriculum_training(sched, self.curricula[r], self.system, order=self.order)
        finally:
            EpisodeState.finish = inner_finish
        self.pass_s.extend(passes)
        self.last = {
            "losses": list(result.losses),
            "rollouts": rollouts,
            "batches": batches[0],
            "episodes": result.episodes,
            "batches_per_episode": agent.config.train_batches_per_episode,
            "initial": initial,
            "final": agent.state_dict(),
        }
        return sum(len(jobs) for jobs in self.jobsets[r])

    def check_round(self, checks, r: int) -> None:
        rnd, self.last = self.last, None
        tag = f"round {r}"
        checks.require(
            rnd["episodes"] == self.ops_per_round == len(rnd["rollouts"]),
            f"{tag}: {len(rnd['rollouts'])} rollouts finished of {self.ops_per_round}",
        )
        times = [[(j.start_time, j.end_time) for j in rollout.jobs] for rollout in rnd["rollouts"]]
        if r not in self.first_times:
            self.first_times[r] = times
            self.first_losses[r] = rnd["losses"]
            for i, (jobs, rollout) in enumerate(zip(self.jobsets[r], rnd["rollouts"])):
                checks.replay(f"{tag} rollout {i}", jobs, rollout, self.system)
        else:
            self.repeats += 1
            checks.require(times == self.first_times[r],
                           f"{tag}: a repeated rollout started or ended jobs at other times")
            checks.require(rnd["losses"] == self.first_losses[r],
                           f"{tag}: loss trajectory differs from the first training on it")
        losses = np.asarray(rnd["losses"], dtype=float)
        checks.require(
            bool(np.all(np.isfinite(losses)) and np.all(losses >= 0)),
            f"{tag}: losses not finite and >= 0: {rnd['losses']}",
        )
        checks.require(
            rnd["batches"] == rnd["episodes"] * rnd["batches_per_episode"],
            f"{tag}: {rnd['batches']} train batches for {rnd['episodes']} episodes "
            f"x {rnd['batches_per_episode']}",
        )
        final, initial = rnd["final"], rnd["initial"]
        checks.require(
            all(np.all(np.isfinite(v)) for v in final.values()),
            f"{tag}: non-finite parameters after training",
        )
        checks.require(
            any(not np.array_equal(final[name], initial[name]) for name in initial),
            f"{tag}: training left every parameter at its initial value",
        )

    def finish(self, checks) -> None:
        # Training on the same curriculum from the same weights must repeat.
        if not self.repeats:
            self.run_round(0)
            self.check_round(checks, 0)

    def quality(self) -> dict:
        return {"losses_curriculum_0": self.first_losses.get(0, [])}


class Fig5GridCold:
    """A cold ``repro run`` of a reduced Fig. 5 scenario through the pool.

    Four methods x S1/S5 x two seeds, 100 jobs, NSGA-II at population 8
    for 4 generations. Input r is the scenario with the two grid seeds
    of round r.

    Set-up writes scenario 0 and loads and validates it. A round is one
    fresh ``python3 -m repro run`` process with at most ``nproc`` (and at
    most two) pool workers, so process start, imports in every worker,
    workload generation, the NSGA-II baseline and runner dispatch all
    land in the round. Its check re-runs the heuristic, scalar_rl and
    mrsch cells with one worker in this process, twice (NSGA-II is left
    out: it is most of the grid's time); those cells must be equal, and
    the scheduling passes of these runs are the workload's latency
    samples, since the pool workers' passes are out of reach.
    """

    methods = ("heuristic", "optimization", "scalar_rl", "mrsch")
    workloads = ("S1", "S5")
    n_jobs = 100
    reference_methods = ("heuristic", "scalar_rl", "mrsch")
    ops_per_round = len(methods) * len(workloads) * 2
    traced_inputs = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.workers = min(2, len(os.sched_getaffinity(0)))
        #: round -> (scenario file, loaded scenario, grid seeds); only the latest is kept
        self.scenarios: dict[int, tuple] = {}
        self.prepare(0)
        self.last: dict | None = None
        self.first_output: dict | None = None
        self.pass_s: list[float] = []

    def prepare(self, r: int) -> None:
        """Write, load and validate the scenario of round r."""
        from repro.api import Scenario

        if r in self.scenarios:
            return
        self.cleanup()
        first = derive_seed(self.seed, "fig5_grid_cold", 2 * r) % 100_000
        second = derive_seed(self.seed, "fig5_grid_cold", 2 * r + 1) % 100_000
        seeds = [first, second if second != first else (first + 1) % 100_000]
        spec = {
            "name": "perfbench-fig5",
            "description": "Reduced Fig. 5 grid: four methods x S1/S5 x two seeds",
            "methods": list(self.methods),
            "workloads": list(self.workloads),
            "system": {"name": "mini_theta", "nodes": 128, "bb_units": 64},
            "seeds": seeds,
            "train": False,
            # A smaller NSGA-II budget than the harness default (12 x 6)
            # keeps a round short enough for several rounds per run, and
            # leaves start-up, imports and dispatch a visible share.
            "config": {"n_jobs": self.n_jobs, "ga": {"population": 8, "generations": 4}},
        }
        path = self.workdir / f"fig5_{os.getpid()}_{r}.json"
        path.write_text(json.dumps(spec, indent=2))
        scenario = Scenario.from_file(path)
        scenario.compile()
        self.scenarios[r] = (path, scenario, seeds)

    def run_round(self, r: int) -> int:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(self.scenarios[r][0]),
             "--workers", str(self.workers), "--json", "--no-progress"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"repro run exited {proc.returncode}: {proc.stderr[-500:]}")
        self.last = json.loads(proc.stdout)
        return self.n_jobs * self.ops_per_round

    def run_round_in_process(self, r: int) -> int:
        """The grid's cells serially in this process, for the traced run."""
        import repro.api as api

        result = api.run_scenario(self.scenarios[r][1], n_workers=1, progress=False)
        self.last = {"reports": reports_dict(result)}
        return self.n_jobs * self.ops_per_round

    def reference(self, r: int, passes: list[float]) -> dict:
        """The reference cells of round r, one worker, in this process.

        Appends the latency of every scheduling pass to ``passes``.
        """
        import repro.api as api
        from repro.sched.base import Scheduler

        inner = Scheduler.schedule
        record = passes.append

        def schedule(sched, ctx, _now=time.perf_counter):
            t0 = _now()
            inner(sched, ctx)
            record(_now() - t0)

        Scheduler.schedule = schedule
        try:
            result = api.run_scenario(
                self.scenarios[r][1].replace(methods=list(self.reference_methods)),
                n_workers=1, progress=False,
            )
        finally:
            Scheduler.schedule = inner
        return reports_dict(result)

    def check_round(self, checks, r: int) -> None:
        out, self.last = self.last, None
        self.first_output = self.first_output or out
        # The reference run is made twice: the two must agree, and each
        # pass's latency is its faster time of the two, the one less
        # disturbed by other load on the host.
        runs = [[], []]
        ref = self.reference(r, runs[0])
        checks.require(self.reference(r, runs[1]) == ref,
                       f"round {r}: the in-process reference run is not repeatable")
        same = len(runs[0]) == len(runs[1])
        checks.require(same, f"round {r}: the reference runs made {len(runs[0])} and "
                             f"{len(runs[1])} scheduling passes")
        if same:
            self.pass_s.extend(np.minimum(runs[0], runs[1]).tolist())
        checks.grid(f"round {r}", out, self.methods, self.workloads, self.scenarios[r][2],
                    self.n_jobs, ref)

    def finish(self, checks) -> None:
        pass

    def quality(self) -> dict:
        """Per workload and method, the mean over the first round's grid seeds."""
        if not self.first_output:
            return {}
        out = {}
        for w, per in self.first_output["reports"].items():
            for m in self.methods:
                cells = [c for label, c in per.items() if label.split("@")[0] == m]
                if cells:
                    out.setdefault(w, {})[m] = {
                        "avg_wait_h": float(np.mean([c["avg_wait"] for c in cells])) / 3600.0,
                        "avg_slowdown": float(np.mean([c["avg_slowdown"] for c in cells])),
                        "node_util": float(np.mean([c["utilization"]["node"] for c in cells])),
                        "bb_util": float(np.mean(
                            [c["utilization"]["burst_buffer"] for c in cells])),
                    }
        return out

    def cleanup(self) -> None:
        for path, _, _ in self.scenarios.values():
            path.unlink(missing_ok=True)
        self.scenarios.clear()


def reports_dict(result) -> dict:
    """A ScenarioResult's reports in the shape ``repro run --json`` prints."""
    return {w: {m: rep.full_dict() for m, rep in per.items()}
            for w, per in result.reports.items()}


def quality_of(reports) -> dict:
    """Mean scheduling-quality outputs over a list of MetricReports."""
    if not reports:
        return {}
    keys = ("avg_wait_h", "avg_slowdown", "node_util", "bb_util")
    return {k: float(np.mean([r.as_dict()[k] for r in reports])) for k in keys}


def build(name: str, seed: int, workdir: Path):
    """Set up workload ``name``: generate its inputs and build its objects."""
    if name == "theta_saturated":
        return ThetaReplay(name, seed, n_jobs=3000, mean_interarrival=60.0)
    if name == "theta_light":
        return ThetaReplay(name, seed, n_jobs=1000, mean_interarrival=1200.0)
    if name == "curriculum_train":
        return CurriculumTrain(seed)
    if name == "fig5_grid_cold":
        return Fig5GridCold(seed, workdir)
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOAD_IDS)}")
