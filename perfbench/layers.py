"""Per-layer tracing for the traced run: wrappers around public functions.

The wrappers live here, in the benchmark, and are installed on the
program's classes and modules only inside a traced run. Each wrapped
call is a span; a layer's *self* time is its spans' time minus the time
of spans nested inside them, so the self times of all layers plus the
unattributed remainder add up to the traced wall time.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: every per-layer metric, in report order, with its unit
METRICS = {
    "sim.advance_s": "s",
    "sim.triggers": "count",
    "sim.metrics_s": "s",
    "sched.pass_self_s": "s",
    "sched.backfill_passes": "count",
    "sched.backfill_useful_ratio": "ratio",
    "sched.starts": "count",
    "sched.backfill_starts": "count",
    "sched.ga_rank_s": "s",
    "sched.ga_ranks": "count",
    "cluster.shadow_s": "s",
    "core.goal_s": "s",
    "core.goal_calls": "count",
    "core.encode_s": "s",
    "core.infer_s": "s",
    "core.decisions": "count",
    "core.select_self_s": "s",
    "core.train_step_s": "s",
    "core.train_batches": "count",
    "core.record_s": "s",
    "workload.build_s": "s",
    "setup.import_s": "s",
    "exp.cell_s": "s",
    "exp.cells": "count",
    "exp.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    """Span stack with self-time accounting and the backfill counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self._stack: list[float] = []  # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []
        # EASY bookkeeping of the open scheduling pass
        self.in_backfill = False
        self.pass_useful = False
        self.triggers = 0
        self.backfill_passes = 0
        self.useful_passes = 0
        self.starts = 0
        self.backfill_starts = 0

    # -- spans -------------------------------------------------------------

    def span(self, layer: str, fn, on_exit=None):
        stack = self._stack
        self_s, total_s, calls, now = self.self_s, self.total_s, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = now()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = now() - t0
                self_s[layer] += dt - stack.pop()
                total_s[layer] += dt
                calls[layer] += 1
                if stack:
                    stack[-1] += dt
                if on_exit is not None:
                    on_exit()

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, layer: str, on_exit=None) -> None:
        """Replace ``owner.attr`` by a span wrapper (undone by :meth:`remove`)."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, fn))
        setattr(owner, attr, self.span(layer, fn, on_exit))

    def patch_everywhere(self, fn, layer: str) -> None:
        """Wrap every reference to module-level function ``fn`` in ``repro``."""
        wrapped = self.span(layer, fn)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap each layer's public entry points."""
        # Import every module a wrapper must reach before patching, so a
        # lazy import inside the program cannot pick up an unwrapped name.
        import repro.api  # noqa: F401
        import repro.core.mrsch as mrsch
        import repro.exp.runner  # noqa: F401
        import repro.exp.tasks as tasks
        import repro.experiments.harness  # noqa: F401
        import repro.sim.metrics as metrics
        import repro.workload.sampling as sampling
        import repro.workload.suites as suites
        import repro.workload.theta as theta
        from repro.cluster.resources import ResourcePool
        from repro.core.dfp import DFPAgent
        from repro.core.encoding import IncrementalStateEncoder
        from repro.sched.base import Scheduler
        from repro.sched.ga import GAScheduler
        from repro.sim.episode import EpisodeState

        self.patch(EpisodeState, "advance", "sim.advance")
        self.patch_everywhere(metrics.compute_metrics, "sim.metrics")
        self.patch(Scheduler, "schedule", "sched.pass", on_exit=self._end_pass)
        self.patch(GAScheduler, "rank", "sched.ga_rank")
        self.patch(ResourcePool, "earliest_fit_time", "cluster.shadow")
        self.patch(ResourcePool, "free_units_at", "cluster.shadow")
        # goal_vector as MRSch calls it (its module-level import)
        self.patch(mrsch, "goal_vector", "core.goal")
        self.patch(IncrementalStateEncoder, "encode_decision", "core.encode")
        self.patch(DFPAgent, "action_scores", "core.infer")
        self.patch(mrsch.MRSchScheduler, "select", "core.select")
        self.patch(DFPAgent, "train_batch", "core.train_step")
        self.patch(DFPAgent, "record_episode", "core.record")
        for fn in (theta.generate_theta_trace, suites.build_workload, sampling.build_curriculum):
            self.patch_everywhere(fn, "workload.build")
        self.patch_everywhere(tasks.execute_task, "exp.cell")

        # Counters, outside the spans. A trigger is an advance() that
        # applied events. A backfill pass opens at its shadow query (one
        # per EASY pass); a start inside it is a backfill start and makes
        # the pass useful.
        advance = EpisodeState.advance  # already the span wrapper
        shadow = ResourcePool.earliest_fit_time
        start = EpisodeState.start_job

        def advance_counted(state):
            more = advance(state)
            self.triggers += more
            return more

        def earliest_fit_time(pool, *args, **kwargs):
            self.backfill_passes += 1
            self.in_backfill = True
            return shadow(pool, *args, **kwargs)

        def start_job(state, job):
            self.starts += 1
            if self.in_backfill:
                self.backfill_starts += 1
                self.pass_useful = True
            return start(state, job)

        self._undo.append((EpisodeState, "advance", advance))
        EpisodeState.advance = advance_counted
        self._undo.append((ResourcePool, "earliest_fit_time", shadow))
        ResourcePool.earliest_fit_time = earliest_fit_time
        self._undo.append((EpisodeState, "start_job", start))
        EpisodeState.start_job = start_job

    def _end_pass(self) -> None:
        if self.pass_useful:
            self.useful_passes += 1
        self.in_backfill = self.pass_useful = False

    # -- report --------------------------------------------------------------

    def report(self, rounds: int, traced_wall_s: float, setup_build_s: float) -> dict:
        """Per-round layer figures over ``rounds`` traced rounds.

        ``traced_wall_s`` is the summed wall time of the traced rounds;
        ``setup_build_s`` the workload generation of the set-up, which
        ``workload.build_s`` adds to the per-round generation time.
        """
        s, c = self.self_s, self.calls
        per_round = {
            "sim.advance_s": s["sim.advance"],
            "sim.triggers": self.triggers,
            "sim.metrics_s": s["sim.metrics"],
            "sched.pass_self_s": s["sched.pass"],
            "sched.backfill_passes": self.backfill_passes,
            "sched.starts": self.starts,
            "sched.backfill_starts": self.backfill_starts,
            "sched.ga_rank_s": s["sched.ga_rank"],
            "sched.ga_ranks": c["sched.ga_rank"],
            "cluster.shadow_s": s["cluster.shadow"],
            "core.goal_s": s["core.goal"],
            "core.goal_calls": c["core.goal"],
            "core.encode_s": s["core.encode"],
            "core.infer_s": s["core.infer"],
            "core.decisions": c["core.infer"],
            "core.select_self_s": s["core.select"],
            "core.train_step_s": s["core.train_step"],
            "core.train_batches": c["core.train_step"],
            "core.record_s": s["core.record"],
            "workload.build_s": s["workload.build"],
            "exp.cell_s": s["exp.cell"],
            "exp.cells": c["exp.cell"],
            "exp.overhead_s": traced_wall_s - self.total_s["exp.cell"] if c["exp.cell"] else 0.0,
            "trace.unattributed_s": traced_wall_s - sum(s.values()),
        }
        out = {k: v / rounds for k, v in per_round.items()}
        out["workload.build_s"] += setup_build_s
        out["sched.backfill_useful_ratio"] = (
            self.useful_passes / self.backfill_passes if self.backfill_passes else 0.0
        )
        return out
