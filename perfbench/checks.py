"""Output checks, recomputed from the job tables without ``repro.sim.metrics``.

A failed check does not stop the run; it is recorded, printed, and makes
the run's ``correct`` false.
"""

from __future__ import annotations

import math

#: relative tolerance of a recomputed metric against the program's report
REL_TOL = 1e-9


class Checks:
    """Collects check failures; ``ok`` while none has failed."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.passed = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def require(self, condition: bool, message: str) -> None:
        if condition:
            self.passed += 1
        else:
            self.failures.append(message)

    def close(self, tag: str, name: str, got: float, want: float) -> None:
        self.require(
            math.isclose(got, want, rel_tol=REL_TOL, abs_tol=REL_TOL),
            f"{tag}: {name} reported {got!r}, recomputed {want!r}",
        )

    def replay(self, tag: str, trace, result, system) -> None:
        """One replay's job table against its input trace and its report.

        ``trace`` is the job list the program was given, ``result`` the
        ``SimulationResult`` it returned, ``system`` the machine.
        """
        jobs = result.jobs
        self.require(len(jobs) == len(trace), f"{tag}: {len(jobs)} jobs out of {len(trace)} in")
        given = {j.job_id: j for j in trace}
        seen: set[int] = set()
        for job in jobs:
            src = given.get(job.job_id)
            if src is None or job.job_id in seen:
                self.require(False, f"{tag}: job {job.job_id} unknown or returned twice")
                return
            seen.add(job.job_id)
            if (
                job.submit_time != src.submit_time
                or job.runtime != src.runtime
                or job.requests != src.requests
            ):
                self.require(False, f"{tag}: job {job.job_id} differs from its input")
                return
            if job.start_time is None or job.end_time is None:
                self.require(False, f"{tag}: job {job.job_id} never started or ended")
                return
            if job.start_time < job.submit_time or not math.isclose(
                job.end_time, job.start_time + job.runtime, rel_tol=1e-12, abs_tol=1e-6
            ):
                self.require(
                    False,
                    f"{tag}: job {job.job_id} submit {job.submit_time} start "
                    f"{job.start_time} end {job.end_time} runtime {job.runtime}",
                )
                return
        self.require(len(seen) == len(given), f"{tag}: not every input job was returned")
        self.capacity(tag, jobs, system)
        self.metrics(tag, jobs, system, result.metrics)

    def capacity(self, tag: str, jobs, system) -> None:
        """Event sweep: no resource is ever over capacity."""
        for name in system.names:
            cap = system.capacity(name)
            # At equal times releases (-) sort before acquisitions (+).
            events = sorted(
                [(j.start_time, 1, j.requests.get(name, 0)) for j in jobs]
                + [(j.end_time, 0, -j.requests.get(name, 0)) for j in jobs]
            )
            used = 0
            for t, _, delta in events:
                used += delta
                if used > cap:
                    self.require(False, f"{tag}: {name} at {used}/{cap} units at t={t}")
                    return
            self.require(used == 0, f"{tag}: {name} sweep ends at {used} units")

    def metrics(self, tag: str, jobs, system, report) -> None:
        """Recompute wait, slowdown and utilization; compare with the report."""
        n = len(jobs)
        t0 = min(j.submit_time for j in jobs)
        span = max(j.end_time for j in jobs) - t0
        waits = [j.start_time - j.submit_time for j in jobs]
        slowdowns = [(w + j.runtime) / j.runtime for w, j in zip(waits, jobs)]
        self.require(report.n_jobs == n, f"{tag}: report counts {report.n_jobs} jobs of {n}")
        self.close(tag, "avg_wait", report.avg_wait, math.fsum(waits) / n)
        self.close(tag, "avg_slowdown", report.avg_slowdown, math.fsum(slowdowns) / n)
        for name in system.names:
            used = math.fsum(j.requests.get(name, 0) * j.runtime for j in jobs)
            self.close(
                tag, f"{name} utilization", report.utilization[name],
                used / (system.capacity(name) * span),
            )

    def grid(self, tag: str, out: dict, methods, workloads, seeds, n_jobs, reference) -> None:
        """One ``repro run --json`` output of the reduced Fig. 5 grid.

        ``reference`` maps workload → cell label → report of the cells
        re-run with one worker in process; those cells must be equal.
        """
        reports = out.get("reports", {})
        for w in workloads:
            for m in methods:
                for s in seeds:
                    label = f"{m}@{s}"
                    rep = reports.get(w, {}).get(label)
                    if rep is None:
                        self.require(False, f"{tag}: cell {w}/{label} missing")
                        continue
                    self.require(rep["n_jobs"] == n_jobs,
                                 f"{tag}: cell {w}/{label} has {rep['n_jobs']} jobs")
                    self.require(rep["avg_wait"] >= 0 and rep["max_wait"] >= 0,
                                 f"{tag}: cell {w}/{label} has a negative wait")
                    self.require(rep["avg_slowdown"] >= 1 and rep["p95_slowdown"] >= 1,
                                 f"{tag}: cell {w}/{label} has a slowdown below 1")
                    self.require(
                        all(0.0 <= u <= 1.0 for u in rep["utilization"].values()),
                        f"{tag}: cell {w}/{label} utilization outside [0, 1]",
                    )
                    ref = reference.get(w, {}).get(label)
                    if ref is not None:
                        self.require(rep == ref, f"{tag}: cell {w}/{label} differs from "
                                                 "the single-worker in-process run")
        expected = {f"{m}@{s}" for m in methods for s in seeds}
        for w in workloads:
            self.require(set(reports.get(w, {})) == expected,
                         f"{tag}: workload {w} has cells {sorted(reports.get(w, {}))}")
        self.require(set(reports) == set(workloads), f"{tag}: workloads {sorted(reports)}")
