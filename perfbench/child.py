"""One workload in one fresh process: set up, then measure or trace.

Started by ``run.py``; not meant to be run by hand. Protocol on stdout:
a ``READY`` line as soon as set-up is done (the parent times set-up up to
it), then, unless ``--mode setup``, one ``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np


#: measured rounds after which peak memory is read (see peak_rss_mb)
RSS_AFTER_ROUNDS = 2


def percentiles_ms(passes: list[float]) -> dict:
    if not passes:
        return {"n": 0, "p50": 0.0, "p99": 0.0}
    p50, p99 = np.percentile(np.asarray(passes) * 1e3, [50, 99])
    return {"n": len(passes), "p50": float(p50), "p99": float(p99)}


def peak_rss_mb() -> float:
    """Largest resident set so far of this process or any finished child.

    Read after set-up and ``RSS_AFTER_ROUNDS`` rounds: how many rounds fit
    in a run depends on the host's speed, and later rounds can grow the
    program's caches (see CHANGES.md, ``FOUND:``).
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(wl, round_fn, checks, seconds: float = 0.0, first: int = 0,
            rounds: int | None = None, tracer=None) -> dict:
    """Run whole rounds until ``seconds`` have passed, or ``rounds`` rounds.

    Input r is generated before round r and its outputs are checked after
    it, both outside the round's timing. A round that raises counts its
    operations as failed and the run goes on. With ``tracer``, its
    wrappers are installed around each round only.
    """
    round_s: list[float] = []
    passes: list[float] = []
    jobs = attempted = failed = 0
    errors: list[str] = []
    rss = None
    start = time.perf_counter()
    r = first
    while True:
        wl.prepare(r)
        wl.pass_s.clear()
        attempted += wl.ops_per_round
        if tracer is not None:
            tracer.install()
        try:
            t0 = time.perf_counter()
            n = round_fn(r)
            dt = time.perf_counter() - t0
        except Exception:  # counted and reported; the run goes on
            failed += wl.ops_per_round
            errors.append(traceback.format_exc(limit=5))
            n = None
        finally:
            if tracer is not None:
                tracer.remove()
        if n is not None:
            round_s.append(dt)
            jobs += n
            wl.check_round(checks, r)
            passes.extend(wl.pass_s)
        r += 1
        if r - first == RSS_AFTER_ROUNDS:
            rss = peak_rss_mb()
        if rounds is not None:
            done = r - first >= rounds
        else:
            done = time.perf_counter() - start >= seconds
        if done or len(errors) >= 3:
            break
    return {"round_s": round_s, "passes": passes, "jobs": jobs, "attempted": attempted,
            "failed": failed, "errors": errors, "rss": rss}


def traced_rounds(wl, tracer, checks) -> dict:
    """One discarded warm-up round, then each traced input untraced and traced.

    The summed traced/untraced ratio is the tracing overhead. The grid's
    cells run serially in this process here, so the wrappers see them.
    """
    from layers import Tracer

    setup_build_s = tracer.self_s["workload.build"]
    tracer.remove()
    in_process = hasattr(wl, "run_round_in_process")
    round_fn = wl.run_round_in_process if in_process else wl.run_round
    runs = [measure(wl, round_fn, checks, rounds=1)]
    tracer = Tracer()
    plain = traced = 0.0
    for k in range(wl.traced_inputs):
        runs.append(measure(wl, round_fn, checks, first=k, rounds=1))
        plain += sum(runs[-1]["round_s"])
        runs.append(measure(wl, round_fn, checks, first=k, rounds=1, tracer=tracer))
        traced += sum(runs[-1]["round_s"])
    layers = tracer.report(wl.traced_inputs, traced, setup_build_s)
    layers["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0) if plain else 0.0
    out = {key: sum(run[key] for run in runs) for key in ("jobs", "attempted", "failed")}
    out["round_s"] = [s for run in runs[1::2] for s in run["round_s"]]
    out["passes"] = [p for run in runs[1::2] for p in run["passes"]]
    out["errors"] = [e for run in runs for e in run["errors"]]
    out["rss"] = None
    out["layers"] = layers
    out["untraced_round_s"] = plain / wl.traced_inputs
    out["traced_round_s"] = traced / wl.traced_inputs
    out["in_process"] = in_process
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    tracer = None
    if args.mode == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    import repro.api  # noqa: F401  (set-up covers the library import)
    from workloads import build

    wl = build(args.workload, args.seed, Path(args.workdir))
    print("READY", flush=True)
    if args.mode == "setup":
        getattr(wl, "cleanup", lambda: None)()
        return 0

    from checks import Checks

    checks = Checks()
    if tracer is None:
        out = measure(wl, wl.run_round, checks, seconds=args.seconds)
    else:
        out = traced_rounds(wl, tracer, checks)
    wl.finish(checks)
    out["peak_rss_mb"] = out.pop("rss") or peak_rss_mb()
    out["pass_ms"] = percentiles_ms(out.pop("passes"))
    out["checks_passed"] = checks.passed
    out["failures"] = checks.failures
    out["quality"] = wl.quality()
    getattr(wl, "cleanup", lambda: None)()
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
