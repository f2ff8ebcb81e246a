"""MRSch benchmark: one workload, one run, every metric by name and unit.

Run from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload theta_saturated --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Workloads, seeds and metrics are described in ``perfbench/README.md``.

Each run starts fresh processes: two that only set up (for the
``setup_s`` median) and one that sets up and then measures. Every
process gets one BLAS/OpenMP thread.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("theta_saturated", "theta_light", "curriculum_train", "fig5_grid_cold")
DEFAULT_SEED = 1
#: set-up-only processes per run; the measuring process adds one more sample
SETUP_SAMPLES = 2
#: fresh interpreters timed importing ``repro.api`` in a traced run
IMPORT_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "jobs_per_s": "1/s",
    "instance_p50_ms": "ms",
    "instance_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = os.environ.copy()
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, mode: str, seconds: float = 0.0) -> tuple[float, dict | None]:
    """Start one workload process; returns (set-up seconds, its result)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(seconds),
           "--workdir", str(args.workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env())
    setup_s = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or setup_s is None or (mode != "setup" and result is None):
        raise RuntimeError(f"{mode} process for {args.workload} exited {code}")
    return setup_s, result


def import_seconds() -> float:
    """Median wall time of ``import repro.api`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import repro.api; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def untraced(args) -> tuple[dict, dict]:
    setups = [run_child(args, "setup")[0] for _ in range(SETUP_SAMPLES)]
    setup_s, res = run_child(args, "measure", args.seconds)
    setups.append(setup_s)
    if not res["round_s"]:
        raise RuntimeError(f"no round of {args.workload} finished:\n" + "\n".join(res["errors"]))
    # Every round is a new input (see workloads.py): the mean over the
    # run's rounds averages over as many inputs as fit in it.
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.fmean(res["round_s"]),
        "jobs_per_s": res["jobs"] / math.fsum(res["round_s"]),
        "instance_p50_ms": res["pass_ms"]["p50"],
        "instance_p99_ms": res["pass_ms"]["p99"],
        "peak_rss_mb": res["peak_rss_mb"],
    }
    res["setup_samples_s"] = setups
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, res


def traced(args) -> tuple[dict, dict]:
    from layers import METRICS

    _, res = run_child(args, "trace")
    values = dict(res["layers"])
    values["setup.import_s"] = import_seconds()
    return {k: {"value": values[k], "unit": unit} for k, unit in METRICS.items()}, res


def report(args, metrics: dict, res: dict) -> None:
    """Human-readable summary (everything but the last line)."""
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}")
    if args.trace:
        mode = ("grid cells run serially in this process so the wrappers see them"
                if res.get("in_process") else "same process and inputs as untraced")
        print(f"  traced round {res['traced_round_s']:.3f} s vs untraced "
              f"{res['untraced_round_s']:.3f} s ({mode})")
    else:
        print(f"  {len(res['round_s'])} rounds of "
              f"{', '.join(f'{s:.3f}' for s in res['round_s'])} s; "
              f"{res['pass_ms']['n']} scheduling passes; "
              f"set-ups {', '.join(f'{s:.3f}' for s in res['setup_samples_s'])} s")
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    quality = res.get("quality")
    if quality:
        print("  scheduling quality (checked, not gated): " + json.dumps(quality, sort_keys=True))
    print(f"  checks: {res['checks_passed']} passed, {len(res['failures'])} failed")
    for failure in res["failures"][:20]:
        print(f"    FAIL {failure}")
    for error in res["errors"][:3]:
        print("    ERROR " + error.replace("\n", "\n    "))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not Path("src/repro/__init__.py").is_file():
        print("run.py: no src/repro here; run it from the root of a checkout",
              file=sys.stderr)
        return 2
    args.workdir = Path(".perfbench").resolve()
    sys.path.insert(0, str(HERE))
    try:
        metrics, res = traced(args) if args.trace else untraced(args)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    report(args, metrics, res)
    if args.trace:
        args.workdir.mkdir(exist_ok=True)
        out = args.workdir / f"trace_{args.workload}_{args.seed}.json"
        out.write_text(json.dumps({"metrics": metrics, "run": res}, indent=1))
        print(f"  trace written to {out}")
    print(json.dumps({
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
