"""Two labelled sets of benchmark runs, interleaved run by run, compared.

Steadiness check (the same code twice)::

    python3 perfbench/compare.py --runs 10

A/B of two checkouts (the program of each, this benchmark's code for both)::

    python3 perfbench/compare.py --a ../parent --b . --labels parent change

Run i of both sets uses seed ``seed_start + i``; within a pair the side
that runs first alternates. One discarded warm-up run per side fills the
file cache first. For every end-to-end metric the tool prints each set's
median, quartiles and spread (interquartile range over median), and
whether the sets agree within the bounds in ``BENCHMARK.json``: each
spread (but that of ``setup_s``) within its bound, and B's median no
worse than A's by more than the bound. Results are also written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def one_run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)  # the middle cut is the median
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", default=".", help="checkout root of set A")
    ap.add_argument("--b", default=".", help="checkout root of set B")
    ap.add_argument("--labels", nargs=2, default=("A", "B"))
    ap.add_argument("--workloads", nargs="+", default=None)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--out", default=".perfbench/compare.json")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2 for quartiles")

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    roots = [Path(args.a).resolve(), Path(args.b).resolve()]
    seeds = [args.seed_start + i for i in range(args.runs)]

    for root in roots:
        one_run(root, workloads[0], seeds[0], 1)  # warm-up, discarded

    report: dict = {"labels": list(args.labels), "seconds": seconds, "workloads": {}}
    all_agree = True
    for workload in workloads:
        runs: list[list[dict]] = [[], []]
        for i in range(args.runs):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                res = one_run(roots[side], workload, seeds[i], seconds)
                runs[side].append(res)
                print(f"{workload} {args.labels[side]} seed {seeds[i]}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      flush=True)
        rows = {}
        print(f"\n{workload}: {args.labels[0]} vs {args.labels[1]}, {args.runs} runs each")
        print(f"  {'metric':16s} {'median A':>10s} {'spread A':>9s} {'median B':>10s} "
              f"{'spread B':>9s} {'B vs A':>8s} {'bound':>6s}  verdict")
        for name, spec in bounds.items():
            sa, sb = (summary([r["metrics"][name]["value"] for r in runs[s]]) for s in (0, 1))
            change = (sb["median"] - sa["median"]) / sa["median"]
            worse = change if spec["better"] == "lower" else -change
            ok = worse <= spec["bound"]
            if name != "setup_s":
                ok = ok and sa["spread"] <= spec["bound"] and sb["spread"] <= spec["bound"]
            all_agree &= ok
            rows[name] = {"A": sa, "B": sb, "change": change, "bound": spec["bound"], "agree": ok}
            print(f"  {name:16s} {sa['median']:10.4g} {sa['spread']:9.3f} {sb['median']:10.4g} "
                  f"{sb['spread']:9.3f} {change:+8.3f} {spec['bound']:6.2f}  "
                  f"{'agree' if ok else 'DISAGREE'}")
        shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for rs in runs]
        correct = all(r["correct"] for rs in runs for r in rs)
        all_agree &= shares[0] == shares[1] and correct
        print(f"  failed share A {shares[0]:.4f}, B {shares[1]:.4f}; all outputs correct: "
              f"{correct}\n")
        report["workloads"][workload] = {"metrics": rows, "failed_share": shares,
                                         "correct": correct, "runs": runs}
    report["agree"] = all_agree
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"sets {'agree' if all_agree else 'DO NOT agree'} within the bounds; "
          f"details in {out}")
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
