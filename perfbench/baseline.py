"""Run every workload on several seeds and summarise the spread.

    python3 perfbench/baseline.py [--seeds 10] [--seconds 40] [--workload NAME ...] [--write]

For each workload (by default those of BENCHMARK.json) and end-to-end metric this prints the median, the first
and third quartile (``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median, next to the metric's bound.  ``--write`` also makes
one traced run per workload at the default seed and stores the summary, the
input shares that caches and slice reuse depend on, the Python version and
the machine under each workload's entry in perfbench/baseline.json.
Seeds are 1..N.  Each run is a separate ``run.py`` call, so this takes about
N * (seconds + 5) seconds per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from catalog import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, EXTRA_WORKLOADS, RUN_SECONDS, WORKLOADS,
)

BASELINE = os.path.join(HERE, "baseline.json")
SHARES = ("weights.sign.repeat_frac", "foamdiag.apply_event.per_step",
          "moves.apply.useful_frac", "trace.overhead_frac")


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, cwd=ROOT, text=True, timeout=200,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    return result


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--workload", action="append",
                   choices=[n for n, _ in WORKLOADS + EXTRA_WORKLOADS])
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)

    summary = {}
    for workload in args.workload or [n for n, _ in WORKLOADS]:
        runs = [run_once(workload, seed, args.seconds) for seed in range(1, args.seeds + 1)]
        summary[workload] = {}
        for name, unit, _, bound in END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            s = summarise(values)
            summary[workload][name] = dict(s, unit=unit, values=values)
            flag = "" if s["spread"] < bound / 3 else "  <- above a third of the bound"
            print(f"{workload:<14} {name:<12} median {s['median']:>10.4f} {unit:<3} "
                  f"q1 {s['q1']:>10.4f} q3 {s['q3']:>10.4f} spread {s['spread']:.3f} "
                  f"(bound {bound}){flag}", flush=True)
        if args.write:
            traced = run_once(workload, DEFAULT_SEED, args.seconds, trace=1)["metrics"]
            summary[workload]["input_shares"] = {name: traced[name]["value"] for name in SHARES}
    if args.write:
        with open(BASELINE, encoding="utf-8") as fh:
            doc = json.load(fh)
        for workload, metrics in summary.items():
            doc["workloads"][workload]["baseline"] = dict(
                python=platform.python_version(),
                machine=f"{platform.machine()}, {os.cpu_count()} CPUs",
                seeds=list(range(1, args.seeds + 1)),
                seconds=args.seconds,
                **metrics,
            )
        with open(BASELINE, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
