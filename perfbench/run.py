"""foamcalc benchmark: one workload per call, each in fresh processes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (or any checkout of it); the library is
imported from ``src/``.  Workloads and metrics are listed in catalog.py and
BENCHMARK.json.

``--trace 0`` measures the end-to-end metrics.  It starts SETUP_PROBES
processes that only set the workload up, then one process that sets it up
and runs a closed loop with one caller for ``--seconds`` seconds (and at
least one full pass over the workload's ops).  Times are scaled to the
nominal speed of a reference kernel run between the ops (calib.py), which
takes the host's speed drift out of them.  ``--trace 1`` gives the
per-layer metrics: one untraced pass and one traced pass, each in its own
process, whose outputs must agree.

Every op's result is checked.  The human-readable report goes to stdout and
the last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every check passed and
1 otherwise; 2 means no result was produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import calib  # noqa: E402
from catalog import (  # noqa: E402
    DEFAULT_SEED, END_TO_END, EXTRA_WORKLOADS, PER_LAYER, RUN_SECONDS, WORKLOADS,
)

SETUP_PROBES = 4
TIME_LIMIT_S = 170  # a run must end within 180 s


class NoResult(Exception):
    pass


def spawn(args, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    timeout = deadline - t0
    if timeout <= 0:
        raise NoResult("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, "--t0", repr(t0)] + args,
            stdout=subprocess.PIPE, env=env, cwd=ROOT, timeout=timeout, text=True,
        )
    except subprocess.TimeoutExpired:
        raise NoResult(f"worker {args} ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise NoResult(f"worker {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile(points: list[tuple[float, float]], pct: float) -> float:
    """Percentile of weighted values.  Each value stands at the middle of its
    share of the total weight, and the percentile is interpolated linearly
    between the two values around it."""
    total = sum(w for _, w in points)
    ranked, acc = [], 0.0
    for x, w in sorted(points):
        ranked.append(((acc + w / 2) / total, x))
        acc += w
    q = pct / 100
    if q <= ranked[0][0]:
        return ranked[0][1]
    for (q0, x0), (q1, x1) in zip(ranked, ranked[1:]):
        if q <= q1:
            return x0 + (x1 - x0) * (q - q0) / (q1 - q0)
    return ranked[-1][1]


def end_to_end(setups: list[float], run: dict) -> tuple[dict, list[str]]:
    lat = run["latencies"]
    medians = [statistics.median(slot) for slot in lat]
    if run["new_inputs_each_pass"]:
        # every sample is an input of its own; each op weighs the same
        points = [(x, 1 / len(slot)) for slot in lat for x in slot]
    else:
        # an input's latency is its median over the run, so a slow moment of
        # the host does not widen the percentiles
        points = [(x, 1.0) for x in medians]
    pct = run["tail_pct"]
    tail = percentile(points, pct)
    beyond = sum(1 for x, _ in points if x > tail)
    ops = sum(map(len, lat))
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(medians),
        "op_p50_ms": percentile(points, 50) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"one pass over {len(lat)} inputs, sum of their medians; unscaled "
                  f"{sum(statistics.median(slot) for slot in run['raw_latencies']):.4f} s",
        "op_p50_ms": f"over {len(points)} inputs, {ops} ops",
        "op_tail_ms": f"p{pct} over {len(points)} inputs, {beyond} beyond it",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    speed = (f"  times scaled to calib.NOMINAL_S = {calib.NOMINAL_S * 1e3:g} ms; "
             f"the kernel took {run['kernel_s'] * 1e3:.3f} ms in this run")
    lines = [f"  {name:<12} {values[name]:>12.4f} {unit:<3} ({notes[name]})"
             for name, unit, _, _ in END_TO_END] + [speed]
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}, lines


def per_layer(plain: dict, traced: dict) -> tuple[dict, list[str]]:
    values = dict(traced["layers"])
    for num in range(1, 14):
        values[f"acceptance.c{num:02d}_s"] = 0.0
    for label, slot in zip(plain["labels"], plain["latencies"]):
        if label.startswith("criterion "):
            values[f"acceptance.c{int(label.split()[1]):02d}_s"] = statistics.median(slot)
    values["trace.overhead_frac"] = (
        sum(map(sum, traced["latencies"])) / sum(map(sum, plain["latencies"])) - 1
    )
    lines = [f"  {name:<34} {values[name]:>16.6g} {unit}" for name, unit, _ in PER_LAYER]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}, lines


def measure(args, deadline: float) -> tuple[dict, list[str], list[str], int]:
    """Returns (metrics, report lines, failures, ops attempted)."""
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    if args.trace:
        plain = spawn(common + ["--mode", "run", "--seconds", "0"], deadline)
        traced = spawn(common + ["--mode", "trace"], deadline)
        failures = plain["failures"] + traced["failures"]
        if plain["digest"] != traced["digest"]:
            failures.append("traced and untraced passes gave different outputs")
        metrics, lines = per_layer(plain, traced)
        lines.append(f"  digest {traced['digest']}")
        return metrics, lines, failures, plain["attempted"] + traced["attempted"]
    setups = [spawn(common + ["--mode", "setup"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    run = spawn(common + ["--mode", "run", "--seconds", str(args.seconds)], deadline)
    metrics, lines = end_to_end(setups + [run["setup_s"]], run)
    lines.append(f"  digest {run['digest']}")
    return metrics, lines, run["failures"], run["attempted"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="foamcalc benchmark")
    p.add_argument("--workload", required=True,
                   choices=[name for name, _ in WORKLOADS + EXTRA_WORKLOADS])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input, for smoke tests")
    args = p.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    try:
        metrics, lines, failures, attempted = measure(args, deadline)
    except NoResult as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".perfbench_work"))
        except OSError:
            pass
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size} python={platform.python_version()}")
    print("\n".join(lines))
    print(f"  fail_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted} ops)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
