"""One run of one workload, in a fresh single-threaded process.

run.py starts this file with the monotonic clock reading taken just before
the process was spawned (``--t0``), so that set-up time covers interpreter
start, ``import foamcalc``, input generation and the precomputed
references.  Modes:

* ``setup``: build the workload and report set-up time only;
* ``run``: closed loop with one caller, one op after the other, for one
  full pass over the ops and then for as long as the next op, at its last
  latency, still ends within ``--seconds`` (``--seconds 0`` gives exactly
  one pass);
* ``trace``: exactly one pass with the layer tracer installed.

Between the ops the worker runs ``calib.kernel`` (about KERNEL_SHARE of the
loop's time) and reports every latency, and the set-up time, scaled to the
kernel's nominal speed (see calib.py); the unscaled latencies come along for
the report.  The last line of stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import calib  # noqa: E402

# Share of the loop's time spent on calib.kernel, spread between the ops,
# and the most kernel samples taken after one op.
KERNEL_SHARE = 0.05
MAX_SAMPLES = 8


def call(op):
    """Time one op; check its result outside the timed region."""
    gc.collect()
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception as exc:  # a failing op is counted, not fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - start
    try:
        return dt, out, op.check(out)
    except Exception as exc:
        return dt, out, f"check raised {type(exc).__name__}: {exc}"


def run_ops(workload, seconds: float) -> dict:
    ops = workload.ops
    raw: list[list[tuple[float, float]]] = [[] for _ in ops]  # (midpoint, seconds)
    failures: list[str] = []
    digest = hashlib.sha256()
    samples = [calib.sample() for _ in range(calib.NEIGHBOURS)]
    owed = 0.0  # kernel time still to run to keep it at KERNEL_SHARE of the loop
    start = time.perf_counter()
    i = 0
    while i < len(ops) or time.perf_counter() - start + raw[i % len(ops)][-1][1] < seconds:
        slot = i % len(ops)
        op = ops[slot]
        dt, out, err = call(op)
        raw[slot].append((time.perf_counter() - dt / 2, dt))
        owed += KERNEL_SHARE * dt
        for _ in range(MAX_SAMPLES):
            if owed < samples[-1][1]:
                break
            samples.append(calib.sample())
            owed -= samples[-1][1]
        if err is not None:
            failures.append(f"{op.label}: {err}")
        if i < len(ops):
            digest.update((op.render(out) if out is not None else f"error {err}").encode())
            digest.update(b"\0")
        i += 1
    samples += [calib.sample() for _ in range(calib.NEIGHBOURS)]
    digest_hex = digest.hexdigest()
    if workload.expected_digest is not None and digest_hex != workload.expected_digest:
        failures.append(f"output digest {digest_hex} differs from {workload.expected_digest}")
    return {
        "labels": [op.label for op in ops],
        "latencies": [[dt * calib.scale(samples, at) for at, dt in slot] for slot in raw],
        "raw_latencies": [[dt for _, dt in slot] for slot in raw],
        "kernel_s": statistics.median(dt for _, dt in samples),
        "attempted": i,
        "failures": failures,
        "digest": digest_hex,
        "tail_pct": workload.tail_pct,
        "new_inputs_each_pass": workload.new_inputs_each_pass,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--size", default="full")
    p.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    p.add_argument("--t0", type=float, required=True)
    args = p.parse_args(argv)

    try:
        import foamcalc
    except ImportError as exc:
        print(f"cannot import foamcalc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(foamcalc.__file__).startswith(SRC + os.sep):
        print(f"foamcalc imported from {foamcalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    import cli_docs

    factories = {
        "flip-closures": workloads.flip_closures,
        "iet-compose": workloads.iet_compose_workload,
        "cli-docs": cli_docs.cli_docs,
        "battery": workloads.battery,
    }
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    workload = factories[args.workload](args.seed, args.size, workdir)
    try:
        setup_s = time.monotonic() - args.t0
        speed = [calib.sample() for _ in range(calib.NEIGHBOURS)]
        setup_s *= calib.scale(speed, speed[0][0])
        if args.mode == "setup":
            result = {}
        elif args.mode == "run":
            result = run_ops(workload, args.seconds)
        else:
            import tracer

            t = tracer.Tracer([workloads, cli_docs])
            t.install()
            try:
                result = run_ops(workload, 0.0)
            finally:
                t.uninstall()
            result["layers"] = t.metrics()
    finally:
        workload.cleanup()
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
