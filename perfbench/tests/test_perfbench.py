"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from catalog import END_TO_END, EXTRA_WORKLOADS, PER_LAYER, RUN_SECONDS, WORKLOADS  # noqa: E402

NAMES = [name for name, _ in WORKLOADS + EXTRA_WORKLOADS]

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int, seed: int = 5, root: str = BENCH) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        stdout=subprocess.PIPE, text=True, timeout=180, cwd=os.path.dirname(root),
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_spec_matches_catalog():
    assert SPEC["paths"] == ["perfbench"]
    assert SPEC["run_seconds"] == RUN_SECONDS
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == \
        list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


def test_move_schemas_are_complete():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from foamcalc.moves import ALL_SCHEMAS
    from catalog import MOVE_SCHEMAS

    assert sorted(ALL_SCHEMAS) == list(MOVE_SCHEMAS)


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_metric(workload):
    outputs = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, lines = bench(workload, trace)
        assert code == 0, lines
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC[section]}
        outputs[trace] = [line for line in lines if line.strip().startswith("digest ")]
    # the traced run compares its own two passes; both runs must agree too
    assert outputs[0] == outputs[1] and len(outputs[0]) == 1


def test_end_to_end_metrics_are_positive():
    code, lines = bench("flip-closures", 0)
    assert code == 0
    for name, m in json.loads(lines[-1])["metrics"].items():
        assert m["value"] > 0, name


def test_without_the_library_there_is_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, lines = bench("battery", 0, root=str(tmp_path / "perfbench"))
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_scale_uses_the_nearest_kernel_samples():
    import calib

    # kernel times: 4 ms early on, 16 ms late; an op late in the run is scaled by the late samples
    samples = [(float(t), 0.004) for t in range(10)] + [(float(t), 0.016) for t in range(10, 20)]
    assert calib.scale(samples, 18.0) == calib.NOMINAL_S / 0.016
    assert calib.scale(samples, 1.0) == calib.NOMINAL_S / 0.004
    assert calib.kernel() == calib.kernel()
