"""Smoke test of the benchmark itself; it asserts nothing about timings.

Run from the repository root with ``python3 -m pytest perfbench``.  It is
outside ``testpaths``, so the repository's own test run does not pick it up.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# tower runs by name but is not declared (see workloads.py); smoke it too.
WORKLOADS = [w["name"] for w in BENCH["workloads"]] + ["tower"]


def smoke(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_exactly_the_declared_metrics(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert record["workload"] == workload and record["seed"] == 7


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(workload):
    runs = [smoke(workload, 1) for _ in range(2)]
    counts = []
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-2])["record"]["counts_repeat"]
        metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]


def test_fails_without_the_program():
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = smoke(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
