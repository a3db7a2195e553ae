"""Smoke tests of the benchmark itself, at the tiny size.

Every workload must run, pass its output checks, and emit exactly the
metric names and units ``BENCHMARK.json`` declares; the self times of a
traced run's layer spans must add up to its traced wall time; and
``run.py`` must fail without printing a result when the package sources
are missing.
"""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def _run(workload, trace, cwd=ROOT, seconds="0.3"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", seconds, "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def _declared_units(kind):
    return {m["name"]: m["unit"] for m in DECLARED[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_declared_metrics(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == _declared_units(kind)
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) for v in values)
    if not trace:
        assert all(v > 0 for v in values)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_span_self_times_sum_to_wall(workload, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", "1", "--size", "tiny",
         "--t0", repr(time.monotonic()), "--trace-out", str(tmp_path / "trace.json")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = result["traced_wall_s"]
    assert abs(result["layer_self_s"] - wall) <= 0.03 * wall
    assert result["layers"]["trace.self_coverage"] > 0.9
    events = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
    assert {e["name"] for e in events} >= {"rep"}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
