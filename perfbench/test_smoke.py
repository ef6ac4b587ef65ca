"""Smoke test of the benchmark itself, on shrunken grids with every code path kept.

Checks that every metric named in BENCHMARK.json is emitted with its unit and
a finite value on every workload, untraced and traced, and that the benchmark
refuses to run where the iontomo sources are missing.  Run from the
repository root::

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=180)


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_unit_and_finite_value(results, trace, section):
    for workload in WORKLOADS:
        res = results[workload, trace]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1, workload
        assert set(res["metrics"]) == {m["name"] for m in SPEC[section]}, workload
        for m in SPEC[section]:
            got = res["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"]), (workload, m["name"])
            if section == "end_to_end":
                assert got["value"] != 0.0, (workload, m["name"])


def test_every_per_layer_metric_is_measured_on_some_workload(results):
    for m in SPEC["per_layer"]:
        assert any(results[w, 1]["metrics"][m["name"]]["value"] != 0.0 for w in WORKLOADS), m["name"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
