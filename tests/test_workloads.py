"""The benchmark's own output checks, on its workloads at smoke size.

``perfbench/workloads.py`` defines each workload as a list of CLI steps and a
check per step that reads the step's outputs back; the benchmark counts a run
as incorrect when any check reports a problem.  Here every step runs through
``iontomo.cli.main`` in a temporary directory, so a change that breaks those
outputs fails in the test suite too.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from iontomo.cli import main

_WORKLOADS_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = workloads  # its dataclasses look their module up there
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_workload_passes_its_output_checks(tmp_path, monkeypatch, name, seed):
    monkeypatch.chdir(tmp_path)
    accuracy = {}
    for step in workloads.build(name, seed, smoke=True).steps:
        config = tmp_path / f"{step.command}.config.json"
        config.write_text(json.dumps(step.config))
        assert main([step.command, "--config", str(config)]) == 0, step.command
        assert step.check(tmp_path, accuracy) == [], step.command
        for out in step.outputs:
            assert (tmp_path / out).is_file(), out
