"""The benchmark's workloads reproduce their frozen final regrets exactly.

``perfbench/reference.json`` holds the final regret of every realization of
every benchmark workload. The golden traces use N <= 7; this runs the four
workload configs at master seed 0 (N = 20 and 60) in-process and requires
the same final regrets bit for bit.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from gossipbandits.config import parse_config
from gossipbandits.sim import run_experiment

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _workloads()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["workloads"]


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_matches_frozen_final_regrets(name):
    frozen = REFERENCE[name]
    assert frozen["config"] == WORKLOADS.WORKLOADS[name]["config"]
    config = parse_config(WORKLOADS.raw_config(name, 0))
    traces = run_experiment(config, workers=1)
    assert [trace.final_regret for trace in traces] == frozen["final_regret"]["0"]
