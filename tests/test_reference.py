"""The benchmark's workloads reproduce their frozen final regrets exactly.

``perfbench/reference.json`` holds the final regret of every realization of
every benchmark workload at every master seed. The golden traces use N <= 7;
this runs the four workload configs at master seed 0 (N = 20 and 60)
in-process and requires the same final regrets bit for bit. Check every
master seed of every workload (a few minutes) with
``PYTHONPATH=src python tests/test_reference.py``, which exits non-zero on
any mismatch.
"""

import importlib.util
import json
import sys
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


def matches(name, master):
    """Whether the workload's final regrets at ``master`` equal the frozen ones."""
    config = parse_config(WORKLOADS.raw_config(name, master))
    finals = [trace.final_regret for trace in run_experiment(config, workers=1)]
    return finals == REFERENCE[name]["final_regret"][str(master)]


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_matches_frozen_final_regrets(name):
    assert REFERENCE[name]["config"] == WORKLOADS.WORKLOADS[name]["config"]
    assert matches(name, 0)


def check_all():
    """Compare every workload at every master seed; print one line per
    workload and return the number of mismatched (workload, seed) pairs."""
    seeds = range(WORKLOADS.SEED_MODULUS)
    failed = 0
    for name in sorted(WORKLOADS.WORKLOADS):
        if REFERENCE[name]["config"] != WORKLOADS.WORKLOADS[name]["config"]:
            print(f"{name}: config differs from the frozen one")
            failed += len(seeds)
            continue
        bad = [master for master in seeds if not matches(name, master)]
        note = f", mismatched master seeds {bad}" if bad else ""
        print(f"{name}: {len(seeds) - len(bad)}/{len(seeds)} =={note}", flush=True)
        failed += len(bad)
    total = len(seeds) * len(WORKLOADS.WORKLOADS)
    print(f"all: {total - failed}/{total} ==")
    return failed


if __name__ == "__main__":
    sys.exit(1 if check_all() else 0)
