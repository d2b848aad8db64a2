"""The benchmark harness in ``perfbench/`` still runs against this source tree.

``perfbench/harness.py`` binds ``sim.build_network``, ``cli.TRACE_COLUMNS``,
the agents' round methods and more by name, so a rename would otherwise show
only when the benchmark runs. Each case runs one short ``harness.py run`` in
a fresh process, with BLAS pinned to one thread, and checks that no
realization failed and that every metric ``BENCHMARK.json`` declares for the
mode came back. ``setup_s`` is the exception: ``perfbench/run.py`` derives
it from its own probes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload, trace", [
    ("headline_er20", 0),  # through the run command line
    ("safe_ring20", 1),
    ("rc_er20_finite", 1),
    ("ring60_gossip", 1),  # box gossip: the tracer reads the batch-mixing pipeline
])
def test_harness_runs_the_workload(tmp_path, workload, trace):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "harness.py"), "run", "--workload", workload,
         "--seed", "0", "--seconds", "0.01", "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=600, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] >= 1, done.stderr
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert names - {"setup_s"} <= set(result["metrics"])
