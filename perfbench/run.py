"""Benchmark of the gossipbandits simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # every workload, one after another

Each workload runs in a fresh process (harness.py), after SETUP_PROBES fresh
processes that only import the simulator and parse the workload's config,
each followed by a process that only imports numpy and scipy. setup_s is the
median time from starting such a probe to its first call into the simulator,
over the probes and the workload's own process, at the reference host speed
(REFERENCE_IMPORT_S below). BLAS runs one thread per process. The last line
of standard output is one JSON object with the metrics BENCHMARK.json names:
end-to-end with --trace 0, per-layer with --trace 1. README.md defines the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS = os.path.join(HERE, "harness.py")
SETUP_PROBES = 6
TIME_LIMIT_S = 170  # per workload, under the 180 s a run may take
# The host's speed drifts, and set-up time with it: between two sets of runs
# on a 2-vCPU host (Intel Xeon, 2.1 GHz) the median set-up time fell by up to
# 30%. So setup_s is rescaled to a reference host speed, by REFERENCE_IMPORT_S
# over the median time of fresh processes that only import the simulator's
# third-party packages (BASELINE), run between the set-up probes. Import work
# the simulator adds or drops does not touch the baseline, so it shows in full.
BASELINE = "import time, numpy, scipy.linalg; print(repr(time.monotonic()))"
REFERENCE_IMPORT_S = 0.33  # BASELINE's median on that host


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, deadline):
    """Run Python with ``argv`` in its own process group; returns its stdout lines."""
    label = " ".join(argv[:2])
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{label} overran the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{label} exited with code {proc.returncode}")
    lines = out.splitlines()
    if not lines:
        raise BenchError(f"{label} printed nothing")
    return lines


def seconds_to_printed_time(argv, deadline):
    """Seconds from starting a child to the monotonic time it prints."""
    start = time.monotonic()
    return float(run_child(argv, deadline)[-1]) - start


def run_workload(name, seed, seconds, trace):
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", name, "--seed", str(seed)]
    setups, baselines = [], []
    for _ in range(SETUP_PROBES):
        setups.append(seconds_to_printed_time([HARNESS, "probe", *common], deadline))
        baselines.append(seconds_to_printed_time(["-c", BASELINE], deadline))
    out_dir = os.path.join(ROOT, ".bench_out", f"{name}-seed{seed}")
    start = time.monotonic()
    result = json.loads(run_child([HARNESS, "run", *common, "--seconds", str(seconds),
                                   "--trace", str(trace), "--out", out_dir], deadline)[-1])
    setups.append(result["first_call_at"] - start)
    result["setup_as_timed_s"] = statistics.median(setups)
    result["baseline_import_s"] = statistics.median(baselines)
    result["metrics"]["setup_s"] = (result["setup_as_timed_s"] * REFERENCE_IMPORT_S
                                    / result["baseline_import_s"])
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gossipbandits", "__init__.py")):
        print(f"no simulator source under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    report = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        print(f"{name} env {json.dumps(result['env'], sort_keys=True)}")
        print(f"{name} agent_rounds_per_s of each untraced experiment at the reference "
              f"host speed: {[round(r, 1) for r in result['reference_rates']]}")
        rates = {kind: [round(r, 1) for r in values]
                 for kind, values in result["wall_rates"].items()}
        print(f"{name} agent_rounds_per_s of each experiment as timed: {json.dumps(rates)}")
        print(f"{name} setup_s as timed {result['setup_as_timed_s']:.4f} s, baseline "
              f"import {result['baseline_import_s']:.4f} s; realizations attempted "
              f"{result['attempted']}, failed {result['failed']}")
        measured = result["metrics"]
        missing = [m["name"] for m in declared if m["name"] not in measured]
        if missing:
            print(f"{name}: no value for {', '.join(missing)}", file=sys.stderr)
            return 1
        if args.trace:
            print(f"{name} ms/round (traced run, median realization): "
                  f"{measured['sim.ms_per_round']:.2f}")
            print(f"{name} tracing overhead {100 * measured['trace.overhead_frac']:.1f}% "
                  f"(traced vs untraced agent-rounds per second, as timed)")
        for metric in declared:
            value = measured[metric["name"]]
            print(f"{name} {metric['name']} {value:.6g} {metric['unit']}")
            key = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
            report["metrics"][key] = {"value": value, "unit": metric["unit"]}
        report["attempted"] += result["attempted"]
        report["failed"] += result["failed"]
    report["correct"] = report["failed"] == 0
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
