"""One workload of the benchmark in one fresh process; run.py starts it.

    harness.py probe --workload NAME --seed N
        Import the simulator, parse the workload's config and print the
        monotonic clock. run.py subtracts the time it started the process.
    harness.py run --workload NAME --seed N --seconds S --trace 0|1 --out DIR
        Run the workload's experiment again and again for S seconds, check the
        outputs of every realization and print one JSON line. Untraced
        experiments are also timed at the reference host speed. With --trace 1,
        untraced and traced experiments alternate, so that the traced run also
        measures the tracing overhead; the spans go to DIR/spans.csv.

The imports at the top are the set-up a user pays before the first call into
the simulator, so both modes import the same modules.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gossipbandits  # noqa: E402
from gossipbandits import cli, config as gb_config, sim  # noqa: E402
from gossipbandits.graph import compute_mixing_rounds  # noqa: E402

import tracer  # noqa: E402
from workloads import WORKLOADS, master_seed, raw_config  # noqa: E402

# Final regret of every realization must match reference.json this closely.
# Behaviour-preserving changes may reorder floating-point sums; a changed arm
# choice moves the final regret by far more than this.
REGRET_RTOL = 1e-6


# The host's speed drifts by up to a factor of two within seconds on a shared
# machine, and the simulator's time drifts with it. So the time of every
# untraced realization is rescaled to a reference host speed: by
# REFERENCE_BURST_S over the time of a fixed burst of small numpy solves, which
# does not depend on the simulator, timed next to it. REFERENCE_BURST_S is
# about the burst's median on the host the benchmark was defined on (2 vCPUs
# of an Intel Xeon at 2.1 GHz).
BURST_SOLVES = 400
REFERENCE_BURST_S = 0.0034
_BURST_A = np.eye(6) + 0.1 * np.ones((6, 6))
_BURST_B = np.arange(6.0)
# a realization is rescaled in segments of about this much wall time
SEGMENT_S = 0.25


def burst():
    """Seconds the fixed burst takes now."""
    start = time.perf_counter()
    for _ in range(BURST_SOLVES):
        np.linalg.solve(_BURST_A, _BURST_B)
    return time.perf_counter() - start


class HostClock:
    """Wall time of a realization, and that time at the reference host speed.

    The realization is cut into segments of about SEGMENT_S, at calls of
    ``tick``, with a burst timed at each cut. Each segment's wall time is
    scaled by REFERENCE_BURST_S over the median of the four bursts nearest it,
    the two at its ends and one more on each side: the host's speed changes
    over seconds, while a single burst can read long when the scheduler
    interrupts it. Bursts are not part of either time.
    """

    def start(self):
        self.walls = []
        self.bursts = [burst()]
        self.segment_start = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self.segment_start >= SEGMENT_S:
            self._close_segment()

    def _close_segment(self):
        self.walls.append(time.perf_counter() - self.segment_start)
        self.bursts.append(burst())
        self.segment_start = time.perf_counter()

    def stop(self):
        """Returns (wall seconds, reference seconds, burst seconds)."""
        self._close_segment()
        bursts = self.bursts
        reference = sum(wall * REFERENCE_BURST_S
                        / statistics.median(bursts[max(i - 1, 0):i + 3])
                        for i, wall in enumerate(self.walls))
        return sum(self.walls), reference, bursts


# One clock per process: pool workers inherit the patched functions and use
# their own copy, and each realization's times ride back on its trace.
_clock = HostClock()
_FEEDBACK = sim.feedback
_JOB = sim._realization_job


def _ticking_feedback(*args):
    _clock.tick()
    return _FEEDBACK(*args)


def _clocked_job(args):
    _clock.start()
    trace = _JOB(args)
    trace.bench_clock = (*_clock.stop(), os.getpid())
    return trace


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)


class Checker:
    """Output checks of one workload's realizations.

    The graph of each realization is rebuilt from the master seed, its second
    eigenvalue computed here, and S taken from compute_mixing_rounds; the
    communication total is then checked against its closed form.
    """

    def __init__(self, workload, config, reference):
        self.workload = workload
        self.config = config
        self.reference = reference
        self.graphs = {}

    def _graph(self, r):
        if r not in self.graphs:
            cfg = self.config
            topology, _, _ = sim.build_network(cfg, cfg.master_seed, r)
            adj = topology.adjacency
            deg = adj.sum(axis=1)
            gossip = np.eye(cfg.n_agents) - (np.diag(deg) - adj) / (deg.max() + 1.0)
            lambda2 = float(np.sort(np.abs(np.linalg.eigvalsh(gossip)))[-2])
            s_rounds = compute_mixing_rounds(cfg.n_agents, cfg.epsilon, lambda2)
            self.graphs[r] = s_rounds, lambda2, int(adj.sum())
        return self.graphs[r]

    def failures(self, r, trace):
        """Names of the checks realization r fails."""
        cfg = self.config
        s_rounds, lambda2, directed_edges = self._graph(r)
        failed = []
        if trace.s_rounds != s_rounds or not _close(trace.lambda2_abs, lambda2, 1e-9):
            failed.append("mixing_rounds")
        if cfg.algorithm == "rc_dlucb":
            bursts = int(np.count_nonzero(trace.phase_id))
            expected = directed_edges * cfg.d * (cfg.d + 1) * bursts
            if bursts > trace.phase_count * s_rounds:
                failed.append("burst_rounds")
        else:
            width = cfg.d + 1 + (cfg.algorithm == "safe_dlucb")
            depth_sum = sum(min(t, s_rounds) for t in range(1, cfg.horizon + 1))
            expected = directed_edges * cfg.n_agents * width * depth_sum
        if trace.total_comm_scalars != expected:
            failed.append("comm_scalars")
        if cfg.algorithm == "safe_dlucb" and trace.violations.sum() != 0:
            failed.append("safety_violations")
        if self.reference is None or not _close(trace.final_regret, self.reference[r],
                                                REGRET_RTOL):
            failed.append("final_regret")
        return failed

    def count_failed(self, traces):
        if traces is None or len(traces) != self.config.realizations:
            print(f"{self.workload}: experiment raised or returned no traces",
                  file=sys.stderr)
            return self.config.realizations
        failed = 0
        for r, trace in enumerate(traces):
            names = self.failures(r, trace)
            if names:
                print(f"{self.workload}: realization {r} failed {', '.join(names)}",
                      file=sys.stderr)
                failed += 1
        return failed


def cli_outputs_ok(out_dir, config, traces):
    """trace.csv and summary.json agree with the traces the command line ran."""
    finals = [tr.final_regret for tr in traces]
    comm = [tr.total_comm_scalars for tr in traces]
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(out_dir, "trace.csv")) as fh:
        rows = fh.read().splitlines()
    last = rows[-1].split(",")
    return (
        summary["S"] == traces[0].s_rounds
        and summary["realizations"] == config.realizations
        and _close(summary["final_regret"]["mean"], statistics.fmean(finals), 1e-9)
        and _close(summary["total_comm_scalars_mean"], statistics.fmean(comm), 1e-12)
        and summary["violations_total_mean"] == 0
        and rows[0] == ",".join(cli.TRACE_COLUMNS)
        and len(rows) == config.horizon + 1
        and int(last[0]) == config.horizon
        and _close(float(last[1]), statistics.fmean(finals), 1e-9)
    )


class Experiment:
    """Runs the workload's experiment as a user does and hands back its traces."""

    def __init__(self, workload, raw, out_dir):
        self.spec = WORKLOADS[workload]
        self.raw = raw
        self.out_dir = out_dir
        self.config_path = os.path.join(out_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(raw, fh)
        self.captured = []
        # the command line keeps its traces to itself: record what it was handed
        cli.run_experiment = self._capture

    def _capture(self, config, master_seed=None, workers=1):
        traces = sim.run_experiment(config, master_seed, workers)
        self.captured.append(traces)
        return traces

    def run(self, clocked):
        """Returns (wall seconds, traces or None if it failed). With
        ``clocked``, every realization is timed by the host clock too and
        carries its times as ``bench_clock``."""
        self.captured.clear()
        traces = None
        if clocked:
            sim.feedback, sim._realization_job = _ticking_feedback, _clocked_job
        start = time.perf_counter()
        try:
            if self.spec["via_cli"]:
                code = cli.main(["run", "--config", self.config_path, "--out", self.out_dir,
                                 "--workers", str(self.spec["workers"]), "--overwrite"])
                if code == 0 and self.captured:
                    traces = self.captured[-1]
            else:
                config = gb_config.parse_config(self.raw)
                traces = sim.run_experiment(config, workers=self.spec["workers"])
        except Exception:  # a realization that raised counts as failed
            traceback.print_exc()
        finally:
            sim.feedback, sim._realization_job = _FEEDBACK, _JOB
        return time.perf_counter() - start, traces


def reference_seconds(wall, traces, workers):
    """The experiment's time at the reference host speed, its wall time less
    the bursts, and the bursts.

    Each realization's reference time is placed on the first free of the
    pool's workers, in order, as ``Pool.map`` hands them out; the wall time
    outside the busiest worker (start-up, I/O) is scaled by the realizations'
    mean reference-to-wall ratio.
    """
    clocks = [trace.__dict__.pop("bench_clock") for trace in traces]
    lanes = defaultdict(lambda: [0.0, 0.0])  # worker -> [busy, burst] seconds
    for busy, _, bursts, pid in clocks:
        lanes[pid][0] += busy
        lanes[pid][1] += sum(bursts)
    busiest, busiest_bursts = max(lanes.values(), key=sum)
    ratio = sum(c[1] for c in clocks) / sum(c[0] for c in clocks)
    free = [0.0] * min(workers, len(clocks))
    for _, reference, _, _ in clocks:
        heapq.heappush(free, heapq.heappop(free) + reference)
    outside = wall - busiest - busiest_bursts
    return (outside * ratio + max(free), outside + busiest,
            [b for c in clocks for b in c[2]])


def environment(seed, bursts):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
        "master_seed": master_seed(seed),
        "burst_ms": 1e3 * statistics.median(bursts) if bursts else None,
        "reference_burst_ms": 1e3 * REFERENCE_BURST_S,
    }


def load_reference(workload, seed):
    """Frozen final regrets of this workload and master seed, or None if the
    reference was frozen for another config."""
    with open(os.path.join(HERE, "reference.json")) as fh:
        frozen = json.load(fh)["workloads"].get(workload)
    if frozen is None or frozen["config"] != WORKLOADS[workload]["config"]:
        return None
    return frozen["final_regret"].get(str(master_seed(seed)))


def run(args):
    raw = raw_config(args.workload, args.seed)
    config = gb_config.parse_config(raw)
    first_call_at = time.monotonic()

    spec = WORKLOADS[args.workload]
    os.makedirs(args.out, exist_ok=True)
    experiment = Experiment(args.workload, raw, args.out)
    checker = Checker(args.workload, config, load_reference(args.workload, args.seed))
    agent_rounds = config.n_agents * config.horizon * config.realizations

    rates = []  # agent-rounds per second at the reference host speed, untraced
    wall_rates = {False: [], True: []}  # as timed, by traced
    bursts = []
    attempted = failed = 0
    profiles, realizations, dumps, traced_traces = [], [], [], None
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(wall_rates[False]) > len(wall_rates[True])
        if traced:
            recorder = tracer.Recorder()
            tracer.install(recorder)
        origin = time.perf_counter()
        # bursts inside spans would skew them: traced experiments are not clocked
        wall, traces = experiment.run(clocked=not traced)
        if traced:
            tracer.uninstall()
        attempted += config.realizations
        bad = checker.count_failed(traces)
        if bad == 0 and spec["via_cli"] and not cli_outputs_ok(args.out, config, traces):
            print(f"{args.workload}: trace.csv or summary.json disagrees with the traces",
                  file=sys.stderr)
            bad = config.realizations
        failed += bad
        if not traced and traces is not None:
            reference, wall, times = reference_seconds(wall, traces, spec["workers"])
            rates.append(agent_rounds / reference)
            bursts.extend(times)
        wall_rates[traced].append(agent_rounds / wall)
        if traced and traces is not None:
            spans = tracer.merge(recorder.spans, traces)
            profile, times = tracer.experiment_profile(spans, wall, spec["workers"],
                                                       agent_rounds)
            profiles.append(profile)
            realizations.extend(times)
            dumps.append((origin, spans))
            traced_traces = traces
        enough = wall_rates[False] and (wall_rates[True] or not args.trace)
        if enough and time.perf_counter() + wall > deadline:
            break

    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "agent_rounds_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": usage / 1024.0,  # ru_maxrss is in KiB on Linux
        "passed_frac": (attempted - failed) / attempted,
    }
    if args.trace and profiles:
        metrics.update(tracer.layer_metrics(profiles, realizations, config.horizon))
        metrics["sim.comm_scalars"] = sum(tr.total_comm_scalars for tr in traced_traces)
        metrics["agents.rc_phases"] = sum(tr.phase_count for tr in traced_traces)
        metrics["trace.overhead_frac"] = (1.0 - statistics.median(wall_rates[True])
                                          / statistics.median(wall_rates[False]))
        tracer.write_spans(os.path.join(args.out, "spans.csv"), dumps)
    print(json.dumps({
        "first_call_at": first_call_at,
        "attempted": attempted,
        "failed": failed,
        "reference_rates": rates,
        "wall_rates": {"untraced": wall_rates[False], "traced": wall_rates[True]},
        "env": environment(args.seed, bursts),
        "metrics": metrics,
    }))


def probe(args):
    gb_config.parse_config(raw_config(args.workload, args.seed))
    print(repr(time.monotonic()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    if not os.path.abspath(gossipbandits.__file__).startswith(SRC + os.sep):
        sys.exit(f"gossipbandits was imported from {gossipbandits.__file__}, not {SRC}")
    if args.mode == "probe":
        probe(args)
    else:
        run(args)


if __name__ == "__main__":
    main()
