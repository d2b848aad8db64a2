"""The benchmark in ``perfbench/`` still finds what it uses.

``perfbench/tracer.py`` (run by ``perfbench/run.py --trace 1``) looks up the
agent classes' round methods, ``sim.feedback`` and the consensus functions by
name and wraps them in place. This loads it unchanged, traces one tiny
realization of every algorithm, and checks that the agent, feedback and
consensus spans were recorded, one per round that calls them, that each
gossip step's span carries the size of the array it returned, and that
``uninstall`` puts every original back.

``perfbench/harness.py`` reads a fixed set of ``Trace`` attributes, hangs its
own data on each trace and takes it off again, and catches the traces the
``run`` command makes by patching ``cli.run_experiment``; the last test here
checks that contract.
"""

import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np

from gossipbandits import agents, cli, consensus, sim
from gossipbandits.agents import ALGORITHMS
from gossipbandits.config import parse_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_agent_and_feedback_spans_and_restores_originals(monkeypatch):
    tracer = _load_tracer()
    returned = []  # nbytes of every array comm_step returned, in call order

    def comm_step(*args, **kwargs):
        mixed = original_comm_step(*args, **kwargs)
        returned.append(mixed.nbytes)
        return mixed

    original_comm_step = consensus.comm_step
    monkeypatch.setattr(consensus, "comm_step", comm_step)
    targets = [(sim, "feedback"), (sim, "_realization_job"),
               (consensus, "comm_step"), (sim, "comm_step"),
               (consensus, "advance_queues"), (sim, "advance_queues"),
               (agents.DlucbAgent, "begin_round"), (agents.DlucbAgent, "finish_round"),
               (agents.SafeDlucbAgent, "begin_round"), (agents.SafeDlucbAgent, "finish_round"),
               (agents.RcDlucbAgent, "trigger"), (agents.RcDlucbAgent, "record_play")]
    originals = [vars(owner)[attr] for owner, attr in targets]
    recorder = tracer.Recorder()
    horizon = 30
    traces = {}
    tracer.install(recorder)
    try:
        for algorithm in ALGORITHMS:
            extra = {"decision_set": {"variant": "finite", "num_arms": 6},
                     "safe": {"c_min": 0.3}} if algorithm == "safe_dlucb" else {}
            config = parse_config({"topology": "ring", "N": 4, "d": 2, "T": horizon,
                                   "algorithm": algorithm, "realizations": 1, **extra})
            traces[algorithm] = sim.run_realization(config, master_seed=0)
    finally:
        tracer.uninstall()
    calls = Counter(span[0] for span in recorder.spans)
    # one call per round: feedback in every algorithm, begin_round in the
    # three gossip algorithms, the wrapped finish_round in all but rc_dlucb
    assert calls["sim.feedback"] == len(ALGORITHMS) * horizon
    assert calls["agents.begin_round"] == 3 * horizon
    assert calls["agents.finish_round"] == 5 * horizon
    assert 0 < calls["agents.rc_trigger"] == calls["agents.rc_record_play"] <= horizon
    # one queue advance per gossip round; a gossip step inside each advance
    # that has generations in flight, and outside them the S steps of the
    # gain that every completed rc phase mixes its sums with
    assert calls["consensus.advance_queues"] == 3 * horizon
    steps = [span for span in recorder.spans if span[0] == "consensus.comm_step"]
    in_queue = sum(recorder.spans[span[3]][0] == "consensus.advance_queues"
                   for span in steps if span[3] >= 0)
    assert 3 * (horizon // 2) <= in_queue <= 3 * horizon
    rc = traces["rc_dlucb"]
    completed = int(np.sum(np.bincount(rc.phase_id)[1:] == rc.s_rounds))
    assert completed > 0 and len(steps) - in_queue == rc.s_rounds * completed
    assert [span[5] for span in steps] == returned
    assert [vars(owner)[attr] for owner, attr in targets] == originals


def test_traces_keep_the_harness_contract(monkeypatch, tmp_path):
    captured = []

    def capture(config, master_seed=None, workers=1):
        traces = sim.run_experiment(config, master_seed, workers)
        captured.append(traces)
        return traces

    monkeypatch.setattr(cli, "run_experiment", capture)
    horizon = 12
    for algorithm in ALGORITHMS:
        extra = {"decision_set": {"variant": "finite", "num_arms": 6},
                 "safe": {"c_min": 0.3}} if algorithm == "safe_dlucb" else {}
        config = tmp_path / f"{algorithm}.json"
        config.write_text(json.dumps({"topology": "ring", "N": 4, "d": 2, "T": horizon,
                                      "algorithm": algorithm, "realizations": 1, **extra}))
        assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / algorithm),
                         "--workers", "1"]) == 0
        (trace,) = captured[-1]
        for counts in (trace.scalars, trace.violations, trace.phase_id,
                       trace.phases_started):
            assert counts.dtype == np.int64 and counts.shape == (horizon,)
        assert isinstance(trace.s_rounds, int) and isinstance(trace.lambda2_abs, float)
        assert trace.phase_count == trace.phases_started[-1]
        assert trace.final_regret == trace.cum_regret[-1]
        assert trace.total_comm_scalars == trace.scalars.sum()
        # the harness's clock and the tracer's spans ride on the trace
        trace.bench_clock = (1.0, 1.0, [0.1], 7)
        trace.bench_spans = []
        assert trace.__dict__.pop("bench_clock") == (1.0, 1.0, [0.1], 7)
        assert trace.__dict__.pop("bench_spans", ()) == []
        assert not hasattr(trace, "bench_clock")
