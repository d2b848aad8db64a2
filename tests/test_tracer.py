"""The benchmark's per-layer tracer still finds what it wraps.

``perfbench/tracer.py`` (run by ``perfbench/run.py --trace 1``) looks up the
agent classes' round methods, ``sim.feedback`` and the consensus functions by
name and wraps them in place. This loads it unchanged, traces one tiny
realization of every algorithm, and checks that the agent, feedback and
consensus spans were recorded, one per round that calls them, that each
gossip step's span carries the size of the array it returned, and that
``uninstall`` puts every original back.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from gossipbandits import agents, consensus, sim
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
    tracer.install(recorder)
    try:
        for algorithm in ALGORITHMS:
            extra = {"decision_set": {"variant": "finite", "num_arms": 6},
                     "safe": {"c_min": 0.3}} if algorithm == "safe_dlucb" else {}
            config = parse_config({"topology": "ring", "N": 4, "d": 2, "T": horizon,
                                   "algorithm": algorithm, "realizations": 1, **extra})
            sim.run_realization(config, master_seed=0)
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
    # that has generations in flight, and two per rc burst round (W and V)
    assert calls["consensus.advance_queues"] == 3 * horizon
    steps = [span for span in recorder.spans if span[0] == "consensus.comm_step"]
    in_queue = sum(recorder.spans[span[3]][0] == "consensus.advance_queues"
                   for span in steps if span[3] >= 0)
    assert 3 * (horizon // 2) <= in_queue <= 3 * horizon
    bursts = len(steps) - in_queue
    assert bursts > 0 and bursts % 2 == 0
    assert [span[5] for span in steps] == returned
    assert [vars(owner)[attr] for owner, attr in targets] == originals
