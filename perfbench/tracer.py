"""Spans around the simulator's public functions, kept in memory.

``install`` swaps the functions and methods listed below for timing wrappers
in every module that holds a reference to them; ``uninstall`` puts the
originals back. The program itself is not changed. A span is the tuple
(name, start, end, parent, realization, value): ``parent`` indexes the span
list (-1 for a root), ``realization`` is the realization index (-1 outside
one) and ``value`` is a count taken at the boundary (see ``_VALUES``).

Realizations that run in pool workers record their spans in the worker; the
pool job is replaced by ``realization_job``, which returns them attached to
the realization's trace as ``bench_spans`` so the parent can merge them.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from gossipbandits import agents, bandit, cli, config, consensus, graph, sim

# Pool workers find the recorder through this module, which they import by name.
_active = None
_originals = []
_JOB = sim._realization_job

# span name -> (module that defines it, attribute, other modules that imported it)
_FUNCTIONS = {
    "graph.build_topology": (graph, "build_topology", (sim,)),
    "graph.build_comm_matrix": (graph, "build_comm_matrix", (sim,)),
    "graph.compute_mixing_rounds": (graph, "compute_mixing_rounds", (consensus,)),
    "consensus.advance_queues": (consensus, "advance_queues", (sim,)),
    "consensus.comm_step": (consensus, "comm_step", (sim,)),
    "bandit.ucb_select_box": (bandit, "ucb_select_box", (sim,)),
    "bandit.ucb_select_finite": (bandit, "ucb_select_finite", (sim,)),
    "bandit.safe_filter": (bandit, "safe_filter", (sim,)),
    "bandit.cho_factor": (bandit, "cho_factor", ()),
    "bandit.inv_sqrt_psd": (bandit, "inv_sqrt_psd", ()),
    "sim.run_experiment": (sim, "run_experiment", ()),
    "sim.run_realization": (sim, "run_realization", ()),
    "sim.feedback": (sim, "feedback", ()),
    "sim.aggregate": (sim, "aggregate", (cli,)),
    "cli.write_trace_csv": (cli, "write_trace_csv", ()),
    "config.parse_config": (config, "parse_config", (cli,)),
}

# span name -> (class, method); a subclass override that calls the base method
# records one span, the outer one
_METHODS = {
    "bandit.from_stats": ((bandit.ConfidenceSet, "from_stats"),),
    "agents.begin_round": ((agents.DlucbAgent, "begin_round"),
                           (agents.SafeDlucbAgent, "begin_round")),
    "agents.finish_round": ((agents.DlucbAgent, "finish_round"),
                            (agents.SafeDlucbAgent, "finish_round")),
    "agents.rc_trigger": ((agents.RcDlucbAgent, "trigger"),),
    "agents.rc_record_play": ((agents.RcDlucbAgent, "record_play"),),
}

# span name -> value(args, result): the count recorded with the span
_VALUES = {
    "graph.compute_mixing_rounds": lambda args, s_rounds: s_rounds,
    "consensus.advance_queues": lambda args, _: len(args[0][0]),  # queue depth
    "consensus.comm_step": lambda args, mixed: mixed.nbytes,  # computed, not measured
    "bandit.safe_filter": lambda args, keep: len(keep) / len(args[0]),
}


class Recorder:
    """Spans of one process, in the order they were opened."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.open_names = set()
        self.realization = -1


def _wrap(name, fn):
    value = _VALUES.get(name)

    def traced(*args, **kwargs):
        rec = _active
        if rec is None or name in rec.open_names:
            return fn(*args, **kwargs)
        idx = len(rec.spans)
        parent = rec.stack[-1] if rec.stack else -1
        rec.spans.append(None)
        rec.stack.append(idx)
        rec.open_names.add(name)
        result, returned = None, False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            returned = True
            return result
        finally:
            end = time.perf_counter()
            rec.stack.pop()
            rec.open_names.discard(name)
            count = value(args, result) if value and returned else 0
            rec.spans[idx] = (name, start, end, parent, rec.realization, count)

    return traced


def install(recorder):
    """Start recording into ``recorder``; wrappers go in on the first call."""
    global _active
    _active = recorder
    if _originals:
        return
    for name, (home, attr, importers) in _FUNCTIONS.items():
        original = getattr(home, attr)
        wrapper = _wrap(name, original)
        for module in (home, *importers):
            _originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
    for name, targets in _METHODS.items():
        for cls, attr in targets:
            original = cls.__dict__[attr]
            _originals.append((cls, attr, original))
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(_wrap(name, original.__func__)))
            else:
                setattr(cls, attr, _wrap(name, original))
    _originals.append((sim, "_realization_job", sim._realization_job))
    sim._realization_job = realization_job


def uninstall():
    """Put every original back and stop recording."""
    global _active
    _active = None
    while _originals:
        owner, attr, original = _originals.pop()
        setattr(owner, attr, original)


def realization_job(args):
    """Pool job: one realization with its spans attached to its trace."""
    if _active is None:  # a worker that imported this module afresh
        install(Recorder())
    rec = _active
    saved = rec.stack, rec.open_names, rec.realization
    rec.stack, rec.open_names, rec.realization = [], set(), args[2]
    first = len(rec.spans)
    try:
        trace = _JOB(args)
    finally:
        rec.stack, rec.open_names, rec.realization = saved
    spans = rec.spans[first:]
    del rec.spans[first:]
    trace.bench_spans = [
        (name, start, end, parent - first if parent >= 0 else -1, real, value)
        for name, start, end, parent, real, value in spans
    ]
    return trace


def merge(parent_spans, traces):
    """One span list for an experiment: the parent's, then each realization's."""
    spans = list(parent_spans)
    for trace in traces:
        offset = len(spans)
        spans.extend(
            (name, start, end, parent + offset if parent >= 0 else -1, real, value)
            for name, start, end, parent, real, value in trace.__dict__.pop("bench_spans", ())
        )
    return spans


# per-layer metric -> span name: busy seconds, then calls, per experiment
_BUSY = {
    "graph.build_topology_s": "graph.build_topology",
    "graph.build_comm_matrix_s": "graph.build_comm_matrix",
    "consensus.advance_queues_s": "consensus.advance_queues",
    "consensus.comm_step_s": "consensus.comm_step",
    "bandit.from_stats_s": "bandit.from_stats",
    "bandit.ucb_select_box_s": "bandit.ucb_select_box",
    "bandit.ucb_select_finite_s": "bandit.ucb_select_finite",
    "bandit.safe_filter_s": "bandit.safe_filter",
    "agents.begin_round_s": "agents.begin_round",
    "agents.finish_round_s": "agents.finish_round",
    "agents.rc_trigger_s": "agents.rc_trigger",
    "agents.rc_record_play_s": "agents.rc_record_play",
    "sim.feedback_s": "sim.feedback",
    "sim.aggregate_s": "sim.aggregate",
    "cli.write_trace_csv_s": "cli.write_trace_csv",
    "config.parse_config_s": "config.parse_config",
}
_CALLS = {
    "consensus.advance_queues_calls": "consensus.advance_queues",
    "consensus.comm_step_calls": "consensus.comm_step",
    "bandit.from_stats_calls": "bandit.from_stats",
    "bandit.ucb_select_box_calls": "bandit.ucb_select_box",
    "bandit.ucb_select_finite_calls": "bandit.ucb_select_finite",
    "bandit.safe_filter_calls": "bandit.safe_filter",
    "bandit.cho_factor_calls": "bandit.cho_factor",
    "bandit.inv_sqrt_psd_calls": "bandit.inv_sqrt_psd",
    "agents.begin_round_calls": "agents.begin_round",
    "agents.finish_round_calls": "agents.finish_round",
    "agents.rc_trigger_calls": "agents.rc_trigger",
    "sim.feedback_calls": "sim.feedback",
}


def experiment_profile(spans, wall, workers, agent_rounds):
    """Per-layer figures of one traced experiment, and its realizations'
    (busy, self) seconds."""
    durations = [end - start for _, start, end, _, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += durations[i]
    busy = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    values = defaultdict(list)
    slot_bytes = defaultdict(int)  # advance_queues span -> bytes of its mixed slots
    realizations = []
    for i, (name, _, _, parent, _, value) in enumerate(spans):
        busy[name] += durations[i]
        self_time[name] += durations[i] - child_time[i]
        calls[name] += 1
        values[name].append(value)
        if name == "consensus.comm_step" and parent >= 0 \
                and spans[parent][0] == "consensus.advance_queues":
            slot_bytes[parent] += value
        if name == "sim.run_realization":
            realizations.append((durations[i], durations[i] - child_time[i]))

    out = {metric: busy[name] for metric, name in _BUSY.items()}
    out.update({metric: calls[name] for metric, name in _CALLS.items()})
    out["consensus.advance_queues_self_s"] = self_time["consensus.advance_queues"]
    out["consensus.slot_mixes"] = sum(values["consensus.advance_queues"])
    # each slot holds its payload and the previous round's copy
    out["consensus.queue_mb_computed"] = 2 * max(slot_bytes.values(), default=0) / 1e6
    out["consensus.mixed_mb_computed"] = sum(values["consensus.comm_step"]) / 1e6
    mixing = values["graph.compute_mixing_rounds"]
    out["graph.mixing_rounds"] = sum(mixing) / len(mixing) if mixing else 0
    factorizations = calls["bandit.cho_factor"] + calls["bandit.inv_sqrt_psd"]
    out["bandit.factorizations_per_agent_round"] = factorizations / agent_rounds
    certified = values["bandit.safe_filter"]
    out["bandit.certified_arm_frac"] = sum(certified) / len(certified) if certified else 0.0
    out["sim.worker_busy_frac"] = busy["sim.run_realization"] / (workers * wall)
    return out, realizations


def layer_metrics(profiles, realizations, horizon):
    """Mean of the per-experiment figures; realization times as medians."""
    out = {key: statistics.fmean(p[key] for p in profiles) for key in profiles[0]}
    out["sim.run_realization_s"] = statistics.median(r[0] for r in realizations)
    out["sim.run_realization_self_s"] = statistics.median(r[1] for r in realizations)
    out["sim.ms_per_round"] = 1e3 * out["sim.run_realization_s"] / horizon
    return out


def write_spans(path, experiments):
    """CSV of every traced experiment's spans, times relative to its start."""
    with open(path, "w") as fh:
        fh.write("experiment,name,start_s,end_s,parent,realization,value\n")
        for k, (origin, spans) in enumerate(experiments):
            for name, start, end, parent, real, value in spans:
                fh.write(f"{k},{name},{start - origin:.9f},{end - origin:.9f},"
                         f"{parent},{real},{value}\n")
