"""Golden traces: small runs of every algorithm must reproduce bit for bit.

The frozen arrays in ``golden_traces.npz`` were produced by the per-agent queue
implementation of the consensus pipeline; a case added later was frozen from
the code before the change that added it. A refactor of the round loop or the
gossip pipeline has to leave cumulative regret, communicated scalars and safety
violations bitwise unchanged. Regenerate (only when behaviour is meant to
change) with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import os

import numpy as np
import pytest

from gossipbandits.agents import GOSSIP_ALGORITHMS
from gossipbandits.config import parse_config
from gossipbandits.sim import run_realization

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_traces.npz")
FIELDS = ("cum_regret", "scalars", "violations")
SEEDS = (0, 1, 2)
ER = {"kind": "erdos_renyi", "p": 0.5}


def finite(num_arms):
    return {"variant": "finite", "num_arms": num_arms}


CONFIGS = {
    "dlucb_ring_box": {"topology": "ring", "N": 6, "d": 3, "T": 60, "algorithm": "dlucb"},
    "dlucb_er_finite": {"topology": ER, "N": 7, "d": 3, "T": 60, "algorithm": "dlucb",
                        "decision_set": finite(10)},
    # odd N: every holder row of a reward batch ends in pad entries
    "dlucb_ring7_box": {"topology": "ring", "N": 7, "d": 3, "T": 60, "algorithm": "dlucb"},
    "dlucb_path_box": {"topology": "path", "N": 4, "d": 2, "T": 50, "algorithm": "dlucb"},
    "dlts_ring_box": {"topology": "ring", "N": 5, "d": 3, "T": 60, "algorithm": "dlts"},
    "dlts_er_finite": {"topology": ER, "N": 6, "d": 3, "T": 60, "algorithm": "dlts",
                       "decision_set": finite(8)},
    "safe_dlucb_ring": {"topology": "ring", "N": 6, "d": 3, "T": 60,
                        "algorithm": "safe_dlucb", "decision_set": finite(12),
                        "safe": {"c_min": 0.3}},
    # nonzero x0: the safe filter's alpha terms and the shifted feedback
    "safe_dlucb_ring_x0": {"topology": "ring", "N": 6, "d": 3, "T": 60,
                           "algorithm": "safe_dlucb", "decision_set": finite(12),
                           "safe": {"c_min": 0.3, "x0": [0.2, -0.3, 0.1]}},
    "rc_dlucb_er_finite": {"topology": ER, "N": 6, "d": 3, "T": 120,
                           "algorithm": "rc_dlucb", "decision_set": finite(10)},
    "rc_dlucb_ring_box": {"topology": "ring", "N": 6, "d": 3, "T": 120, "algorithm": "rc_dlucb"},
    "no_comm_ring_box": {"topology": "ring", "N": 4, "d": 3, "T": 60,
                         "algorithm": "no_comm"},
    "no_comm_er_finite": {"topology": ER, "N": 5, "d": 3, "T": 60, "algorithm": "no_comm",
                          "decision_set": finite(10)},
    "centralized_er_finite": {"topology": ER, "N": 5, "d": 3, "T": 60,
                              "algorithm": "centralized", "decision_set": finite(10)},
    "centralized_ring_box": {"topology": "ring", "N": 5, "d": 3, "T": 60,
                             "algorithm": "centralized"},
}


def run_case(name, seed):
    config = parse_config({**CONFIGS[name], "realizations": 1})
    return run_realization(config, master_seed=seed)


def key(name, seed, field):
    return f"{name}/seed{seed}/{field}"


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return dict(data)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_matches_golden_bitwise(golden, name):
    algorithm = CONFIGS[name]["algorithm"]
    for seed in SEEDS:
        trace = run_case(name, seed)
        for field in FIELDS:
            out, frozen = getattr(trace, field), golden[key(name, seed, field)]
            assert out.dtype == frozen.dtype, (name, seed, field)
            assert np.array_equal(out, frozen), (name, seed, field)
        # mixed network data, not warm-up, drives most rounds
        if algorithm in GOSSIP_ALGORITHMS:
            assert 2 * trace.s_rounds < trace.horizon, (name, seed)
        if algorithm == "rc_dlucb":
            assert trace.phase_count >= 1, (name, seed)


def freeze():
    arrays = {}
    for name in CONFIGS:
        for seed in SEEDS:
            trace = run_case(name, seed)
            for field in FIELDS:
                arrays[key(name, seed, field)] = getattr(trace, field)
    np.savez_compressed(GOLDEN, **arrays)
    print(f"froze {len(arrays)} arrays into {GOLDEN}")


if __name__ == "__main__":
    freeze()
