"""The benchmark's workloads: one simulator experiment each.

Every workload is a config mapping as a user would write it, the worker count
the experiment runs with, and whether it goes through the ``run`` command
line entry point. Why each workload was chosen is recorded in BENCHMARK.json
and README.md. The master seed is not part of the mapping: ``raw_config``
derives it from the benchmark seed.
"""

# Master seeds are the benchmark seed modulo this, so that every input the
# benchmark can make has final regrets frozen in reference.json.
SEED_MODULUS = 32

WORKLOADS = {
    "headline_er20": {
        "config": {
            "topology": {"kind": "erdos_renyi", "p": 0.5},
            "N": 20, "d": 5, "T": 200, "algorithm": "dlucb",
            "decision_set": {"variant": "box"},
            "realizations": 8,
        },
        "workers": 2,
        "via_cli": True,
    },
    "ring60_gossip": {
        "config": {
            "topology": {"kind": "ring"},
            "N": 60, "d": 5, "T": 460, "algorithm": "dlucb",
            "decision_set": {"variant": "box"},
            "realizations": 1,
        },
        "workers": 1,
        "via_cli": False,
    },
    "rc_er20_finite": {
        "config": {
            "topology": {"kind": "erdos_renyi", "p": 0.5},
            "N": 20, "d": 5, "T": 1000, "algorithm": "rc_dlucb",
            "decision_set": {"variant": "finite", "num_arms": 20},
            "realizations": 2,
        },
        "workers": 1,
        "via_cli": False,
    },
    "safe_ring20": {
        "config": {
            "topology": {"kind": "ring"},
            "N": 20, "d": 5, "T": 200, "algorithm": "safe_dlucb",
            "decision_set": {"variant": "finite", "num_arms": 20},
            "safe": {"c_min": 0.3},
            "realizations": 1,
        },
        "workers": 1,
        "via_cli": False,
    },
}


def master_seed(seed):
    return seed % SEED_MODULUS


def raw_config(name, seed):
    """The workload's config for a benchmark seed; finite arms follow the seed too."""
    raw = dict(WORKLOADS[name]["config"])
    master = master_seed(seed)
    raw["seed"] = master
    if raw["decision_set"]["variant"] == "finite":
        raw["decision_set"] = dict(raw["decision_set"], arm_seed=master)
    return raw
