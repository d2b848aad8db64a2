"""Freeze the final regret of every realization of every workload and master
seed into reference.json, which the benchmark checks its outputs against.

    python3 perfbench/freeze_reference.py [--workload NAME ...]

Run it only at a commit whose behaviour is the reference; a workload whose
config changed must be frozen again, or its checks fail.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gossipbandits.config import parse_config  # noqa: E402
from gossipbandits.sim import run_experiment  # noqa: E402

from workloads import SEED_MODULUS, WORKLOADS, raw_config  # noqa: E402

PATH = os.path.join(HERE, "reference.json")


def final_regrets(job):
    name, master = job
    traces = run_experiment(parse_config(raw_config(name, master)), workers=1)
    return name, master, [tr.final_regret for tr in traces]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    names = args.workload or list(WORKLOADS)
    frozen = {"workloads": {}}
    if os.path.exists(PATH):
        with open(PATH) as fh:
            frozen = json.load(fh)
    jobs = [(name, master) for name in names for master in range(SEED_MODULUS)]
    with multiprocessing.get_context("spawn").Pool(os.cpu_count()) as pool:
        results = pool.map(final_regrets, jobs, chunksize=1)
    for name in names:
        frozen["workloads"][name] = {"config": WORKLOADS[name]["config"], "final_regret": {}}
    for name, master, regrets in results:
        frozen["workloads"][name]["final_regret"][str(master)] = regrets
    with open(PATH, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
