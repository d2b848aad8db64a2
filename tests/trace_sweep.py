"""Trace sweep: run a fixed grid of single realizations and compare every
run's per-round trace arrays, bit for bit, with an earlier sweep's.

The grid is algorithm x topology x N x d x seed x decision set (``GRID``),
each run one ``sim.run_realization`` at master seed ``seed``, T = 200 by
default. ``safe_dlucb`` runs finite sets only, with ``safe.c_min`` 0.3: the
zero safe action on ``finite``, and x0 = 0.3 e_1 on ``finite_x0``, which no
other algorithm takes.
Record a sweep, change the code, and check that no curve moved:

    PYTHONPATH=src python tests/trace_sweep.py --out before.npz
    PYTHONPATH=src python tests/trace_sweep.py --out after.npz --compare before.npz

``--only AXIS=V1,V2`` narrows an axis (repeatable), ``--horizon`` sets T.
The file holds each of a run's ``ARRAYS`` under the key ``run:array``. With
``--compare`` the script lists every run with an array that is not
``array_equal`` to the other file's, or that the other file lacks, naming
those arrays, and exits 1 if there is any; runs only the other file holds
are ignored. It ends with the count of moved runs per algorithm, per d
and per decision set, each as moved/runs, so a change that moves one slice
of the grid shows which one.
"""

import argparse
import itertools
from collections import Counter
import sys

import numpy as np

from gossipbandits.agents import ALGORITHMS
from gossipbandits.config import parse_config
from gossipbandits.sim import run_realization

GRID = {
    "algorithm": ALGORITHMS,
    "topology": ("ring", "path", "star", "erdos_renyi"),
    "N": (3, 5, 6, 8, 11, 12),
    "d": (2, 3, 5),
    "seed": (0, 1),
    "decision_set": ("box", "finite", "finite_x0"),
}
# every per-round array of a Trace
ARRAYS = ("inst_regret", "cum_regret", "scalars", "violations", "phase_id", "phases_started")


def runs(grid, horizon):
    """(name, raw config, seed) of every valid point of ``grid``."""
    for values in itertools.product(*grid.values()):
        point = dict(zip(grid, values))
        algorithm, dset, d = point["algorithm"], point["decision_set"], int(point["d"])
        safe = algorithm == "safe_dlucb"
        if (safe and dset == "box") or (not safe and dset == "finite_x0"):
            continue
        raw = {"topology": {"kind": point["topology"], "p": 0.5}, "N": int(point["N"]),
               "d": d, "T": horizon, "algorithm": algorithm, "realizations": 1,
               "decision_set": "box" if dset == "box"
               else {"variant": "finite", "num_arms": 20}}
        if safe:
            raw["safe"] = {"c_min": 0.3}
            if dset == "finite_x0":
                raw["safe"]["x0"] = [0.3] + [0.0] * (d - 1)
        yield "-".join(f"{value}" for value in values), raw, int(point["seed"])


def sweep(grid, horizon):
    """Every run's (T,) trace arrays, by run name."""
    traces = {}
    for name, raw, seed in runs(grid, horizon):
        trace = run_realization(parse_config(raw), master_seed=seed)
        traces[name] = {array: getattr(trace, array) for array in ARRAYS}
    return traces


def moved(traces, other):
    """(run name, names of its moved arrays) of every run of ``traces`` with
    an array that ``other``, keyed ``run:array``, lacks or differs on."""
    out = []
    for name, arrays in traces.items():
        changed = [array for array, values in arrays.items()
                   if f"{name}:{array}" not in other
                   or not np.array_equal(values, other[f"{name}:{array}"])]
        if changed:
            out.append((name, changed))
    return out


def moved_per_value(names, changed, grid, axis):
    """"value moved/runs" for every value of ``axis`` among the run
    ``names``, in grid order, counting the runs of ``changed`` (as ``moved``
    returns them)."""
    position = list(grid).index(axis)
    runs = Counter(name.split("-")[position] for name in names)
    hits = Counter(name.split("-")[position] for name, _ in changed)
    return ", ".join(f"{value} {hits[value]}/{count}" for value, count in runs.items())


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the .npz file to write")
    parser.add_argument("--compare", help="an earlier sweep's .npz file")
    parser.add_argument("--only", action="append", default=[], metavar="AXIS=V1,V2",
                        help=f"narrow an axis of the grid ({', '.join(GRID)})")
    parser.add_argument("--horizon", type=int, default=200)
    args = parser.parse_args(argv)
    grid = dict(GRID)
    for text in args.only:
        axis, _, values = text.partition("=")
        if axis not in grid:
            parser.error(f"unknown axis {axis!r}")
        grid[axis] = tuple(values.split(","))
    traces = sweep(grid, args.horizon)
    np.savez(args.out, **{f"{name}:{array}": values for name, arrays in traces.items()
                          for array, values in arrays.items()})
    print(f"{len(traces)} runs written to {args.out}")
    if args.compare is None:
        return 0
    with np.load(args.compare) as other:
        changed = moved(traces, other)
    for name, arrays in changed:
        print(f"moved: {name} ({', '.join(arrays)})")
    print(f"{len(changed)}/{len(traces)} runs moved")
    for axis in ("algorithm", "d", "decision_set"):
        print(f"moved per {axis}: {moved_per_value(traces, changed, grid, axis)}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
