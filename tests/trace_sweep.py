"""Regret-trace sweep: run a fixed grid of single realizations and compare
every run's cumulative regret curve, bit for bit, with an earlier sweep's.

The grid is algorithm x topology x N x d x seed x decision set (``GRID``),
each run one ``sim.run_realization`` at master seed ``seed``, T = 200 by
default. ``safe_dlucb`` runs the finite set only, with ``safe.c_min`` 0.3.
Record a sweep, change the code, and check that no curve moved:

    PYTHONPATH=src python tests/trace_sweep.py --out before.npz
    PYTHONPATH=src python tests/trace_sweep.py --out after.npz --compare before.npz

``--only AXIS=V1,V2`` narrows an axis (repeatable), ``--horizon`` sets T.
With ``--compare`` the script lists every run whose curve is not
``array_equal`` to the other file's, or that the other file lacks, and exits
1 if there is any; runs only the other file holds are ignored.
"""

import argparse
import itertools
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
    "decision_set": ("box", "finite"),
}


def runs(grid, horizon):
    """(name, raw config, seed) of every valid point of ``grid``."""
    for values in itertools.product(*grid.values()):
        point = dict(zip(grid, values))
        algorithm, dset = point["algorithm"], point["decision_set"]
        if algorithm == "safe_dlucb" and dset == "box":
            continue
        raw = {"topology": {"kind": point["topology"], "p": 0.5}, "N": int(point["N"]),
               "d": int(point["d"]), "T": horizon, "algorithm": algorithm,
               "realizations": 1,
               "decision_set": {"variant": "finite", "num_arms": 20} if dset == "finite"
               else "box"}
        if algorithm == "safe_dlucb":
            raw["safe"] = {"c_min": 0.3}
        yield "-".join(f"{value}" for value in values), raw, int(point["seed"])


def sweep(grid, horizon):
    """Every run's (T,) cumulative regret, by run name."""
    return {name: run_realization(parse_config(raw), master_seed=seed).cum_regret
            for name, raw, seed in runs(grid, horizon)}


def moved(curves, other):
    """Names of the runs of ``curves`` whose curve ``other`` lacks or differs on."""
    return [name for name, curve in curves.items()
            if name not in other or not np.array_equal(curve, other[name])]


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
    curves = sweep(grid, args.horizon)
    np.savez(args.out, **curves)
    print(f"{len(curves)} runs written to {args.out}")
    if args.compare is None:
        return 0
    with np.load(args.compare) as other:
        changed = moved(curves, other)
    for name in changed:
        print(f"moved: {name}")
    print(f"{len(changed)}/{len(curves)} runs moved")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
