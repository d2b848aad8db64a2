"""Configuration-driven experiment runner emitting machine-readable results.

Subcommands: ``run`` (one experiment -> trace.csv + summary.json), ``sweep``
(one run per axis value plus a combined sweep.csv), and ``graph-info``
(spectral diagnostics for a topology). Exit codes: 0 success, 2 configuration
error, 3 runtime invariant breach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bandit import theoretical_regret_bound
from .config import ConfigError, parse_config, resolved_dict
from .graph import CommMatrix, build_topology, compute_mixing_rounds, load_edge_list
from .sim import aggregate, run_experiment

TRACE_COLUMNS = (
    "t",
    "regret_mean",
    "regret_std",
    "per_agent_regret_mean",
    "comm_scalars_cum",
    "phases_cum",
    "violations_cum",
)


def _fmt(value):
    if isinstance(value, (int,)):
        return str(value)
    return format(float(value), ".12g")


def write_trace_csv(path, curves, horizon):
    rows = [",".join(TRACE_COLUMNS)]
    for t in range(horizon):
        rows.append(",".join([
            str(t + 1),
            _fmt(curves["regret_mean"][t]),
            _fmt(curves["regret_std"][t]),
            _fmt(curves["per_agent_regret_mean"][t]),
            _fmt(curves["comm_scalars_cum"][t]),
            _fmt(curves["phases_cum"][t]),
            _fmt(curves["violations_cum"][t]),
        ]))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(rows) + "\n")


def _bound_or_none(config, trace):
    if config.algorithm not in ("dlucb", "rc_dlucb"):
        return None
    try:
        return theoretical_regret_bound(
            config.algorithm,
            s_rounds=trace.s_rounds,
            d=config.d,
            n_agents=config.n_agents,
            horizon=config.horizon,
            lam=config.lam,
            delta=config.delta,
            sigma=config.sigma,
            epsilon=config.epsilon,
        )
    except ValueError:
        return None


def _summary(config, traces, curves):
    horizon = config.horizon
    bounds = [_bound_or_none(config, tr) for tr in traces]
    have_bounds = all(b is not None for b in bounds) and traces
    within = (
        sum(tr.final_regret <= b for tr, b in zip(traces, bounds)) if have_bounds else None
    )
    final_mean = float(curves["regret_mean"][-1]) if horizon else 0.0
    final_std = float(curves["regret_std"][-1]) if horizon else 0.0
    return {
        "final_regret": {
            "mean": final_mean,
            "std": final_std,
            "per_agent_mean": final_mean / config.n_agents,
        },
        "theoretical_bound": {
            "mean": (sum(bounds) / len(bounds)) if have_bounds else None,
            "seeds_within_bound": within,
        },
        "phase_count_mean": float(curves["phases_cum"][-1]) if horizon else 0.0,
        "total_comm_scalars_mean": float(curves["comm_scalars_cum"][-1]) if horizon else 0.0,
        "violations_total_mean": float(curves["violations_cum"][-1]) if horizon else 0.0,
        "S": traces[0].s_rounds,
        "lambda2_abs": traces[0].lambda2_abs,
        "realizations": config.realizations,
        "config": resolved_dict(config),
    }


def _prepare_out(out_dir, overwrite):
    if os.path.isdir(out_dir) and os.path.exists(os.path.join(out_dir, "trace.csv")):
        if not overwrite:
            raise ConfigError(
                f"output directory {out_dir!r} already holds results; pass --overwrite"
            )
    os.makedirs(out_dir, exist_ok=True)


def cmd_run(config, out_dir, workers, overwrite):
    _prepare_out(out_dir, overwrite)
    traces = run_experiment(config, workers=workers)
    curves = aggregate(traces)
    write_trace_csv(os.path.join(out_dir, "trace.csv"), curves, config.horizon)
    summary = _summary(config, traces, curves)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"{config.algorithm}: final regret {summary['final_regret']['mean']:.2f} "
        f"over {config.realizations} realizations -> {out_dir}"
    )
    return summary


SWEEP_AXES = ("T", "N", "algorithm", "topology")


def cmd_sweep(base_raw, axis, values, out_dir, workers, overwrite):
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    os.makedirs(out_dir, exist_ok=True)
    rows = [
        "axis,value,final_regret_mean,final_regret_std,per_agent_regret_final,"
        "phase_count_mean,total_comm_scalars_mean,S,lambda2_abs"
    ]
    for value in values:
        config = parse_config({**base_raw, axis: value})
        point_dir = os.path.join(out_dir, f"{axis}={value}")
        summary = cmd_run(config, point_dir, workers, overwrite)
        rows.append(",".join([
            axis,
            str(value),
            _fmt(summary["final_regret"]["mean"]),
            _fmt(summary["final_regret"]["std"]),
            _fmt(summary["final_regret"]["per_agent_mean"]),
            _fmt(summary["phase_count_mean"]),
            _fmt(summary["total_comm_scalars_mean"]),
            str(summary["S"]),
            _fmt(summary["lambda2_abs"]),
        ]))
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        fh.write("\n".join(rows) + "\n")
    return 0


def cmd_graph_info(kind, n, p, edge_file, scheme, epsilon, seed):
    import numpy as np

    if kind == "explicit":
        topology = load_edge_list(edge_file, n)
    else:
        rng = np.random.default_rng(seed)
        topology = build_topology(kind, n, p=p, rng=rng)
    comm = CommMatrix(topology, scheme)
    problems = comm.problems
    # the raw |lambda_2|, before CommMatrix rounds exact averaging to zero
    lambda2 = float(abs(comm.eigenvalues[1])) if topology.n_nodes > 1 else 0.0
    print(f"nodes:        {topology.n_nodes}")
    print(f"max degree:   {int(topology.max_degree)}")
    print(f"scheme:       {scheme}")
    print(f"|lambda_2|:   {lambda2:.6f}")
    if not problems:
        s_rounds = compute_mixing_rounds(topology.n_nodes, epsilon, lambda2)
        print(f"S (eps={epsilon:.6g}): {s_rounds}")
        print("doubly stochastic check: PASS")
    else:
        print(f"S (eps={epsilon:.6g}): n/a")
        print("doubly stochastic check: FAIL")
        for problem in problems:
            print(f"  - {problem}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gossipbandits",
        description="Decentralized linear bandit simulations over gossip networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(sp):
        sp.add_argument("--config", help="JSON config file")
        sp.add_argument("--topology", help="topology kind (overrides config)")
        sp.add_argument("--p", type=float, help="edge probability for erdos_renyi")
        sp.add_argument("--edge-file", help="edge list file for explicit topologies")
        sp.add_argument("--n", type=int, help="number of agents")
        sp.add_argument("--d", type=int, help="action dimension")
        sp.add_argument("--t", type=int, help="horizon (rounds)")
        sp.add_argument("--algorithm", help="algorithm name")
        sp.add_argument("--sigma", type=float)
        sp.add_argument("--lambda", dest="lam", type=float)
        sp.add_argument("--delta", type=float)
        sp.add_argument("--epsilon", type=float)
        sp.add_argument("--realizations", type=int)
        sp.add_argument("--seed", type=int, help="master seed")
        sp.add_argument("--keep-warmup-data", action="store_true", default=None)
        sp.add_argument("--comm-scheme", choices=("laplacian", "normalized_laplacian"))
        sp.add_argument("--arms", type=int, help="finite decision set with this many arms")
        sp.add_argument("--arm-seed", type=int)
        sp.add_argument("--safe-c-min", type=float)
        sp.add_argument("--out", default="out", help="output directory")
        sp.add_argument("--workers", type=int, default=0,
                        help="worker processes (0 = host parallelism)")
        sp.add_argument("--overwrite", action="store_true")

    run_p = sub.add_parser("run", help="run one experiment")
    add_config_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="run an experiment per axis value")
    add_config_flags(sweep_p)
    sweep_p.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values")

    info_p = sub.add_parser("graph-info", help="spectral diagnostics for a topology")
    info_p.add_argument("--topology", required=True)
    info_p.add_argument("--n", type=int)
    info_p.add_argument("--p", type=float)
    info_p.add_argument("--edge-file")
    info_p.add_argument("--scheme", default="laplacian",
                        choices=("laplacian", "normalized_laplacian"))
    info_p.add_argument("--epsilon", type=float, default=1.0 / 21.0)
    info_p.add_argument("--seed", type=int, default=0)
    return parser


def _merge_flags(args):
    raw = {}
    if args.config:
        with open(args.config) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.config}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
    if args.topology is not None or args.p is not None or args.edge_file is not None:
        topo = raw.get("topology", {})
        if isinstance(topo, str):
            topo = {"kind": topo}
        topo = dict(topo)
        if args.topology is not None:
            topo["kind"] = args.topology
        if args.p is not None:
            topo["p"] = args.p
        if args.edge_file is not None:
            topo["edge_file"] = args.edge_file
        raw["topology"] = topo
    for key, value in (
        ("N", args.n), ("d", args.d), ("T", args.t), ("algorithm", args.algorithm),
        ("sigma", args.sigma), ("lambda", args.lam), ("delta", args.delta),
        ("epsilon", args.epsilon), ("realizations", args.realizations),
        ("seed", args.seed), ("keep_warmup_data", args.keep_warmup_data),
        ("comm_scheme", args.comm_scheme),
    ):
        if value is not None:
            raw[key] = value
    if args.arms is not None or args.arm_seed is not None:
        dset = raw.get("decision_set", {})
        if isinstance(dset, str):
            dset = {"variant": dset}
        dset = dict(dset)
        if args.arms is not None:
            dset["variant"] = "finite"
            dset["num_arms"] = args.arms
        if args.arm_seed is not None:
            dset["arm_seed"] = args.arm_seed
        raw["decision_set"] = dset
    if args.safe_c_min is not None:
        safe = dict(raw.get("safe", {}))
        safe["c_min"] = args.safe_c_min
        raw["safe"] = safe
    return raw


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "graph-info":
            if args.topology != "explicit" and args.n is None:
                raise ConfigError("graph-info needs --n unless the topology is explicit")
            return cmd_graph_info(args.topology, args.n, args.p, args.edge_file,
                                  args.scheme, args.epsilon, args.seed)
        raw = _merge_flags(args)
        workers = args.workers if args.workers > 0 else (os.cpu_count() or 1)
        if args.command == "run":
            config = parse_config(raw)
            cmd_run(config, args.out, workers, args.overwrite)
            return 0
        values = [v for v in args.values.split(",") if v]
        return cmd_sweep(raw, args.axis, values, args.out, workers, args.overwrite)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime invariant breach
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
