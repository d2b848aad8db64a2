"""Configuration-driven experiment runner emitting machine-readable results.

Subcommands: ``run`` (one experiment -> trace.csv + summary.json), ``sweep``
(one run per axis value plus a combined sweep.csv), and ``graph-info``
(spectral diagnostics for a topology). Exit codes: 0 success, 2 configuration
error, 3 runtime invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys

from .bandit import theoretical_regret_bound
from .config import KEYS, ConfigError, as_mapping, parse_config, read_config, resolved_dict
from .consensus import MixingPlan
from .graph import CommMatrix, load_edge_list
from .sim import aggregate, build_graph, build_network, run_experiment

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
        rows.append(",".join([str(t + 1)] + [_fmt(curves[name][t]) for name in TRACE_COLUMNS[1:]]))
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
    """Create ``out_dir``; earlier results there without ``overwrite``, or a
    path that cannot be made a directory, are configuration errors."""
    if not overwrite and os.path.exists(os.path.join(out_dir, "trace.csv")):
        raise ConfigError(f"output directory {out_dir!r} already holds results; pass --overwrite")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:  # a file in the way, an empty path, no permission
        raise ConfigError(f"cannot create output directory {out_dir!r} ({exc.strerror})") from None


def cmd_run(config, out_dir, workers, overwrite):
    # a network that cannot be built is a config error: find it before any output
    build_network(config, config.master_seed, 0)
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


def _split_values(text):
    """The items of a ``--values`` list: each is a JSON value followed by a
    comma or the end of ``text``, else a bare string up to the next comma.
    Empty items are dropped."""
    decoder, items = json.JSONDecoder(), []
    while text:
        end = (text + ",").index(",")
        try:
            json_end = decoder.raw_decode(text)[1]
            if text[json_end:json_end + 1] in ("", ","):
                end = json_end
        except json.JSONDecodeError:
            pass
        items.append(text[:end])
        text = text[end + 1:]
    return [item for item in items if item]


def _sweep_point(base_raw, axis, text):
    """The raw config of one sweep point. ``text`` is read as a JSON literal,
    else as the bare string. A topology value is merged into the base's
    section: a string sets its kind, an object the keys it names."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    if axis == "topology":
        value = {**as_mapping(base_raw.get(axis), axis), **as_mapping(value, axis)}
    return {**base_raw, axis: value}


def cmd_sweep(base_raw, axis, values, out_dir, workers, overwrite):
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}")
    if not values:
        raise ConfigError("sweep needs a non-empty value list")
    # every point and its network are checked before the first one runs
    configs = [parse_config(_sweep_point(base_raw, axis, value)) for value in values]
    for config in configs:
        build_network(config, config.master_seed, 0)
    _prepare_out(out_dir, overwrite=True)  # each point's run checks its own results
    rows = [["axis", "value", "final_regret_mean", "final_regret_std", "per_agent_regret_final",
             "phase_count_mean", "total_comm_scalars_mean", "S", "lambda2_abs"]]
    for index, (value, config) in enumerate(zip(values, configs)):
        # index-named, so that no value text nests directories or leaves out_dir
        clean = re.sub(r"[^A-Za-z0-9._-]+", "_", value).strip("_")[:64]
        point_dir = os.path.join(out_dir, f"{index}_{axis}={clean}")
        summary = cmd_run(config, point_dir, workers, overwrite)
        final = summary["final_regret"]
        rows.append([axis, value] + [_fmt(number) for number in (
            final["mean"], final["std"], final["per_agent_mean"], summary["phase_count_mean"],
            summary["total_comm_scalars_mean"], summary["S"], summary["lambda2_abs"])])
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return 0


# graph-info describes the network of a run with d = 5, whose default epsilon
# is 1/21; T and the algorithm do not shape the network
_GRAPH_INFO_RUN = {"d": 5, "T": 0, "algorithm": "dlucb"}


def cmd_graph_info(raw):
    """Print the spectrum and mixing horizon of realization 0's network."""
    topo = raw["topology"]
    # without --n, an explicit topology has as many nodes as its edge list
    if "N" not in raw and topo["kind"] == "explicit" and "edge_file" in topo:
        raw["N"] = load_edge_list(topo["edge_file"]).n_nodes
    config = parse_config({**_GRAPH_INFO_RUN, **raw})
    topology = build_graph(config, config.master_seed, 0)
    comm = CommMatrix(topology, config.comm_scheme)
    epsilon = config.epsilon
    print(f"nodes:        {topology.n_nodes}")
    print(f"max degree:   {int(topology.max_degree)}")
    print(f"scheme:       {config.comm_scheme}")
    print(f"|lambda_2|:   {comm.lambda2_abs:.6f}")
    if not comm.problems:
        print(f"S (eps={epsilon:.6g}): {MixingPlan.for_network(comm, epsilon).s_rounds}")
        print("doubly stochastic check: PASS")
    else:
        print(f"S (eps={epsilon:.6g}): n/a")
        print("doubly stochastic check: FAIL")
        for problem in comm.problems:
            print(f"  - {problem}")
    return 0


def _add_flag(parser, key, flag=None, **kwargs):
    """The flag that sets config ``key``; its value is stored under the key."""
    text = f"{key.help} (config key {key.name})"
    if isinstance(key.type, tuple):
        text += f"; one of {', '.join(key.type)}"
    if key.type is bool:
        kwargs.update(action="store_true", default=None)
    elif key.type in (int, float):
        kwargs["type"] = key.type
    parser.add_argument(flag or key.flag, dest=key.name, help=text, **kwargs)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gossipbandits",
        description="Decentralized linear bandit simulations over gossip networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(sp):
        sp.add_argument("--config", help="JSON config file")
        for key in KEYS:
            if key.flag:
                _add_flag(sp, key)
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
                         help="comma-separated axis values, each a JSON value (which may "
                              "hold commas) or a bare string")

    info_p = sub.add_parser("graph-info", help="spectral diagnostics for a topology")
    for key in KEYS:
        if key.name in ("topology.kind", "topology.p", "topology.edge_file", "N",
                        "epsilon", "seed", "comm_scheme"):
            _add_flag(info_p, key, "--scheme" if key.name == "comm_scheme" else None,
                      required=key.name == "topology.kind")
    return parser


def _merge_flags(args):
    """The config file's raw mapping with each given flag's value set under its key."""
    raw = read_config(args.config) if getattr(args, "config", None) else {}
    for key in KEYS:
        value = getattr(args, key.name, None)
        if value is None:
            continue
        if not key.section:
            raw[key.name] = value
            continue
        section = raw[key.section] = as_mapping(raw.get(key.section), key.section)
        section[key.leaf] = value
        if key.name == "decision_set.num_arms":  # --arms selects the finite set
            section["variant"] = "finite"
    return raw


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        raw = _merge_flags(args)
        if args.command == "graph-info":
            return cmd_graph_info(raw)
        if args.workers < 0:
            raise ConfigError(f"--workers must be >= 0 (0 = host parallelism), got {args.workers}")
        workers = args.workers or os.cpu_count() or 1
        if args.command == "run":
            config = parse_config(raw)
            cmd_run(config, args.out, workers, args.overwrite)
            return 0
        values = _split_values(args.values)
        return cmd_sweep(raw, args.axis, values, args.out, workers, args.overwrite)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime invariant breach
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
