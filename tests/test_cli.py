import csv
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import gossipbandits
from gossipbandits import cli, sim
from gossipbandits.agents import ALGORITHMS
from gossipbandits.cli import main
from gossipbandits import graph
from gossipbandits.config import (
    KEYS,
    ConfigError,
    ExperimentConfig,
    as_mapping,
    parse_config,
    resolved_dict,
)
from gossipbandits.graph import TOPOLOGY_KINDS, build_comm_matrix, build_topology
from gossipbandits.sim import build_network, run_realization


MINIMAL = {"topology": "ring", "N": 20, "d": 5, "T": 1000, "algorithm": "dlucb"}


def test_minimal_config_defaults():
    config = parse_config(dict(MINIMAL))
    assert config.sigma == 0.1
    assert config.lam == 1.0
    assert config.delta == 0.1
    assert config.epsilon == 1.0 / 21.0
    assert config.realizations == 20
    assert config.decision_set == "box"
    assert (config.c_min, config.x0) == (0.0, "zero")


def test_direct_config_resolves_default_epsilon():
    config = ExperimentConfig(topology="ring", n_agents=4, d=3, horizon=12,
                              algorithm="dlucb", decision_set="box", realizations=1)
    assert config.epsilon == 1.0 / 13.0
    assert config == parse_config({"topology": "ring", "N": 4, "d": 3, "T": 12,
                                   "algorithm": "dlucb", "realizations": 1})
    assert run_realization(config).horizon == 12


def test_config_rejects_bad_epsilon():
    with pytest.raises(ConfigError, match="epsilon"):
        parse_config({**MINIMAL, "epsilon": 2.0})


def test_config_rejects_safe_with_box():
    with pytest.raises(ConfigError, match="finite"):
        parse_config({**MINIMAL, "algorithm": "safe_dlucb"})


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({**MINIMAL, "horizon": 10})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({**MINIMAL, "topology": {"kind": "ring", "weight": 2}})


def test_config_validates_domains():
    with pytest.raises(ConfigError, match="lambda"):
        parse_config({**MINIMAL, "lambda": 0.5})
    with pytest.raises(ConfigError, match="delta"):
        parse_config({**MINIMAL, "delta": 1.0})
    with pytest.raises(ConfigError, match="erdos_renyi"):
        parse_config({**MINIMAL, "topology": "erdos_renyi"})
    with pytest.raises(ConfigError, match="algorithm"):
        parse_config({**MINIMAL, "algorithm": "ucb1"})
    with pytest.raises(ConfigError, match="num_arms"):
        parse_config({**MINIMAL, "decision_set": {"variant": "finite"}})
    with pytest.raises(ConfigError, match="realizations"):
        parse_config({**MINIMAL, "realizations": 10**18, "T": 1000})


def run_cli(tmp_path, config, extra=()):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out), "--workers", "1",
                 "--overwrite", *extra])
    return code, out


def test_run_smoke_writes_trace_and_summary(tmp_path):
    config = {"topology": "ring", "N": 4, "d": 2, "T": 10, "algorithm": "dlucb",
              "realizations": 2}
    code, out = run_cli(tmp_path, config)
    assert code == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == ("t,regret_mean,regret_std,per_agent_regret_mean,"
                        "comm_scalars_cum,phases_cum,violations_cum")
    assert len(lines) == 11
    summary = json.loads((out / "summary.json").read_text())
    assert summary["S"] >= 1
    assert summary["config"]["N"] == 4
    assert summary["config"]["epsilon"] == pytest.approx(1 / 9)
    assert summary["final_regret"]["mean"] > 0
    # the versions that produced the run, for reproducing it
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert summary["versions"] == {
        "gossipbandits": gossipbandits.__version__, "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "scipy": scipy.__version__, "python": ".".join(map(str, sys.version_info[:3]))}


def test_summary_blas_is_unknown_when_numpy_cannot_report_it(tmp_path, monkeypatch):
    def show_config(mode="stdout"):  # as a numpy without ``mode="dicts"`` raises
        raise TypeError(f"unexpected mode {mode!r}")

    monkeypatch.setattr(np, "show_config", show_config)
    code, out = run_cli(tmp_path, {"topology": "ring", "N": 4, "d": 2, "T": 10,
                                   "algorithm": "dlucb", "realizations": 1})
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["versions"]["blas"] == "unknown"


def test_summary_hashes_the_resolved_config(tmp_path):
    config = {"topology": "ring", "N": 4, "d": 2, "T": 10, "algorithm": "dlucb",
              "realizations": 1}
    hashes = []
    for horizon in (10, 11):  # one key changed
        code, out = run_cli(tmp_path, {**config, "T": horizon})
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        canonical = json.dumps(summary["config"], sort_keys=True, separators=(",", ":"))
        assert summary["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
        hashes.append(summary["config_sha256"])
    assert hashes[0] != hashes[1]


def test_summary_records_every_realizations_graph(tmp_path):
    # erdos_renyi resamples the graph in every realization, and at seed 0 the
    # eight graphs need different mixing horizons
    config = {"topology": {"kind": "erdos_renyi", "p": 0.5}, "N": 20, "d": 5, "T": 12,
              "algorithm": "dlucb", "realizations": 8, "seed": 0}
    code, out = run_cli(tmp_path, config)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    traces = sim.run_experiment(parse_config(config))
    assert summary["per_realization"] == {"S": [tr.s_rounds for tr in traces],
                                          "lambda2_abs": [tr.lambda2_abs for tr in traces]}
    assert len(set(summary["per_realization"]["S"])) > 1
    # the top-level pair stays realization 0's
    assert (summary["S"], summary["lambda2_abs"]) == (traces[0].s_rounds,
                                                      traces[0].lambda2_abs)


def test_run_bad_config_exits_2(tmp_path):
    config = {"topology": "ring", "N": 4, "d": 2, "T": 10, "algorithm": "dlucb",
              "epsilon": 7}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


SAFE = {"topology": "ring", "N": 4, "d": 2, "T": 10, "algorithm": "safe_dlucb",
        "decision_set": {"variant": "finite", "num_arms": 6}, "realizations": 2}


@pytest.mark.parametrize("change, message", [
    ({"decision_set": {"variant": "finite", "num_arms": 1}}, "num_arms >= 2"),
    ({"safe": {"x0": [0.9, 0.9]}}, "norm at most 1"),
    ({"safe": {"x0": [0.1, 0.1, 0.1]}}, "2 entries"),
    ({"decision_set": 5}, "decision_set must be a variant string or an object"),
    ({"safe": 5}, "safe must be an object"),
    ({"safe": {"c": "uniform"}}, "unknown key(s) in safe: c"),
    # values outside their domain that parsing can see
    pytest.param({"N": 2}, "ring topology needs N >= 3", id="ring-N2"),
    pytest.param({"seed": -1}, "seed must be >= 0", id="seed-negative"),
    pytest.param({"decision_set": {"variant": "finite", "num_arms": 6, "arm_seed": -1}},
                 "decision_set.arm_seed must be >= 0", id="arm_seed-negative"),
    pytest.param({"topology": {"kind": "explicit", "edge_file": 5}},
                 "topology.edge_file must be a string, got 5", id="edge_file-int"),
    # wrongly typed values are rejected by their declared type, never converted
    pytest.param({"realizations": True}, "realizations must be a number, got True",
                 id="realizations-bool"),
    pytest.param({"N": "4"}, "N must be a number, got '4'", id="N-numeric-str"),
    pytest.param({"sigma": True}, "sigma must be a number, got True", id="sigma-bool"),
    pytest.param({"decision_set": {"variant": "box", "num_arms": "abc"}},
                 "decision_set.num_arms must be a number, got 'abc'", id="num_arms-box-str"),
    # the keys that were removed are unknown
    pytest.param({"keep_warmup_data": "false"},
                 "unknown key(s) in config: keep_warmup_data", id="keep_warmup_data-str"),
    pytest.param({"resample_graph": 1}, "unknown key(s) in config: resample_graph",
                 id="resample_graph-int"),
    pytest.param({"comm_scheme": "laplacian"}, "unknown key(s) in config: comm_scheme",
                 id="comm_scheme-str"),
    # a given section names its kind or variant: it never falls back to the default
    pytest.param({"decision_set": {"num_arms": 6}},
                 "missing required key 'decision_set.variant'", id="variant-missing"),
    pytest.param({"decision_set": {}}, "missing required key 'decision_set.variant'",
                 id="decision_set-empty"),
    pytest.param({"topology": {"p": 0.5}}, "missing required key 'topology.kind'",
                 id="kind-missing"),
    pytest.param({"N": None}, "missing required key 'N'", id="N-null"),
])
def test_bad_safe_config_exits_2(tmp_path, capsys, change, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config({**SAFE, **change})
    code, _ = run_cli(tmp_path, {**SAFE, **change})
    assert code == 2
    assert message in capsys.readouterr().err
    # the valid neighbour of each case still runs
    assert run_cli(tmp_path, {**SAFE, "safe": {"x0": [0.6, 0.0]}})[0] == 0


@pytest.mark.parametrize("key, value, message", [
    *(pytest.param(key, "three", "a number", id=key) for key in (
        "N", "d", "T", "sigma", "lambda", "delta", "epsilon", "realizations", "seed",
        "num_arms", "arm_seed", "c_min", "p")),
    # fractional ints are not truncated, non-finite floats do not pass
    pytest.param("N", 3.7, "a signed 64-bit integer", id="N-fractional"),
    pytest.param("T", 10.5, "a signed 64-bit integer", id="T-fractional"),
    pytest.param("sigma", math.nan, "finite", id="sigma-nan"),
    pytest.param("sigma", math.inf, "finite", id="sigma-inf"),
    pytest.param("lambda", math.nan, "finite", id="lambda-nan"),
    pytest.param("sigma", 10**400, "finite", id="sigma-huge-int"),  # no float holds it
    # integers past int64 are not sizes or seeds numpy can take
    *(pytest.param(key, 1e300, "a signed 64-bit integer", id=f"{key}-1e300") for key in (
        "N", "T", "realizations", "num_arms")),
    pytest.param("seed", 2**63, "a signed 64-bit integer", id="seed-2**63"),
])
def test_non_numeric_scalar_is_config_error(tmp_path, capsys, key, value, message):
    config = {**SAFE, "decision_set": dict(SAFE["decision_set"]), "safe": {}}
    if key in ("num_arms", "arm_seed"):
        config["decision_set"][key] = value
    elif key == "c_min":
        config["safe"][key] = value
    elif key == "p":
        config["topology"] = {"kind": "erdos_renyi", "p": value}
    else:
        config[key] = value
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be {message}, got {value!r}")):
        parse_config(config)
    code, _ = run_cli(tmp_path, config)
    assert code == 2
    assert "config error" in capsys.readouterr().err
    if key in ("T", "N") and isinstance(value, str):  # the sweep axes with numeric values
        path = tmp_path / "config.json"
        path.write_text(json.dumps(SAFE))
        assert main(["sweep", "--config", str(path), "--axis", key, "--values", value,
                     "--out", str(tmp_path / "sweep"), "--workers", "1"]) == 2
    if isinstance(value, float) and key in ("N", "T"):  # an integral float still counts
        assert parse_config({**SAFE, key: float(SAFE[key])}) == parse_config(SAFE)


@pytest.mark.parametrize("algorithm", ["dlucb", "rc_dlucb"])
def test_bound_is_null_outside_the_theorem_epsilon_range(tmp_path, algorithm):
    # at d = 2, epsilon = 0.15 lies between dlucb's 1/(4d+1) and rc_dlucb's 1/(2d+1)
    config = {"topology": "ring", "N": 4, "d": 2, "T": 10, "algorithm": algorithm,
              "epsilon": 0.15, "realizations": 2}
    code, out = run_cli(tmp_path, config)
    assert code == 0
    bound = json.loads((out / "summary.json").read_text())["theoretical_bound"]
    if algorithm == "dlucb":
        assert bound == {"mean": None, "seeds_within_bound": None}
    else:
        assert type(bound["mean"]) is float and bound["seeds_within_bound"] == 2


def test_run_refuses_to_clobber_without_overwrite(tmp_path):
    config = {"topology": "ring", "N": 4, "d": 2, "T": 5, "algorithm": "no_comm",
              "realizations": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert main(["run", "--config", str(path), "--out", str(out), "--overwrite"]) == 0


def test_rerun_with_overwrite_is_byte_identical(tmp_path):
    config = {"topology": {"kind": "erdos_renyi", "p": 0.6}, "N": 6, "d": 3, "T": 25,
              "algorithm": "rc_dlucb", "realizations": 3, "seed": 5}
    code, out = run_cli(tmp_path, config)
    first = (out / "trace.csv").read_bytes()
    code, out = run_cli(tmp_path, config)
    assert code == 0
    assert (out / "trace.csv").read_bytes() == first


def test_rc_summary_phase_count_consistency(tmp_path):
    config = {"topology": "ring", "N": 5, "d": 2, "T": 80, "algorithm": "rc_dlucb",
              "realizations": 2}
    code, out = run_cli(tmp_path, config)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    lines = (out / "trace.csv").read_text().splitlines()
    last_phases = float(lines[-1].split(",")[5])
    assert summary["phase_count_mean"] == pytest.approx(last_phases)
    assert summary["phase_count_mean"] > 0


def test_graph_info_reference_topologies(capsys):
    assert main(["graph-info", "--topology", "ring", "--n", "20"]) == 0
    out = capsys.readouterr().out
    lambda2 = float(next(l for l in out.splitlines() if "lambda_2" in l).split()[-1])
    assert abs(lambda2 - 0.9674) < 5e-4
    assert "S (eps=0.047619): 26" in out

    assert main(["graph-info", "--topology", "complete", "--n", "20"]) == 0
    out = capsys.readouterr().out
    assert "S (eps=0.047619): 1" in out


def test_flags_override_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "ring", "N": 4, "d": 2, "T": 5,
                                "algorithm": "dlucb", "realizations": 1}))
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out), "--workers", "1",
                 "--algorithm", "no_comm", "--t", "7", "--overwrite"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["algorithm"] == "no_comm"
    assert summary["config"]["T"] == 7
    assert len((out / "trace.csv").read_text().splitlines()) == 8


def test_sweep_axis_values(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "ring", "N": 4, "d": 2, "T": 6,
                                "algorithm": "no_comm", "realizations": 1}))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(path), "--axis", "T", "--values", "4,8",
                 "--out", str(out), "--workers", "1", "--overwrite"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert (out / "0_T=4" / "trace.csv").exists()
    assert (out / "1_T=8" / "summary.json").exists()


def test_sweep_rejects_empty_values(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "ring", "N": 4, "d": 2, "T": 6,
                                "algorithm": "no_comm", "realizations": 1}))
    code = main(["sweep", "--config", str(path), "--axis", "T", "--values", "",
                 "--out", str(tmp_path / "s")])
    assert code == 2


def test_algorithm_sweep(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "ring", "N": 4, "d": 2, "T": 8,
                                "realizations": 1}))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(path), "--axis", "algorithm",
                 "--values", "dlucb,no_comm,centralized", "--out", str(out),
                 "--workers", "1", "--overwrite"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4


def test_topology_sweep(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "ring", "N": 5, "d": 2, "T": 8,
                                "algorithm": "dlucb", "realizations": 1}))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(path), "--axis", "topology",
                 "--values", "ring,star,complete", "--out", str(out),
                 "--workers", "1", "--overwrite"])
    assert code == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    s_values = {row.split(",")[1]: int(row.split(",")[7]) for row in rows}
    assert s_values["complete"] == 1
    assert s_values["ring"] > s_values["complete"]


def test_topology_sweep_merges_into_the_base_section(tmp_path):
    # a bare kind keeps the base's p, an object overrides the keys it names
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": {"kind": "ring", "p": 0.5}, "N": 5, "d": 2,
                                "T": 4, "algorithm": "no_comm", "realizations": 1}))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(path), "--axis", "topology",
                 "--values", 'ring,erdos_renyi,{"kind":"erdos_renyi"},{"p":1}',
                 "--out", str(out), "--workers", "1"])
    assert code == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 5
    echoed = {point.name: json.loads((point / "summary.json").read_text())["config"]["topology"]
              for point in out.iterdir() if point.is_dir()}
    assert echoed == {
        "0_topology=ring": {"kind": "ring", "p": 0.5, "edge_file": None},
        "1_topology=erdos_renyi": {"kind": "erdos_renyi", "p": 0.5, "edge_file": None},
        "2_topology=kind_erdos_renyi": {"kind": "erdos_renyi", "p": 0.5, "edge_file": None},
        "3_topology=p_1": {"kind": "ring", "p": 1.0, "edge_file": None},
    }


def test_sweep_checks_every_point_before_running(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "ring", "N": 5, "d": 2, "T": 4,
                                "algorithm": "no_comm", "realizations": 1}))
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(path), "--axis", "topology",
                 "--values", "ring,erdos_renyi", "--out", str(out), "--workers", "1"])
    assert code == 2
    assert "erdos_renyi topology requires p" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, builds", [
    ("run", [], 1),
    ("sweep", ["--axis", "T", "--values", "4,8"], 2),
])
def test_cli_builds_each_network_once_before_running(tmp_path, monkeypatch, command, flags,
                                                     builds):
    # the runs build their own networks in sim; the CLI's check is once per point
    calls = []

    def counting(config, master_seed, realization):
        calls.append(realization)
        return build_network(config, master_seed, realization)

    monkeypatch.setattr(cli, "build_network", counting)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "ring", "N": 5, "d": 2, "T": 4,
                                "algorithm": "dlucb", "realizations": 2}))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out"),
                 "--workers", "1", *flags]) == 0
    assert calls == [0] * builds


def test_sweep_values_keep_json_values_whole(tmp_path):
    # a JSON item ends at its closing bracket, a bare string at the next comma
    assert cli._split_values("4,8") == ["4", "8"]
    assert cli._split_values("ring,path") == ["ring", "path"]
    assert cli._split_values('[1, 2],"a,b",1e5x,,c') == ["[1, 2]", '"a,b"', "1e5x", "c"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "ring", "N": 5, "d": 2, "T": 4,
                                "algorithm": "no_comm", "realizations": 1}))
    out = tmp_path / "sweep"
    er = '{"kind":"erdos_renyi","p":0.9}'
    code = main(["sweep", "--config", str(path), "--axis", "topology",
                 "--values", f"{er},path", "--out", str(out), "--workers", "1"])
    assert code == 0
    text = (out / "sweep.csv").read_text()
    assert text.splitlines()[1].startswith('topology,"{""kind"":""erdos_renyi"",""p"":0.9}",')
    rows = list(csv.reader(text.splitlines()))
    assert [row[1] for row in rows[1:]] == [er, "path"]
    assert all(len(row) == len(rows[0]) for row in rows)
    summary = json.loads((out / "0_topology=kind_erdos_renyi_p_0.9" / "summary.json").read_text())
    assert summary["config"]["topology"] == {"kind": "erdos_renyi", "p": 0.9, "edge_file": None}


@pytest.mark.parametrize("value", ["g/sq.txt", "../sq.txt"])
def test_sweep_point_directories_stay_inside_out(tmp_path, monkeypatch, value):
    # the value text names the point directory only after its index, sanitized
    work = tmp_path / "work"
    (work / "g").mkdir(parents=True)
    for edges in (work / "g" / "sq.txt", tmp_path / "sq.txt"):
        edges.write_text("0 1\n1 2\n2 3\n3 0\n")
    monkeypatch.chdir(work)
    Path("config.json").write_text(json.dumps({"topology": "ring", "N": 4, "d": 2, "T": 4,
                                               "algorithm": "no_comm", "realizations": 1}))
    point = json.dumps({"kind": "explicit", "edge_file": value}, separators=(",", ":"))
    assert main(["sweep", "--config", "config.json", "--axis", "topology",
                 "--values", f"{point},ring", "--out", "out", "--workers", "1"]) == 0
    clean = "kind_explicit_edge_file_" + value.replace("/", "_")
    assert sorted(p.name for p in Path("out").iterdir()) == [
        f"0_topology={clean}", "1_topology=ring", "sweep.csv"]
    summary = json.loads((Path("out") / f"0_topology={clean}" / "summary.json").read_text())
    assert summary["config"]["topology"]["edge_file"] == value
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sq.txt", "work"]
    assert sorted(p.name for p in work.iterdir()) == ["config.json", "g", "out"]


# one-key changes of small valid configs, one per algorithm family
FUZZ_BASES = (
    {"topology": {"kind": "ring"}, "N": 4, "d": 2, "T": 5, "algorithm": "dlucb"},
    {"topology": {"kind": "erdos_renyi", "p": 0.9}, "N": 3, "d": 1, "T": 4,
     "algorithm": "rc_dlucb", "decision_set": {"variant": "finite", "num_arms": 3}},
    {"topology": {"kind": "path"}, "N": 4, "d": 2, "T": 5, "algorithm": "safe_dlucb",
     "decision_set": {"variant": "finite", "num_arms": 4},
     "safe": {"c_min": 0.3, "x0": [0.1, 0.0]}},
    {"topology": {"kind": "explicit", "edge_file": "square.txt"}, "N": 4, "d": 2, "T": 5,
     "algorithm": "dlts"},
)
ODD_VALUES = (0, -1, 1e-300, 1e300, math.nan, math.inf, -math.inf, True, "x", [], {})


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(FUZZ_BASES), key=st.sampled_from(KEYS),
       value=st.sampled_from(ODD_VALUES))
def test_odd_config_values_exit_0_or_2(base, key, value):
    """No value of any key makes ``run`` fail at run time (exit 3)."""
    raw = json.loads(json.dumps({**base, "realizations": 1}))
    section = as_mapping(raw.get(key.section), key.section) if key.section else raw
    section[key.leaf] = value
    if key.section:
        raw[key.section] = section
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "square.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
        if raw["topology"].get("edge_file") == "square.txt":
            raw["topology"]["edge_file"] = str(Path(tmp) / "square.txt")
        (Path(tmp) / "config.json").write_text(json.dumps(raw))
        code = main(["run", "--config", str(Path(tmp) / "config.json"),
                     "--out", str(Path(tmp) / "out"), "--workers", "1"])
    assert code in (0, 2), raw


@pytest.mark.parametrize("command, config, flags", [
    # Chebyshev weights past the float range, found when the network is built
    ("run", {"topology": "ring", "N": 4}, ["--epsilon", "1e-300"]),
    ("sweep", {"topology": "ring", "N": 4}, ["--epsilon", "1e-300", "--axis", "T",
                                             "--values", "4,8"]),
    # a second point whose Erdos-Renyi graph cannot be connected
    ("sweep", {"topology": {"kind": "erdos_renyi", "p": 0.5}, "N": 30}, [
        "--axis", "topology", "--values", 'ring,{"p":0.01}']),
])
def test_network_errors_leave_no_output(tmp_path, capsys, command, config, flags):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "d": 2, "T": 50, "algorithm": "dlucb",
                                "realizations": 1}))
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out), "--workers", "1",
                 *flags]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, key", [
    # S = 467 rounds: T_S(1/|lambda2|) is past the float range
    ("run", ["--epsilon", "1e-300"], "epsilon"),
    ("graph-info", ["--epsilon", "1e-300"], "epsilon"),
    # the log argument of beta_T is past it
    ("run", ["--delta", "1e-310"], "delta"),
    # 2N/epsilon is past it, so S cannot be computed
    ("run", ["--epsilon", "1e-310"], "epsilon"),
    ("graph-info", ["--epsilon", "1e-310"], "epsilon"),
])
def test_radius_past_the_float_range_exits_2(tmp_path, capsys, command, flags, key):
    args = [command, "--topology", "ring", "--n", "4", *flags]
    if command == "run":
        args += ["--d", "2", "--t", "2000", "--algorithm", "dlucb", "--realizations", "1",
                 "--workers", "1", "--out", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err


def test_runtime_failure_exits_3(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("invariant breached")

    monkeypatch.setattr(sim, "run_realization", broken)
    code = main(["run", "--topology", "ring", "--n", "4", "--d", "2", "--t", "5",
                 "--algorithm", "dlucb", "--realizations", "1", "--workers", "1",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "runtime error: RuntimeError: invariant breached" in capsys.readouterr().err


def test_too_sparse_erdos_renyi_exits_2(tmp_path, capsys):
    # at p = 0.01 no draw of G(30, p) is connected: the retry budget runs out
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": {"kind": "erdos_renyi", "p": 0.01},
                                "N": 30, "d": 2, "T": 5, "algorithm": "dlucb",
                                "realizations": 1}))
    for command in (["run", "--config", str(path), "--out", str(tmp_path / "o")],
                    ["graph-info", "--topology", "erdos_renyi", "--n", "30", "--p", "0.01"]):
        assert main(command) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "topology.p" in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    for command in (["run"], ["sweep", "--axis", "T", "--values", "4"]):
        code = main([*command, "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and str(missing) in err
    assert not (tmp_path / "o").exists()


SMALL = json.dumps({"topology": "ring", "N": 4, "d": 2, "T": 5, "algorithm": "no_comm",
                    "realizations": 1})


@pytest.mark.parametrize("command, config, values", [
    ("run", b'\xff\xfe{"N": 3}', None),
    ("sweep", b'\xff\xfe{"N": 3}', None),
    ("run", ('{"N": ' + "[" * 3000 + "]" * 3000 + "}").encode(), None),
    ("sweep", SMALL.encode(), "[" * 5000 + "]" * 5000),
    # integers past Python's 4,300-digit conversion limit
    ("run", ('{"N": ' + "1" * 5000 + "}").encode(), None),
    ("sweep", SMALL.encode(), "1" * 5000),
], ids=["run-not-utf8", "sweep-not-utf8", "run-nested-3000", "sweep-value-nested-5000",
        "run-5000-digits", "sweep-value-5000-digits"])
def test_undecodable_json_exits_2(tmp_path, capsys, command, config, values):
    """JSON from outside that cannot be decoded is a config error: a config
    file that is not UTF-8, and a config file or sweep value nested past the
    recursion limit or holding an integer past the digit limit."""
    path = tmp_path / "config.json"
    path.write_bytes(config)
    args = [command, "--config", str(path), "--out", str(tmp_path / "o"), "--workers", "1"]
    if command == "sweep":
        args += ["--axis", "T", "--values", values or "4"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    if values is None:
        assert str(path) in err
    assert not (tmp_path / "o").exists()


def test_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "ring", "N": 4, "d": 2, "T": 5,
                                "algorithm": "no_comm", "realizations": 1}))
    taken = tmp_path / "taken"
    taken.write_text("kept")
    for out in (str(taken), str(taken / "below"), ""):
        for command in (["run"], ["sweep", "--axis", "T", "--values", "4"]):
            code = main([*command, "--config", str(path), "--out", out, "--workers", "1"])
            assert code == 2
            err = capsys.readouterr().err
            assert "config error" in err and repr(out) in err
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("args", [
    # the (N, N) gossip matrix, the (N, T, 2) noise draw, the (N, d, d) Gram
    # stack, the (N, d, K) arm solves and the (R, T) curve stacks have more
    # bytes than numpy can index
    ["run", "--topology", "ring", "--n", "100000000000000000", "--d", "2", "--t", "5",
     "--algorithm", "dlucb"],
    ["graph-info", "--topology", "ring", "--n", "100000000000000000"],
    ["run", "--topology", "complete", "--n", "2", "--d", "2", "--t", "1000000000000000000",
     "--algorithm", "dlucb", "--realizations", "1"],
    ["run", "--topology", "complete", "--n", "2", "--d", "100000000000000000", "--t", "5",
     "--algorithm", "dlucb", "--realizations", "1"],
    ["run", "--topology", "complete", "--n", "2", "--d", "2", "--arms", "1000000000000000000",
     "--t", "5", "--algorithm", "dlucb", "--realizations", "1"],
    # and the (R, T) curve stacks, built after an R-long job list
    ["run", "--topology", "complete", "--n", "2", "--d", "2", "--t", "1000",
     "--algorithm", "dlucb", "--realizations", "1000000000000000000"],
])
def test_sizes_numpy_cannot_index_exit_2(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)  # where the default --out would be made
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "larger than numpy can index" in err
    assert not any(tmp_path.iterdir())


def test_negative_workers_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": "ring", "N": 4, "d": 2, "T": 5,
                                "algorithm": "no_comm", "realizations": 2}))
    for command in (["run"], ["sweep", "--axis", "T", "--values", "4"]):
        code = main([*command, "--config", str(path), "--out", str(tmp_path / "o"),
                     "--workers", "-3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "--workers" in err
    assert not (tmp_path / "o").exists()
    # 0 asks for one worker per host CPU
    asked = []

    def serial(config, workers):
        asked.append(workers)
        return sim.run_experiment(config, workers=1)

    monkeypatch.setattr(cli, "run_experiment", serial)
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o"),
                 "--workers", "0"]) == 0
    assert asked == [os.cpu_count() or 1]


def test_edge_file_node_count_mismatch_exits_2(tmp_path, capsys):
    edges = tmp_path / "path4.txt"
    edges.write_text("0 1\n1 2\n2 3\n")
    for n in (6, 2):
        code = main(["run", "--topology", "explicit", "--edge-file", str(edges),
                     "--n", str(n), "--d", "2", "--t", "5", "--algorithm", "dlucb",
                     "--realizations", "1", "--workers", "1",
                     "--out", str(tmp_path / f"o{n}")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and "4 nodes" in err and f"N = {n}" in err
    code = main(["run", "--topology", "explicit", "--edge-file", str(edges), "--n", "4",
                 "--d", "2", "--t", "5", "--algorithm", "dlucb", "--realizations", "1",
                 "--workers", "1", "--out", str(tmp_path / "o4")])
    assert code == 0
    assert main(["graph-info", "--topology", "explicit", "--edge-file", str(edges),
                 "--n", "6"]) == 2
    assert main(["graph-info", "--topology", "explicit", "--edge-file", str(edges)]) == 0


def test_huge_edge_label_exits_2(tmp_path, capsys):
    """A label far past the others leaves the labels between them in no edge:
    the graph is rejected before its adjacency is allocated."""
    edges = tmp_path / "huge.txt"
    edges.write_text("0 1\n1 99999999999999\n")
    assert main(["graph-info", "--topology", "explicit", "--edge-file", str(edges)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"edge file {edges}: node 2 is in no edge" in err


A_DIRECTORY = object()


@pytest.mark.parametrize("command", ["run", "graph-info"])
@pytest.mark.parametrize("text, n, line", [
    ("0 1\n1 x\n", 2, 2),
    ("0 1\n1 2 3\n", 3, 2),
    ("0 1\n1 1\n", 2, 2),
    ("0 1\n-1 1\n1 2\n", 3, 2),
    ("0 1\n2 3\n", 4, None),
    ("# no edges\n", 2, None),
    (None, 2, None),
    (A_DIRECTORY, 2, None),
    (b"0 1\n1 \xff\n", 3, None),
    # an explicit topology reads its edge file for N = 1 too
    (None, 1, None),
    ("0 1\n", 1, None),
], ids=["non-integer", "three-tokens", "self-loop", "negative", "disconnected", "empty",
        "missing", "directory", "not-utf8", "missing-n1", "two-nodes-n1"])
def test_malformed_edge_file_exits_2(tmp_path, capsys, command, text, n, line):
    edges = tmp_path / "edges.txt"
    if text is A_DIRECTORY:
        edges.mkdir()
    elif isinstance(text, bytes):
        edges.write_bytes(text)
    elif text is not None:  # None leaves no file at all
        edges.write_text(text)
    args = ["--topology", "explicit", "--edge-file", str(edges), "--n", str(n)]
    if command == "run":
        args += ["--d", "2", "--t", "5", "--algorithm", "dlucb", "--realizations", "1",
                 "--workers", "1", "--out", str(tmp_path / "o")]
    assert main([command, *args]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(edges) in err
    if line is not None:
        assert f"{edges}:{line}:" in err


def test_gossip_matrix_without_spectral_gap_exits_2(tmp_path, monkeypatch, capsys):
    """A gossip matrix whose |lambda_2| is not below 1 in floating point has no
    mixing horizon: building it is a config error, found before any output."""
    spectrum = graph._spectrum

    def gapless(entries):
        eigenvalues = spectrum(entries)
        eigenvalues[1] = 1.0 - 1e-13
        return eigenvalues

    monkeypatch.setattr(graph, "_spectrum", gapless)
    with pytest.raises(ConfigError, match=re.escape("|lambda_2|")):
        build_comm_matrix(build_topology("path", 4))
    code, out = run_cli(tmp_path, {"topology": "path", "N": 4, "d": 2, "T": 5,
                                   "algorithm": "dlucb", "realizations": 1})
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "|lambda_2|" in err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["run", "--comm-scheme", "laplacian"],
    ["run", "--keep-warmup-data"],
    ["sweep", "--keep-warmup-data", "--axis", "T", "--values", "3"],
    ["graph-info", "--scheme", "laplacian"],
], ids=["comm-scheme", "keep-warmup-data", "sweep-keep-warmup-data", "graph-info-scheme"])
def test_removed_flags_exit_2(capsys, args):
    with pytest.raises(SystemExit) as exit_info:
        main([*args, "--topology", "ring", "--n", "4"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--topology", "erdos_renyi", "--n", "20"],
    ["--topology", "erdos_renyi", "--n", "20", "--p", "1.5"],
    ["--topology", "ring", "--n", "2"],
    ["--topology", "bogus", "--n", "5"],
    ["--topology", "ring", "--n", "5", "--epsilon", "2"],
    ["--topology", "explicit"],
    ["--topology", "explicit", "--n", "4"],
], ids=["er-no-p", "er-p-1.5", "ring-n2", "bogus", "epsilon-2", "explicit", "explicit-n4"])
def test_graph_info_bad_input_exits_2(capsys, args):
    assert main(["graph-info", *args]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", range(4))
def test_graph_info_describes_the_runs_graph(capsys, seed):
    assert main(["graph-info", "--topology", "erdos_renyi", "--n", "20", "--p", "0.5",
                 "--seed", str(seed)]) == 0
    lines = dict(line.split(":", 1) for line in capsys.readouterr().out.splitlines()
                 if ":" in line and not line.startswith("  "))
    config = parse_config({"topology": {"kind": "erdos_renyi", "p": 0.5}, "N": 20, "d": 5,
                           "T": 10, "algorithm": "dlucb", "seed": seed})
    _, comm, plan = build_network(config, seed, 0)
    assert float(lines["|lambda_2|"]) == pytest.approx(comm.lambda2_abs, abs=5e-7)
    assert int(lines["S (eps=0.047619)"]) == plan.s_rounds


# every run/sweep flag: its value, the config key it sets and the echoed value
FLAG_CASES = [
    ("--topology", "star", "topology.kind", "star"),
    ("--p", "0.7", "topology.p", 0.7),
    ("--edge-file", "edges.txt", "topology.edge_file", "edges.txt"),
    ("--n", "5", "N", 5),
    ("--d", "3", "d", 3),
    ("--t", "4", "T", 4),
    ("--algorithm", "no_comm", "algorithm", "no_comm"),
    ("--arms", "6", "decision_set.num_arms", 6),
    ("--arm-seed", "3", "decision_set.arm_seed", 3),
    ("--sigma", "0.2", "sigma", 0.2),
    ("--lambda", "2", "lambda", 2.0),
    ("--delta", "0.05", "delta", 0.05),
    ("--epsilon", "0.1", "epsilon", 0.1),
    ("--realizations", "2", "realizations", 2),
    ("--seed", "3", "seed", 3),
    ("--safe-c-min", "0.3", "safe.c_min", 0.3),
]


@pytest.mark.parametrize("flag, text, key, expected", FLAG_CASES,
                         ids=[case[0] for case in FLAG_CASES])
def test_flag_sets_its_config_key(tmp_path, capsys, flag, text, key, expected):
    assert {case[0] for case in FLAG_CASES} == {k.flag for k in KEYS if k.flag}
    base = {"topology": "ring", "N": 4, "d": 2, "T": 3, "algorithm": "dlucb",
            "decision_set": "box", "realizations": 1}
    code, out = run_cli(tmp_path, base, [flag] if text is None else [flag, text])
    assert code == 0
    echo = json.loads((out / "summary.json").read_text())["config"]
    section, _, leaf = key.rpartition(".")
    assert (echo[section] if section else echo)[leaf] == expected
    if flag == "--arms":
        assert echo["decision_set"]["variant"] == "finite"
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    entry = re.search(rf"\n  {re.escape(flag)}\b(.*?)(?=\n  -|\Z)", capsys.readouterr().out,
                      re.S).group(1)
    assert f"(config key {key})" in " ".join(entry.split())


def test_readme_lists_only_live_keys_and_flags():
    """The README's config schema quotes only config keys and section names,
    and its flag table names only parser flags and every flag of a key."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    schema = re.search(r"```jsonc\n(.*?)```", readme, re.S).group(1)
    names = {key.leaf for key in KEYS} | {key.section for key in KEYS}
    assert set(re.findall(r'"(\w+)":', schema)) <= names
    table = re.search(r"\n\| flag \| key \|.*?\n\n", readme, re.S).group(0)
    listed = set(re.findall(r"`(--[a-z-]+)`", table))
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action.choices, dict))
    defined = {flag for parser in subparsers.choices.values() for action in parser._actions
               for flag in action.option_strings}
    assert listed <= defined
    assert {key.flag for key in KEYS if key.flag} <= listed


@pytest.mark.parametrize("flags, key, expected", [
    (["--realizations", "1e1"], "realizations", 10),  # as "realizations": 1e1 in a file
    (["--n", "007"], "N", 7),
])
def test_numeric_flags_take_what_a_config_file_takes(tmp_path, monkeypatch, flags, key,
                                                     expected):
    ran = []

    def counting(config, workers):
        ran.append(sim.run_experiment(config, workers=1))
        return ran[-1]

    monkeypatch.setattr(cli, "run_experiment", counting)
    base = {"topology": "ring", "N": 4, "d": 2, "T": 3, "algorithm": "no_comm",
            "realizations": 1}
    code, out = run_cli(tmp_path, base, flags)
    assert code == 0
    assert json.loads((out / "summary.json").read_text())["config"][key] == expected
    assert len(ran[0]) == (expected if key == "realizations" else 1)


@pytest.mark.parametrize("flags, message", [
    (["--n", "2.5"], "N must be a signed 64-bit integer, got 2.5"),
    (["--p", "abc"], "topology.p must be a number, got 'abc'"),
])
def test_bad_numeric_flag_is_a_config_error(tmp_path, capsys, flags, message):
    base = {"topology": {"kind": "erdos_renyi", "p": 0.5}, "N": 4, "d": 2, "T": 3,
            "algorithm": "no_comm", "realizations": 1}
    code, out = run_cli(tmp_path, base, flags)
    assert code == 2
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_workers_flag_keeps_its_integer_parser(tmp_path, capsys):
    base = {"topology": "ring", "N": 4, "d": 2, "T": 3, "algorithm": "no_comm"}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--config", str(path), "--out", str(tmp_path / "out"),
              "--workers", "1e1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "--workers: invalid int value: '1e1'" in err and "config error" not in err


@st.composite
def raw_configs(draw):
    """Valid raw configs over every algorithm, topology kind and section form."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    kind = draw(st.sampled_from(TOPOLOGY_KINDS))
    d = draw(st.integers(1, 6))
    topology = {"kind": kind}
    if kind == "erdos_renyi" or draw(st.booleans()):  # p is kept for any kind
        topology["p"] = draw(st.floats(0.01, 1.0))
    if kind == "explicit":
        topology["edge_file"] = draw(st.text(min_size=1, max_size=12))
    if algorithm == "safe_dlucb" or draw(st.booleans()):
        decision_set = {"variant": "finite", "num_arms": draw(st.integers(2, 40)),
                        "arm_seed": draw(st.integers(0, 2**32))}
    else:
        decision_set = draw(st.sampled_from(["box", {"variant": "box"}, None]))
    raw = {
        "topology": kind if topology == {"kind": kind} and draw(st.booleans()) else topology,
        "N": draw(st.integers(1, 30).filter(lambda n: kind != "ring" or n != 2)),
        "d": d, "T": draw(st.integers(0, 5000)), "algorithm": algorithm,
        "decision_set": decision_set,
        "sigma": draw(st.floats(0.0, 10.0)), "lambda": draw(st.floats(1.0, 100.0)),
        "delta": draw(st.floats(0.001, 0.999)),
        "epsilon": draw(st.none() | st.floats(0.001, 0.999)),
        "realizations": draw(st.integers(1, 50)), "seed": draw(st.integers(0, 2**63 - 1)),
    }
    if algorithm == "safe_dlucb" or draw(st.booleans()):
        bound = d ** -0.5  # entries within 1/sqrt(d) keep the norm at most 1
        x0 = draw(st.just("zero") | st.lists(st.floats(-bound, bound), min_size=d,
                                              max_size=d))
        raw["safe"] = {"c_min": draw(st.floats(0.0, 0.99)), "x0": x0}
    return raw


@settings(max_examples=200, deadline=None)
@given(raw=raw_configs())
def test_resolved_echo_parses_back_to_the_config(raw):
    config = parse_config(raw)
    echo = json.loads(json.dumps(resolved_dict(config)))
    assert parse_config(echo) == config
    assert resolved_dict(parse_config(echo)) == echo
    for key in KEYS:  # every value given comes back under its own key
        given = as_mapping(raw.get(key.section), key.section) if key.section else raw
        if given.get(key.leaf) is not None:
            assert (echo[key.section] if key.section else echo)[key.leaf] == given[key.leaf]
