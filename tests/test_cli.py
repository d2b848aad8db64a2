import json
import math
import re

import numpy as np
import pytest

from gossipbandits.cli import main
from gossipbandits.config import (
    ConfigError,
    DecisionSetSpec,
    ExperimentConfig,
    TopologySpec,
    parse_config,
)
from gossipbandits.sim import run_realization


MINIMAL = {"topology": "ring", "N": 20, "d": 5, "T": 1000, "algorithm": "dlucb"}


def test_minimal_config_defaults():
    config = parse_config(dict(MINIMAL))
    assert config.sigma == 0.1
    assert config.lam == 1.0
    assert config.delta == 0.1
    assert config.epsilon == 1.0 / 21.0
    assert config.realizations == 20
    assert config.comm_scheme == "laplacian"
    assert config.decision_set.variant == "box"
    assert config.keep_warmup_data is False


def test_direct_config_resolves_default_epsilon():
    config = ExperimentConfig(topology=TopologySpec("ring"), n_agents=4, d=3, horizon=12,
                              algorithm="dlucb", decision_set=DecisionSetSpec("box"),
                              realizations=1)
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
    pytest.param("N", 3.7, "an integer", id="N-fractional"),
    pytest.param("T", 10.5, "an integer", id="T-fractional"),
    pytest.param("sigma", math.nan, "finite", id="sigma-nan"),
    pytest.param("sigma", math.inf, "finite", id="sigma-inf"),
    pytest.param("lambda", math.nan, "finite", id="lambda-nan"),
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
    assert "PASS" in out

    assert main(["graph-info", "--topology", "complete", "--n", "20"]) == 0
    out = capsys.readouterr().out
    assert "S (eps=0.047619): 1" in out


def test_graph_info_normalized_scheme_verdict(capsys):
    assert main(["graph-info", "--topology", "path", "--n", "3",
                 "--scheme", "normalized_laplacian"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "row sums" in out


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
    assert (out / "T=4" / "trace.csv").exists()
    assert (out / "T=8" / "summary.json").exists()


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


def test_runtime_failure_exits_3(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"topology": {"kind": "explicit",
                                             "edge_file": str(tmp_path / "missing.txt")},
                                "N": 4, "d": 2, "T": 5, "algorithm": "dlucb",
                                "realizations": 1}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 3


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
