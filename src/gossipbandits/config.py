"""Experiment configuration: JSON schema, strict validation, and defaults."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .agents import ALGORITHMS
from .graph import COMM_SCHEMES, TOPOLOGY_KINDS


class ConfigError(ValueError):
    """A configuration value violates its contract; the message names it."""


@dataclass
class TopologySpec:
    kind: str
    p: float | None = None
    edge_file: str | None = None


@dataclass
class DecisionSetSpec:
    variant: str
    num_arms: int | None = None
    arm_seed: int = 0


@dataclass
class SafeSpec:
    c_min: float = 0.0
    x0: str | list = "zero"


@dataclass
class ExperimentConfig:
    topology: TopologySpec
    n_agents: int
    d: int
    horizon: int
    algorithm: str
    decision_set: DecisionSetSpec
    sigma: float = 0.1
    lam: float = 1.0
    delta: float = 0.1
    epsilon: float | None = None  # None: 1 / (4d + 1)
    realizations: int = 20
    master_seed: int = 0
    keep_warmup_data: bool = False
    comm_scheme: str = "laplacian"
    resample_graph: bool | None = None
    safe: SafeSpec | None = None

    def __post_init__(self):
        if self.epsilon is None:
            self.epsilon = 1.0 / (4 * self.d + 1)

    def safe_c_min(self):
        return self.safe.c_min if self.safe is not None else 0.0

    def safe_x0_vector(self):
        if self.safe is None or self.safe.x0 == "zero":
            return np.zeros(self.d)
        x0 = np.asarray(self.safe.x0, dtype=float)
        if x0.shape != (self.d,):
            raise ConfigError(f"safe.x0 must have {self.d} entries")
        return x0


def _take(data, key, default=None):
    return data.pop(key) if key in data else default


def _number(key, value, kind):
    """``value`` converted by ``kind`` (int or float) without truncation and
    finite; a ConfigError names ``key``."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    if kind is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def _reject_unknown(data, where):
    if data:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(data))}")


def _parse_topology(raw):
    if isinstance(raw, str):
        raw = {"kind": raw}
    if not isinstance(raw, dict):
        raise ConfigError("topology must be a kind string or an object")
    raw = dict(raw)
    kind = _take(raw, "kind")
    p = _take(raw, "p")
    edge_file = _take(raw, "edge_file")
    _reject_unknown(raw, "topology")
    if kind not in TOPOLOGY_KINDS:
        raise ConfigError(f"topology.kind must be one of {TOPOLOGY_KINDS}, got {kind!r}")
    if p is not None:
        p = _number("topology.p", p, float)
    if kind == "erdos_renyi":
        if p is None or not 0 < p <= 1:
            raise ConfigError("erdos_renyi topology requires p in (0, 1]")
    if kind == "explicit" and not edge_file:
        raise ConfigError("explicit topology requires edge_file")
    return TopologySpec(kind=kind, p=p, edge_file=edge_file)


def _parse_decision_set(raw, algorithm):
    if raw is None:
        raw = {"variant": "box"}
    if isinstance(raw, str):
        raw = {"variant": raw}
    if not isinstance(raw, dict):
        raise ConfigError("decision_set must be a variant string or an object")
    raw = dict(raw)
    variant = _take(raw, "variant")
    num_arms = _take(raw, "num_arms")
    arm_seed = _take(raw, "arm_seed", 0)
    _reject_unknown(raw, "decision_set")
    if variant not in ("box", "finite"):
        raise ConfigError(f"decision_set.variant must be 'box' or 'finite', got {variant!r}")
    if variant == "finite":
        if num_arms is None:
            raise ConfigError("finite decision set requires num_arms >= 1")
        num_arms = _number("num_arms", num_arms, int)
        if num_arms < 1:
            raise ConfigError("finite decision set requires num_arms >= 1")
    if algorithm == "safe_dlucb" and variant != "finite":
        raise ConfigError(
            "safe_dlucb requires a finite decision set: the safe filter is exact "
            "only over an explicit arm list"
        )
    if algorithm == "safe_dlucb" and num_arms < 2:
        raise ConfigError("safe_dlucb requires num_arms >= 2: one arm besides the safe action")
    return DecisionSetSpec(variant=variant, num_arms=num_arms,
                           arm_seed=_number("arm_seed", arm_seed, int))


def _parse_safe(raw, d):
    if raw is None:
        return SafeSpec()
    if not isinstance(raw, dict):
        raise ConfigError("safe must be an object")
    raw = dict(raw)
    c_min = _number("c_min", _take(raw, "c_min", 0.0), float)
    x0 = _take(raw, "x0", "zero")
    _reject_unknown(raw, "safe")
    if not 0.0 <= c_min < 1.0:
        raise ConfigError("safe.c_min must lie in [0, 1)")
    if x0 != "zero":
        if not isinstance(x0, (list, tuple)):
            raise ConfigError("safe.x0 must be 'zero' or an explicit vector")
        vector = [_number("safe.x0", v, float) for v in x0]
        if len(vector) != d:
            raise ConfigError(f"safe.x0 must have {d} entries, got {len(vector)}")
        # a longer safe action would be rescaled with the arms, off the arm list
        if not np.linalg.norm(vector) <= 1.0 + 1e-9:
            raise ConfigError("safe.x0 must have norm at most 1")
    return SafeSpec(c_min=c_min, x0=x0)


def parse_config(data):
    """Validate a raw config mapping and apply defaults; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    data = dict(data)
    topology = _parse_topology(_take(data, "topology"))
    n_agents = _take(data, "N")
    d = _take(data, "d")
    horizon = _take(data, "T")
    algorithm = _take(data, "algorithm")
    decision_raw = _take(data, "decision_set")
    sigma = _number("sigma", _take(data, "sigma", 0.1), float)
    lam = _number("lambda", _take(data, "lambda", 1.0), float)
    delta = _number("delta", _take(data, "delta", 0.1), float)
    epsilon = _take(data, "epsilon")
    realizations = _number("realizations", _take(data, "realizations", 20), int)
    master_seed = _number("seed", _take(data, "seed", 0), int)
    keep_warmup = _take(data, "keep_warmup_data", False)
    comm_scheme = _take(data, "comm_scheme", "laplacian")
    resample = _take(data, "resample_graph")
    safe_raw = _take(data, "safe")
    _reject_unknown(data, "config")

    for name, value in (("N", n_agents), ("d", d), ("T", horizon), ("algorithm", algorithm)):
        if value is None:
            raise ConfigError(f"missing required key {name!r}")
    n_agents, d, horizon = (_number(key, value, int) for key, value in
                            (("N", n_agents), ("d", d), ("T", horizon)))
    if epsilon is not None:
        epsilon = _number("epsilon", epsilon, float)
    if n_agents < 1:
        raise ConfigError("N must be >= 1")
    if d < 1:
        raise ConfigError("d must be >= 1")
    if horizon < 0:
        raise ConfigError("T must be >= 0")
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"algorithm must be one of {ALGORITHMS}, got {algorithm!r}")
    if lam < 1.0:
        raise ConfigError("lambda must be >= 1")
    if not 0 < delta < 1:
        raise ConfigError("delta must lie in (0, 1)")
    if epsilon is not None and not 0 < epsilon < 1:
        raise ConfigError("epsilon must lie in (0, 1)")
    if sigma < 0:
        raise ConfigError("sigma must be >= 0")
    if realizations < 1:
        raise ConfigError("realizations must be >= 1")
    if comm_scheme not in COMM_SCHEMES:
        raise ConfigError(f"comm_scheme must be one of {COMM_SCHEMES}")
    if resample is not None and not isinstance(resample, bool):
        raise ConfigError("resample_graph must be a boolean")

    decision = _parse_decision_set(decision_raw, algorithm)
    safe = _parse_safe(safe_raw, d) if (algorithm == "safe_dlucb" or safe_raw is not None) else None

    return ExperimentConfig(
        topology=topology,
        n_agents=n_agents,
        d=d,
        horizon=horizon,
        algorithm=algorithm,
        decision_set=decision,
        sigma=sigma,
        lam=lam,
        delta=delta,
        epsilon=epsilon,
        realizations=realizations,
        master_seed=master_seed,
        keep_warmup_data=bool(keep_warmup),
        comm_scheme=comm_scheme,
        resample_graph=resample,
        safe=safe,
    )


def load_config(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(data)


def resolved_dict(config):
    """Fully resolved, JSON-serializable echo of the configuration."""
    out = {
        "topology": {
            "kind": config.topology.kind,
            "p": config.topology.p,
            "edge_file": config.topology.edge_file,
        },
        "N": config.n_agents,
        "d": config.d,
        "T": config.horizon,
        "algorithm": config.algorithm,
        "decision_set": {
            "variant": config.decision_set.variant,
            "num_arms": config.decision_set.num_arms,
            "arm_seed": config.decision_set.arm_seed,
        },
        "sigma": config.sigma,
        "lambda": config.lam,
        "delta": config.delta,
        "epsilon": config.epsilon,
        "realizations": config.realizations,
        "seed": config.master_seed,
        "keep_warmup_data": config.keep_warmup_data,
        "comm_scheme": config.comm_scheme,
        "resample_graph": config.resample_graph,
    }
    if config.safe is not None:
        out["safe"] = {"c_min": config.safe.c_min, "x0": config.safe.x0}
    return out
