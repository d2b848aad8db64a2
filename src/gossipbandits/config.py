"""Experiment configuration: JSON schema, strict validation, and defaults.

``ExperimentConfig`` holds one field per config key; the JSON sections live
only in the key names ("topology.kind", "safe.c_min", ...). ``KEYS`` lists
every key once, with the field it sets, the type its value must have and its
command line flag; defaults live only in ``ExperimentConfig``. Parsing, the
resolved echo and the command line all read that table.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

import numpy as np

from .agents import ALGORITHMS
from .bandit import beta_radius

TOPOLOGY_KINDS = ("ring", "star", "complete", "path", "erdos_renyi", "explicit")


class ConfigError(ValueError):
    """A configuration value violates its contract; the message names it."""


@dataclass
class ExperimentConfig:
    topology: str  # the topology kind
    n_agents: int
    d: int
    horizon: int
    algorithm: str
    p: float | None = None
    edge_file: str | None = None
    decision_set: str = "box"  # the decision-set variant
    num_arms: int | None = None
    arm_seed: int = 0
    sigma: float = 0.1
    lam: float = 1.0
    delta: float = 0.1
    epsilon: float | None = None  # None: 1 / (4d + 1)
    realizations: int = 20
    master_seed: int = 0
    c_min: float = 0.0
    x0: str | list = "zero"

    def __post_init__(self):
        if self.epsilon is None:
            self.epsilon = 1.0 / (4 * self.d + 1)

    def x0_vector(self):
        if self.x0 == "zero":
            return np.zeros(self.d)
        return np.asarray(self.x0, dtype=float)


class Key(NamedTuple):
    """One config key: its JSON name, "section.key" inside a section."""

    name: str
    field: str  # the ExperimentConfig field it sets
    type: object  # int, float, str, a tuple of allowed strings, or object
    flag: str | None = None  # the run/sweep command line flag that sets it
    help: str = ""
    low: int | None = None  # the least value a number may take

    @property
    def section(self):
        return self.name.rpartition(".")[0]

    @property
    def leaf(self):
        return self.name.rpartition(".")[2]


KEYS = (
    Key("topology.kind", "topology", TOPOLOGY_KINDS, "--topology", "topology kind"),
    Key("topology.p", "p", float, "--p", "edge probability for erdos_renyi"),
    Key("topology.edge_file", "edge_file", str, "--edge-file",
        "edge list file for explicit topologies"),
    Key("N", "n_agents", int, "--n", "number of agents", 1),
    Key("d", "d", int, "--d", "action dimension", 1),
    Key("T", "horizon", int, "--t", "horizon in rounds", 0),
    Key("algorithm", "algorithm", ALGORITHMS, "--algorithm", "algorithm name"),
    Key("decision_set.variant", "decision_set", ("box", "finite")),
    Key("decision_set.num_arms", "num_arms", int, "--arms",
        "finite decision set with this many arms"),
    Key("decision_set.arm_seed", "arm_seed", int, "--arm-seed", "seed of the finite arms", 0),
    Key("sigma", "sigma", float, "--sigma", "noise scale", 0),
    Key("lambda", "lam", float, "--lambda", "ridge parameter", 1),
    Key("delta", "delta", float, "--delta", "confidence level"),
    Key("epsilon", "epsilon", float, "--epsilon", "mixing tolerance"),
    Key("realizations", "realizations", int, "--realizations", "number of realizations", 1),
    Key("seed", "master_seed", int, "--seed", "master seed", 0),
    Key("safe.c_min", "c_min", float, "--safe-c-min", "lower end of the safety level"),
    Key("safe.x0", "x0", object),  # "zero" or a vector: checked with the other safe values
)

_SECTIONS = ("topology", "decision_set", "safe")
_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}
_SHORTHANDS = {"topology": "kind", "decision_set": "variant"}


def as_mapping(value, name="config root"):
    """A raw config section (or the root) as a new dict: null is empty, and a
    string is shorthand for the section's kind or variant ("topology": "ring"
    is {"kind": "ring"})."""
    shorthand = _SHORTHANDS.get(name)
    if value is None:
        return {}
    if shorthand and isinstance(value, str):
        return {shorthand: value}
    if not isinstance(value, dict):
        kind = f"a {shorthand} string or an object" if shorthand else "an object"
        raise ConfigError(f"{name} must be {kind}")
    return dict(value)


def _typed(name, value, kind, low=None):
    """``value`` if it has the declared type ``kind``: numbers reject booleans
    and strings, an int takes an integral float within int64, and every
    number is finite and at least ``low``. A ConfigError names the key."""
    if isinstance(kind, tuple):
        if value in kind:
            return value
        raise ConfigError(f"{name} must be one of {kind}, got {value!r}")
    if kind in (int, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints past any float
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if kind is int and not (-2**63 <= value < 2**63 and value == int(value)):
            raise ConfigError(f"{name} must be a signed 64-bit integer, got {value!r}")
        if low is not None and value < low:
            raise ConfigError(f"{name} must be >= {low}")
        return kind(value)
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def _values(name, raw):
    """The typed values of section ``name``'s keys ("" for the root) in
    ``raw``, by field. Null counts as absent: the field's default applies,
    but a given section must name its kind or variant."""
    keys = [key for key in KEYS if key.section == name]
    unknown = set(raw) - {key.leaf for key in keys}
    if unknown:
        raise ConfigError(f"unknown key(s) in {name or 'config'}: {', '.join(sorted(unknown))}")
    values = {}
    for key in keys:
        if raw.get(key.leaf) is not None:
            values[key.field] = _typed(key.name, raw[key.leaf], key.type, key.low)
        elif _DEFAULTS[key.field] is MISSING or key.leaf == _SHORTHANDS.get(name):
            raise ConfigError(f"missing required key {key.name!r}")
    return values


def parse_config(data):
    """Validate a raw config mapping and apply defaults; unknown keys are rejected."""
    data = as_mapping(data)
    raw = {name: data.pop(name, None) for name in _SECTIONS}
    values = _values("", data)
    for name in _SECTIONS:
        # an absent section takes its defaults; topology is the required one
        if raw[name] is not None or name == "topology":
            values.update(_values(name, as_mapping(raw[name], name)))
    config = ExperimentConfig(**values)
    _check_domains(config)
    return config


def _check_domains(config):
    """Raise a ConfigError for the first value outside its domain."""
    if not 0 < config.delta < 1:
        raise ConfigError("delta must lie in (0, 1)")
    if not 0 < config.epsilon < 1:
        raise ConfigError("epsilon must lie in (0, 1)")
    # bytes of the (N, N) gossip matrix, (N, T, 2) noise, (N, d, d) Grams, (N, d, K) arm solves
    finite = config.decision_set == "finite"
    n, k = config.n_agents, (config.num_arms or 0) if finite else 0
    if 8 * n * max(n, 2 * config.horizon, config.d * max(config.d, k)) > np.iinfo(np.intp).max:
        raise ConfigError(f"N = {n}, d = {config.d}, T = {config.horizon} and num_arms = {k} "
                          "need arrays larger than numpy can index")
    # bytes of the (R, T) curve stacks of ``aggregate``; max(T, 1) also bounds
    # the R-long job list built before them
    if 8 * config.realizations * max(config.horizon, 1) > np.iinfo(np.intp).max:
        raise ConfigError(f"realizations = {config.realizations} and T = {config.horizon} "
                          "need arrays larger than numpy can index")
    beta = beta_radius(max(config.horizon, 1), config.d, config.n_agents, config.lam,
                       config.delta, config.sigma, config.epsilon)
    if not math.isfinite(beta):
        raise ConfigError(f"delta {config.delta:g}, lambda {config.lam:g} and sigma "
                          f"{config.sigma:g} give a confidence radius beta_T that is not finite")
    if config.topology == "erdos_renyi" and (config.p is None or not 0 < config.p <= 1):
        raise ConfigError("erdos_renyi topology requires p in (0, 1]")
    if config.topology == "explicit" and not config.edge_file:
        raise ConfigError("explicit topology requires edge_file")
    if config.topology == "ring" and config.n_agents == 2:
        raise ConfigError("ring topology needs N >= 3 (or N = 1)")
    if finite and (config.num_arms is None or config.num_arms < 1):
        raise ConfigError("finite decision set requires num_arms >= 1")
    if config.algorithm == "safe_dlucb" and not finite:
        raise ConfigError(
            "safe_dlucb requires a finite decision set: the safe filter is exact "
            "only over an explicit arm list"
        )
    if config.algorithm == "safe_dlucb" and config.num_arms < 2:
        raise ConfigError("safe_dlucb requires num_arms >= 2: one arm besides the safe action")
    if not 0.0 <= config.c_min < 1.0:
        raise ConfigError("safe.c_min must lie in [0, 1)")
    if config.x0 != "zero":
        if not isinstance(config.x0, (list, tuple)):
            raise ConfigError("safe.x0 must be 'zero' or an explicit vector")
        vector = [_typed("safe.x0", v, float) for v in config.x0]
        if len(vector) != config.d:
            raise ConfigError(f"safe.x0 must have {config.d} entries, got {len(vector)}")
        # the safe action is played, and finite plays lie in the unit ball
        if not np.linalg.norm(vector) <= 1.0 + 1e-9:
            raise ConfigError("safe.x0 must have norm at most 1")


def read_config(path):
    """The raw config mapping in the JSON file at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc.strerror})") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or past a decoder limit
        raise ConfigError(f"{path}: cannot decode JSON ({exc})") from exc
    return as_mapping(data)


def resolved_dict(config):
    """Fully resolved, JSON-serializable echo of the configuration, one entry
    per key."""
    out = {}
    for key in KEYS:
        target = out.setdefault(key.section, {}) if key.section else out
        target[key.leaf] = getattr(config, key.field)
    return out
