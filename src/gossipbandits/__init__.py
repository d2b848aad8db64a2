"""Decentralized linear bandit simulations over gossip networks.

A deterministic framework for multi-agent linear stochastic bandits on
arbitrary connected graphs: Chebyshev-accelerated average consensus, gossiped
UCB over one pipelined consensus of estimates, a rarely-communicating variant,
safe exploration under an unknown linear constraint, and baseline algorithms
with full regret, communication-cost, and safety accounting.
"""

from .agents import ALGORITHMS
from .bandit import (
    ConfidenceSet,
    DecisionSet,
    SafeGeometry,
    SufficientStats,
    beta_radius,
    greedy_box,
    mixing_delay_pairs,
    rc_comm_threshold,
    rls_estimate,
    safe_filter,
    theoretical_regret_bound,
    ts_perturb,
    ucb_select_box,
    ucb_select_finite,
)
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .consensus import (
    MixingPlan,
    advance_queues,
    chebyshev_weights,
    comm_step,
    mixed_gain,
)
from .graph import (
    CommMatrix,
    GraphTopology,
    build_comm_matrix,
    build_topology,
    compute_mixing_rounds,
    load_edge_list,
)
from .sim import (
    Environment,
    Trace,
    aggregate,
    feedback,
    optimal_value,
    run_experiment,
    run_realization,
    sample_environment,
)

__version__ = "0.1.0"
