"""Decentralized linear bandit simulations over gossip networks.

A deterministic framework for multi-agent linear stochastic bandits on
arbitrary connected graphs: Chebyshev-accelerated average consensus, gossiped
UCB over one pipelined consensus of estimates, a rarely-communicating variant,
safe exploration under an unknown linear constraint, and baseline algorithms
with full regret, communication-cost, and safety accounting.
"""

from .bandit import beta_radius, safe_filter, theoretical_regret_bound
from .consensus import MixingPlan, comm_step, mixing_polynomial
from .graph import build_comm_matrix, build_topology, compute_mixing_rounds
from .sim import aggregate, run_experiment, run_realization

__version__ = "0.1.0"
