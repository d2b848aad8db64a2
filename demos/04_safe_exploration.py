"""Safe exploration under an unknown linear constraint.

Three agents on a path share safety feedback alongside rewards. Each round
every agent certifies a subset of arms through its conservative inner
approximation of the safe set and explores only inside it, expanding the
certified set as constraint information accumulates. Violations never happen
(up to the configured confidence level); the cost is a regret gap against the
constraint-blind algorithm.
"""

import gossipbandits as gb
from gossipbandits.config import parse_config

CONFIG = {"topology": "path", "N": 3, "d": 2, "T": 300, "algorithm": "safe_dlucb",
          "decision_set": {"variant": "finite", "num_arms": 6},
          "safe": {"c_min": 0.3}, "realizations": 10, "seed": 0}

config = parse_config(CONFIG)
traces = gb.run_experiment(config, workers=2)
agg = gb.aggregate(traces)

violations = sum(int(tr.violations.sum()) for tr in traces)
pairs = config.realizations * config.n_agents * config.horizon
print(f"{config.realizations} realizations x {config.n_agents} agents x "
      f"{config.horizon} rounds = {pairs} plays")
print(f"constraint violations: {violations} ({violations / pairs:.3%})")
print(f"final network regret (safe): {agg['regret_mean'][-1]:.1f}")

# the certified arm set grows over one realization
arms = gb.sim.build_decision_set(config)
_, geo = gb.sim.build_environment(config, master_seed=0, realization=0)
sizes = []

def probe(t, info):
    if t in (1, 10, 50, 150, 300):
        beta = gb.beta_radius(t, config.d, config.n_agents, config.lam,
                              config.delta, config.sigma, config.epsilon)
        cs = gb.bandit.ConfidenceSet.from_stats(info["grams"][0], info["moments"][0], beta, arms)
        keep = gb.safe_filter(arms, cs, info["safety"][0], geo)
        sizes.append((t, int(keep.sum())))

gb.run_realization(config, master_seed=0, probe=probe)
print()
print("certified arms for agent 0 (out of", len(arms), "):")
for t, k in sizes:
    print(f"  round {t:>3}: {k}")

blind = parse_config({**CONFIG, "algorithm": "dlucb"})
blind_traces = gb.run_experiment(blind, workers=2)
blind_final = gb.aggregate(blind_traces)["regret_mean"][-1]
print()
print(f"constraint-blind regret on the same arms: {blind_final:.1f} against the "
      "unconstrained optimum -- it converges faster because it may (and does) "
      "play actions the safe algorithm must first certify")
