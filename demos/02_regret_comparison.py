"""Network regret of the gossiped UCB algorithm against both baselines.

Runs a 10-agent random network for 600 rounds and tabulates the seed-averaged
cumulative network regret: full centralization is the unreachable lower curve,
learning without communication the upper one.
"""

import gossipbandits as gb
from gossipbandits.config import parse_config

BASE = {"topology": {"kind": "erdos_renyi", "p": 0.5}, "N": 10, "d": 5, "T": 600,
        "realizations": 5, "seed": 0}
CHECKPOINTS = (50, 150, 300, 600)

curves = {}
for algo in ("centralized", "dlucb", "dlts", "no_comm"):
    config = parse_config({**BASE, "algorithm": algo})
    traces = gb.run_experiment(config, workers=2)
    curves[algo] = gb.aggregate(traces)
    s = traces[0].s_rounds
    print(f"ran {algo:<12} (S = {s}, {config.realizations} realizations)")

print()
header = "round".rjust(6) + "".join(a.rjust(14) for a in curves)
print(header)
for t in CHECKPOINTS:
    row = f"{t:>6}"
    for algo, agg in curves.items():
        row += f"{agg['regret_mean'][t - 1]:>14.1f}"
    print(row)

print()
final = {a: agg["regret_mean"][-1] for a, agg in curves.items()}
print(f"communication buys a {final['no_comm'] / final['dlucb']:.1f}x regret reduction "
      f"over silent agents; the centralized oracle is {final['dlucb'] / final['centralized']:.1f}x "
      "below the gossip algorithm")
comm = curves["dlucb"]["comm_scalars_cum"][-1]
print(f"price paid: {comm:,.0f} scalars gossiped per realization")
