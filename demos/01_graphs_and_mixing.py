"""Graph topologies, gossip matrices, and accelerated consensus.

Builds the four stock 20-node topologies, reports their spectral gaps and
mixing horizons, and then watches the Chebyshev-accelerated gossip step drive
a single agent's value toward the network average.
"""

import numpy as np

import gossipbandits as gb

EPS = 1 / 21

print("=== Topologies and mixing horizons (N = 20, eps = 1/21) ===")
print(f"{'topology':<12} {'|lambda_2|':>10} {'S':>4}")
for kind in ("ring", "star", "complete"):
    comm = gb.build_comm_matrix(gb.build_topology(kind, 20))
    s = gb.compute_mixing_rounds(20, EPS, comm.lambda2_abs)
    print(f"{kind:<12} {comm.lambda2_abs:>10.4f} {s:>4}")
rng = np.random.default_rng(0)
comm = gb.build_comm_matrix(gb.build_topology("erdos_renyi", 20, p=0.5, rng=rng))
s = gb.compute_mixing_rounds(20, EPS, comm.lambda2_abs)
print(f"{'random':<12} {comm.lambda2_abs:>10.4f} {s:>4}")

print()
print("=== Accelerated consensus on the ring ===")
comm = gb.build_comm_matrix(gb.build_topology("ring", 20))
plan = gb.MixingPlan(comm, EPS)
print(f"ring N=20: mixing for S = {plan.s_rounds} rounds targets error {EPS:.4f}")

# one agent holds the value 20, everyone else 0; the average is 1
cur = np.zeros(20)
cur[0] = 20.0
prev = cur.copy()
for ell in range(1, plan.s_rounds + 1):
    cur, prev = gb.comm_step(cur, prev, ell, comm, plan), cur
    if ell in (1, 5, 10, 15, 20, plan.s_rounds):
        err = np.abs(cur - 1.0).max()
        print(f"  after round {ell:>2}: max deviation from the average = {err:.4f}")

gain = comm.n * gb.mixing_polynomial(comm, plan)
print(f"pairwise gains a_ij after S rounds: min {gain.min():.4f}, max {gain.max():.4f}"
      f" (all within {EPS:.4f} of 1)")
