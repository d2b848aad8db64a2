"""Chebyshev-accelerated gossip step and the pipelined consensus of estimates.

Every round the agents' fresh action/reward estimates enter one network-wide
pipeline as a new generation, and every in-flight generation is mixed for
exactly S synchronous rounds, so up to S generations are mixed at once. The
accelerated step realizes a rescaled Chebyshev polynomial of the gossip
matrix, so after S rounds every pairwise gain a_ij = N * [q_S(P)]_ij lies
within epsilon of 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import compute_mixing_rounds


def chebyshev_weights(s_rounds, lambda2_abs):
    """Weights w_0..w_S of the accelerated recursion: w_l = T_l(1/|lambda2|).

    w_0 = 1 and w_1 = 1/|lambda2|; the two-term recursion
    w_{l+1} = 2 w_l / |lambda2| - w_{l-1} continues the sequence.
    """
    if s_rounds < 1:
        raise ValueError("need at least one mixing round")
    if not 0 < lambda2_abs < 1:
        raise ValueError("|lambda2| must lie in (0, 1) for Chebyshev weights")
    w = np.empty(s_rounds + 1)
    w[0] = 1.0
    w[1] = 1.0 / lambda2_abs
    for ell in range(1, s_rounds):
        w[ell + 1] = 2.0 * w[ell] / lambda2_abs - w[ell - 1]
    return w


@dataclass
class MixingPlan:
    """Mixing horizon S with the acceleration weights for a given tolerance."""

    epsilon: float
    s_rounds: int
    lambda2_abs: float
    weights: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.weights is None and self.lambda2_abs > 0:
            self.weights = chebyshev_weights(self.s_rounds, self.lambda2_abs)
        if self.weights is not None:
            diffs = np.diff(self.weights[1:])
            if self.weights[0] != 1.0 or np.any(self.weights < 1.0) or np.any(diffs <= 0):
                raise ValueError("invalid Chebyshev weight sequence")

    @classmethod
    def for_network(cls, comm, epsilon):
        s_rounds = compute_mixing_rounds(comm.n, epsilon, comm.lambda2_abs)
        return cls(epsilon=epsilon, s_rounds=s_rounds, lambda2_abs=comm.lambda2_abs)


def comm_step(now, prev, ell, comm, plan):
    """One synchronous accelerated gossip round over stacked per-agent values.

    ``now[i]`` is agent i's current estimate (any payload shape), ``prev[i]``
    its estimate from the previous round. Agent i only reads its own values and
    the freshly published ``now`` values of its structural neighbors.
    """
    now = np.asarray(now, dtype=float)
    prev = np.asarray(prev, dtype=float)
    if now.shape != prev.shape:
        raise ValueError("now/prev shape mismatch")
    if now.shape[0] != comm.n:
        raise ValueError("leading axis must enumerate the agents")
    if not 1 <= ell <= plan.s_rounds:
        raise ValueError(f"communication round {ell} outside [1, {plan.s_rounds}]")
    mixed = np.empty_like(now)
    entries = comm.entries
    for i in range(comm.n):
        idx = comm.neighborhoods[i]
        mixed[i] = np.tensordot(entries[i, idx], now[idx], axes=(0, 0))
    if ell == 1:
        return mixed
    w = plan.weights
    lam2 = plan.lambda2_abs
    c_now = 2.0 * w[ell - 1] / (lam2 * w[ell])
    c_prev = w[ell - 2] / w[ell]
    return c_now * mixed - c_prev * prev


def mixed_gain(comm, plan):
    """Gain matrix a with a[i, j] = N * [q_S(P)]_ij, built by running the
    accelerated step on basis payloads for the full horizon."""
    cur = np.eye(comm.n)
    prev = cur
    for ell in range(1, plan.s_rounds + 1):
        cur, prev = comm_step(cur, prev, ell, comm, plan), cur
    return comm.n * cur


def enqueue(queue, own):
    """Append a fresh generation to the network-wide pipeline.

    ``own`` is (N, width): agent i's own action, reward and optionally safety
    feedback. In the generation's (N, N, width) payload, agent i's slot (entry
    i) holds only row i of ``own``; ``prev`` starts equal to the payload.
    """
    n = len(own)
    payload = np.zeros((n, n, own.shape[1]))
    payload[np.arange(n), np.arange(n)] = own
    queue.append([payload, payload])


def advance_queues(queue, comm, plan):
    """Run one gossip round over every in-flight generation of the pipeline.

    ``queue`` is the oldest-first list of [payload, prev] generations with one
    generation appended per round, so generation g is mixed for the
    ``len(queue) - g``-th time. All agents publish first, then every update
    reads only the frozen published set, so the exchange is synchronous and
    deterministic. Once S generations are in flight the oldest has been mixed
    for the full horizon: it is popped and returned, and entry i of its
    payload holds (a_ik / N) times agent k's data in row k. Otherwise returns
    None.
    """
    depth = len(queue)
    if depth > plan.s_rounds:
        raise RuntimeError(
            f"pipeline overflow: {depth} generations in flight, at most S={plan.s_rounds}"
        )
    for g, gen in enumerate(queue):
        now, prev = gen
        gen[0], gen[1] = comm_step(now, prev, depth - g, comm, plan), now
    if depth == plan.s_rounds:
        return queue.pop(0)
    return None
