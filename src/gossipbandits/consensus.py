"""Chebyshev-accelerated gossip step and the pipelined consensus of estimates.

Every round the agents' fresh action/reward estimates enter one network-wide
pipeline as a new generation, and each generation is mixed for exactly S
synchronous gossip rounds, the round it starts and the S - 1 after it, and
is released by the last of them. The accelerated step realizes a rescaled
Chebyshev polynomial of the gossip matrix, so after S rounds every pairwise
gain a_ij = N * [q_S(P)]_ij lies within epsilon of 1.

A generation's S mixing steps read only its own earlier values, so the
pipeline runs them just in time and in batches. It keeps each pending
generation's raw (N, width) rows. When the oldest one is due, the oldest B
pending generations are mixed together: S ``comm_step`` calls over one
(holder, generation, source, width) payload, after which one of them is
released per round. B = min(S, BLOCK_BYTES // (N^2 * width * 8)) keeps the
payload about cache-sized, so the pipeline holds two such payloads and S raw
rows, whatever S * N^2 is. A holder's rows of the batch form one contiguous
payload row, and a step is one stacked BLAS product per block of holders
with equal-size neighborhoods (see ``graph.HolderBlock``). The step writes
in place over ``prev`` (``out=prev``), which is safe because holder i's
update reads only ``prev[i]``; then ``now`` and ``prev`` swap roles.

Each generation comes out as it would from a gossip round of its own, bit
for bit when N * width is a multiple of 4. Otherwise OpenBLAS's dgemv may sum
a generation's last N * width mod 4 entries along another path than it
would for that generation alone, which moves them by about one ulp.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import ConfigError
from .graph import compute_mixing_rounds

BLOCK_BYTES = 2 << 20
"""Bound on the temporaries of one chunk of ``comm_step``: k + 3 payload rows
per holder (its k neighbor rows, its product, its previous row and that row
scaled). It also bounds the payload of one pipeline batch."""


def chebyshev_weights(s_rounds, lambda2_abs):
    """Weights w_0..w_S of the accelerated recursion: w_l = T_l(1/|lambda2|).

    w_0 = 1 and w_1 = 1/|lambda2|; the two-term recursion
    w_{l+1} = 2 w_l / |lambda2| - w_{l-1} continues the sequence. Weights
    past the float range come out inf or nan.
    """
    if s_rounds < 1:
        raise ValueError("need at least one mixing round")
    if not 0 < lambda2_abs < 1:
        raise ValueError("|lambda2| must lie in (0, 1) for Chebyshev weights")
    w = np.empty(s_rounds + 1)
    w[0] = 1.0
    w[1] = 1.0 / lambda2_abs
    with np.errstate(over="ignore", invalid="ignore"):
        for ell in range(1, s_rounds):
            w[ell + 1] = 2.0 * w[ell] / lambda2_abs - w[ell - 1]
    return w


@dataclass
class MixingPlan:
    """Mixing horizon S with the acceleration weights for a given tolerance."""

    epsilon: float
    s_rounds: int
    lambda2_abs: float
    weights: np.ndarray | None = field(default=None, init=False, repr=False)  # None: |lambda2| = 0

    def __post_init__(self):
        if self.lambda2_abs > 0:
            self.weights = chebyshev_weights(self.s_rounds, self.lambda2_abs)
            if not np.all(np.isfinite(self.weights)):
                raise ConfigError(f"epsilon {self.epsilon:g} needs S = {self.s_rounds} gossip "
                                  "rounds, whose Chebyshev weights overflow")
            diffs = np.diff(self.weights[1:])
            if self.weights[0] != 1.0 or np.any(self.weights < 1.0) or np.any(diffs <= 0):
                raise ValueError("invalid Chebyshev weight sequence")

    @classmethod
    def for_network(cls, comm, epsilon):
        s_rounds = compute_mixing_rounds(comm.n, epsilon, comm.lambda2_abs)
        return cls(epsilon=epsilon, s_rounds=s_rounds, lambda2_abs=comm.lambda2_abs)


def comm_step(now, prev, ell, comm, plan, out=None):
    """One synchronous accelerated gossip round over stacked per-agent values.

    ``now[i]`` is holder i's current estimate (any payload shape), ``prev[i]``
    its estimate from the previous round. Holder i only reads its own values
    and the freshly published ``now`` values of its structural neighbors.
    ``ell`` is the mixing count of this round; round 1 is the plain gossip
    product.

    The result goes to ``out`` (a new array when None) and is returned.
    ``out`` may be ``prev`` itself: holder i's new value depends only on
    ``prev[i]``, which is read before ``out[i]`` is written.

    Holders are mixed a block of ``comm.blocks`` at a time, in chunks of at
    most ``BLOCK_BYTES`` of temporaries: one stacked ``matmul`` of the
    holders' (1, k) weight rows against their (k, payload) neighbor rows,
    read through a strided view for a window block and gathered otherwise.
    That makes the same dgemv call per holder as a ``tensordot`` over one
    holder's rows, so every entry equals the per-holder product bit for bit.
    """
    now = np.asarray(now, dtype=float)
    prev = np.asarray(prev, dtype=float)
    if now.shape != prev.shape:
        raise ValueError("now/prev shape mismatch")
    if now.shape[0] != comm.n:
        raise ValueError("leading axis must enumerate the agents")
    if not 1 <= ell <= plan.s_rounds:
        raise ValueError(f"communication round {ell} outside [1, {plan.s_rounds}]")
    if out is None:
        out = np.empty_like(now)
    if ell > 1:
        w = plan.weights
        c_now = 2.0 * w[ell - 1] / (plan.lambda2_abs * w[ell])
        c_prev = w[ell - 2] / w[ell]
    flat = now.reshape(comm.n, -1)  # a view for the pipeline's batch slices
    row_stride, col_stride = flat.strides
    # a strided view hands dgemv the operands a gathered copy would only when
    # payload rows are contiguous and longer than one entry: with one entry
    # numpy calls ddot, whose strided kernel sums in another order
    viewable = flat.shape[1] > 1 and col_stride == flat.itemsize
    for block in comm.blocks:
        h, k = block.rows.shape
        chunk = max(1, BLOCK_BYTES // ((k + 3) * max(flat[0].nbytes, 1)))
        view = None
        if block.window and viewable:
            view = as_strided(flat[block.rows[0, 0]:], shape=(h, k, flat.shape[1]),
                              strides=(row_stride, row_stride, col_stride), writeable=False)
        for a in range(0, h, chunk):
            b = min(a + chunk, h)
            if view is None:
                holders = block.holders[a:b]
                mixed = np.matmul(block.weights[a:b], flat[block.rows[a:b]])
            else:
                holders = slice(block.holders[a], block.holders[b - 1] + 1)
                mixed = np.matmul(block.weights[a:b], view[a:b])
            mixed = mixed.reshape((b - a,) + now.shape[1:])
            if ell == 1:
                out[holders] = mixed
            else:
                # c_now * mixed - c_prev * prev, in place where out[holders] is a view
                in_place = isinstance(holders, slice)
                combined = out[holders] if in_place else np.empty_like(mixed)
                np.multiply(c_prev, prev[holders], out=combined)
                mixed *= c_now
                np.subtract(mixed, combined, out=combined)
                if not in_place:
                    out[holders] = combined
                del combined
            del mixed  # free this chunk's temporaries before the next product
    return out


def mixed_gain(comm, plan):
    """Gain matrix a with a[i, j] = N * [q_S(P)]_ij, built by running the
    accelerated step on basis payloads for the full horizon."""
    cur = np.eye(comm.n)
    prev = cur
    for ell in range(1, plan.s_rounds + 1):
        cur, prev = comm_step(cur, prev, ell, comm, plan), cur
    return comm.n * cur


def new_pipeline(n, width, s_rounds):
    """An empty network-wide pipeline for N agents and payload rows of ``width``.

    The pipeline is the list [pending, mixed, buffers, clock]. ``clock``
    counts the gossip rounds run. ``pending`` holds (start, own) for every
    generation not mixed yet, oldest first: the clock when it started and its
    (N, width) own rows. ``mixed`` holds (release, payload) for every mixed
    generation not yet released: the clock that releases it and its
    (N, N, width) slot of a batch buffer. ``buffers`` are the two
    (holder, generation, source, width) arrays with room for a batch of
    B = min(S, BLOCK_BYTES // (N^2 * width * 8)) generations, at least one.
    """
    shape = (n, max(1, min(s_rounds, BLOCK_BYTES // (n * n * width * 8))), n, width)
    # two allocations: one block of both kept 0.2 MB more resident at ER
    # N=20, likely through glibc's mmap threshold, which follows freed sizes
    return [deque(), deque(), (np.empty(shape), np.empty(shape)), 0]


def advance_queues(queue, own, comm, plan):
    """Start a generation from ``own`` and run one gossip round of the
    pipeline; return the generation it releases, or None.

    ``own`` (N, width) holds each agent's action, reward and optionally
    safety feedback; agent i's copy holds only row i. None starts nothing,
    as after round T - S. A generation started S - 1 rounds ago is released:
    a copy of its (N, N, width) payload, whose entry i holds (a_ik / N) times
    agent k's data in row k. When the oldest pending generation is due, the
    oldest B pending ones are first mixed for all S rounds together, in place
    in the two batch buffers. Every step publishes all agents' values first,
    then each update reads only the frozen published set, so the exchange is
    synchronous and deterministic. The next batch is due only after this one
    is released, so it may reuse the buffers.

    Each generation is mixed as a gossip round over its own (N, N, width)
    payload would mix it: bit for bit when N * width is a multiple of 4, to
    about one ulp otherwise (see the module docstring).
    """
    pending, mixed, buffers, clock = queue
    if own is not None:
        pending.append((clock, np.array(own, dtype=float)))
    clock = queue[3] = clock + 1
    s_rounds = plan.s_rounds
    if pending and pending[0][0] + s_rounds == clock:
        batch = [pending.popleft() for _ in range(min(len(pending), buffers[0].shape[1]))]
        now, prev = (buf[:, :len(batch)] for buf in buffers)
        now[:] = 0.0
        diag = np.arange(comm.n)
        now[diag, :, diag] = np.stack([rows for _, rows in batch], axis=1)
        for ell in range(1, s_rounds + 1):
            now, prev = comm_step(now, prev, ell, comm, plan, out=prev), now
        mixed.extend((start + s_rounds, now[:, k]) for k, (start, _) in enumerate(batch))
    if mixed and mixed[0][0] == clock:
        return mixed.popleft()[1].copy()
    return None
