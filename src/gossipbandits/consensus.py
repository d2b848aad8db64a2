"""Chebyshev-accelerated gossip step and the pipelined consensus of estimates.

Every round the agents' fresh action/reward estimates enter one network-wide
pipeline as a new generation, and every in-flight generation is mixed for
exactly S synchronous rounds, so up to S generations are mixed at once. The
accelerated step realizes a rescaled Chebyshev polynomial of the gossip
matrix, so after S rounds every pairwise gain a_ij = N * [q_S(P)]_ij lies
within epsilon of 1.

The pipeline is two preallocated arrays, ``now`` and ``prev``, laid out as
(holder, generation, source, width), plus each generation slot's mixing
count. A holder's rows of all in-flight generations then form one contiguous
payload row, and one ``comm_step`` call mixes every generation with its own
Chebyshev coefficients: one stacked BLAS product per block of holders with
equal-size neighborhoods (see ``graph.HolderBlock``). The step writes
in place over ``prev`` (``out=prev``), which is safe because holder i's
update reads only ``prev[i]``; then ``now`` and ``prev`` swap roles.

Each generation comes out as it would from a gossip round of its own, bit
for bit when N * width is a multiple of 4. Otherwise OpenBLAS's dgemv may sum
a generation's last N * width mod 4 entries along another path than it
would for that generation alone, which moves them by about one ulp.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .graph import compute_mixing_rounds

BLOCK_BYTES = 2 << 20
"""Bound on the temporaries of one chunk of ``comm_step``: k + 3 payload rows
per holder (its k neighbor rows, its product, its previous row and that row
scaled)."""


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


def comm_step(now, prev, ell, comm, plan, out=None):
    """One synchronous accelerated gossip round over stacked per-agent values.

    ``now[i]`` is holder i's current estimate (any payload shape), ``prev[i]``
    its estimate from the previous round. Holder i only reads its own values
    and the freshly published ``now`` values of its structural neighbors.
    ``ell`` is the mixing count of this round: a scalar, or one count per
    entry of the payload's leading axis (the pipeline's generations), and
    rows with ``ell == 1`` are the plain gossip product, copied exactly.

    The result goes to ``out`` (a new array when None) and is returned.
    ``out`` may be ``prev`` itself: holder i's new value depends only on
    ``prev[i]``, which is read before ``out[i]`` is written.

    Holders are mixed a block of ``comm.blocks`` at a time, in chunks of at
    most ``BLOCK_BYTES`` of temporaries: one stacked ``matmul`` of the
    holders' (1, k) weight rows against their (k, payload) neighbor rows,
    read through a strided view where the block allows it and gathered
    otherwise. That makes the same dgemv call per holder as a ``tensordot``
    over one holder's rows, so every entry equals the per-holder product bit
    for bit.
    """
    now = np.asarray(now, dtype=float)
    prev = np.asarray(prev, dtype=float)
    ell = np.asarray(ell)
    if now.shape != prev.shape:
        raise ValueError("now/prev shape mismatch")
    if now.shape[0] != comm.n:
        raise ValueError("leading axis must enumerate the agents")
    if ell.shape != now.shape[1:1 + ell.ndim]:
        raise ValueError(f"ell of shape {ell.shape} does not index the payload {now.shape[1:]}")
    if np.any(ell < 1) or np.any(ell > plan.s_rounds):
        raise ValueError(f"communication round {ell} outside [1, {plan.s_rounds}]")
    if out is None:
        out = np.empty_like(now)
    fresh = np.flatnonzero(ell == 1) if ell.ndim else None
    plain_only = not np.any(ell > 1)
    if not plain_only:
        w = plan.weights
        lam2 = plan.lambda2_abs
        m = np.maximum(ell, 2)  # the coefficients of ell == 1 rows are unused
        shape = ell.shape + (1,) * (now.ndim - 1 - ell.ndim)
        c_now = (2.0 * w[m - 1] / (lam2 * w[m])).reshape(shape)
        c_prev = (w[m - 2] / w[m]).reshape(shape)
    flat = now.reshape(comm.n, -1)  # a view for the pipeline's slices
    row_stride, col_stride = flat.strides
    # a strided view hands dgemv the operands a gathered copy would only when
    # payload rows are contiguous and longer than one entry: with one entry
    # numpy calls ddot, whose strided kernel sums in another order
    viewable = flat.shape[1] > 1 and col_stride == flat.itemsize
    for block in comm.blocks:
        h, k = block.rows.shape
        chunk = max(1, BLOCK_BYTES // ((k + 3) * max(flat[0].nbytes, 1)))
        view = None
        if block.steps is not None and viewable:
            step, shift, spacing = block.steps
            view = as_strided(flat[block.rows[0, 0]:], shape=(h, k, flat.shape[1]),
                              strides=(shift * row_stride, spacing * row_stride, col_stride),
                              writeable=False)
        for a in range(0, h, chunk):
            b = min(a + chunk, h)
            if view is None:
                holders = block.holders[a:b]
                mixed = np.matmul(block.weights[a:b], flat[block.rows[a:b]])
            else:
                holders = slice(block.holders[a], block.holders[b - 1] + 1, step)
                mixed = np.matmul(block.weights[a:b], view[a:b])
            mixed = mixed.reshape((b - a,) + now.shape[1:])
            if plain_only:
                out[holders] = mixed
            else:
                # c_now * mixed - c_prev * prev, in place where out[holders] is a view
                in_place = isinstance(holders, slice)
                combined = out[holders] if in_place else np.empty_like(mixed)
                np.multiply(c_prev, prev[holders], out=combined)
                plain = None if fresh is None else mixed[:, fresh]
                mixed *= c_now
                np.subtract(mixed, combined, out=combined)
                if fresh is not None:
                    combined[:, fresh] = plain
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

    The pipeline is the list [now, prev, age]. ``now`` and ``prev`` are
    (holder, generation slot, source, width) arrays with S slots: slot g of
    holder i is agent i's copy of one round's generation, whose row k carries
    agent k's data. ``age[g]`` counts the gossip rounds slot g has been mixed,
    -1 for a free slot. In-flight generations occupy consecutive slots
    (cyclically), oldest first, so a holder's neighbors' rows of every
    in-flight generation form one (neighbors, generations * N * width) block.
    """
    now = np.zeros((n, s_rounds, n, width))
    return [now, np.zeros_like(now), np.full(s_rounds, -1)]


def _window(age):
    """Slot of the oldest in-flight generation and the number in flight."""
    depth = int(np.count_nonzero(age >= 0))
    return (int(np.argmax(age)) if depth else 0), depth


def enqueue(queue, own):
    """Start a fresh generation in the slot after the newest in-flight one.

    ``own`` is (N, width): agent i's own action, reward and optionally safety
    feedback. Agent i's copy of the generation holds only row i of ``own``.
    At most one generation starts per gossip round, so the in-flight ones
    have distinct mixing counts. Raises ``RuntimeError`` when S generations
    are already in flight.
    """
    now, _, age = queue
    first, depth = _window(age)
    if depth == len(age):
        raise RuntimeError(
            f"pipeline overflow: {depth + 1} generations in flight, at most S={len(age)}"
        )
    slot = (first + depth) % len(age)
    n = len(own)
    now[:, slot] = 0.0
    now[np.arange(n), slot, np.arange(n)] = own
    age[slot] = 0


def advance_queues(queue, comm, plan):
    """Run one gossip round over every in-flight generation of the pipeline.

    One ``comm_step`` mixes all in-flight generations at once, each with its
    own mixing count, and writes the result in place over ``prev`` before the
    two arrays swap roles. All agents publish first, then every update reads
    only the frozen published set, so the exchange is synchronous and
    deterministic. Once the oldest generation has been mixed for the full
    horizon S it leaves the pipeline: a copy of its (N, N, width) payload is
    returned, whose entry i holds (a_ik / N) times agent k's data in row k.
    Otherwise returns None.

    Each generation is mixed as a gossip round over its own (N, N, width)
    payload would mix it: bit for bit when N * width is a multiple of 4, to
    about one ulp otherwise (see the module docstring).
    """
    now, prev, age = queue
    s_rounds = len(age)
    if s_rounds != plan.s_rounds:
        raise ValueError(f"pipeline holds {s_rounds} slots, but S={plan.s_rounds}")
    first, depth = _window(age)
    if depth == 0:
        return None
    if first + depth > s_rounds and depth < s_rounds:
        # after the last enqueue the window may wrap: rotate it to slot 0, one
        # holder at a time, so that it stays one slice
        for arr in (now, prev):
            for i in range(len(arr)):
                arr[i] = np.roll(arr[i], -first, axis=0)
        age[:] = np.roll(age, -first)
        first = 0
    live = slice(0, s_rounds) if depth == s_rounds else slice(first, first + depth)
    ell = age[live] + 1
    comm_step(now[:, live], prev[:, live], ell, comm, plan, out=prev[:, live])
    now, prev = prev, now
    queue[0], queue[1] = now, prev
    age[live] = ell
    if age[first] < s_rounds:
        return None
    age[first] = -1
    return now[:, first].copy()
