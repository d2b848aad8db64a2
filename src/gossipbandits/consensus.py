"""Chebyshev-accelerated gossip step and the pipelined consensus of estimates.

Every round the agents' fresh action/reward estimates enter one network-wide
pipeline as a new generation. Each generation is released after S
synchronous gossip rounds, the round it starts and the S - 1 after it, as
those rounds would release it. The accelerated step realizes a rescaled
Chebyshev polynomial of the gossip matrix, so after S rounds every pairwise
gain a_ij = N * [q_S(P)]_ij lies within epsilon of 1.

A generation's S mixing steps read only its own earlier values, so the
pipeline runs them just in time and in batches. It keeps each pending
generation's raw (N, width) rows. When the oldest one is due, the oldest B
pending generations are mixed together: S ``comm_step`` calls over one
(holder, generation, source, width') payload of their mixed columns, after
which one of them is released per round. B = min(S, BLOCK_BYTES //
(N^2 * width' * 8)) keeps the payload about cache-sized, so the pipeline
holds two such payloads and S raw rows, whatever S * N^2 is. A holder's rows
of the batch form one contiguous payload row, and a step is one stacked BLAS
product per block of holders with equal-size neighborhoods (see
``graph.HolderBlock``). The step writes in place over ``prev``
(``out=prev``), which is safe because holder i's update reads only
``prev[i]``; then ``now`` and ``prev`` swap roles.

A pipeline releases its first ``closed`` columns in closed form, as U times
each agent's own entries, and mixes only the others. U = q_S(P) is
``mixing_polynomial``, the (N, N) S-step mix of a unit seed in a payload
padded as any other (see below); the simulator computes it once per
realization. Finite-arm runs release every column this way and mix
nothing: their releases match the mixed ones to about 1e-13 of their
largest entry. On the box every play is a corner, so its action entries are exactly +1 or -1, and the simulator declares them
as the first ``signs`` columns, released through U, while the reward column
is mixed. Every entry of a payload runs the same S-step recursion from its
own seed through the same operations, and rounding to nearest is
sign-symmetric, so seed -1 ends at exactly -U: the sign columns come out
bit for bit as mixing them would.

The mixed columns are padded with zero columns to width', the narrowest
width whose N * width' is a multiple of 4. Then no entry falls in the last
(row length mod 4) entries of a holder row, which OpenBLAS's dgemv sums
along another path. So every entry is mixed as it would be in any other
position of any payload, and each generation comes out bit for bit as a
gossip round over its own padded payload would release it.
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


def _padded(n, cols):
    """The narrowest width from ``cols`` on whose N * width is a multiple of 4."""
    while n * cols % 4:  # no entry of a holder row takes dgemv's tail
        cols += 1
    return cols


def new_pipeline(n, width, s_rounds, unit, signs=0, closed=None):
    """An empty network-wide pipeline for N agents and payload rows of ``width``
    that releases the first ``closed`` columns (default ``signs``) as U, the
    (N, N) ``mixing_polynomial`` ``unit``, times the own rows and mixes the
    others. The first ``signs`` of them hold only +1 or -1 (the plays of a
    box), which U releases exactly as mixing would.

    The pipeline is the list [pending, mixed, buffers, clock, signs, closed,
    unit]. ``clock`` counts the gossip rounds run. ``pending`` holds
    (start, own) for every generation not due yet, oldest first: the clock
    when it started and its (N, width) own rows. ``mixed`` holds
    (release, payload, own) for every generation due but not yet released:
    the clock that releases it, its (N, N, width') slot of a batch buffer
    (None with nothing to mix) and its own rows. ``buffers`` are the two
    (holder, generation, source, width') arrays with room for a batch of
    B = min(S, BLOCK_BYTES // (N^2 * width' * 8)) generations, at least one,
    or None when ``closed`` is the full width. width' is the mixed width
    padded as the module docstring says.
    """
    closed = signs if closed is None else closed
    buffers = None
    if closed < width:
        cols = _padded(n, width - closed)
        shape = (n, max(1, min(s_rounds, BLOCK_BYTES // (n * n * cols * 8))), n, cols)
        # two allocations: one block of both kept 0.2 MB more resident at ER
        # N=20, likely through glibc's mmap threshold, which follows freed sizes
        buffers = (np.empty(shape), np.empty(shape))
    return [deque(), deque(), buffers, 0, signs, closed, unit]


def _mix(buffers, rows, comm, plan):
    """Mix the generations whose (N, cols) own rows are ``rows`` for all S
    rounds together, in place in the two batch ``buffers``, zero-padded past
    ``cols``; return the (holder, generation, source, width') result."""
    now, prev = (buf[:, :len(rows)] for buf in buffers)
    now[:] = 0.0
    diag = np.arange(comm.n)
    now[diag, :, diag, :rows[0].shape[1]] = np.stack(rows, axis=1)
    for ell in range(1, plan.s_rounds + 1):
        now, prev = comm_step(now, prev, ell, comm, plan, out=prev), now
    return now


def mixing_polynomial(comm, plan):
    """U = q_S(P), the (N, N) S-step mix of a unit seed in a zero-padded payload."""
    shape = (comm.n, 1, comm.n, _padded(comm.n, 1))
    ones = _mix((np.empty(shape), np.empty(shape)), [np.ones((comm.n, 1))], comm, plan)
    return ones[:, 0, :, 0].copy()


def mixed_gain(comm, plan):
    """Gain matrix a with a[i, j] = N * [q_S(P)]_ij."""
    return comm.n * mixing_polynomial(comm, plan)


def advance_queues(queue, own, comm, plan):
    """Start a generation from ``own`` and run one gossip round of the
    pipeline; return the generation it releases, or None.

    ``own`` (N, width) holds each agent's action, reward and optionally
    safety feedback; agent i's copy holds only row i. None starts nothing,
    as after round T - S. A generation started S - 1 rounds ago is released:
    its (N, N, width) payload, whose entry i holds (a_ik / N) times agent k's
    data in row k. Its first ``closed`` columns are U times the own rows (see
    the module docstring). When the oldest pending generation is due and the
    pipeline has columns to mix, the oldest B pending ones are first mixed
    for all S rounds together, in place in the two batch buffers. Every step
    publishes all agents' values first, then each update reads only the
    frozen published set, so the exchange is synchronous and deterministic.
    The next batch is due only after this one is released, so it may reuse
    the buffers.

    An entry other than +1 or -1 in the first ``signs`` columns of ``own``
    raises ``RuntimeError``: the box's sign columns rely on that exactness.
    """
    pending, mixed, buffers, clock, signs, closed, unit = queue
    if own is not None:
        own = np.array(own, dtype=float)
        if not np.all(np.abs(own[:, :signs]) == 1.0):
            raise RuntimeError(f"the first {signs} columns of a generation hold "
                               "an entry other than +1 or -1")
        pending.append((clock, own))
    clock = queue[3] = clock + 1
    s_rounds = plan.s_rounds
    if pending and pending[0][0] + s_rounds == clock:
        if buffers is None:  # nothing to mix
            mixed.append((clock, None, pending.popleft()[1]))
        else:
            batch = [pending.popleft() for _ in range(min(len(pending), buffers[0].shape[1]))]
            now = _mix(buffers, [rows[:, closed:] for _, rows in batch], comm, plan)
            mixed.extend((start + s_rounds, now[:, k], rows)
                         for k, (start, rows) in enumerate(batch))
    if mixed and mixed[0][0] == clock:
        _, payload, rows = mixed.popleft()
        released = np.empty((comm.n,) + rows.shape)
        released[..., :closed] = unit[:, :, None] * rows[:, :closed]
        if payload is not None:
            released[..., closed:] = payload[..., :rows.shape[1] - closed]
        return released
    return None
