"""Chebyshev-accelerated gossip step and the pipelined consensus of estimates.

Every round the agents' fresh action/reward estimates enter one network-wide
pipeline as a new generation. Each generation is released after S
synchronous gossip rounds, the round it starts and the S - 1 after it, as
those rounds would release it. The accelerated step realizes a rescaled
Chebyshev polynomial of the gossip matrix, so after S rounds every pairwise
gain a_ij = N * [q_S(P)]_ij lies within epsilon of 1.

The pipeline is a delay line with one release rule: a generation is
released as U times each agent's own rows, where U = q_S(P) is
``mixing_polynomial``, the (N, N) S-step mix of a unit seed in a payload
laid out as any other (see below), which the simulator computes once per
realization. That is what S gossip rounds over the generation give, up to
about 1e-13 of its largest entry (3e-13 on a path of N = 200, S = 705),
which moves no finite-arm trace. On the box every play is a corner, so an
action entry is exactly +1 or -1 and releases as exactly +U or -U: every
entry of a payload runs the same S-step recursion from its own seed, and
rounding to nearest is sign-symmetric. The pipeline keeps the network and
mixing plan that U was built from, so each round hands it only that
round's own rows, and its clock tells when the oldest generation is due.

The box reward column is the one exception. Box UCB's exact ties read it
to the last bit, so a ``mix_last`` pipeline replaces the last column of
each release by the column mixed for real. A generation's S mixing steps
read only its own earlier values, so the pipeline mixes just in time and in
batches: when the oldest generation is due, the last columns of the oldest
B generations in flight are mixed together, S ``comm_step`` calls over one
(holder, generation x source) payload, after which one of them is released
per round. B = max(1, min(S, BLOCK_BYTES // (N^2 * 8))) keeps the payload
about cache-sized. Each batch allocates its two payloads, ``now`` and
``prev``; ``prev`` is freed when the batch is mixed and ``now`` when its
last generation is released, before the next batch is due. So the pipeline
holds at most 2 (B N^2 + 3N) + S N width floats while it mixes a batch and
B N^2 + 3N + S N width otherwise, whatever S N^2 is: about 7 MB at ring
N = 200, d = 5 (S = 353), where two (S, N, N, width) arrays take 1.36 GB.
A holder's rows of the batch form one contiguous payload row, and a step
is one stacked BLAS product per block of holders with equal-size
neighborhoods (see ``graph.HolderBlock``). The step writes in place over
``prev`` (``out=prev``), which is safe because holder i's update reads only
``prev[i]``; then ``now`` and ``prev`` swap roles. Each holder row ends in
zero pad to a multiple of 4 entries, so no entry takes the path by which
OpenBLAS's dgemv sums a row's last (length mod 4) entries, and every entry
is mixed bit for bit as it would be alone.
"""

from __future__ import annotations

from collections import deque
from itertools import islice

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import ConfigError
from .graph import compute_mixing_rounds

BLOCK_BYTES = 2 << 20
"""Bound on the temporaries of one chunk of ``comm_step``: k + 3 payload rows
per holder (its k neighbor rows, its product, its previous row and that row
scaled). It also bounds the payload of one pipeline batch."""


class MixingPlan:
    """Mixing horizon S of the network ``comm`` for tolerance ``epsilon``, from
    ``compute_mixing_rounds``, with the acceleration weights w_0..w_S:
    w_l = T_l(1/|lambda2|) by w_0 = 1, w_1 = 1/|lambda2| and
    w_{l+1} = 2 w_l / |lambda2| - w_{l-1}, or None when |lambda2| = 0.
    Weights past the float range are a ``ConfigError``."""

    def __init__(self, comm, epsilon):
        self.epsilon = epsilon
        self.lambda2_abs = comm.lambda2_abs
        self.s_rounds = compute_mixing_rounds(comm.n, epsilon, comm.lambda2_abs)
        self.weights = None
        if self.lambda2_abs == 0:
            return
        w = np.empty(self.s_rounds + 1)
        w[0] = 1.0
        w[1] = 1.0 / self.lambda2_abs
        with np.errstate(over="ignore", invalid="ignore"):
            for ell in range(1, self.s_rounds):
                w[ell + 1] = 2.0 * w[ell] / self.lambda2_abs - w[ell - 1]
        if not np.all(np.isfinite(w)):
            raise ConfigError(f"epsilon {epsilon:g} needs S = {self.s_rounds} gossip "
                              "rounds, whose Chebyshev weights overflow")
        self.weights = w


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
    flat = now.reshape(comm.n, -1)
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


def new_pipeline(comm, plan, unit, mix_last):
    """An empty pipeline over the network ``comm`` with mixing ``plan``, whose
    U is ``unit`` (None when nothing is ever released), with or without
    ``mix_last`` (see the module docstring).

    The pipeline is the list [flight, clock, unit, comm, plan, mix_last].
    ``clock`` counts the gossip rounds run. ``flight`` holds [own, mixed] for
    every generation started and not yet released, oldest first: its
    (N, width) own rows, and its mixed (N, N) last column, a view into its
    batch's payload, once that is mixed (else None).
    """
    return [deque(), 0, unit, comm, plan, mix_last]


def _mix(seeds, comm, plan):
    """Mix the (N, B) ``seeds``, one column per generation, for all S rounds
    together in a new (holder, generation x source) payload whose rows end
    in zero pad to a multiple of 4 entries; return the mixed payload, in
    which entry [i, k * N + j] is holder i's value of source j's seed k."""
    n, b = seeds.shape
    now = np.zeros((n, n * b + -n * b % 4))
    prev = np.empty_like(now)
    diag = np.arange(n)[:, None]
    now[diag, diag + n * np.arange(b)] = seeds
    for ell in range(1, plan.s_rounds + 1):
        now, prev = comm_step(now, prev, ell, comm, plan, out=prev), now
    return now


def mixing_polynomial(comm, plan):
    """U = q_S(P), the (N, N) S-step mix of a unit seed in a ``_mix`` payload."""
    return _mix(np.ones((comm.n, 1)), comm, plan)[:, :comm.n].copy()


def advance_queues(queue, own):
    """Start a generation from ``own`` and run one gossip round of the
    pipeline; return the generation it releases, or None.

    ``own`` (N, width) holds each agent's action, reward and optionally
    safety feedback; agent i's copy holds only row i. None starts nothing,
    as after round T - S. From round S on, the oldest generation is released:
    with one started per round until then, it started S - 1 rounds ago. Its
    (N, N, width) payload's entry i holds (a_ik / N) times agent k's data in
    row k, computed as U times the own rows, its last column mixed in a
    batch with ``mix_last`` (see the module docstring). Every step publishes
    all agents' values first, then each update reads only the frozen
    published set, so the exchange is synchronous and deterministic.
    """
    flight, clock, unit, comm, plan, mix_last = queue
    if own is not None:
        flight.append([np.array(own, dtype=float), None])
    clock = queue[1] = clock + 1
    if not flight or clock < plan.s_rounds:
        return None
    if mix_last and flight[0][1] is None:
        n = comm.n
        batch = list(islice(flight, max(1, min(plan.s_rounds, BLOCK_BYTES // (n * n * 8)))))
        now = _mix(np.column_stack([rows[:, -1] for rows, _ in batch]), comm, plan)
        for k, generation in enumerate(batch):
            generation[1] = now[:, k * n:(k + 1) * n]
    rows, mixed = flight.popleft()
    released = unit[:, :, None] * rows
    if mixed is not None:
        released[..., -1] = mixed
    return released
