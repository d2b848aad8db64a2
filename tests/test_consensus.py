import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gossipbandits import consensus
from gossipbandits.agents import SafeDlucbAgent
from gossipbandits.config import parse_config
from gossipbandits.consensus import (
    MixingPlan,
    advance_queues,
    comm_step,
    mixing_polynomial,
    new_pipeline,
)
from gossipbandits.graph import (
    TOPOLOGY_KINDS,
    CommMatrix,
    GraphTopology,
    build_comm_matrix,
    build_topology,
)
from gossipbandits.sim import run_realization

from helpers import (
    chebyshev_closed_form,
    identity_seed_gain,
    mixing_polynomial_eig,
    oracle_comm_step,
    random_connected_adjacency,
)


def make(kind, n, eps=0.1):
    comm = build_comm_matrix(build_topology(kind, n))
    return comm, MixingPlan.for_network(comm, eps)


def test_weights_match_defining_recursion_at_half():
    assert np.array_equal(MixingPlan(0.1, 3, 0.5).weights, [1.0, 2.0, 7.0, 26.0])


def test_weight_zero_is_one():
    for lam2 in (0.2, 0.5, 0.9674):
        assert MixingPlan(0.1, 4, lam2).weights[0] == 1.0


def test_weights_match_closed_form():
    w = MixingPlan(0.1, 26, 0.9674).weights
    exact = np.array([chebyshev_closed_form(ell, np.array([1.0 / 0.9674]))[0]
                      for ell in range(27)])
    assert np.abs(w / exact - 1.0).max() < 1e-10


def test_weights_domain():
    # |lambda2| = 0: one gossip product averages exactly, no weights needed
    assert MixingPlan(0.1, 3, 0.0).weights is None
    with pytest.raises(ValueError):
        MixingPlan(0.1, 3, 1.0)
    with pytest.raises(ValueError):
        MixingPlan(0.1, 0, 0.5)


def test_constant_payload_is_fixed_point_at_every_round():
    comm, plan = make("ring", 6, eps=0.05)
    value = 3.7 * np.ones((6, 4))
    prev = value.copy()
    cur = value.copy()
    for ell in range(1, plan.s_rounds + 1):
        cur, prev = comm_step(cur, prev, ell, comm, plan), cur
        assert np.allclose(cur, 3.7, atol=1e-12)


def test_first_round_is_plain_gossip():
    comm, plan = make("path", 3)
    e1 = np.zeros(3)
    e1[0] = 1.0
    out = comm_step(e1, e1, 1, comm, plan)
    assert np.allclose(out, comm.entries[:, 0], atol=1e-15)


def test_ring4_reaches_epsilon_consensus():
    comm, plan = make("ring", 4, eps=0.1)
    cur = np.zeros(4)
    cur[0] = 1.0
    prev = cur.copy()
    for ell in range(1, plan.s_rounds + 1):
        cur, prev = comm_step(cur, prev, ell, comm, plan), cur
    assert np.linalg.norm(4.0 * cur - 1.0) <= 0.1


def test_comm_step_validates_inputs():
    comm, plan = make("ring", 4)
    good = np.zeros(4)
    with pytest.raises(ValueError, match="shape"):
        comm_step(good, np.zeros(3), 1, comm, plan)
    with pytest.raises(ValueError, match="outside"):
        comm_step(good, good, plan.s_rounds + 1, comm, plan)
    with pytest.raises(ValueError, match="outside"):
        comm_step(good, good, 0, comm, plan)


def test_locality_never_reads_non_neighbors():
    # severing harness: non-neighbor values are poisoned with NaN
    comm, plan = make("ring", 6, eps=0.05)
    rng = np.random.default_rng(1)
    base_now = rng.standard_normal((6, 3))
    base_prev = rng.standard_normal((6, 3))
    for ell in (1, 2, 3):
        clean = comm_step(base_now, base_prev, ell, comm, plan)
        for i in range(6):
            poisoned = base_now.copy()
            allowed = set(np.flatnonzero(comm.entries[i]))
            for j in range(6):
                if j not in allowed:
                    poisoned[j] = np.nan
            out = comm_step(poisoned, base_prev, ell, comm, plan)
            assert np.array_equal(out[i], clean[i])


def _tree_plus_edges(n, p, rng):
    """A random tree (node i joins a node before it) plus Erdos-Renyi edges."""
    a = np.triu((rng.random((n, n)) < p).astype(float), 1)
    for i in range(1, n):
        a[rng.integers(0, i), i] = 1.0
    return a + a.T


@st.composite
def gossip_graphs(draw):
    """A topology of every kind, or a random connected graph of 1 to 40 nodes."""
    kind = draw(st.sampled_from(TOPOLOGY_KINDS + ("random",)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        topo = GraphTopology(_tree_plus_edges(draw(st.integers(1, 40)),
                                              draw(st.floats(0.0, 1.0)), rng))
    elif kind == "explicit":
        topo = GraphTopology(_tree_plus_edges(draw(st.integers(2, 40)), 0.2, rng))
    else:
        topo = build_topology(kind, draw(st.integers(3, 40)), p=0.3, rng=rng)
    return CommMatrix(topo)


def _embedded(rng, shape, data):
    """A random array of ``shape`` that may be a slice of a wider one, like
    a pipeline batch that fills part of its buffer, and may step over entries
    of its last axis."""
    pad, step = data.draw(st.integers(0, 2)), data.draw(st.sampled_from([1, 2]))
    wide = list(shape)
    wide[-1] *= step
    index = [slice(None)] * len(shape)
    index[-1] = slice(0, shape[-1] * step, step)
    if len(shape) > 1:
        wide[1] += pad * (step if len(shape) == 2 else 1)
        if len(shape) > 2:
            index[1] = slice(0, shape[1])
    return rng.standard_normal(wide)[tuple(index)]


@settings(max_examples=150, deadline=None)
@given(comm=gossip_graphs(), data=st.data())
def test_comm_step_matches_per_holder_oracle(comm, data):
    """Blocked mixing equals the per-holder tensordot loop bit for bit, for
    every payload layout the simulator uses, on slices like the pipeline's
    and on strided payloads, with and without out=prev, and at both extremes
    of the chunk size."""
    plan = MixingPlan.for_network(comm, 0.05)
    n, s = comm.n, plan.s_rounds
    layout = data.draw(st.sampled_from(["scalar", "matrix", "pipeline"]))
    if layout == "scalar":
        shape = (n,)
    elif layout == "matrix":
        d = data.draw(st.integers(1, 6))
        shape = (n, d, d)
    else:
        shape = (n, data.draw(st.integers(1, 4)), n, data.draw(st.integers(1, 7)))
    ell = data.draw(st.integers(1, s))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    now, prev = (_embedded(rng, shape, data) for _ in range(2))
    block_bytes = data.draw(st.sampled_from([1, consensus.BLOCK_BYTES, 1 << 40]))
    in_place = data.draw(st.booleans())
    expected = oracle_comm_step(now, prev, ell, comm, plan, out=prev.copy() if in_place else None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consensus, "BLOCK_BYTES", block_bytes)
        before = now.copy()
        got = comm_step(now, prev, ell, comm, plan, out=prev if in_place else None)
    assert (got is prev) == in_place
    np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(now, before)


@settings(max_examples=80, deadline=None)
@given(comm=gossip_graphs())
def test_holder_blocks_partition_the_holders(comm):
    """Every holder lies in exactly one block, holders of a block share one
    neighborhood size, and a window block holds consecutive holders whose
    rows run from holder - r to holder + r."""
    holders = np.concatenate([block.holders for block in comm.blocks])
    assert sorted(holders.tolist()) == list(range(comm.n))
    for block in comm.blocks:
        h, k = block.rows.shape
        for i, row in zip(block.holders, block.rows):
            assert np.array_equal(row, np.flatnonzero(comm.entries[i]))
        assert np.array_equal(block.weights[:, 0], comm.entries[block.holders[:, None], block.rows])
        if block.window:
            r = k // 2
            assert h > 1 and k == 2 * r + 1
            assert np.array_equal(block.holders, block.holders[0] + np.arange(h))
            assert np.array_equal(block.rows, block.holders[:, None] + np.arange(-r, r + 1))


def _gathered(comm):
    return sorted(i for block in comm.blocks if not block.window for i in block.holders)


def test_window_neighborhoods_match_the_oracle():
    """Holders 2..10 of this graph see {i - 2, ..., i + 2}: a k = 5 window.
    One-entry payloads make numpy call ddot, whose strided kernel (k >= 4)
    sums in another order than on a gathered copy, and payload rows with
    strided entries take numpy's non-BLAS loop through a view."""
    distance = np.abs(np.subtract.outer(np.arange(13), np.arange(13)))
    comm = CommMatrix(GraphTopology(((distance >= 1) & (distance <= 2)).astype(float)))
    assert [block.holders.tolist() for block in comm.blocks if block.window] == [
        list(range(2, 11))]
    plan = MixingPlan.for_network(comm, 0.05)
    rng = np.random.default_rng(8)
    for now, prev, ell in [(rng.standard_normal(13), rng.standard_normal(13), 2),
                           (rng.standard_normal(26)[::2], rng.standard_normal(26)[::2], 3),
                           (rng.standard_normal((13, 14))[:, ::2],
                            rng.standard_normal((13, 14))[:, ::2], 3),
                           (rng.standard_normal((13, 3, 13, 5)),
                            rng.standard_normal((13, 3, 13, 5)), 3)]:
        np.testing.assert_array_equal(comm_step(now, prev, ell, comm, plan),
                                      oracle_comm_step(now, prev, ell, comm, plan))


def test_regular_graphs_read_their_rows_as_views():
    """Ring and path interiors are windows. Ring and path ends are gathered,
    and so is every holder of a complete graph: only its middle holder, at
    odd N, is centred, and a lone window holder is gathered."""
    for n in range(5, 13):
        assert _gathered(CommMatrix(build_topology("ring", n))) == [0, n - 1]
    for n in range(4, 13):
        assert _gathered(CommMatrix(build_topology("path", n))) == [0, n - 1]
    for n in range(4, 13):
        assert _gathered(CommMatrix(build_topology("complete", n))) == list(range(n))


def test_mixed_gain_complete_graph_exact():
    comm, plan = make("complete", 5, eps=0.1)
    assert plan.s_rounds == 1
    assert np.allclose(comm.n * mixing_polynomial(comm, plan), 1.0, atol=1e-12)


def test_mixed_gain_within_epsilon():
    comm, plan = make("ring", 4, eps=0.1)
    gain = comm.n * mixing_polynomial(comm, plan)
    assert gain.min() >= 0.9 and gain.max() <= 1.1
    assert np.allclose(gain.sum(axis=1), 4.0, atol=1e-9)


def test_mixing_guarantee_across_family():
    graphs = [("ring", 8), ("star", 8), ("path", 5), ("complete", 6)]
    for kind, n in graphs:
        for eps in (0.3, 0.1):
            comm, plan = make(kind, n, eps=eps)
            gain = comm.n * mixing_polynomial(comm, plan)
            dev = np.linalg.norm(gain - 1.0, axis=0).max()
            assert dev <= eps, (kind, n, eps, dev)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 40), span=st.integers(1, 40), p=st.floats(0.0, 0.3),
       d=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
def test_random_graphs_keep_the_gain_band(n, span, p, d, seed):
    """A random tree (node i joins one of the ``span`` nodes before it; span 1
    is a path) plus Erdos-Renyi edges mixes every gain into 1 +- eps at the
    default eps = 1/(4d+1), and compute_mixing_rounds stops at its deviation
    bound, not at its s * acosh <= 60 cap."""
    rng = np.random.default_rng(seed)
    a = np.triu((rng.random((n, n)) < p).astype(float), 1)
    for i in range(1, n):
        a[rng.integers(max(0, i - span), i), i] = 1.0
    comm = build_comm_matrix(GraphTopology(a + a.T))
    eps = 1.0 / (4 * d + 1)
    plan = MixingPlan.for_network(comm, eps)
    assert np.abs(n * mixing_polynomial(comm, plan) - 1.0).max() <= eps
    if plan.lambda2_abs > 0:
        stretch = plan.s_rounds * math.acosh(1.0 / plan.lambda2_abs)
        assert n * math.sqrt(1.0 - 1.0 / n) / math.cosh(stretch) <= eps


def test_recursion_equals_closed_form_polynomial():
    rng = np.random.default_rng(9)
    graphs = [build_topology("ring", 7), build_topology("star", 9), build_topology("path", 6)]
    graphs += [GraphTopology(random_connected_adjacency(int(rng.integers(4, 13)), 0.5, rng))
               for _ in range(5)]
    for topo in graphs:
        comm = build_comm_matrix(topo)
        plan = MixingPlan.for_network(comm, 0.1)
        q_rec = mixing_polynomial(comm, plan)
        q_eig = mixing_polynomial_eig(comm.entries, comm.lambda2_abs, plan.s_rounds)
        assert np.abs(q_rec - q_eig).max() < 1e-8
    # realistic N at eps = 1/(4d+1) for d = 5: up to S = 705 rounds (path,
    # N = 200), and S = 1 on the complete graph, whose |lambda_2| is 0 and
    # whose U is then P itself
    graphs = [build_topology(kind, n) for kind in ("ring", "path") for n in (100, 200)]
    graphs += [build_topology(kind, 200) for kind in ("star", "complete")]
    graphs.append(build_topology("erdos_renyi", 200, p=0.5, rng=rng))
    for topo in graphs:
        comm = build_comm_matrix(topo)
        plan = MixingPlan.for_network(comm, 1.0 / 21)
        q_rec = mixing_polynomial(comm, plan)
        q_ref = comm.entries if comm.lambda2_abs == 0 else \
            mixing_polynomial_eig(comm.entries, comm.lambda2_abs, plan.s_rounds)
        assert np.abs(q_rec - q_ref).max() <= 1e-9 * np.abs(q_ref).max()


def _recording_steps(monkeypatch):
    """Wrap ``consensus.comm_step``; returns the list of (ell, now, result)
    copies of every step the pipeline takes."""
    steps = []
    step = consensus.comm_step

    def recording_step(now, prev, ell, comm, plan, out=None):
        before = np.array(now)
        result = step(now, prev, ell, comm, plan, out=out)
        steps.append((ell, before, result.copy()))
        return result

    monkeypatch.setattr(consensus, "comm_step", recording_step)
    return steps


def test_enqueue_builds_single_row_slot(monkeypatch):
    comm, plan = make("path", 3)
    s = plan.s_rounds
    assert s >= 2
    unit = mixing_polynomial(comm, plan)
    steps = _recording_steps(monkeypatch)
    queue = new_pipeline(comm, plan, unit, mix_last=True)
    own = np.array([[1.0, -1.0, 1.25], [-1.0, 1.0, 3.0], [1.0, 1.0, 0.5]])
    assert advance_queues(queue, own) is None
    sent = own.copy()
    own[:] = 0.0  # the pipeline keeps its own copy of the raw rows
    assert np.array_equal(queue[0][0][0], sent)
    for _ in range(s - 1):
        released = advance_queues(queue, None)
    # the batch of this one generation was mixed in S steps
    assert [ell for ell, _, _ in steps] == list(range(1, s + 1))
    payload = steps[0][1]
    # only the reward column is mixed: each holder row of N * 1 = 3 entries
    # ends in one pad entry
    assert payload.shape == (3, 4)
    for i in range(3):
        # agent i's slot holds only its own reward
        assert np.array_equal(payload[i], np.eye(4)[i] * sent[i, -1])
    q = mixing_polynomial_eig(comm.entries, comm.lambda2_abs, s)
    assert np.abs(released - q[:, :, None] * sent[None]).max() <= 1e-12
    assert not queue[0]


def test_safety_channel_contract():
    # slot rows are (a_ik / N) * (x_k, y_k, z_k): reward and safety feed the
    # reward moment and the safety moment with the same N^2-scaled weights,
    # over the same (unprojected) actions
    agent = SafeDlucbAgent(np.arange(3), d=2, lam=1.0, s_rounds=1)
    slot = np.random.default_rng(5).standard_normal((3, 4))
    # every holder receives the same slot, so each row of the stacked state is checked
    agent.begin_round(2, np.stack([slot] * 3))
    actions = slot[:, :2]
    assert np.allclose(agent.gram, np.eye(2) + 9.0 * actions.T @ actions)
    assert np.allclose(agent.moment, 9.0 * actions.T @ slot[:, 2])
    assert np.allclose(agent.safety, 9.0 * actions.T @ slot[:, 3])


def _check_depth_and_mixing_counts(comm, plan, unit, room, steps):
    s = plan.s_rounds
    n = comm.n
    # q_ell(P) for every mixing count ell = 1..S
    q = {ell: mixing_polynomial_eig(comm.entries, comm.lambda2_abs, ell)
         for ell in range(1, s + 1)}
    queue = new_pipeline(comm, plan, unit, mix_last=True)
    sent = []
    rng = np.random.default_rng(4)
    horizon = 4 * s + 2
    for t in range(1, horizon + 1):
        own = None
        if t <= horizon - s:
            # an action and a reward column, of which the reward is mixed
            own = rng.standard_normal((n, 2))
            sent.append(own)
        released = advance_queues(queue, own)
        flight = queue[0]
        # after round t, the generations started after round t - S + 1 are in
        # flight, min(t, S - 1) while they start, then the pipeline drains
        assert len(flight) == max(0, min(t, horizon - s) - max(0, t - s + 1))
        for k, (rows, _) in enumerate(flight):
            assert np.array_equal(rows, sent[len(sent) - len(flight) + k])
        # the first release follows round S, then one per round up to T - 1
        assert (released is not None) == (s <= t < horizon)
        if released is not None:
            assert np.allclose(released, q[s][:, :, None] * sent[t - s][None], atol=1e-10)
    assert not queue[0]
    # every batch runs ell = 1..S over its generations: (T - S) * S generation mixes
    ells = [ell for ell, _, _ in steps]
    assert ells == list(range(1, s + 1)) * (len(steps) // s)
    # N = 4 needs no pad: a payload is (holder, generation x source)
    assert n == 4 and all(now.shape[1] % n == 0 for _, now, _ in steps)
    sizes = [now.shape[1] // n for ell, now, _ in steps if ell == 1]
    assert max(sizes) == room and sum(sizes) == horizon - s
    assert sum(now.shape[1] // n for _, now, _ in steps) == (horizon - s) * s
    for ell, now, result in steps:
        if ell == 1:
            data = now.reshape(n, -1, n)[np.arange(n), :, np.arange(n)]  # (source, generation)
        # after step ell every generation of the batch is q_ell(P)-scaled data
        expected = q[ell][:, None, :] * data.T[None]
        assert np.allclose(result.reshape(n, -1, n), expected, atol=1e-10)


def test_queue_pipeline_depth_and_mixing_counts():
    """Generations are released at rounds S..T-1, one per round, each as
    q_S(P)-scaled data, after S gossip steps over batches of at most B reward
    columns in which every step ell leaves q_ell(P)-scaled data: with B = S,
    and with BLOCK_BYTES too small for S generations."""
    comm = build_comm_matrix(build_topology("ring", 4))
    plan = MixingPlan.for_network(comm, 0.1)
    assert plan.s_rounds > 2
    unit = mixing_polynomial(comm, plan)
    for batch in (None, 2, 1):
        with pytest.MonkeyPatch.context() as patch:
            if batch is not None:
                # room for ``batch`` reward columns
                patch.setattr(consensus, "BLOCK_BYTES", batch * comm.n ** 2 * 8)
            _check_depth_and_mixing_counts(comm, plan, unit, batch or plan.s_rounds,
                                           _recording_steps(patch))


def test_pipeline_memory_does_not_grow_with_s_n_squared():
    """Ring N = 200 at d = 5 needs S = 353: a box pipeline holds the raw rows
    of S generations, and mixes a batch in two payloads of at most
    BLOCK_BYTES each, never an array of S * N^2 entries (the S-slot pipeline
    held 1.36 GB)."""
    comm = build_comm_matrix(build_topology("ring", 200))
    plan = MixingPlan.for_network(comm, 1.0 / 21.0)
    n, width, s = 200, 6, plan.s_rounds
    assert s == 353
    bound = 2 * consensus.BLOCK_BYTES + s * n * width * 8
    own = np.ones((n, width))
    unit = mixing_polynomial(comm, plan)
    tracemalloc.start()
    try:
        queue = new_pipeline(comm, plan, unit, mix_last=True)
        for _ in range(1, s):
            assert advance_queues(queue, own) is None
        _, filled = tracemalloc.get_traced_memory()
        arrays = [rows for rows, _ in queue[0]] + [own]
        # round S starts the S-th generation, mixes the oldest batch in two
        # payloads and releases its first generation, with at most
        # BLOCK_BYTES of gossip temporaries and the released copy
        released = advance_queues(queue, own)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(arrays) == s
    assert sum(a.nbytes for a in arrays) <= bound
    assert max(a.size for a in arrays) < s * n * n
    assert filled <= bound
    assert released.shape == (n, n, width)
    assert peak <= bound + consensus.BLOCK_BYTES + released.nbytes


def _list_pipeline_oracle(comm, plan, stream):
    """The pipeline as a list of [payload, prev] generations, each mixed by its
    own gossip round over a payload padded with zero columns until its N *
    width entries fill whole blocks of four; yields the released payload (or
    None) of every round."""
    n = comm.n
    w, lam2 = plan.weights, plan.lambda2_abs
    queue = []
    for own in stream:
        width = own.shape[1]
        padded = next(cols for cols in range(width, width + 4) if n * cols % 4 == 0)
        payload = np.zeros((n, n, padded))
        payload[np.arange(n), np.arange(n), :width] = own
        queue.append([payload, payload])
        depth = len(queue)
        for g, gen in enumerate(queue):
            now, prev = gen
            ell = depth - g
            mixed = np.empty_like(now)
            for i in range(n):
                idx = np.flatnonzero(comm.entries[i])
                mixed[i] = np.tensordot(comm.entries[i, idx], now[idx], axes=(0, 0))
            if ell > 1:
                c_now = 2.0 * w[ell - 1] / (lam2 * w[ell])
                mixed = c_now * mixed - (w[ell - 2] / w[ell]) * prev
            gen[0], gen[1] = mixed, now
        yield queue.pop(0)[0][..., :width] if depth == plan.s_rounds else None


def _box_stream(n, width, seed, extra):
    """(comm, plan, stream, horizon): a random connected network and a
    (T, N, width) stream whose first width - 1 columns are +1 or -1, as box
    plays are, then the reward."""
    rng = np.random.default_rng(seed)
    comm = build_comm_matrix(GraphTopology(random_connected_adjacency(n, 0.4, rng)))
    plan = MixingPlan.for_network(comm, 0.3)
    horizon = plan.s_rounds + 1 + extra
    stream = rng.standard_normal((horizon, n, width))
    stream[..., :-1] = rng.choice([-1.0, 1.0], size=(horizon, n, width - 1))
    return comm, plan, stream, horizon


@settings(max_examples=30, deadline=None)
@given(quarter=st.integers(0, 2), width=st.integers(1, 7), seed=st.integers(0, 2**32 - 1),
       extra=st.integers(0, 40), room=st.integers(1, 8))
def test_pipeline_matches_list_of_generations(quarter, width, seed, extra, room):
    """A box pipeline, as the simulator runs it with batches of ``room``
    generations and for every N mod 4, releases each generation bit for bit
    as the list oracle's gossip rounds over all its columns do: its +-1
    action columns as U times the plays, and its reward column mixed in a
    batch payload whose holder rows end in fewer than 4 pad entries."""
    for n in range(2 + 4 * quarter, 6 + 4 * quarter):
        comm, plan, stream, horizon = _box_stream(n, width, seed, extra)
        s = plan.s_rounds
        unit = mixing_polynomial(comm, plan)
        queue = new_pipeline(comm, plan, unit, mix_last=True)
        oracle = _list_pipeline_oracle(comm, plan, stream)
        batches = []  # (generations, mixed payload) of every batch

        def recording_mix(seeds, comm, plan):
            batches.append((seeds.shape[1], mix(seeds, comm, plan)))
            return batches[-1][1]

        mix = consensus._mix
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(consensus, "BLOCK_BYTES", room * n * n * 8)
            patch.setattr(consensus, "_mix", recording_mix)
            for t in range(1, horizon + 1):
                # like the simulator, start no generation that would be released after T
                released = advance_queues(queue, stream[t - 1] if t <= horizon - s else None)
                expected = next(oracle)
                assert (released is None) == (expected is None or t == horizon)
                if released is not None:
                    np.testing.assert_array_equal(released, expected)
                    np.testing.assert_array_equal(released[..., :-1],
                                                  unit[:, :, None] * stream[t - s, :, :-1])
        assert not queue[0]
        # every batch but the last, which the drain may cut short, is full
        sizes = [size for size, _ in batches]
        assert sizes[:-1] == [min(room, s)] * (len(sizes) - 1)
        assert 0 < sizes[-1] <= min(room, s) and sum(sizes) == horizon - s
        for size, payload in batches:
            assert payload.shape[0] == n and payload.shape[1] % 4 == 0
            assert 0 <= payload.shape[1] - size * n < 4


def test_batched_columns_mix_as_alone():
    """A ``_mix`` payload is (holder, generation x source), each row ending
    in fewer than 4 zero pad entries to a multiple of 4. Mixing B = 1..5
    seed columns in one call gives each column, bit for bit, what it gets
    mixed alone, at every row offset mod 4 and for every N mod 4."""
    rng = np.random.default_rng(29)
    for n in range(2, 14):
        comm = build_comm_matrix(GraphTopology(random_connected_adjacency(n, 0.4, rng)))
        plan = MixingPlan.for_network(comm, 0.1)
        seeds = rng.standard_normal((n, 5))
        alone = [consensus._mix(seeds[:, [k]], comm, plan) for k in range(5)]
        for b in range(1, 6):
            mixed = consensus._mix(seeds[:, :b], comm, plan)
            assert mixed.shape[0] == n and mixed.shape[1] % 4 == 0
            assert 0 <= mixed.shape[1] - b * n < 4
            assert not mixed[:, b * n:].any()
            for k in range(b):
                np.testing.assert_array_equal(mixed[:, k * n:(k + 1) * n], alone[k][:, :n])


def test_box_trace_does_not_depend_on_the_batch_size(monkeypatch):
    """A box ``dlucb`` run at N = 5, whose reward batches end in pad
    entries, gives the same trace with batches of 1, 2 and S generations."""
    config = parse_config({"topology": "ring", "N": 5, "d": 3, "T": 60,
                           "algorithm": "dlucb", "realizations": 1})
    sizes = []
    mix = consensus._mix

    def recording_mix(seeds, comm, plan):
        sizes.append(seeds.shape[1])
        return mix(seeds, comm, plan)

    monkeypatch.setattr(consensus, "_mix", recording_mix)
    traces = []
    for room in (1, 2, None):
        with pytest.MonkeyPatch.context() as patch:
            if room is not None:
                patch.setattr(consensus, "BLOCK_BYTES", room * 5 * 5 * 8)
            sizes.clear()
            traces.append(run_realization(config, master_seed=3))
        # sizes[0] is U's unit seed
        assert max(sizes[1:]) == (room or traces[-1].s_rounds) and len(sizes) > 3
    for trace in traces[1:]:
        for array in ("inst_regret", "cum_regret", "scalars", "violations"):
            np.testing.assert_array_equal(getattr(trace, array), getattr(traces[0], array))


def _mixed_releases(comm, plan, stream, count):
    """The first ``count`` generations of ``stream`` as S gossip rounds over
    each of their columns release them, (count, N, N, width): one ``_mix``
    batch seeded with every column, S steps in all."""
    n, width = comm.n, stream.shape[2]
    seeds = stream[:count].transpose(1, 0, 2).reshape(n, count * width)
    mixed = consensus._mix(seeds, comm, plan)
    return mixed[:, :count * width * n].reshape(n, count, width, n).transpose(1, 0, 3, 2)


@settings(max_examples=40, deadline=None)
@given(graph=st.one_of(st.tuples(st.just("random"), st.integers(1, 12)),
                       st.tuples(st.sampled_from(["ring", "path", "complete"]),
                                 st.integers(3, 200))),
       width=st.integers(1, 7), seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 3))
@example(graph=("complete", 3), width=3, seed=2, extra=3)
def test_closed_form_release_is_u_times_the_own_rows(graph, width, seed, extra):
    """A pipeline without ``mix_last`` releases exactly U times the own rows,
    one per round from round S (S = 1 on a complete graph), within 1e-12 of
    the largest entry of what gossip rounds over every column release, and
    runs no gossip step; N * U is the identity-seed recursion's gain within
    1e-12 and lies in the epsilon band. The list oracle costs S^2 N products
    (2.6 s on path N = 40), so past N = 12 the reference is ``_mix`` over every
    column, S steps, pinned bit for bit in ``test_pipeline_matches_list_of_generations``."""
    kind, n = graph
    rng = np.random.default_rng(seed)
    comm = build_comm_matrix(GraphTopology(random_connected_adjacency(n, 0.4, rng))
                             if kind == "random" else build_topology(kind, n))
    plan = MixingPlan.for_network(comm, 0.3)
    s = plan.s_rounds
    horizon = s + 1 + extra
    stream = rng.standard_normal((horizon, n, width))
    unit = mixing_polynomial(comm, plan)
    if n <= 12:
        want = list(_list_pipeline_oracle(comm, plan, stream))[s - 1:-1]
    else:
        want = _mixed_releases(comm, plan, stream, horizon - s)
    # a round with nothing in flight releases nothing, whatever U is
    empty = new_pipeline(comm, plan, None, mix_last=False)
    assert advance_queues(empty, None) is None and not empty[0]
    queue = new_pipeline(comm, plan, unit, mix_last=False)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(consensus, "comm_step", None)  # a gossip step would raise
        for t in range(1, horizon + 1):
            own = stream[t - 1] if t <= horizon - s else None
            got = advance_queues(queue, own)
            assert (got is None) == (not s <= t < horizon)
            # the generations started after round t - S + 1 are in flight
            assert len(queue[0]) == max(0, min(t, horizon - s) - max(0, t - s + 1))
            if got is not None:
                np.testing.assert_array_equal(got, unit[:, :, None] * stream[t - s])
                assert np.abs(got - want[t - s]).max() <= 1e-12 * np.abs(want[t - s]).max()
    assert not queue[0]
    assert np.abs(n * unit - identity_seed_gain(comm, plan)).max() <= 1e-12
    assert np.abs(n * unit - 1.0).max() <= plan.epsilon
