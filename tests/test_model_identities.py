"""Model identities that hold in exact arithmetic, checked on whole runs.

Each test runs ``sim.run_realization`` with a probe and rebuilds what every
learner must hold from the plays alone: the probe's "actions", the rewards
of ``sim.build_environment``'s hidden parameter and noise, and U from
``consensus.mixing_polynomial``. No golden trace is read, so the identities
stay valid when a change of summation order moves every trace.

At round t the probe sees the statistics after the round's released
generation is absorbed and before its own plays are recorded.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipbandits.config import parse_config
from gossipbandits.consensus import mixing_polynomial
from gossipbandits.sim import build_environment, build_network, run_realization


@st.composite
def small_runs(draw, kinds=("ring", "path", "star", "complete", "erdos_renyi")):
    """A raw config of a small network: N 2-8 (3-8 on a ring), d 2-4, box
    or finite arms, and its master seed."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(3 if kind == "ring" else 2, 8))
    raw = {"topology": {"kind": kind, "p": 0.5}, "N": n, "d": draw(st.integers(2, 4)),
           "decision_set": draw(st.sampled_from(["box", {"variant": "finite", "num_arms": 8}])),
           "realizations": 1}
    return raw, draw(st.integers(0, 2**32 - 1))


def _record(raw, seed):
    """The run's config, U, and its (T, N, d) plays, (T, N) rewards and the
    (T, L, d, d) Grams and (T, L, d) moments the probe saw."""
    config = parse_config(raw)
    seen = []
    run_realization(config, master_seed=seed,
                    probe=lambda t, info: seen.append((info["actions"], info["grams"],
                                                       info["moments"])))
    actions, grams, moments = (np.stack(column) for column in zip(*seen))
    env, _ = build_environment(config, seed, 0)
    rewards = actions @ env.theta_star + env.noise_y.T
    _, comm, plan = build_network(config, seed, 0)
    return config, mixing_polynomial(comm, plan), actions, rewards, grams, moments


def _close(got, want, rtol):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@settings(max_examples=25, deadline=None)
@given(run=small_runs(), algorithm=st.sampled_from(["dlucb", "dlts"]),
       extra=st.integers(1, 12))
def test_gossip_learner_holds_the_squared_gain_sums(run, algorithm, extra):
    """After the warm-up, gram_i(t) = lambda I + sum over rounds s <= t - S
    and agents k of (N U_ik)^2 x_ks x_ks^T, the reward moment likewise with
    y_ks x_ks. During the warm-up each agent holds only its own data."""
    raw, seed = run
    raw = {**raw, "algorithm": algorithm}
    _, _, plan = build_network(parse_config({**raw, "T": 1}), seed, 0)
    s = plan.s_rounds
    config, unit, x, y, grams, moments = _record({**raw, "T": s + extra}, seed)
    n, d, lam = config.n_agents, config.d, config.lam
    gains = (n * unit) ** 2
    own_gram = np.cumsum(x[..., :, None] * x[..., None, :], axis=0)  # (T, N, d, d)
    own_moment = np.cumsum(y[..., None] * x, axis=0)
    for t in range(1, config.horizon + 1):
        if t <= s:
            gram = lam * np.eye(d) + (own_gram[t - 2] if t > 1 else 0.0)
            moment = own_moment[t - 2] if t > 1 else np.zeros((n, d))
        else:
            seen = slice(0, t - s)  # rounds 1..t - S
            gram = lam * np.eye(d) + np.einsum("ik,skd,ske->ide", gains, x[seen], x[seen])
            moment = np.einsum("ik,sk,skd->id", gains, y[seen], x[seen])
        _close(grams[t - 1], np.broadcast_to(gram, (n, d, d)), 1e-10)
        if t > 1:
            _close(moments[t - 1], moment, 1e-10)


@settings(max_examples=25, deadline=None)
@given(run=small_runs(), horizon=st.integers(1, 40))
def test_no_comm_agents_hold_their_own_data(run, horizon):
    """Each no_comm agent holds lambda I plus its own plays and rewards."""
    raw, seed = run
    config, _, x, y, grams, moments = _record({**raw, "algorithm": "no_comm", "T": horizon},
                                              seed)
    lam, d = config.lam, config.d
    for t in range(1, horizon + 1):
        seen = slice(0, t - 1)
        _close(grams[t - 1], lam * np.eye(d) + np.einsum("snd,sne->nde", x[seen], x[seen]),
               1e-12)
        np.testing.assert_allclose(moments[t - 1], np.einsum("sn,snd->nd", y[seen], x[seen]),
                                   rtol=0, atol=1e-12 * max(1.0, np.abs(moments[t - 1]).max()))


@settings(max_examples=15, deadline=None)
@given(run=small_runs(kinds=("complete",)), horizon=st.integers(1, 60))
def test_complete_graph_dlucb_plays_what_centralized_plays(run, horizon):
    """On the complete graph S = 1 and N U = 1, so every dlucb agent learns
    from every play of the rounds before, as the one centralized learner
    does: on finite arms they play alike, with statistics within 1e-12."""
    raw, seed = run
    raw = {**raw, "decision_set": {"variant": "finite", "num_arms": 8}, "T": horizon}
    config, unit, x, _, grams, moments = _record({**raw, "algorithm": "dlucb"}, seed)
    _, _, central_x, _, central_grams, central_moments = _record(
        {**raw, "algorithm": "centralized"}, seed)
    assert np.abs(config.n_agents * unit - 1.0).max() <= 1e-12
    np.testing.assert_array_equal(x, central_x)
    _close(grams, np.broadcast_to(central_grams, grams.shape), 1e-12)
    np.testing.assert_allclose(moments, np.broadcast_to(central_moments, moments.shape),
                               rtol=0, atol=1e-12 * max(1.0, np.abs(central_moments).max()))
