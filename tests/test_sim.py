import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipbandits import bandit, consensus, sim
from gossipbandits.agents import ALGORITHMS, REFRESH_UPDATES, RcDlucbAgent
from gossipbandits.bandit import ConfidenceSet
from gossipbandits.config import parse_config
from gossipbandits.sim import (
    Environment,
    aggregate,
    feedback,
    optimal_value,
    run_experiment,
    run_realization,
    sample_environment,
)


def cfg(**overrides):
    base = {"topology": "ring", "N": 5, "d": 3, "T": 40, "algorithm": "dlucb",
            "realizations": 1}
    base.update(overrides)
    return parse_config(base)


# ------------------------------------------------------------- environment

def test_theta_star_is_unit_norm():
    rng = np.random.default_rng(0)
    for _ in range(50):
        env = sample_environment(5, False, rng)
        assert abs(np.linalg.norm(env.theta_star) - 1.0) < 1e-12


def test_environment_reproducible():
    a = sample_environment(4, False, np.random.default_rng(3))
    b = sample_environment(4, False, np.random.default_rng(3))
    assert np.array_equal(a.theta_star, b.theta_star)


def test_theta_star_isotropic():
    rng = np.random.default_rng(0)
    draws = np.stack([sample_environment(5, False, rng).theta_star for _ in range(10_000)])
    assert np.linalg.norm(draws.mean(axis=0)) <= 0.02


def test_safe_environment_margin():
    rng = np.random.default_rng(2)
    for _ in range(50):
        env = sample_environment(3, True, rng, c_min=0.3)
        assert abs(np.linalg.norm(env.mu_star) - 1.0) < 1e-12
        assert env.c > 0.0 and env.c >= 0.3


def test_noise_is_sigma_times_each_agents_stream():
    """Agent i's reward noise, and for ``safe_dlucb`` alone its safety noise,
    is sigma times its own stream's (T, 2) draw; other runs keep no safety
    noise, not even behind a view."""
    for algorithm, extra in (("dlucb", {}), ("safe_dlucb", {
            "decision_set": {"variant": "finite", "num_arms": 6}, "safe": {"c_min": 0.3}})):
        config = cfg(algorithm=algorithm, sigma=0.3, **extra)
        env, _ = sim.build_environment(config, 7, 2)
        draws = np.stack([0.3 * sim._stream(7, 2, sim._NOISE, i).standard_normal((40, 2))
                          for i in range(5)])
        assert np.array_equal(env.noise_y, draws[:, :, 0]) and env.noise_y.flags.owndata
        if algorithm == "safe_dlucb":
            assert np.array_equal(env.noise_z, draws[:, :, 1])
        else:
            assert env.noise_z is None


def test_feedback_noiseless_and_deterministic():
    env = Environment(theta_star=np.array([0.6, 0.8]), noise_y=np.zeros((2, 5)))
    x = np.array([0.5, 0.5])
    (y, _), z = feedback(env, np.stack([x, x]), 3)  # both agents play x
    assert y == 0.7 and z is None


def test_feedback_noise_variance():
    rng = np.random.default_rng(4)
    n_draws = 100_000
    noise = 0.1 * rng.standard_normal((1, n_draws))
    env = Environment(theta_star=np.array([1.0, 0.0]), noise_y=noise)
    ys = np.array([feedback(env, np.zeros((1, 2)), t)[0][0] for t in range(1, n_draws + 1)])
    assert abs(ys.var() / 0.01 - 1.0) < 0.03


def test_feedback_rejects_oversized_action():
    env = Environment(theta_star=np.array([1.0, 0.0]), noise_y=np.zeros((1, 1)))
    with pytest.raises(ValueError, match="norm"):
        feedback(env, np.array([[2.0, 0.0]]), 1)


def test_optimal_value_box_sign_rule():
    env = Environment(theta_star=np.array([0.6, -0.8]))
    x_star, value = optimal_value(env, None)
    assert np.array_equal(x_star, [1.0, -1.0])
    assert abs(value - 1.4) < 1e-12


def test_optimal_value_finite_matches_enumeration():
    rng = np.random.default_rng(5)
    arms = rng.standard_normal((3, 4))
    arms /= np.linalg.norm(arms, axis=1, keepdims=True)
    env = Environment(theta_star=arms[1])
    _, value = optimal_value(env, arms)
    assert abs(value - (arms @ arms[1]).max()) < 1e-12


def test_safe_optimum_never_beats_unconstrained():
    rng = np.random.default_rng(6)
    for _ in range(20):
        arms = rng.standard_normal((6, 3))
        arms /= np.linalg.norm(arms, axis=1, keepdims=True)
        arms = np.vstack([arms, np.zeros(3)])
        env = sample_environment(3, True, rng)
        _, free = optimal_value(env, arms)
        _, safe = optimal_value(env, arms, safe=True)
        assert safe <= free + 1e-12


# ------------------------------------------------------------- realizations

def test_zero_horizon_trace_is_empty():
    trace = run_realization(cfg(T=0), master_seed=0)
    assert trace.horizon == 0
    assert trace.final_regret == 0.0
    assert trace.total_comm_scalars == 0


def test_no_comm_never_transmits():
    trace = run_realization(cfg(algorithm="no_comm", T=30), master_seed=0)
    assert np.all(trace.scalars == 0)


def test_cumulative_regret_monotone_and_instantaneous_nonnegative():
    for algo in ("dlucb", "dlts", "rc_dlucb", "no_comm", "centralized"):
        trace = run_realization(cfg(algorithm=algo, T=60), master_seed=1)
        assert np.all(trace.inst_regret >= -1e-12)
        assert np.all(np.diff(trace.cum_regret) >= -1e-12)


def test_safe_regret_nonnegative_when_no_violation():
    config = parse_config({"topology": "path", "N": 3, "d": 2, "T": 80,
                           "algorithm": "safe_dlucb",
                           "decision_set": {"variant": "finite", "num_arms": 6},
                           "safe": {"c_min": 0.3}, "realizations": 1})
    trace = run_realization(config, master_seed=2)
    clean = trace.violations == 0
    assert np.all(trace.inst_regret[clean] >= -1e-12)


def test_gossip_comm_cost_closed_form():
    config = cfg(T=30)
    trace = run_realization(config, master_seed=3)
    s = trace.s_rounds
    directed = 2 * 5  # ring: |E| = N
    width = 5 * (3 + 1)
    for t in range(1, 31):
        expected = directed * min(t, s) * width
        assert trace.scalars[t - 1] == expected


@pytest.mark.parametrize("algorithm, horizon", [
    ("dlucb", 40), ("dlts", 23), ("safe_dlucb", 40), ("dlucb", 7), ("dlucb", 4),
    ("rc_dlucb", 4),
])
def test_only_released_generations_are_mixed(monkeypatch, algorithm, horizon):
    # a generation started after round T - S could not be absorbed by round T:
    # it is never started, so a box run mixes the reward column of (T - S)
    # generations S times each; a run that releases anything first mixes U,
    # one unit generation, S times, one with T <= S mixes nothing, and the
    # finite safe run mixes nothing but U
    steps = []  # (ell, generations in the payload) of every gossip step
    step = consensus.comm_step

    def counting_step(now, prev, ell, comm, plan, out=None):
        # a (holder, generation x source) payload ends in fewer than 4 < N pad entries
        steps.append((ell, now.shape[1] // comm.n))
        return step(now, prev, ell, comm, plan, out=out)

    monkeypatch.setattr(consensus, "comm_step", counting_step)
    extra = {"decision_set": {"variant": "finite", "num_arms": 6}} if algorithm == "safe_dlucb" else {}
    trace = run_realization(cfg(T=horizon, algorithm=algorithm, **extra), master_seed=2)
    s = trace.s_rounds
    released = max(horizon - s, 0)
    mixed = 0 if algorithm == "safe_dlucb" else released
    assert sum(generations for _, generations in steps) == (mixed + (released > 0)) * s
    # each batch of in-flight generations is mixed by the steps ell = 1..S
    assert [ell for ell, _ in steps] == list(range(1, s + 1)) * (len(steps) // s)


def test_safe_comm_includes_third_channel():
    config = parse_config({"topology": "path", "N": 3, "d": 2, "T": 20,
                           "algorithm": "safe_dlucb",
                           "decision_set": {"variant": "finite", "num_arms": 4},
                           "safe": {"c_min": 0.3}, "realizations": 1})
    trace = run_realization(config, master_seed=3)
    s = trace.s_rounds
    directed = 2 * 2  # path with 3 nodes: 2 edges
    width = 3 * (2 + 2)
    assert trace.scalars[-1] == directed * s * width


def test_rc_comm_cost_bounded_by_phase_budget():
    config = cfg(algorithm="rc_dlucb", T=150)
    trace = run_realization(config, master_seed=4)
    directed = 2 * 5
    budget = trace.phase_count * trace.s_rounds * directed * 3 * (3 + 1)
    assert trace.total_comm_scalars <= budget
    assert np.all(trace.scalars[trace.phase_id == 0] == 0)


def test_cut_short_rc_phase_mixes_nothing(monkeypatch):
    # the horizon cuts the last phase short: its sums are never absorbed, so
    # they are never mixed, but its rounds still send their messages
    gains, absorbed = [], []
    mixing_polynomial = sim.mixing_polynomial
    absorb = RcDlucbAgent.absorb_phase

    def counting(comm, plan):
        gains.append(plan.s_rounds)
        return mixing_polynomial(comm, plan)

    def counting_absorb(agents, *args, **kwargs):
        absorbed.append(kwargs["t_end"])
        return absorb(agents, *args, **kwargs)

    monkeypatch.setattr(sim, "mixing_polynomial", counting)
    monkeypatch.setattr(RcDlucbAgent, "absorb_phase", counting_absorb)
    config = cfg(topology={"kind": "erdos_renyi", "p": 0.5}, N=20, d=5, T=120,
                 algorithm="rc_dlucb", decision_set={"variant": "finite", "num_arms": 20})
    trace = run_realization(config, master_seed=2)
    s = trace.s_rounds
    rounds = np.bincount(trace.phase_id)[1:]
    assert 0 < rounds[-1] < s and np.all(rounds[:-1] == s)
    # every complete phase is absorbed in its last round, with the one gain
    # of the realization
    ends = [int(np.flatnonzero(trace.phase_id == k)[-1]) + 1 for k in range(1, len(rounds))]
    assert absorbed == ends and gains == [s]
    directed = int(sim.build_network(config, 2, 0)[0].adjacency.sum())
    assert np.array_equal(trace.scalars, np.where(trace.phase_id > 0, directed * 5 * 6, 0))


@pytest.mark.parametrize("rounds_left", ["S", "S - 1", "0"])
def test_rc_phase_boundary_at_the_horizon(monkeypatch, rounds_left):
    # one phase, fired in round t0 = T - rounds_left: with S rounds left it
    # completes and is absorbed in round T, with S - 1 the horizon cuts it
    # short after S - 1 booked rounds and it absorbs nothing, and fired in
    # round T it starts nothing and sends nothing
    config = cfg(algorithm="rc_dlucb")
    s = sim.build_network(config, 0, 0)[2].s_rounds
    horizon = config.horizon
    booked = {"S": s, "S - 1": s - 1, "0": 0}[rounds_left]
    t0 = horizon - booked
    absorbed = []
    absorb = RcDlucbAgent.absorb_phase

    def counting_absorb(agents, *args, **kwargs):
        absorbed.append(kwargs["t_end"])
        return absorb(agents, *args, **kwargs)

    monkeypatch.setattr(RcDlucbAgent, "trigger", lambda agents, t: t == t0)
    monkeypatch.setattr(RcDlucbAgent, "absorb_phase", counting_absorb)
    trace = run_realization(config, master_seed=0)
    assert trace.s_rounds == s < horizon - 1
    assert absorbed == ([horizon] if booked == s else [])
    rounds = np.arange(1, horizon + 1)
    assert np.array_equal(trace.phase_id, (rounds > t0).astype(int))
    assert np.array_equal(trace.scalars, np.where(rounds > t0, 2 * 5 * 3 * 4, 0))
    assert np.array_equal(trace.phases_started, (rounds >= t0) & (booked > 0))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 30), p=st.floats(0.0, 0.5), d=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_rc_phase_exchange_matches_the_gossip_recursion(n, p, d, seed):
    # a phase folds in q_S(P) = mixing_polynomial times W and V: what 2 S rounds
    # of accelerated gossip, S on each sum, would leave at every agent. The
    # graph is a random tree (node i joins a node before it) plus ER edges
    rng = np.random.default_rng(seed)
    a = np.triu((rng.random((n, n)) < p).astype(float), 1)
    for i in range(1, n):
        a[rng.integers(0, i), i] = 1.0
    phases = []  # (W, V, mixed W, mixed V) of every completed phase
    absorb = RcDlucbAgent.absorb_phase

    def trigger(agents, t):
        # every agent holds its own random W and V when round 1 fires the phase
        root = rng.standard_normal((n, d, d))
        agents.w_new, agents.v_new = root @ np.swapaxes(root, 1, 2), rng.standard_normal((n, d))
        return True

    def capturing(agents, mixed_w, mixed_v, *args, **kwargs):
        phases.append((agents.w_new.copy(), agents.v_new.copy(), mixed_w, mixed_v))
        return absorb(agents, mixed_w, mixed_v, *args, **kwargs)

    with tempfile.TemporaryDirectory() as tmp:
        edges = Path(tmp) / "edges.txt"
        edges.write_text("".join(f"{u} {v}\n" for u, v in zip(*np.nonzero(a))))
        raw = {"topology": {"kind": "explicit", "edge_file": str(edges)}, "N": n, "d": d,
               "algorithm": "rc_dlucb"}
        _, comm, plan = sim.build_network(cfg(**raw, T=0), seed, 0)
        s = plan.s_rounds
        # the phase fired in round 1 ends in round S + 1
        with patch.object(RcDlucbAgent, "trigger", trigger), \
                patch.object(RcDlucbAgent, "absorb_phase", capturing):
            run_realization(cfg(**raw, T=s + 1), master_seed=seed)
    assert len(phases) == 1
    for unshared_w, unshared_v, mixed_w, mixed_v in phases:
        for unshared, mixed in ((unshared_w, mixed_w), (unshared_v, mixed_v)):
            assert np.ptp(unshared, axis=0).max() > 0  # sums that mixing changes
            now = prev = unshared
            for ell in range(1, s + 1):
                now, prev = consensus.comm_step(now, prev, ell, comm, plan), now
            assert np.abs(mixed - now).max() <= 1e-12 * np.abs(now).max()


def test_centralized_comm_cost():
    trace = run_realization(cfg(algorithm="centralized", T=10), master_seed=5)
    assert np.all(trace.scalars == 5 * 4 * (3 + 1))


def test_selections_per_round_and_probe_payload(monkeypatch):
    # one round loop, one batched selection per round: the shared centralized
    # learner is a stack of one, the N independent no_comm learners a stack of N
    selected = []
    from_stats = ConfidenceSet.from_stats.__func__

    def counting(cls, gram, moment, beta, arms=None, inverse=None):
        selected.append((gram, moment))
        return from_stats(cls, gram, moment, beta, arms, inverse)

    monkeypatch.setattr(ConfidenceSet, "from_stats", classmethod(counting))
    for algorithm, learners in (("centralized", 1), ("no_comm", 5)):
        selected.clear()
        run_realization(cfg(algorithm=algorithm, T=12), master_seed=0)
        assert len(selected) == 12
        assert all(gram.shape == (learners, 3, 3) for gram, _ in selected)
        # the learners are distinct: each row holds its own data
        assert len({row.tobytes() for row in selected[-1][1]}) == learners

    for algorithm in ALGORITHMS:
        extra = {"decision_set": {"variant": "finite", "num_arms": 6}} if algorithm == "safe_dlucb" else {}
        rounds = []
        # read-only arrays, no agent objects: one row per learner, safety per agent
        learners = 1 if algorithm == "centralized" else 5
        shapes = {"actions": (5, 3), "grams": (learners, 3, 3), "moments": (learners, 3)}
        if algorithm == "safe_dlucb":
            shapes["safety"] = (5, 3)

        def probe(t, info):
            assert {key: value.shape for key, value in info.items()} == shapes
            for value in info.values():
                assert isinstance(value, np.ndarray)
                with pytest.raises(ValueError):
                    value[...] = 0.0
            rounds.append(t)

        trace = run_realization(cfg(algorithm=algorithm, T=60, **extra), master_seed=1,
                                probe=probe)
        # every round, communication-phase rounds included
        assert rounds == list(range(1, 61)), algorithm
        assert (trace.phase_count > 0) == (algorithm == "rc_dlucb")


def test_aggregate_single_trace_zero_std():
    trace = run_realization(cfg(T=20), master_seed=6)
    curves = aggregate([trace])
    assert np.all(curves["regret_std"] == 0.0)
    assert np.array_equal(curves["regret_mean"], trace.cum_regret)


def test_aggregate_two_point_formula():
    base = run_realization(cfg(T=15), master_seed=7)
    tripled = aggregate([base, _scale_trace(base, 3.0)])
    assert np.allclose(tripled["regret_mean"], 2.0 * base.cum_regret)
    assert np.allclose(tripled["regret_std"], np.sqrt(2.0) * base.cum_regret)


@pytest.mark.parametrize("algorithm, arms, learners", [
    ("dlucb", None, 5), ("dlts", None, 5), ("no_comm", None, 5), ("centralized", None, 1),
    ("dlucb", 6, 5), ("rc_dlucb", 6, 5), ("safe_dlucb", 6, 5),
])
def test_lapack_calls_per_selection_round(monkeypatch, algorithm, arms, learners):
    # A box learner is one scipy posv per selection round, and never a
    # separate potrf or potrs. Finite arms call no scipy LAPACK: one batched
    # numpy Cholesky checks all learners, and the safe filter reads UCB's
    # arm solves
    calls = {"dposv": 0, "dpotrf": 0, "dpotrs": 0, "cholesky": 0}
    lapack = bandit.scipy_lapack()
    for module, name in ((lapack, "dposv"), (lapack, "dpotrf"), (lapack, "dpotrs"),
                         (np.linalg, "cholesky")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    rounds = []
    select = sim._select

    def counting_select(*args, **kwargs):
        rounds.append(1)
        return select(*args, **kwargs)

    monkeypatch.setattr(sim, "_select", counting_select)
    extra = {} if arms is None else {"decision_set": {"variant": "finite", "num_arms": arms}}
    trace = run_realization(cfg(algorithm=algorithm, T=60, **extra), master_seed=1)
    if algorithm == "rc_dlucb":  # communication-phase rounds select nothing
        assert trace.phase_count > 0 and len(rounds) < 60
    else:
        assert len(rounds) == 60
    scipy_calls = learners * len(rounds) if arms is None else 0
    assert calls == {"dposv": scipy_calls, "dpotrf": 0, "dpotrs": 0,
                     "cholesky": 0 if arms is None else len(rounds)}


def test_rc_inverts_only_at_refreshes(monkeypatch):
    # an rc_dlucb round keeps A^-1 and log det A by rank-one updates: the
    # batched inverse and log-determinant run only when they are refreshed,
    # at the start, at phase ends and every REFRESH_UPDATES plays
    calls = {"inv": 0, "slogdet": 0, "refresh": 0}
    for module, name in ((np.linalg, "inv"), (np.linalg, "slogdet"),
                         (RcDlucbAgent, "refresh")):
        def counting(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    trace = run_realization(cfg(algorithm="rc_dlucb", T=300, decision_set={
        "variant": "finite", "num_arms": 6}), master_seed=1)
    assert trace.phase_count > 0
    assert calls["inv"] == calls["slogdet"] == calls["refresh"]
    assert calls["refresh"] <= 1 + trace.phase_count + 300 // REFRESH_UPDATES


# Run in a fresh interpreter, which has loaded nothing of scipy.linalg yet.
# After importing the command line module, it prints what of scipy.linalg is
# loaded then, after each finite run and after a box run with the worker
# count of argv[1] (in the process and in every realization's job, pooled or
# not), and what was loaded when each pool started
SCIPY_LAPACK_GUARD = """
import sys
from gossipbandits import cli, sim
from gossipbandits.config import parse_config

def loaded():
    if "scipy.linalg" in sys.modules:
        return "package"
    return "extension" if "scipy.linalg._flapack" in sys.modules else "none"

def watched_pool(*args, **kwargs):
    at_pool_start.append(loaded())
    return pool(*args, **kwargs)

def watched_job(job):
    realization_job(job)
    return loaded()

def run(algorithm, dset, workers=1, **extra):
    in_jobs = sim.run_experiment(parse_config({"topology": "ring", "N": 5, "d": 3, "T": 20,
                                               "algorithm": algorithm, "realizations": 2,
                                               "decision_set": dset, **extra}), workers=workers)
    return ",".join(sorted({loaded(), *in_jobs}))

finite = {"variant": "finite", "num_arms": 6}
at_pool_start, pool, sim.Pool = [], sim.Pool, watched_pool
realization_job, sim._realization_job = sim._realization_job, watched_job
print(loaded(), run("safe_dlucb", finite, safe={"c_min": 0.3}), run("rc_dlucb", finite),
      run("dlucb", finite, workers=2), run("dlucb", "box", workers=int(sys.argv[1])),
      ",".join(at_pool_start))
"""


@pytest.mark.parametrize("workers, at_pool_start", [(1, "none"), (2, "none,extension")])
def test_no_run_imports_scipy_linalg_and_only_box_runs_load_its_lapack(workers, at_pool_start):
    # finite runs solve with numpy alone. A box run loads scipy's LAPACK
    # extension and never the scipy.linalg package, and a box experiment
    # over a pool loads it before the pool forks, so that the workers
    # inherit it
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", SCIPY_LAPACK_GUARD, str(workers)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["none"] * 4 + ["extension", at_pool_start]


def _scale_trace(trace, factor):
    import dataclasses

    return dataclasses.replace(trace, inst_regret=factor * trace.inst_regret,
                               cum_regret=factor * trace.cum_regret)


def test_aggregate_rejects_length_mismatch():
    a = run_realization(cfg(T=10), master_seed=8)
    b = run_realization(cfg(T=12), master_seed=8)
    with pytest.raises(ValueError, match="mismatch"):
        aggregate([a, b])


def test_worker_count_does_not_change_traces():
    config = parse_config({"topology": {"kind": "erdos_renyi", "p": 0.5}, "N": 6,
                           "d": 3, "T": 40, "algorithm": "dlucb", "realizations": 4})
    serial = run_experiment(config, workers=1)
    pooled = run_experiment(config, workers=4)
    for a, b in zip(serial, pooled):
        assert np.array_equal(a.cum_regret, b.cum_regret)
        assert np.array_equal(a.scalars, b.scalars)
        assert a.s_rounds == b.s_rounds


@pytest.mark.parametrize("workers, realizations, processes", [(64, 2, 2), (3, 5, 3)])
def test_pool_opens_at_most_one_process_per_realization(monkeypatch, workers,
                                                        realizations, processes):
    opened = []

    class InlinePool:
        """Records the pool size and runs the jobs here, starting no process."""

        def __init__(self, processes):
            opened.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, job, jobs):
            return [job(args) for args in jobs]

    monkeypatch.setattr(sim, "Pool", InlinePool)
    config = cfg(T=10, realizations=realizations)
    pooled = run_experiment(config, workers=workers)
    assert opened == [processes]
    for a, b in zip(pooled, run_experiment(config, workers=1), strict=True):
        assert np.array_equal(a.cum_regret, b.cum_regret)


def test_erdos_renyi_graph_resampling_flag():
    base = {"topology": {"kind": "erdos_renyi", "p": 0.5}, "N": 8, "d": 2, "T": 5,
            "algorithm": "dlucb", "realizations": 1}
    resampled = parse_config(base)
    s_values = {run_realization(resampled, master_seed=0, realization=r).lambda2_abs
                for r in range(6)}
    assert len(s_values) > 1
    fixed = parse_config({**base, "resample_graph": False})
    s_fixed = {run_realization(fixed, master_seed=0, realization=r).lambda2_abs
               for r in range(6)}
    assert len(s_fixed) == 1
