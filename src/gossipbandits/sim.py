"""Environment sampling, synchronous round scheduling, and regret accounting.

One master seed spawns independent substreams keyed by (realization, role,
agent), so traces are bit-identical no matter how realizations are distributed
across worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from multiprocessing import Pool

import numpy as np

from .agents import GOSSIP_ALGORITHMS, DlucbAgent, RcDlucbAgent, SafeDlucbAgent
from .bandit import (
    ConfidenceSet,
    DecisionSet,
    SafeGeometry,
    beta_radius,
    greedy_box,
    rc_comm_threshold,
    safe_filter,
    ts_perturb,
    ucb_select_box,
    ucb_select_finite,
)
# comm_step is unused here, but the benchmark's tracer binds sim.comm_step by name
from .consensus import MixingPlan, advance_queues, comm_step, mixed_gain, new_pipeline
from .graph import GraphTopology, build_comm_matrix, build_topology, load_edge_list

# substream roles under the master seed
_ENV, _GRAPH, _NOISE, _ALGO = 0, 1, 2, 3

VIOLATION_TOL = 1e-12


def _stream(master_seed, realization, role, agent=0):
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(realization, role, agent))
    return np.random.default_rng(seq)


@dataclass
class Environment:
    """Hidden parameters plus pre-drawn per-(agent, round) noise.

    ``action_norm_bound`` is 1 for normalized decision sets; box decision sets
    raise it to sqrt(d) since their corners are played unscaled.
    """

    theta_star: np.ndarray
    mu_star: np.ndarray | None = None
    c: float | None = None
    action_norm_bound: float = 1.0
    noise_y: np.ndarray | None = field(default=None, repr=False)
    noise_z: np.ndarray | None = field(default=None, repr=False)


def sample_environment(d, safe, rng, c_min=0.0, x0=None, max_tries=1000):
    """Draw the hidden reward (and constraint) directions, unit-normalized.

    In safe mode the constraint level is uniform on [c_min, 1], redrawn until
    it clears the known safe action's constraint value and the safe action has
    non-negative reward.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if safe:
        x0 = np.zeros(d) if x0 is None else np.asarray(x0, dtype=float)
        for _ in range(max_tries):
            theta = rng.standard_normal(d)
            theta /= np.linalg.norm(theta)
            mu = rng.standard_normal(d)
            mu /= np.linalg.norm(mu)
            c0 = float(mu @ x0)
            c = float(rng.uniform(c_min, 1.0))
            if c > c0 and float(theta @ x0) >= 0.0:
                return Environment(theta_star=theta, mu_star=mu, c=c)
        raise RuntimeError("could not sample a consistent safe environment")
    theta = rng.standard_normal(d)
    theta /= np.linalg.norm(theta)
    return Environment(theta_star=theta)


def feedback(env, actions, t):
    """The (N,) rewards (and safety measurements) for the (N, d) plays of
    round t, agent i playing row i."""
    actions = np.asarray(actions, dtype=float)
    if np.any(np.linalg.norm(actions, axis=-1) > env.action_norm_bound + 1e-9):
        raise ValueError("action norm exceeds the decision-set bound")
    y = (actions[:, None, :] @ env.theta_star[:, None])[:, 0, 0] + env.noise_y[:, t - 1]
    if env.mu_star is None:
        return y, None
    return y, (actions[:, None, :] @ env.mu_star[:, None])[:, 0, 0] + env.noise_z[:, t - 1]


def optimal_value(env, decision_set, safe=False):
    """Best achievable expected reward (over the safe subset when requested)."""
    theta = env.theta_star
    if decision_set.variant == "box":
        if safe:
            raise ValueError("safe optimum needs a finite decision set")
        x_star = greedy_box(theta)
        return x_star, float(np.abs(theta).sum())
    arms = decision_set.arms
    if safe:
        mask = arms @ env.mu_star <= env.c
        if not mask.any():
            raise ValueError("true safe set is empty")
        arms = arms[mask]
    values = arms @ theta
    best = int(np.argmax(values))
    return arms[best].copy(), float(values[best])


@dataclass
class Trace:
    """Per-round accounting of one realization, filled in place by
    ``run_realization``."""

    inst_regret: np.ndarray
    cum_regret: np.ndarray
    scalars: np.ndarray
    phase_id: np.ndarray
    phases_started: np.ndarray
    violations: np.ndarray
    s_rounds: int
    lambda2_abs: float
    n_agents: int

    @property
    def horizon(self):
        return len(self.inst_regret)

    @property
    def final_regret(self):
        return float(self.cum_regret[-1]) if self.horizon else 0.0

    @property
    def total_comm_scalars(self):
        return int(self.scalars.sum())

    @property
    def phase_count(self):
        return int(self.phases_started[-1]) if self.horizon else 0


def _record(trace, t, actions, env, v_star):
    """Book the regret and safety violations of round t's (N, d) plays."""
    trace.inst_regret[t - 1] = (v_star - actions @ env.theta_star).sum()
    if env.mu_star is not None:
        trace.violations[t - 1] = int((actions @ env.mu_star - env.c > VIOLATION_TOL).sum())


def build_graph(config, master_seed, realization):
    """The topology of one realization."""
    spec = config.topology
    if config.n_agents == 1:
        # degenerate single-node network: every kind collapses to it
        return GraphTopology(np.zeros((1, 1)), kind=spec.kind)
    if spec.kind == "explicit":
        return load_edge_list(spec.edge_file, config.n_agents)
    rng = _stream(master_seed, realization if config.resample_graph else 0, _GRAPH)
    return build_topology(spec.kind, config.n_agents, p=spec.p, rng=rng)


def build_network(config, master_seed, realization):
    """Topology, gossip matrix, and mixing plan for one realization."""
    topology = build_graph(config, master_seed, realization)
    comm = build_comm_matrix(topology, config.comm_scheme)
    plan = MixingPlan.for_network(comm, config.epsilon)
    return topology, comm, plan


def build_decision_set(config):
    """Resolve the decision set; finite arms are fixed by their own seed.

    In safe mode the sampled arms carry evenly laddered norms (so that some
    action is certifiable from the ridge prior alone) and the known safe
    action is appended as the final arm.
    """
    spec = config.decision_set
    if spec.variant == "box":
        return DecisionSet.box(config.d)
    rng = np.random.default_rng(spec.arm_seed)
    if config.algorithm == "safe_dlucb":
        x0 = config.safe_x0_vector()
        k = spec.num_arms - 1
        if k < 1:
            raise ValueError("safe mode needs at least one arm besides the safe action")
        dirs = rng.standard_normal((k, config.d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.arange(1, k + 1) / k
        dset = DecisionSet.finite(np.vstack([dirs * radii[:, None], x0]))
        if not np.all(np.isclose(dset.arms, x0), axis=1).any():
            raise ValueError("safe mode requires the safe action to be an arm")
        return dset
    arms = rng.standard_normal((spec.num_arms, config.d))
    arms /= np.linalg.norm(arms, axis=1, keepdims=True)
    return DecisionSet.finite(arms)


def build_environment(config, master_seed, realization):
    """The hidden environment of one realization, its noise drawn, and for
    ``safe_dlucb`` the known safe geometry (else None)."""
    safe = config.algorithm == "safe_dlucb"
    x0 = config.safe_x0_vector() if safe else None
    env = sample_environment(config.d, safe, _stream(master_seed, realization, _ENV),
                             c_min=config.safe_c_min(), x0=x0)
    if config.decision_set.variant == "box":
        env.action_norm_bound = float(np.sqrt(config.d))
    # every agent draws its (reward, safety) noise pairs from its own stream
    noise = config.sigma * np.stack([
        _stream(master_seed, realization, _NOISE, i).standard_normal((config.horizon, 2))
        for i in range(config.n_agents)])
    env.noise_y = noise[:, :, 0]
    if safe:
        env.noise_z = noise[:, :, 1]
    geo = SafeGeometry(x0=x0, c0=float(env.mu_star @ x0), c=env.c) if safe else None
    return env, geo


def run_realization(config, master_seed=None, realization=0, probe=None):
    """Execute T synchronous rounds of the configured algorithm, returning a Trace.

    Every algorithm plays the same round: absorb the generation the gossip
    pipeline released, compute beta_t, select, observe, record, share. They
    differ only in their agents (see ``_agents``) and in what they share:
    gossip algorithms start a pipeline generation each round, ``rc_dlucb``
    runs a communication phase when its trigger fires, and the baselines
    share nothing.

    ``probe``, when given, is called as probe(t, info) in every round, after
    the plays are recorded and before any statistics update. ``info`` holds
    read-only copies: "actions", the (N, d) plays, and the learners'
    statistics "grams" (L, d, d) and "moments" (L, d), with L = 1 for the
    shared ``centralized`` learner and L = N otherwise; for ``safe_dlucb``
    also "safety", the (N, d) safety moments. The probe is how to see every
    round's plays, ``rc_dlucb``'s phase rounds included.
    """
    if master_seed is None:
        master_seed = config.master_seed
    topology, comm, plan = build_network(config, master_seed, realization)
    dset = build_decision_set(config)

    safe = config.algorithm == "safe_dlucb"
    env, geo = build_environment(config, master_seed, realization)
    n, d, horizon, s_rounds = config.n_agents, config.d, config.horizon, plan.s_rounds
    trace = Trace(np.zeros(horizon), np.zeros(horizon),
                  *(np.zeros(horizon, dtype=np.int64) for _ in range(4)),
                  s_rounds=s_rounds, lambda2_abs=comm.lambda2_abs, n_agents=n)
    agents = _agents(config, plan, geo)
    rngs = None
    if config.algorithm == "dlts":
        rngs = [_stream(master_seed, realization, _ALGO, i) for i in range(n)]
    _, v_star = optimal_value(env, dset, safe=safe)
    # own-data rows: action, reward, then the safe agent's shifted feedback
    width = d + 1 + (1 if safe else 0)
    queue = None
    if config.algorithm in GOSSIP_ALGORITHMS:
        queue = new_pipeline(n, width, s_rounds)
        # the full protocol's messages, also for generations never absorbed
        in_flight = np.minimum(np.arange(1, horizon + 1), s_rounds)
        trace.scalars[:] = int(topology.adjacency.sum()) * in_flight * n * width
    elif config.algorithm == "centralized":
        trace.scalars[:] = n * (n - 1) * (d + 1)
    released = None

    t, phases = 1, 0
    while t <= horizon:
        beta = beta_radius(t, d, n, config.lam, config.delta, config.sigma,
                           config.epsilon)
        if queue is not None:
            agents.begin_round(t, released)
        # the shared centralized learner selects once, for every agent
        actions = np.empty((n, d))
        actions[:] = _select(agents, beta, dset, geo, rngs)
        own = np.empty((n, width))
        own[:, :d] = actions
        own[:, d], z = feedback(env, actions, t)
        if safe:
            own[:, d + 1] = geo.shifted_feedback(actions, z)
        _record(trace, t, actions, env, v_star)
        if probe is not None:
            probe(t, _probe_info(actions, agents))
        agents.finish_round(t, actions, *own[:, d:].T)
        played = 0
        if queue is not None:
            # a generation started after round T - S is never absorbed
            released = advance_queues(queue, own if t <= horizon - s_rounds else None, comm, plan)
        elif config.algorithm == "rc_dlucb":
            if agents.trigger(t) and t < horizon:
                phases += 1
                played = _rc_phase(t, phases, agents, actions, env, v_star, comm, plan,
                                   trace, probe)
        trace.phases_started[t - 1] = phases
        t += 1 + played
    np.cumsum(trace.inst_regret, out=trace.cum_regret)
    return trace


def _agents(config, plan, geo):
    """The state of a realization's N agents, as one object.

    Gossip agents reset to the prior after their S-round warm-up. The
    baselines' warm-up lasts the whole horizon, so they only ever learn from
    their own plays: ``no_comm`` has N independent learners, ``centralized``
    one learner, which every agent's play feeds in agent order.
    """
    n, d, lam = config.n_agents, config.d, config.lam
    if config.algorithm == "rc_dlucb":
        return RcDlucbAgent(n, d, lam, rc_comm_threshold(config.horizon, n, d, lam))
    if config.algorithm == "centralized":
        return DlucbAgent(np.zeros(n, dtype=int), d, lam, config.horizon)
    if config.algorithm == "no_comm":
        return DlucbAgent(np.arange(n), d, lam, config.horizon)
    gossip = DlucbAgent if geo is None else SafeDlucbAgent
    return gossip(np.arange(n), d, lam, plan.s_rounds, keep_warmup_data=config.keep_warmup_data)


def _probe_info(actions, agents):
    """Read-only copies of the plays and of the learners' statistics."""
    info = {"actions": actions, "grams": agents.gram, "moments": agents.moment}
    if isinstance(agents, SafeDlucbAgent):
        info["safety"] = agents.safety
    for key, value in info.items():
        info[key] = value.copy()
        info[key].flags.writeable = False
    return info


def _select(agents, beta, dset, geo, rngs):
    """Every learner's play at confidence radius ``beta``, as one (L, d) array.

    All learners are selected for in one batched step from the stacked
    statistics. With ``geo``: the UCB arm among those the safe filter
    certifies, else the safe action. With ``rngs`` (one stream per learner):
    Thompson sampling. Otherwise UCB over the box or the finite arm list.
    """
    cs = ConfidenceSet.from_stats(agents.gram, agents.moment, beta, dset.arms)
    if geo is not None:
        certified = safe_filter(dset.arms, cs.gram, agents.safety, beta, geo)
        j, _ = ucb_select_finite(dset.arms, cs, scale=geo.kappa_r, certified=certified)
        return np.where(certified.any(axis=-1)[:, None], dset.arms[j], geo.x0)
    box = dset.variant == "box"
    if rngs is not None:
        tilde = ts_perturb(cs, rngs)
        if box:
            return greedy_box(tilde)
        return dset.arms[np.argmax((dset.arms @ tilde[..., None])[..., 0], axis=-1)]
    if box:
        # the l1-ball confidence set of a box: sqrt(d) times the ridge radius
        return ucb_select_box(cs, scale=math.sqrt(dset.d))[0]
    return dset.arms[ucb_select_finite(dset.arms, cs)[0]]


def _rc_phase(t, phase, agents, actions, env, v_star, comm, plan, trace, probe):
    """Communication phase ``phase`` of ``rc_dlucb``, triggered in round t.

    For up to S rounds after t every agent replays its round-t action while
    the network gossips the unshared sums W and V. S rounds of accelerated
    gossip apply the mixing polynomial q_S(P) = ``mixed_gain / N``, so when
    all S rounds fit in the horizon each agent folds in its row of q_S(P)
    times the stacked sums; a cut-short phase mixes nothing. Returns the
    number of rounds played.
    """
    n, d = actions.shape
    s_rounds = plan.s_rounds
    y_sums = np.zeros(n)
    played = min(s_rounds, trace.horizon - t)
    for rnd in range(t + 1, t + played + 1):
        y_sums += feedback(env, actions, rnd)[0]
        _record(trace, rnd, actions, env, v_star)
        if probe is not None:
            probe(rnd, _probe_info(actions, agents))
    # a cut-short phase still sends its messages
    trace.phase_id[t:t + played] = phase
    trace.phases_started[t:t + played] = phase
    trace.scalars[t:t + played] = int(comm.topology.adjacency.sum()) * d * (d + 1)
    if played == s_rounds:
        # the replays are not added to the unshared sums, which are still round t's
        q = mixed_gain(comm, plan) / n
        agents.absorb_phase(np.tensordot(q, agents.w_new, axes=1), q @ agents.v_new,
                            actions, y_sums, s_rounds, t_end=t + s_rounds)
    return played


def _realization_job(args):
    config, master_seed, realization = args
    return run_realization(config, master_seed, realization)


def run_experiment(config, master_seed=None, workers=1):
    """Run all configured realizations, optionally over a worker pool.

    Results are assembled in realization order and each realization's streams
    depend only on (master seed, realization index), so the output is
    bit-identical for any worker count.
    """
    if master_seed is None:
        master_seed = config.master_seed
    jobs = [(config, master_seed, r) for r in range(config.realizations)]
    if workers <= 1 or config.realizations == 1:
        return [_realization_job(job) for job in jobs]
    with Pool(processes=min(workers, config.realizations)) as pool:
        return pool.map(_realization_job, jobs)


def aggregate(traces):
    """Pointwise mean/std curves and summary statistics over equal-length traces."""
    if not traces:
        raise ValueError("no traces to aggregate")
    horizon = traces[0].horizon
    if any(tr.horizon != horizon for tr in traces):
        raise ValueError("trace length mismatch")
    n_agents = traces[0].n_agents
    cum = np.stack([tr.cum_regret for tr in traces])
    mean = cum.mean(axis=0)
    std = cum.std(axis=0, ddof=1) if len(traces) > 1 else np.zeros(horizon)
    comm_cum = np.stack([np.cumsum(tr.scalars) for tr in traces]).mean(axis=0)
    phases_cum = np.stack([tr.phases_started for tr in traces]).mean(axis=0)
    violations_cum = np.stack([np.cumsum(tr.violations) for tr in traces]).mean(axis=0)
    return {
        "regret_mean": mean,
        "regret_std": std,
        "per_agent_regret_mean": mean / n_agents,
        "comm_scalars_cum": comm_cum,
        "phases_cum": phases_cum,
        "violations_cum": violations_cum,
    }


