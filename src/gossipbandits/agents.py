"""State of every agent of a realization, as stacked arrays.

One object holds all N agents of a realization: their ridge statistics are
(L, d, d) regularized Gram matrices ``gram`` and (L, d) moments ``moment``
with one row per learner, and the simulator's one round loop updates them
with one call per round. Gossip agents absorb the fully mixed generation the
pipeline released (``begin_round``), the simulator selects for every learner
in one batched step from ``gram`` and ``moment`` (and the safe agents'
``safety``), and ``finish_round`` records the round's plays. The simulator
owns the network-wide consensus pipeline (see ``consensus``) and starts a
generation of it from every round's plays. State is never shared across
realizations.
"""

from __future__ import annotations

import numpy as np

ALGORITHMS = ("dlucb", "rc_dlucb", "safe_dlucb", "dlts", "no_comm", "centralized")
GOSSIP_ALGORITHMS = ("dlucb", "dlts", "safe_dlucb")
# rank-one updates of RcDlucbAgent's inverse and log-determinant between two
# refreshes from the Gram matrices
REFRESH_UPDATES = 64


class DlucbAgent:
    """All N agents running the gossiped UCB (or TS) protocol.

    Agent i's plays feed learner ``owner[i]``: ``arange(N)`` gives every agent
    its own learner, an all-zero ``owner`` makes one learner that every play
    feeds in agent order (``centralized``). Each learner holds its Gram
    matrix and one moment per feedback signal, ``moments`` (signals, L, d),
    the reward's first. During warmup (t <= S) the statistics hold only the
    learners' own observations; at the first main round they are reset to
    the ridge prior, after which only fully mixed network information is
    absorbed. The baselines set S = T, so their warm-up never ends and they
    learn only from the plays recorded with them.
    """

    signals = 1
    inverse = None  # keeps no Gram inverses, unlike RcDlucbAgent

    def __init__(self, owner, d, lam, s_rounds):
        self.owner = np.asarray(owner)
        self.n = len(self.owner)
        self.d = d
        self.lam = lam
        self.s_rounds = s_rounds
        self.learners = int(self.owner.max()) + 1
        if lam < 1:
            raise ValueError("ridge parameter must be >= 1")
        self._reset()

    def _reset(self):
        """Every learner's statistics back to the ridge prior."""
        self.gram = self.lam * np.broadcast_to(np.eye(self.d), (self.learners, self.d, self.d))
        self.moments = np.zeros((self.signals, self.learners, self.d))

    @property
    def moment(self):
        """The (L, d) reward moments."""
        return self.moments[0]

    def begin_round(self, t, released):
        """Absorb the generation released after round t - 1 (main phase
        only), every agent its own slot. Row k of ``released[i]`` holds
        (a_ik / N) times agent k's action, then its signals from round t - S.
        """
        if t == self.s_rounds + 1:
            self._reset()
        if released is not None:
            # rows carry (a_ik / N) x_k: N^2-scaled products give the gain-weighted sums
            scaled = float(self.n) ** 2 * np.swapaxes(released[..., : self.d], -1, -2)
            self.gram += scaled @ released[..., : self.d]
            for j, moment in enumerate(self.moments):
                moment += (scaled @ released[..., self.d + j, None])[..., 0]

    def finish_round(self, t, actions, *signals):
        """Record the round's (N, d) plays and (N,) signals; warmup keeps
        them locally (the simulator enqueues them for gossip either way)."""
        if t <= self.s_rounds:
            # plays of one learner are added in agent order
            np.add.at(self.gram, self.owner, actions[:, :, None] * actions[:, None, :])
            for moment, signal in zip(self.moments, signals, strict=True):
                np.add.at(moment, self.owner, signal[:, None] * actions)


class SafeDlucbAgent(DlucbAgent):
    """All N gossiped UCB agents, additionally learning the constraint direction.

    The second signal is the shifted safety feedback
    (``SafeGeometry.shifted_feedback``); ``safety`` (N, d) is its moment,
    which ``safe_filter`` pairs with the arm solves of ``gram`` that finite
    UCB reads too. Every emitted action passed the safe filter at selection
    time (or is the known safe action).
    """

    signals = 2
    # the benchmark's tracer reads both methods from vars(SafeDlucbAgent)
    begin_round = DlucbAgent.begin_round
    finish_round = DlucbAgent.finish_round

    @property
    def safety(self):
        return self.moments[1]


class RcDlucbAgent:
    """All N agents of the rarely-communicating variant.

    Outside communication phases each agent accumulates unshared data W_new,
    V_new and watches the log-determinant growth of its Gram matrix; once any
    agent's growth exceeds the threshold, the network enters an S-round phase
    in which the unshared sums are gossiped while everyone replays their last
    action. All agents share the epoch start.

    Besides the sums, each agent keeps ``inverse`` (N, d, d), A^-1 for its
    Gram matrix A = lam I + W_syn + W_new, and ``logdet`` (N,), log det A.
    Every recorded play updates both by one rank-one step (Sherman-Morrison
    and the matrix determinant lemma, as in OFUL's implementation by
    Abbasi-Yadkori, Pal & Szepesvari, NeurIPS 2011), so a round factors
    nothing for them. Both are derived afresh from the Gram matrices, with
    one batched inverse and log-determinant, at every phase end and after
    every ``REFRESH_UPDATES`` rank-one steps, which bounds their rounding
    drift.
    """

    def __init__(self, n_agents, d, lam, threshold):
        self.ridge = lam * np.eye(d)
        self.threshold = threshold
        self.w_syn = np.zeros((n_agents, d, d))
        self.w_new = np.zeros((n_agents, d, d))
        self.v_syn = np.zeros((n_agents, d))
        self.v_new = np.zeros((n_agents, d))
        self.epoch_start = 0
        self.logdet_epoch_start = np.full(n_agents, d * np.log(lam))
        self.refresh()

    @property
    def gram(self):
        return self.ridge + self.w_syn + self.w_new

    @property
    def moment(self):
        return self.v_syn + self.v_new

    def refresh(self):
        """Certify the Gram matrices positive-definite with one batched
        Cholesky, which finite selection trusts, then derive ``inverse`` and
        ``logdet`` with one batched inverse and log-determinant."""
        gram = self.gram
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise RuntimeError("Gram matrix lost positive-definiteness") from None
        self.logdet = np.linalg.slogdet(gram)[1]
        self.inverse = np.linalg.inv(gram)
        self.updates = 0

    def record_play(self, actions, rewards):
        """Add the round's (N, d) plays to the unshared sums, and fold each
        play x into its agent's A^-1 and log det A: with u = A^-1 x and
        g = 1 + x^T u, A^-1 loses u u^T / g and log det A gains log g; a g
        that is not positive and finite raises RuntimeError."""
        self.w_new += actions[:, :, None] * actions[:, None, :]
        self.v_new += rewards[:, None] * actions
        u = (self.inverse @ actions[:, :, None])[..., 0]
        g = 1.0 + (actions * u).sum(axis=-1)
        if not (np.isfinite(g) & (g > 0)).all():
            raise RuntimeError("Gram matrix lost positive-definiteness")
        # scaled by 1/sqrt(g), the update is exactly symmetric
        u /= np.sqrt(g)[:, None]
        self.inverse -= u[:, :, None] * u[:, None, :]
        self.logdet += np.log(g)
        self.updates += 1
        if self.updates == REFRESH_UPDATES:
            self.refresh()

    def finish_round(self, t, actions, rewards):
        """Record the round's plays; they stay unshared until the next phase."""
        self.record_play(actions, rewards)

    def trigger(self, t):
        """Evaluate every agent's phase trigger after the round-t update from
        the kept log-determinants, factoring nothing; True when any agent's
        fires."""
        return bool(np.any((self.logdet - self.logdet_epoch_start) * (t - self.epoch_start)
                           > self.threshold))

    def absorb_phase(self, mixed_w, mixed_v, frozen, reward_sums, s_rounds, t_end):
        """Fold the gossiped (N, ...) sums in and restart the epoch with the S
        frozen plays: agent i replayed ``frozen[i]`` for ``reward_sums[i]``.
        Both change A by more than rank one, so A^-1 and log det A are
        refreshed, and the new log det A starts the epoch."""
        n = len(frozen)
        self.w_syn += n * mixed_w
        self.v_syn += n * mixed_v
        self.w_new = s_rounds * (frozen[:, :, None] * frozen[:, None, :])
        self.v_new = reward_sums[:, None] * frozen
        self.epoch_start = t_end
        self.refresh()
        self.logdet_epoch_start = self.logdet.copy()
