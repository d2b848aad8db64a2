"""Per-agent state machines for the decentralized bandit algorithms.

Agents advance under a round contract driven by the simulator's one round
loop: gossip agents absorb their slot of the fully mixed generation
(``begin_round``), the simulator stacks every agent's ``stats`` (and the safe
agent's ``safety``) to select for all of them in one batched step, and
``finish_round`` records each play. The simulator
owns the network-wide consensus pipeline (see ``consensus``) and enqueues
every round's plays. State is never shared across realizations.
"""

from __future__ import annotations

import numpy as np

from .bandit import SufficientStats

ALGORITHMS = ("dlucb", "rc_dlucb", "safe_dlucb", "dlts", "no_comm", "centralized")
GOSSIP_ALGORITHMS = ("dlucb", "dlts", "safe_dlucb")


class DlucbAgent:
    """State of one agent running the gossiped UCB (or TS) protocol.

    During warmup (t <= S) the statistics hold only the agent's own
    observations; at the first main round they are reset to the ridge prior
    unless ``keep_warmup_data`` is set, after which only fully mixed network
    information is absorbed. The baselines set S = T, so their warm-up never
    ends and they learn only from the plays recorded with them.
    """

    def __init__(self, n_agents, d, lam, s_rounds, *, keep_warmup_data=False):
        self.n = n_agents
        self.d = d
        self.s_rounds = s_rounds
        self.keep_warmup_data = keep_warmup_data
        self.stats = SufficientStats.initial(d, lam)

    def begin_round(self, t, slot):
        """Absorb this agent's slot of the generation released after round
        t - 1 (main phase only). Row k of ``slot`` holds (a_ik / N) times agent
        k's action, then reward (then shifted safety feedback) from round t - S.
        """
        if t == self.s_rounds + 1 and not self.keep_warmup_data:
            self.stats.reset()
        if slot is not None:
            self.stats.absorb_mixed(slot[:, : self.d], slot[:, self.d], self.n)

    def finish_round(self, t, action, reward):
        """Record the played action; warmup keeps it locally (the simulator
        enqueues it for gossip either way)."""
        if t <= self.s_rounds:
            self.stats.add_observation(action, reward)


class SafeDlucbAgent(DlucbAgent):
    """Gossiped UCB agent that additionally learns the constraint direction.

    ``safety`` is the moment of the shifted safety feedback, gathered and reset
    like the reward moment; ``safe_filter`` pairs it with ``stats.gram``. Every
    emitted action passed the safe filter at selection time (or is the known
    safe action).
    """

    def __init__(self, n_agents, d, lam, s_rounds, geo, *, keep_warmup_data=False):
        super().__init__(n_agents, d, lam, s_rounds, keep_warmup_data=keep_warmup_data)
        self.geo = geo
        self.safety = np.zeros(d)

    def begin_round(self, t, slot):
        if t == self.s_rounds + 1 and not self.keep_warmup_data:
            self.safety = np.zeros(self.d)
        super().begin_round(t, slot)
        if slot is not None:
            self.safety += float(self.n) ** 2 * slot[:, : self.d].T @ slot[:, self.d + 1]

    def shifted_feedback(self, action, z):
        """Remove the known component of the safety measurement along x0."""
        if self.geo.is_zero:
            return z
        coef = float(action @ self.geo.x0_unit)
        return z - (coef / self.geo.norm_x0) * self.geo.c0

    def finish_round(self, t, action, reward, z_perp):
        """Record the played action with its shifted safety feedback ``z_perp``."""
        if t <= self.s_rounds:
            self.safety += z_perp * action
        super().finish_round(t, action, reward)


class RcDlucbAgent:
    """Agent for the rarely-communicating variant.

    Outside communication phases it accumulates unshared data and watches the
    log-determinant growth of its Gram matrix; once any agent's growth exceeds
    the threshold, the network enters an S-round phase in which the unshared
    sums are gossiped while everyone replays their last action.
    """

    def __init__(self, d, lam, threshold):
        self.d = d
        self.lam = lam
        self.threshold = threshold
        self.w_syn = np.zeros((d, d))
        self.w_new = np.zeros((d, d))
        self.v_syn = np.zeros(d)
        self.v_new = np.zeros(d)
        self.epoch_start = 0
        self.logdet_epoch_start = d * np.log(lam)
        self.frozen_action = None

    @property
    def stats(self):
        return SufficientStats(
            gram=self.lam * np.eye(self.d) + self.w_syn + self.w_new,
            moment=self.v_syn + self.v_new,
            lam=self.lam,
        )

    def record_play(self, action, reward):
        self.w_new += np.outer(action, action)
        self.v_new += reward * action
        self.frozen_action = action

    def finish_round(self, t, action, reward):
        """Record the played action; it stays unshared until the next phase."""
        self.record_play(action, reward)

    @classmethod
    def trigger(cls, agents, t):
        """Evaluate the phase trigger of every agent after the round-t update,
        with one batched log-determinant; True when any agent's fires."""
        first = agents[0]
        grams = (first.lam * np.eye(first.d) + np.stack([a.w_syn for a in agents])
                 + np.stack([a.w_new for a in agents]))
        sign, logdet = np.linalg.slogdet(grams)
        if np.any(sign <= 0):
            raise RuntimeError("Gram matrix lost positive-definiteness")
        start = np.array([a.logdet_epoch_start for a in agents])
        length = t - np.array([a.epoch_start for a in agents])
        return bool(np.any((logdet - start) * length > first.threshold))

    def phase_payload(self):
        return self.w_new.copy(), self.v_new.copy()

    def absorb_phase(self, mixed_w, mixed_v, n_agents, s_rounds, frozen_reward_sum, t_end):
        """Fold the gossiped sums in and restart the epoch with the frozen plays."""
        self.w_syn += n_agents * mixed_w
        self.v_syn += n_agents * mixed_v
        x = self.frozen_action
        self.w_new = s_rounds * np.outer(x, x)
        self.v_new = frozen_reward_sum * x
        self.epoch_start = t_end
        _, self.logdet_epoch_start = np.linalg.slogdet(self.stats.gram)
