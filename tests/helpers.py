"""Shared independent oracles for the test suite.

Everything here deliberately avoids the library's own code paths: eigenvalues
come from a hand-rolled shifted QR iteration, the mixing polynomial from the
closed Chebyshev form on the eigendecomposition, connectivity from BFS, and
the safe filter's restricted norm from a dense solve. The per-agent selection
oracles keep the unbatched selection code, one agent per call, and the gossip
step oracle keeps the per-holder loop.
"""

import math

import numpy as np
from scipy import linalg as scipy_linalg


def bfs_connected(adjacency):
    n = adjacency.shape[0]
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if adjacency[u, v] and v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def qr_eigvalsh(mat, tol=1e-13, max_sweeps=50000):
    """Symmetric eigenvalues via Wilkinson-shifted QR iteration with deflation."""
    h = np.array(mat, dtype=float)
    scale = max(1.0, np.abs(h).max())
    n = h.shape[0]
    eigs = []
    sweeps = 0
    while n > 1:
        while np.abs(h[n - 1, : n - 1]).max() > tol * scale:
            sweeps += 1
            if sweeps > max_sweeps:
                raise RuntimeError("QR iteration failed to converge")
            a = h[n - 2, n - 2]
            b = h[n - 1, n - 2]
            c = h[n - 1, n - 1]
            delta = (a - c) / 2.0
            if delta == 0 and b == 0:
                mu = c
            else:
                sgn = 1.0 if delta >= 0 else -1.0
                mu = c - sgn * b * b / (abs(delta) + math.hypot(delta, b))
            q, r = np.linalg.qr(h[:n, :n] - mu * np.eye(n))
            h[:n, :n] = r @ q + mu * np.eye(n)
        eigs.append(h[n - 1, n - 1])
        n -= 1
    eigs.append(h[0, 0])
    return np.sort(np.array(eigs))


def chebyshev_closed_form(ell, x):
    """T_ell(x) from the trigonometric/hyperbolic closed forms."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    inside = np.abs(x) <= 1.0
    out[inside] = np.cos(ell * np.arccos(np.clip(x[inside], -1.0, 1.0)))
    above = x > 1.0
    out[above] = np.cosh(ell * np.arccosh(x[above]))
    below = x < -1.0
    out[below] = (-1.0) ** ell * np.cosh(ell * np.arccosh(-x[below]))
    return out


def mixing_polynomial_eig(entries, lambda2_abs, s_rounds):
    """q_S(P) assembled from the eigendecomposition and closed-form Chebyshev."""
    vals, vecs = np.linalg.eigh(entries)
    numer = chebyshev_closed_form(s_rounds, vals / lambda2_abs)
    denom = chebyshev_closed_form(s_rounds, np.array([1.0 / lambda2_abs]))[0]
    return (vecs * (numer / denom)) @ vecs.T


def random_connected_adjacency(n, p, rng, max_tries=500):
    iu = np.triu_indices(n, k=1)
    for _ in range(max_tries):
        a = np.zeros((n, n))
        a[iu] = (rng.random(len(iu[0])) < p).astype(float)
        a = a + a.T
        if bfs_connected(a):
            return a
    raise RuntimeError("could not sample a connected graph")


def oracle_comm_step(now, prev, ell, comm, plan, out=None):
    """The accelerated gossip step as the library did it before holders were
    mixed in blocks: one ``tensordot`` over a copy of each holder's neighbor
    rows, then that holder's Chebyshev combination in place. The blocked
    ``comm_step`` must reproduce it bit for bit."""
    now = np.asarray(now, dtype=float)
    prev = np.asarray(prev, dtype=float)
    if out is None:
        out = np.empty_like(now)
    if ell > 1:
        w = plan.weights
        c_now = 2.0 * w[ell - 1] / (plan.lambda2_abs * w[ell])
        c_prev = w[ell - 2] / w[ell]
    for i in range(comm.n):
        idx = np.flatnonzero(comm.entries[i])
        mixed = np.tensordot(comm.entries[i, idx], now[idx], axes=(0, 0))
        if ell == 1:
            out[i] = mixed
            continue
        row = out[i, ...]
        np.multiply(c_prev, prev[i], out=row)
        mixed *= c_now
        np.subtract(mixed, row, out=row)
    return out


def identity_seed_gain(comm, plan):
    """N * q_S(P) from the identity: every agent's basis payload, unpadded,
    run through S per-holder gossip steps."""
    cur = prev = np.eye(comm.n)
    for ell in range(1, plan.s_rounds + 1):
        cur, prev = oracle_comm_step(cur, prev, ell, comm, plan), cur
    return comm.n * cur


def complement_basis(geo):
    """Orthonormal (d, d - 1) basis of the complement of the safe direction,
    by QR of [x0 / ||x0|| | I]; the identity for the zero safe action."""
    d = geo.x0.shape[0]
    if geo.is_zero:
        return np.eye(d)
    q, _ = np.linalg.qr(np.column_stack([geo.x0_unit, np.eye(d)]))
    return q[:, 1:d]


def ortho_norm(x_perp, gram, geo):
    """Norm of x_perp, orthogonal to the safe direction, under the inverse of
    ``gram`` restricted to the complement basis."""
    x_perp = np.asarray(x_perp, dtype=float)
    if not geo.is_zero:
        overlap = abs(float(x_perp @ geo.x0_unit))
        if overlap > 1e-9 * max(1.0, np.linalg.norm(x_perp)):
            raise ValueError("input is not orthogonal to the safe direction")
    basis = complement_basis(geo)
    u = basis.T @ x_perp
    return float(math.sqrt(max(u @ np.linalg.solve(basis.T @ gram @ basis, u), 0.0)))


# Per-agent selection as the library did it before selection was batched:
# one agent per call. The box ridge solve goes through scipy's own Cholesky
# wrappers, and the finite one through the unbatched numpy calls that
# ``ConfidenceSet.from_stats`` makes on a stack. The batched functions of
# ``bandit`` must reproduce every agent's result bit for bit.

def oracle_center(gram, moment):
    """Ridge estimate of one agent on the box; raises ValueError like
    ``ConfidenceSet.from_stats``."""
    try:
        factor = scipy_linalg.cho_factor(gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Gram matrix is not positive-definite") from exc
    theta = scipy_linalg.cho_solve(factor, moment)
    residual = np.linalg.norm(gram @ theta - moment)
    if residual > 1e-8 * max(1.0, np.linalg.norm(moment)):
        raise ValueError(f"ill-conditioned solve, residual {residual:.3e}")
    return theta


def oracle_finite_solves(gram, moment, arms):
    """One agent's ridge estimate and (d, K) arm solves for finite arms."""
    solved = np.vstack([moment, arms]) @ np.linalg.inv(gram).T
    return solved[0], solved[1:].T


def oracle_select_finite(arms, gram, moment, radius, scale=1.0):
    center, solved = oracle_finite_solves(gram, moment, arms)
    norms = np.sqrt(np.maximum(np.einsum("kd,dk->k", arms, solved), 0.0))
    scores = arms @ center + scale * radius * norms
    idx = int(np.argmax(scores))
    return idx, float(scores[idx])


def oracle_inv_sqrt_psd(mat):
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() <= 1e-12:
        raise ValueError("matrix not positive-definite within tolerance")
    return (vecs / np.sqrt(vals)) @ vecs.T


def oracle_select_box(gram, center, radius, scale=1.0):
    root = oracle_inv_sqrt_psd(gram)
    c = scale * radius
    candidates = np.concatenate([center + c * root.T, center - c * root.T])
    values = np.abs(candidates).sum(axis=1)
    best = int(np.argmax(values))
    return np.where(candidates[best] >= 0.0, 1.0, -1.0), float(values[best])


def oracle_ts_perturb(gram, center, radius, rng):
    root = oracle_inv_sqrt_psd(gram)
    rho = rng.standard_normal(center.shape[0])
    return center + radius * root @ rho


def oracle_safe_filter(arms, gram, safety, beta, geo):
    """Indices of the arms one agent certifies safe."""
    basis = complement_basis(geo)
    factor = scipy_linalg.cho_factor(basis.T @ gram @ basis, lower=True)
    mu_hat = basis @ scipy_linalg.cho_solve(factor, basis.T @ safety)
    if geo.is_zero:
        proj_term = np.zeros(arms.shape[0])
    else:
        proj_term = (arms @ geo.x0_unit / geo.norm_x0) * geo.c0
    reduced = basis.T @ arms.T
    solved = scipy_linalg.cho_solve(factor, reduced)
    norms = np.sqrt(np.maximum(np.einsum("dk,dk->k", reduced, solved), 0.0))
    values = proj_term + arms @ mu_hat + beta * norms
    return np.flatnonzero(values <= geo.c)


def oracle_safe_select(arms, gram, safety, moment, beta, geo):
    """One safe agent's play: UCB over the certified arms, else the safe action."""
    keep = oracle_safe_filter(arms, gram, safety, beta, geo)
    if len(keep) == 0:
        return geo.x0
    j, _ = oracle_select_finite(arms[keep], gram, moment, beta, scale=geo.kappa_r)
    return arms[keep[j]]


# Per-agent state as the library kept it before the agents' state was
# stacked: one object per agent, updated one agent at a time. The stacked
# classes of ``agents`` must hold every agent's statistics bit for bit.
# ``centralized`` lists one OracleDlucbAgent N times.

class OracleDlucbAgent:
    """One agent of the gossiped UCB (or TS) protocol, or a baseline learner."""

    def __init__(self, n_agents, d, lam, s_rounds):
        self.n, self.d, self.lam, self.s_rounds = n_agents, d, lam, s_rounds
        self.gram = lam * np.eye(d)
        self.moment = np.zeros(d)

    def begin_round(self, t, slot):
        if t == self.s_rounds + 1:
            self.gram = self.lam * np.eye(self.d)
            self.moment = np.zeros(self.d)
        if slot is not None:
            scale = float(self.n) ** 2
            self.gram += scale * slot[:, : self.d].T @ slot[:, : self.d]
            self.moment += scale * slot[:, : self.d].T @ slot[:, self.d]

    def finish_round(self, t, action, reward):
        if t <= self.s_rounds:
            self.gram += np.outer(action, action)
            self.moment += reward * action


class OracleSafeDlucbAgent(OracleDlucbAgent):
    """One gossiped UCB agent that also gathers the safety moment."""

    def __init__(self, n_agents, d, lam, s_rounds, geo):
        super().__init__(n_agents, d, lam, s_rounds)
        self.geo = geo
        self.safety = np.zeros(d)

    def begin_round(self, t, slot):
        if t == self.s_rounds + 1:
            self.safety = np.zeros(self.d)
        super().begin_round(t, slot)
        if slot is not None:
            self.safety += float(self.n) ** 2 * slot[:, : self.d].T @ slot[:, self.d + 1]

    def shifted_feedback(self, action, z):
        if self.geo.is_zero:
            return z
        coef = float(action @ self.geo.x0_unit)
        return z - (coef / self.geo.norm_x0) * self.geo.c0

    def finish_round(self, t, action, reward, z_perp):
        if t <= self.s_rounds:
            self.safety += z_perp * action
        super().finish_round(t, action, reward)


class OracleRcDlucbAgent:
    """One agent of the rarely-communicating variant."""

    def __init__(self, d, lam, threshold):
        self.d, self.lam, self.threshold = d, lam, threshold
        self.w_syn = np.zeros((d, d))
        self.w_new = np.zeros((d, d))
        self.v_syn = np.zeros(d)
        self.v_new = np.zeros(d)
        self.epoch_start = 0
        self.logdet_epoch_start = d * np.log(lam)
        self.frozen_action = None

    @property
    def gram(self):
        return self.lam * np.eye(self.d) + self.w_syn + self.w_new

    @property
    def moment(self):
        return self.v_syn + self.v_new

    def finish_round(self, t, action, reward):
        self.w_new += np.outer(action, action)
        self.v_new += reward * action
        self.frozen_action = action

    def fires(self, t):
        sign, logdet = np.linalg.slogdet(self.gram)
        assert sign > 0
        return (logdet - self.logdet_epoch_start) * (t - self.epoch_start) > self.threshold

    def absorb_phase(self, mixed_w, mixed_v, n_agents, s_rounds, frozen_reward_sum, t_end):
        self.w_syn += n_agents * mixed_w
        self.v_syn += n_agents * mixed_v
        x = self.frozen_action
        self.w_new = s_rounds * np.outer(x, x)
        self.v_new = frozen_reward_sum * x
        self.epoch_start = t_end
        _, self.logdet_epoch_start = np.linalg.slogdet(self.gram)
