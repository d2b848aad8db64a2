"""Confidence ellipsoids, regularized least squares, UCB/TS selection, and
safe-set geometry over finite and box decision sets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

NORM_FLAVORS = ("ell2", "ell1_scaled")


@dataclass
class SufficientStats:
    """Regularized Gram matrix and moment vector of a ridge regression."""

    gram: np.ndarray
    moment: np.ndarray
    lam: float

    @classmethod
    def initial(cls, d, lam):
        if lam < 1:
            raise ValueError("ridge parameter must be >= 1")
        return cls(gram=lam * np.eye(d), moment=np.zeros(d), lam=lam)

    @property
    def d(self):
        return self.moment.shape[0]

    def reset(self):
        self.gram = self.lam * np.eye(self.d)
        self.moment = np.zeros(self.d)

    def add_observation(self, x, y):
        self.gram += np.outer(x, x)
        self.moment += y * x

    def absorb_mixed(self, action_matrix, reward_vector, n_agents):
        """Fold a fully mixed estimate slot into the statistics.

        Rows of ``action_matrix`` carry (a_ik / N) x_k, so the N^2-scaled outer
        product reconstructs the gain-squared weighted Gram contribution.
        """
        scale = float(n_agents) ** 2
        self.gram += scale * action_matrix.T @ action_matrix
        self.moment += scale * action_matrix.T @ reward_vector

    def copy(self):
        return SufficientStats(self.gram.copy(), self.moment.copy(), self.lam)


def rls_estimate(stats):
    """Ridge estimate solving gram @ theta = moment via a Cholesky factorization."""
    try:
        factor = cho_factor(stats.gram, lower=True)
    except np.linalg.LinAlgError as exc:
        raise ValueError("Gram matrix is not positive-definite") from exc
    theta = cho_solve(factor, stats.moment)
    residual = np.linalg.norm(stats.gram @ theta - stats.moment)
    if residual > 1e-8 * max(1.0, np.linalg.norm(stats.moment)):
        raise ValueError(f"ill-conditioned solve, residual {residual:.3e}")
    return theta


def beta_radius(t, d, n_agents, lam, delta, sigma, epsilon):
    """Confidence radius at round t; strictly increasing in t."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if t < 1:
        raise ValueError("round index starts at 1")
    inner = (2.0 * lam * d * n_agents + 2.0 * n_agents**2 * t) / (lam * d * delta)
    return (1.0 + epsilon) * sigma * math.sqrt(d * math.log(inner)) + math.sqrt(lam)


@dataclass
class ConfidenceSet:
    """Ellipsoid (or its l1 box analogue) around the ridge estimate.

    For the ``ell1_scaled`` flavor the stored radius already carries the
    sqrt(d) inflation used with box decision sets.
    """

    center: np.ndarray
    radius: float
    gram: np.ndarray
    norm_flavor: str = "ell2"

    def __post_init__(self):
        if self.norm_flavor not in NORM_FLAVORS:
            raise ValueError(f"unknown norm flavor {self.norm_flavor!r}")
        if not np.isfinite(self.radius) or self.radius < 0:
            raise ValueError("radius must be finite and non-negative")

    @classmethod
    def from_stats(cls, stats, beta, flavor="ell2"):
        center = rls_estimate(stats)
        radius = beta * math.sqrt(stats.d) if flavor == "ell1_scaled" else beta
        return cls(center=center, radius=radius, gram=stats.gram, norm_flavor=flavor)


@dataclass
class DecisionSet:
    """Either the box [-1, 1]^d or a finite list of arms inside the unit ball."""

    variant: str
    d: int
    arms: np.ndarray | None = None

    @classmethod
    def box(cls, d):
        return cls(variant="box", d=d)

    @classmethod
    def finite(cls, arms):
        arms = np.atleast_2d(np.asarray(arms, dtype=float))
        if arms.shape[0] == 0:
            raise ValueError("finite decision set must be nonempty")
        norms = np.linalg.norm(arms, axis=1)
        top = norms.max()
        if top > 1.0 + 1e-9:
            arms = arms / top
        return cls(variant="finite", d=arms.shape[1], arms=arms)


def ucb_select_finite(arms, cs, scale=1.0):
    """Optimistic argmax over a finite arm list, ties broken by lowest index.

    Returns (arm index, optimistic value) for the score
    <theta_hat, x> + scale * radius * ||x||_{A^-1}.
    """
    arms = np.atleast_2d(np.asarray(arms, dtype=float))
    if arms.shape[0] == 0:
        raise ValueError("empty arm set")
    if cs.norm_flavor != "ell2":
        raise ValueError("finite selection expects the ell2 flavor")
    factor = cho_factor(cs.gram, lower=True)
    solved = cho_solve(factor, arms.T)
    norms = np.sqrt(np.maximum(np.einsum("kd,dk->k", arms, solved), 0.0))
    scores = arms @ cs.center + scale * cs.radius * norms
    idx = int(np.argmax(scores))
    return idx, float(scores[idx])


def inv_sqrt_psd(mat, lam=1.0):
    """Symmetric inverse square root via eigendecomposition."""
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() <= 1e-12 * lam:
        raise ValueError("matrix not positive-definite within tolerance")
    return (vecs / np.sqrt(vals)) @ vecs.T


def ucb_select_box(cs, scale=1.0):
    """Optimistic maximizer of <theta_hat, x> + scale * radius * ||A^{-1/2} x||_inf
    over the box [-1, 1]^d.

    The sup-norm bonus is a max of 2d linear functions, each maximized at a sign
    vector, so enumerating the 2d candidates is exact.
    """
    if cs.norm_flavor != "ell1_scaled":
        raise ValueError("box selection expects the ell1_scaled flavor")
    root = inv_sqrt_psd(cs.gram)
    c = scale * cs.radius
    candidates = np.concatenate([cs.center + c * root.T, cs.center - c * root.T])
    values = np.abs(candidates).sum(axis=1)
    best = int(np.argmax(values))
    x = np.where(candidates[best] >= 0.0, 1.0, -1.0)
    return x, float(values[best])


def greedy_box(theta):
    """Box maximizer of a linear objective; zero coordinates map to +1."""
    return np.where(np.asarray(theta) >= 0.0, 1.0, -1.0)


def ts_perturb(cs, rng):
    """Posterior-style perturbation theta_hat + radius * A^{-1/2} rho, rho ~ N(0, I)."""
    root = inv_sqrt_psd(cs.gram)
    rho = rng.standard_normal(cs.center.shape[0])
    return cs.center + cs.radius * root @ rho


@dataclass
class SafeGeometry:
    """Known safe action with its constraint value and the enlargement factor.

    ``basis`` is an orthonormal basis of the safe direction's complement. A
    zero safe action is the degenerate sentinel: the projection onto it
    vanishes and the complement is the whole space.
    """

    x0: np.ndarray
    c0: float
    c: float

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if not self.c0 < self.c:
            raise ValueError("need c0 < c for a nonempty safe margin")
        self.norm_x0 = float(np.linalg.norm(self.x0))
        self.is_zero = self.norm_x0 == 0.0
        self.x0_unit = np.zeros_like(self.x0) if self.is_zero else self.x0 / self.norm_x0
        d = self.x0.shape[0]
        if self.is_zero:
            self.basis = np.eye(d)
        else:
            q, _ = np.linalg.qr(np.column_stack([self.x0_unit, np.eye(d)]))
            self.basis = q[:, 1:d]

    @property
    def kappa_r(self):
        return 2.0 / (self.c - self.c0) + 1.0


def safe_filter(arms, gram, safety, beta, geo):
    """Indices of arms certified safe by the conservative inner approximation.

    The constraint is estimated on the safe direction's complement B = basis:
    mu_hat = B (B^T gram B)^-1 B^T safety, where B^T gram B equals the Gram
    matrix of the projected actions. An arm passes when its known value along
    the safe direction, <mu_hat, x> and the bonus beta ||B^T x|| under that
    inverse jointly stay below the constraint level.
    """
    arms = np.atleast_2d(np.asarray(arms, dtype=float))
    basis = geo.basis
    factor = cho_factor(basis.T @ gram @ basis, lower=True)
    mu_hat = basis @ cho_solve(factor, basis.T @ safety)
    if geo.is_zero:
        proj_term = np.zeros(arms.shape[0])
    else:
        proj_term = (arms @ geo.x0_unit / geo.norm_x0) * geo.c0
    reduced = basis.T @ arms.T
    solved = cho_solve(factor, reduced)
    norms = np.sqrt(np.maximum(np.einsum("dk,dk->k", reduced, solved), 0.0))
    values = proj_term + arms @ mu_hat + beta * norms
    return np.flatnonzero(values <= geo.c)


def mixing_delay_pairs(s_rounds, d, n_agents, horizon, lam):
    """Count of agent/round pairs the delay analysis cannot control."""
    if horizon == 0:
        return 0.0
    return s_rounds * d * math.log(1.0 + n_agents * horizon / (d * lam))


def rc_comm_threshold(horizon, n_agents, d, lam):
    """Log-determinant growth budget that triggers a communication phase."""
    return horizon * math.log(1.0 + n_agents * horizon / (d * lam)) / (d * n_agents)


def theoretical_regret_bound(
    variant,
    *,
    s_rounds,
    d,
    n_agents,
    horizon,
    lam,
    delta,
    sigma,
    epsilon,
    kappa_r=None,
    general_form=False,
):
    """Closed-form high-probability regret bound for the given algorithm variant.

    The theorem-specific forms restrict epsilon (below 1/(4d+1), or 1/(2d+1)
    for the rarely-communicating variant); ``general_form`` evaluates the
    looser bound valid for any epsilon in (0, 1).
    """
    if variant not in ("dlucb", "rc_dlucb", "safe_dlucb"):
        raise ValueError(f"no closed-form bound for variant {variant!r}")
    if horizon == 0:
        return 0.0
    nt_over_d = n_agents * horizon / d
    beta_T = beta_radius(horizon, d, n_agents, lam, delta, sigma, epsilon)
    if variant == "rc_dlucb":
        if epsilon > 1.0 / (2 * d + 1):
            raise ValueError("epsilon above 1/(2d+1): no theorem-form rc bound")
        log_term = math.log(lam + nt_over_d)
        return 4.0 * beta_T * (
            s_rounds * n_agents * d * log_term / math.sqrt(lam)
            + 4.0 * log_term**1.5 * math.sqrt(d * n_agents * horizon)
        )
    if general_form:
        if variant != "dlucb":
            raise ValueError("general-epsilon form only available for dlucb")
        first = 2.0 * s_rounds * d * math.log(1.0 + n_agents * horizon / (d * s_rounds))
        growth = ((1.0 + epsilon) / (1.0 - epsilon)) ** d
        second = 2.0 * beta_T * growth * math.sqrt(
            2.0 * math.e * d * n_agents * horizon * math.log(lam + nt_over_d)
        )
        return first + second
    if epsilon > 1.0 / (4 * d + 1):
        raise ValueError("epsilon above 1/(4d+1): use general_form for the loose bound")
    first = 2.0 * mixing_delay_pairs(s_rounds, d, n_agents, horizon, lam)
    second = 2.0 * math.e * beta_T * math.sqrt(
        2.0 * d * n_agents * horizon * math.log(lam + nt_over_d)
    )
    if variant == "safe_dlucb":
        if kappa_r is None:
            raise ValueError("safe bound needs kappa_r")
        second *= kappa_r
    return first + second
