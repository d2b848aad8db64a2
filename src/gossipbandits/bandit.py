"""Confidence ellipsoids, regularized least squares, UCB/TS selection, and
safe-set geometry over finite and box decision sets.

Estimation and selection take a leading agent axis: Gram matrices (N, d, d)
with moments (N, d) select for N agents in one call, and a single (d, d)
Gram matrix is the zero-batch case of the same code. Each agent's slice of a
stacked result is bit-identical to a call on that agent alone. Cholesky
factors and solves go through the LAPACK ``potrf``/``potrs`` that
``scipy.linalg.cho_factor``/``cho_solve`` call, one matrix at a time, in
place in buffers whose matrices are column-major, so no call copies or
allocates. Each factor gets one ``potrs`` call with all its right-hand
sides: the ridge moment together with the arms of finite UCB, and the
safety moment together with the arms of the safe filter.
Eigendecompositions are batched ``np.linalg`` calls, and every
matrix-vector product is a stacked ``np.matmul`` against a trailing
(..., d, 1) column, which runs each slice through the same BLAS call as the
unbatched product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack


def _matvec(mats, vecs):
    """``mats @ v`` for every vector v on the last axis of ``vecs``."""
    return (mats @ vecs[..., None])[..., 0]


def cho_factor(mats):
    """Lower Cholesky factor of every matrix of a stack (..., d, d).

    The stack is copied once into a buffer whose matrices are column-major,
    and each matrix is factored in place there by the LAPACK ``potrf`` that
    ``scipy.linalg.cho_factor`` calls; ``mats`` itself is never written. The
    upper triangle keeps the input's entries. Raises ValueError if an entry
    is not finite or a matrix is not positive-definite.
    """
    mats = np.asarray_chkfinite(mats, dtype=float)
    factors = np.empty(mats.shape).swapaxes(-1, -2)
    factors[...] = mats
    if factors.size == 0:  # an empty stack, or d = 0
        return factors
    d = mats.shape[-1]
    # f2py would factor a silent copy of a matrix that is not F-contiguous;
    # every matrix of the buffer is, so potrf overwrites it
    info = max(lapack.dpotrf(f, lower=1, clean=0, overwrite_a=1)[1]
               for f in factors.reshape(-1, d, d))
    if info > 0:
        raise ValueError("Gram matrix is not positive-definite")
    return factors


def cho_solve(factors, rhs):
    """Solve L L^T X = B for every factor L of ``cho_factor`` and its
    right-hand sides B, a (..., d, k) stack.

    The solutions are written in place over a copy of ``rhs`` by the LAPACK
    ``potrs`` that ``scipy.linalg.cho_solve`` calls, one call per factor with
    all its right-hand sides. The solutions keep its column-major layout, so
    that later reductions over them sum in the same order.
    """
    rhs = np.asarray_chkfinite(rhs, dtype=float)
    out = np.empty(rhs.shape[:-2] + rhs.shape[:-3:-1]).swapaxes(-1, -2)
    out[...] = rhs
    if out.size == 0:  # an empty system (d = 0) has the empty solution
        return out
    d = factors.shape[-1]
    for f, o in zip(factors.reshape(-1, d, d), out.reshape(-1, *out.shape[-2:]), strict=True):
        lapack.dpotrs(f, o, lower=1, overwrite_b=1)
    return out


def _solve_with_columns(factor, vector, columns):
    """Solutions of one ``potrs`` call per factor on [vector | columns]: the
    vector's, copied to a contiguous (..., d) array, and the (..., d, k)
    columns', column-major like every ``cho_solve`` solution."""
    rhs = np.empty(vector.shape + (1 + columns.shape[-1],))
    rhs[..., 0] = vector
    rhs[..., 1:] = columns
    solved = cho_solve(factor, rhs)
    return solved[..., 0].copy(), solved[..., 1:]


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
    """Ellipsoid around the ridge estimate, for one agent or a stack of agents
    sharing the radius.

    ``arm_solves``, A^-1 arms^T for the arms given to ``from_stats``, is read
    by finite UCB.
    """

    center: np.ndarray
    radius: float
    gram: np.ndarray
    arm_solves: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.radius) or self.radius < 0:
            raise ValueError("radius must be finite and non-negative")

    @classmethod
    def from_stats(cls, gram, moment, beta, arms=None):
        """The set of radius ``beta`` around the ridge estimate solving
        gram @ theta = moment for every agent. Given finite ``arms`` (K, d),
        their solves come from the center's ``potrs`` call. Raises ValueError
        when a solve leaves a large residual."""
        columns = np.zeros((moment.shape[-1], 0)) if arms is None else np.asarray(arms, float).T
        center, arm_solves = _solve_with_columns(cho_factor(gram), moment, columns)
        # hypot norms do not overflow for entries past sqrt(float max)
        residual = np.hypot.reduce(_matvec(gram, center) - moment, axis=-1)
        bound = 1e-8 * np.maximum(1.0, np.hypot.reduce(moment, axis=-1))
        if np.any(residual > bound):
            raise ValueError(f"ill-conditioned solve, residual {np.max(residual):.3e}")
        return cls(center=center, radius=beta, gram=gram,
                   arm_solves=None if arms is None else arm_solves)


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


def ucb_select_finite(arms, cs, scale=1.0, certified=None):
    """Optimistic argmax over a finite arm list, ties broken by lowest index.

    Returns, for every agent of ``cs``, (arm index, optimistic value) for the
    score <theta_hat, x> + scale * radius * ||x||_{A^-1}. ``certified``, a
    boolean mask over the arms (per agent), restricts the argmax to the arms
    it marks; an agent with none gets index 0 and value -inf. The arm solves
    are read from ``cs``, which ``from_stats`` must have built with the arms.
    """
    arms = np.atleast_2d(np.asarray(arms, dtype=float))
    if arms.shape[0] == 0:
        raise ValueError("empty arm set")
    solved = cs.arm_solves
    if solved is None or solved.shape[-1] != arms.shape[0]:
        raise ValueError(f"the set holds no solves of these {arms.shape[0]} arms: "
                         "build it with ConfidenceSet.from_stats(..., arms)")
    norms = np.sqrt(np.maximum(np.einsum("kd,...dk->...k", arms, solved), 0.0))
    scores = _matvec(arms, cs.center) + scale * cs.radius * norms
    if certified is not None:
        scores = np.where(certified, scores, -np.inf)
    return np.argmax(scores, axis=-1), np.max(scores, axis=-1)


def inv_sqrt_psd(mat):
    """Symmetric inverse square root of every matrix of a stack, via one
    batched eigendecomposition."""
    vals, vecs = np.linalg.eigh(mat)
    if not vals.min() > 1e-12:  # also catches a NaN eigenvalue
        raise ValueError("matrix not positive-definite within tolerance")
    return (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)


def ucb_select_box(cs, scale=1.0):
    """Optimistic maximizer of <theta_hat, x> + scale * radius * ||A^{-1/2} x||_inf
    over the box [-1, 1]^d, for every agent of ``cs``.

    The sup-norm bonus is a max of 2d linear functions, each maximized at a sign
    vector, so enumerating the 2d candidates is exact. The l1-ball confidence
    set that contains the ellipsoid (Dani, Hayes & Kakade, COLT 2008) is
    ``scale`` = sqrt(d) times wider; the simulator passes that scale.
    """
    step = scale * cs.radius * np.swapaxes(inv_sqrt_psd(cs.gram), -1, -2)
    center = cs.center[..., None, :]
    candidates = np.concatenate([center + step, center - step], axis=-2)
    values = np.abs(candidates).sum(axis=-1)
    best = np.argmax(values, axis=-1)[..., None, None]
    x = np.where(np.take_along_axis(candidates, best, axis=-2)[..., 0, :] >= 0.0, 1.0, -1.0)
    return x, np.max(values, axis=-1)


def greedy_box(theta):
    """Box maximizer of a linear objective; zero coordinates map to +1."""
    return np.where(np.asarray(theta) >= 0.0, 1.0, -1.0)


def ts_perturb(cs, rngs):
    """Posterior-style perturbation theta_hat + radius * A^{-1/2} rho, rho ~ N(0, I),
    for every agent of the stack ``cs``.

    ``rngs`` holds one generator per agent; every agent draws its rho from
    its own.
    """
    root = inv_sqrt_psd(cs.gram)
    rho = np.stack([r.standard_normal(cs.center.shape[-1]) for r in rngs])
    return cs.center + _matvec(cs.radius * root, rho)


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

    def shifted_feedback(self, actions, z):
        """Remove the known component of the (N,) safety measurements of the
        (N, d) plays along x0."""
        if self.is_zero:
            return z
        coef = (actions[:, None, :] @ self.x0_unit[:, None])[:, 0, 0]
        return z - (coef / self.norm_x0) * self.c0


def safe_filter(arms, gram, safety, beta, geo):
    """Mask of the arms certified safe by the conservative inner approximation,
    for every agent's Gram matrix and safety moment.

    The constraint is estimated on the safe direction's complement B = basis:
    mu_hat = B (B^T gram B)^-1 B^T safety, where B^T gram B equals the Gram
    matrix of the projected actions. An arm passes when its known value along
    the safe direction, <mu_hat, x> and the bonus beta ||B^T x|| under that
    inverse jointly stay below the constraint level. B^T safety and B^T x for
    every arm x are solved in one ``potrs`` call per agent.
    """
    arms = np.atleast_2d(np.asarray(arms, dtype=float))
    basis = geo.basis
    factor = cho_factor(basis.T @ gram @ basis)
    reduced = basis.T @ arms.T
    nu_hat, solved = _solve_with_columns(factor, _matvec(basis.T, safety), reduced)
    mu_hat = _matvec(basis, nu_hat)
    if geo.is_zero:
        proj_term = np.zeros(arms.shape[0])
    else:
        proj_term = (arms @ geo.x0_unit / geo.norm_x0) * geo.c0
    norms = np.sqrt(np.maximum(np.einsum("dk,...dk->...k", reduced, solved), 0.0))
    values = proj_term + _matvec(arms, mu_hat) + beta * norms
    return values <= geo.c


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
