"""Confidence ellipsoids, regularized least squares, UCB/TS selection, and
safe-set geometry over finite and box decision sets.

Estimation and selection take a leading agent axis: Gram matrices (N, d, d)
with moments (N, d) select for N agents in one call, and a single (d, d)
Gram matrix is the zero-batch case of the same code. Each agent's slice of a
stacked result is bit-identical to the same call on that agent alone.

Ridge solves take one of two paths, by decision set:

- Finite arms: one batched ``np.linalg.cholesky`` checks that every Gram
  matrix is positive-definite, and one batched inverse times [moment | arms]
  gives the center and the arm solves that finite UCB and the safe filter
  read. Every agent is solved in the same few numpy calls. A caller that
  keeps the inverses itself, as ``rc_dlucb``'s agents do by rank-one
  updates, supplies them, and the Cholesky check is then the round's only
  LAPACK call.
- The box: one LAPACK ``posv`` per matrix, in place, which runs the
  ``potrf`` and ``potrs`` that ``scipy.linalg.cho_factor`` and
  ``cho_solve`` call: the factor in a column-major copy, the moment in a
  copy. Box UCB's candidates tie in exact arithmetic after round 1, and
  which of them ``argmax`` picks rests on these solves' rounding, so they
  stay bitwise until a tie rule breaks the ties. No run imports the
  ``scipy.linalg`` package: the first box solve loads only its LAPACK
  extension (about 3 MB), and finite-arm runs load neither.

Eigendecompositions are batched ``np.linalg`` calls, and every
matrix-vector product is a stacked ``np.matmul`` against a trailing
(..., d, 1) column, which runs each slice through the same BLAS call as the
unbatched product.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np


def _matvec(mats, vecs):
    """``mats @ v`` for every vector v on the last axis of ``vecs``."""
    return (mats @ vecs[..., None])[..., 0]


def scipy_lapack():
    """scipy's LAPACK extension ``scipy.linalg._flapack``, which the box path
    solves with, loaded on the first call.

    Only the extension is loaded, not the ``scipy.linalg`` package: it adds
    about 3 MB to a process where the package adds about 25 MB and 0.2-0.4 s
    (2-vCPU Xeon host). The module is registered in ``sys.modules`` under
    its own name, so a later ``import scipy.linalg`` reuses it, and its
    ``dposv`` is the very function ``scipy.linalg.lapack`` exports. Raises
    ImportError if scipy's ``linalg`` directory holds no such extension.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    where = os.path.join(scipy.__path__[0], "linalg")
    spec = FileFinder(where, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} extension in {where}", name=name)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def cho_factor(mats, rhs):
    """Solve A x = b for every positive-definite matrix A of a stack
    (..., d, d) and its right-hand side b, a (..., d) stack.

    One LAPACK ``posv`` per matrix runs the ``potrf`` and ``potrs`` that
    ``scipy.linalg.cho_factor`` and ``cho_solve`` call, so every solution
    equals theirs bit for bit. It factors a column-major copy of the
    matrix, reading only its lower triangle, and solves over a C-contiguous
    copy of ``rhs``; neither input is written. The name outlives the
    returned factor because the benchmark's tracer counts calls to it.
    Raises ValueError if an entry is not finite or a matrix is not
    positive-definite.
    """
    mats = np.asarray_chkfinite(mats, dtype=float)
    factors = np.empty(mats.shape).swapaxes(-1, -2)
    factors[...] = mats
    out = np.asarray_chkfinite(rhs, dtype=float).copy()
    if out.size == 0:  # an empty stack, or d = 0
        return out
    d = mats.shape[-1]
    # f2py would solve silent copies of a matrix that is not F-contiguous;
    # every matrix of the buffer is, so posv overwrites it and its moment
    lapack = scipy_lapack()
    info = max(lapack.dposv(f, o, lower=1, overwrite_a=1, overwrite_b=1)[2]
               for f, o in zip(factors.reshape(-1, d, d), out.reshape(-1, d), strict=True))
    if info > 0:
        raise ValueError("Gram matrix is not positive-definite")
    return out


def _solve_finite(gram, moment, arms, inverse=None):
    """Solutions of gram @ X = [moment | arms^T] for every Gram matrix of the
    stack: the moment's, a contiguous (..., d) array, and the (K, d) arms',
    a (..., d, K) stack of column-major matrices, the layout that fixes the
    order in which reductions over them sum.

    One batched ``np.linalg.cholesky`` checks that every matrix is
    positive-definite; one batched inverse, or the given ``inverse`` of
    ``gram``, and one product give the solutions. Raises ValueError like
    ``cho_factor``.
    """
    gram = np.asarray_chkfinite(gram, dtype=float)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise ValueError("Gram matrix is not positive-definite") from None
    rhs = np.empty(moment.shape[:-1] + (1 + len(arms), moment.shape[-1]))
    rhs[..., 0, :] = moment
    rhs[..., 1:, :] = arms
    rhs = np.asarray_chkfinite(rhs)
    # row k of rhs @ inverse^T is inverse @ rhs[k]: the solutions lie
    # along the rows, which makes the arms' (d, K) solves column-major
    if inverse is None:
        inverse = np.linalg.inv(gram)
    solved = rhs @ np.swapaxes(inverse, -1, -2)
    return solved[..., 0, :].copy(), np.swapaxes(solved[..., 1:, :], -1, -2)


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
    def from_stats(cls, gram, moment, beta, arms=None, inverse=None):
        """The set of radius ``beta`` around the ridge estimate solving
        gram @ theta = moment for every agent.

        Given finite ``arms`` (K, d), the center and the arms' solves come
        from one batched numpy pass over the stack, which multiplies by
        ``inverse``, the inverses of ``gram``, when given instead of
        inverting. The box (``arms`` None) solves through scipy's ``posv``,
        bitwise as box UCB's ties need (module docstring), and takes no
        inverse. Raises ValueError when a Gram matrix is not
        positive-definite, an input is not finite, or a solve leaves a large
        residual: the checks read ``gram``, not ``inverse``."""
        if arms is None:
            if inverse is not None:
                raise ValueError("the box solves by factoring: give an inverse only with arms")
            center = cho_factor(gram, moment)
            arm_solves = None
        else:
            center, arm_solves = _solve_finite(gram, moment, np.asarray(arms, dtype=float),
                                               inverse)
        # hypot norms do not overflow for entries past sqrt(float max)
        residual = np.hypot.reduce(_matvec(gram, center) - moment, axis=-1)
        bound = 1e-8 * np.maximum(1.0, np.hypot.reduce(moment, axis=-1))
        if np.any(residual > bound):
            raise ValueError(f"ill-conditioned solve, residual {np.max(residual):.3e}")
        return cls(center=center, radius=beta, gram=gram, arm_solves=arm_solves)


def _arm_solves(arms, cs):
    """The (K, d) ``arms`` as floats, and their (..., d, K) solves A^-1 arms^T,
    which ``cs`` holds when ``from_stats`` built it with these arms."""
    arms = np.atleast_2d(np.asarray(arms, dtype=float))
    if arms.shape[0] == 0:
        raise ValueError("empty arm set")
    solved = cs.arm_solves
    if solved is None or solved.shape[-1] != arms.shape[0]:
        raise ValueError(f"the set holds no solves of these {arms.shape[0]} arms: "
                         "build it with ConfidenceSet.from_stats(..., arms)")
    return arms, solved


def ucb_select_finite(arms, cs, scale=1.0, certified=None):
    """Optimistic argmax over a finite arm list, ties broken by lowest index.

    Returns, for every agent of ``cs``, (arm index, optimistic value) for the
    score <theta_hat, x> + scale * radius * ||x||_{A^-1}. ``certified``, a
    boolean mask over the arms (per agent), restricts the argmax to the arms
    it marks; an agent with none gets index 0 and value -inf. The arm solves
    are read from ``cs``, which ``from_stats`` must have built with the arms.
    """
    arms, solved = _arm_solves(arms, cs)
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

    A zero safe action is the degenerate sentinel: the projection onto it
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


def safe_filter(arms, cs, safety, geo):
    """Mask of the arms certified safe by the conservative inner approximation,
    for every agent of ``cs`` and its safety moment.

    The constraint is estimated on the complement B of the safe direction
    (Amani, Alizadeh & Thrampoulidis, NeurIPS 2019): an arm x passes when its
    known value along x0, <mu_hat, x> with mu_hat = B (B^T A B)^-1 B^T safety,
    and radius * ||B^T x|| under (B^T A B)^-1 jointly stay below the
    constraint level. Block inversion gives B (B^T A B)^-1 B^T = A^-1 - w w^T
    / <x0, w> with w = A^-1 x0 (A^-1 for a zero x0). So with alpha =
    <x0, A^-1 x> / <x0, w>, <mu_hat, x> = <A^-1 x, safety> - alpha <w, safety>
    and the squared bonus is <x - alpha x0, A^-1 x - alpha w>, all read from
    the arm solves of ``cs`` (``from_stats`` with the arms): no matrix is
    factored. w is the solve of the arm equal to x0, which a nonzero x0 must
    be; its alpha is 1 and its bonus exactly 0.
    """
    arms, solved = _arm_solves(arms, cs)
    estimate = np.einsum("...dk,...d->...k", solved, safety)
    if geo.is_zero:
        known = 0.0
        width = np.einsum("kd,...dk->...k", arms, solved)
    else:
        match = np.flatnonzero((arms == geo.x0).all(axis=-1))
        if match.size == 0:
            raise ValueError("the safe action x0 is not among the arms")
        j = match[0]
        along = np.einsum("d,...dk->...k", geo.x0, solved)
        alpha = along / along[..., j, None]
        estimate = estimate - alpha * estimate[..., j, None]
        width = np.einsum("...kd,...dk->...k", arms - alpha[..., None] * geo.x0,
                          solved - alpha[..., None, :] * solved[..., j, None])
        known = (arms @ geo.x0_unit / geo.norm_x0) * geo.c0
    values = known + estimate + cs.radius * np.sqrt(np.maximum(width, 0.0))
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
