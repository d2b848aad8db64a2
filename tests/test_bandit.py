import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as scipy_linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipbandits import bandit
from gossipbandits.agents import DlucbAgent, RcDlucbAgent, SafeDlucbAgent
from gossipbandits.bandit import (
    ConfidenceSet,
    SafeGeometry,
    beta_radius,
    cho_factor,
    greedy_box,
    inv_sqrt_psd,
    mixing_delay_pairs,
    safe_filter,
    theoretical_regret_bound,
    ts_perturb,
    ucb_select_box,
    ucb_select_finite,
)
from gossipbandits.config import parse_config
from gossipbandits.sim import _select, build_decision_set
from helpers import (
    complement_basis,
    oracle_center,
    oracle_finite_solves,
    oracle_safe_filter,
    oracle_safe_select,
    oracle_select_box,
    oracle_select_finite,
    oracle_ts_perturb,
    ortho_norm,
)


class ZeroRng:
    def standard_normal(self, n):
        return np.zeros(n)


# ------------------------------------------------------------------ LAPACK stacks

def _laid_out(values, layout, core=2):
    """``values``, a stack of matrices (``core`` 2) or of vectors (``core``
    1), as an array of the given memory layout, and the array that owns its
    memory."""
    if layout == "C":
        owner = np.ascontiguousarray(values)
        return owner, owner
    if layout == "F":
        owner = np.asfortranarray(values)
        return owner, owner
    if layout == "sliced":
        owner = np.zeros(values.shape[:-core] + tuple(2 * n for n in values.shape[-core:]))
        view = owner[..., 1::2, ::2] if core == 2 else owner[..., 1::2]
        view[...] = values
        return view, owner
    # one read-only matrix (vector) repeated along every leading axis
    owner = values[(slice(0, 1),) * (values.ndim - core)].copy()
    return np.broadcast_to(owner, values.shape), owner


@settings(max_examples=150, deadline=None)
@given(lead=st.sampled_from([(), (0,), (1,), (3,), (7,), (2, 3), (3, 1)]), d=st.integers(0, 7),
       layouts=st.tuples(*[st.sampled_from(["C", "F", "sliced", "broadcast"])] * 2),
       seed=st.integers(0, 2**32 - 1))
def test_cho_stack_matches_scipy_per_matrix(lead, d, layouts, seed):
    """Every solution of a stack equals scipy's factor-and-solve on that
    matrix alone, bit for bit, whatever the inputs' layout, and the inputs
    are not written."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal(lead + (d, d + 2))
    gram = m @ np.swapaxes(m, -1, -2) + 0.1 * np.eye(d)
    # posv reads only the lower triangle: junk above it must not matter
    values = np.tril(gram) + np.triu(rng.standard_normal(gram.shape), 1)
    mats, mats_owner = _laid_out(values, layouts[0])
    rhs, rhs_owner = _laid_out(rng.standard_normal(lead + (d,)), layouts[1], core=1)
    before = mats_owner.tobytes(), rhs_owner.tobytes()

    solved = cho_factor(mats, rhs)

    assert (mats_owner.tobytes(), rhs_owner.tobytes()) == before
    assert solved.shape == rhs.shape
    for idx in np.ndindex(lead):
        own = scipy_linalg.cho_factor(np.array(mats[idx]), lower=True)
        expected = scipy_linalg.cho_solve(own, np.array(rhs[idx]))
        assert np.array_equal(solved[idx], expected)


@pytest.mark.parametrize("bad", ["nan", "indefinite"])
@pytest.mark.parametrize("where", [0, 2, -1])
def test_cho_factor_rejects_a_bad_matrix_anywhere_in_the_stack(bad, where):
    mats = np.stack([(1.0 + i) * np.eye(3) for i in range(5)])
    mats[where] = np.nan if bad == "nan" else np.diag([1.0, 1.0, -1.0])
    rhs = np.ones((5, 3))
    before = mats.tobytes(), rhs.tobytes()
    with pytest.raises(ValueError):
        cho_factor(mats, rhs)
    assert (mats.tobytes(), rhs.tobytes()) == before


def test_cho_factor_rejects_a_nan_right_hand_side():
    with pytest.raises(ValueError):
        cho_factor(np.eye(3), np.array([1.0, np.nan, 0.0]))


# Run in a fresh interpreter, where nothing of scipy.linalg is loaded yet,
# with argv[1] naming what loads first: the LAPACK extension alone, through
# scipy_lapack, or the scipy.linalg package
LOAD_ORDER = """
import sys
import numpy as np
from gossipbandits import bandit

name = "scipy.linalg._flapack"
if sys.argv[1] == "package":
    import scipy.linalg
    lapack = bandit.scipy_lapack()
    assert lapack is sys.modules[name] and lapack is scipy.linalg.lapack._flapack
else:
    lapack = bandit.scipy_lapack()
    assert lapack is sys.modules[name] and "scipy.linalg" not in sys.modules
    rng = np.random.default_rng(3)
    m = rng.standard_normal((2, 3, 6, 8))
    mats = m @ m.swapaxes(-1, -2) + 0.1 * np.eye(6)
    rhs = rng.standard_normal((2, 3, 6))
    solved = bandit.cho_factor(mats, rhs)
    assert "scipy.linalg" not in sys.modules
    import scipy.linalg
    assert scipy.linalg.lapack._flapack is lapack
    for idx in np.ndindex(2, 3):
        own = scipy.linalg.cho_factor(mats[idx], lower=True)
        assert np.array_equal(solved[idx], scipy.linalg.cho_solve(own, rhs[idx]))
assert scipy.linalg.lapack.dposv is bandit.scipy_lapack().dposv
print("ok")
"""


@pytest.mark.parametrize("first", ["extension", "package"])
def test_scipy_lapack_is_the_extension_scipy_linalg_uses(first):
    """Whichever loads first, scipy_lapack and scipy.linalg share one
    extension module, and the box solves equal scipy.linalg's bit for bit
    when only the extension was loaded for them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", LOAD_ORDER, first],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]


def test_scipy_lapack_without_the_extension_names_where_it_searched(monkeypatch, tmp_path):
    import scipy

    (tmp_path / "linalg").mkdir()
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        bandit.scipy_lapack()
    assert "scipy.linalg._flapack" not in sys.modules


# ------------------------------------------------------------------ rls

def test_rls_zero_moment():
    cs = ConfidenceSet.from_stats(np.eye(4), np.zeros(4), 0.0)
    assert np.array_equal(cs.center, np.zeros(4))


def test_rls_single_observation():
    x = np.array([1.0, 0, 0])
    cs = ConfidenceSet.from_stats(np.eye(3) + np.outer(x, x), 1.0 * x, 0.0)
    assert np.allclose(cs.center, [0.5, 0, 0], atol=1e-14)


def test_rls_matches_dense_inverse_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        m = rng.standard_normal((5, 5))
        gram = np.eye(5) + m @ m.T
        moment = rng.standard_normal(5)
        center = ConfidenceSet.from_stats(gram, moment, 0.0).center
        oracle = np.linalg.inv(gram) @ moment
        assert np.abs(center - oracle).max() < 1e-10
        assert np.array_equal(center, oracle_center(gram, moment))


def test_rls_rejects_indefinite_gram():
    gram, moment = np.diag([1.0, -1.0]), np.zeros(2)
    with pytest.raises(ValueError):
        ConfidenceSet.from_stats(gram, moment, 0.0)
    with pytest.raises(ValueError):
        oracle_center(gram, moment)


def test_rls_with_a_supplied_inverse():
    # rank-one inverses, whose bits differ from np.linalg.inv's
    rng = np.random.default_rng(11)
    n, d = 6, 4
    agents = RcDlucbAgent(n, d, 1.0, threshold=np.inf)
    for _ in range(40):
        agents.record_play(rng.uniform(-1.0, 1.0, (n, d)), rng.standard_normal(n))
    gram, moment = agents.gram, agents.moment
    arms = rng.standard_normal((7, d))
    plain = ConfidenceSet.from_stats(gram, moment, 0.5, arms)
    given_inverse = ConfidenceSet.from_stats(gram, moment, 0.5, arms, inverse=agents.inverse)
    for ours, theirs in ((given_inverse.center, plain.center),
                         (given_inverse.arm_solves, plain.arm_solves)):
        assert ours.shape == theirs.shape
        assert np.abs(ours - theirs).max() <= 1e-12 * np.abs(theirs).max()
    # the checks read the gram, not the inverse
    for bad in (np.nan, -1.0):
        broken = gram.copy()
        broken[2] = bad * np.eye(d)
        with pytest.raises(ValueError):
            ConfidenceSet.from_stats(broken, moment, 0.5, arms, inverse=agents.inverse)
    with pytest.raises(ValueError, match="only with arms"):
        ConfidenceSet.from_stats(gram, moment, 0.5, inverse=agents.inverse)


def test_stats_require_unit_ridge():
    with pytest.raises(ValueError, match=">= 1"):
        DlucbAgent(np.arange(2), 3, 0.5, 1)


# ------------------------------------------------------------------ beta

def test_beta_noiseless_collapses_to_sqrt_lambda():
    for t in (1, 10, 1000):
        assert beta_radius(t, 5, 20, 1.0, 0.1, 0.0, 1 / 21) == 1.0


def test_beta_reference_value():
    value = beta_radius(1, 5, 20, 1.0, 0.1, 0.1, 1 / 21)
    assert abs(value - 1.646) < 5e-4
    # frozen from an independent transcription of the radius formula
    assert abs(value - 1.6458340939577147) < 1e-12


def test_beta_strictly_increasing():
    params = dict(d=5, n_agents=20, lam=1.0, delta=0.1, sigma=0.1, epsilon=1 / 21)
    ts = np.unique(np.logspace(0, 6, 60).astype(int))
    values = [beta_radius(int(t), **params) for t in ts]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_beta_domain():
    with pytest.raises(ValueError):
        beta_radius(1, 5, 20, 1.0, 1.5, 0.1, 0.5)
    with pytest.raises(ValueError):
        beta_radius(1, 5, 20, 1.0, 0.1, 0.1, 2.0)
    with pytest.raises(ValueError):
        beta_radius(0, 5, 20, 1.0, 0.1, 0.1, 0.5)


# ------------------------------------------------------------------ finite UCB

def finite_set(arms, gram, center, radius):
    """The set ``from_stats`` builds for the moment gram @ center, with the
    arms' solves; an identity ``gram`` keeps ``center`` exactly."""
    return ConfidenceSet.from_stats(gram, gram @ center, radius, arms)


def test_finite_greedy_when_radius_zero():
    arms = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
    cs = finite_set(arms, np.eye(2), np.array([0.2, 0.9]), 0.0)
    idx, value = ucb_select_finite(arms, cs)
    assert idx == int(np.argmax(arms @ cs.center))
    assert abs(value - (arms @ cs.center).max()) < 1e-14


def test_finite_two_arm_hand_example():
    arms = np.array([[1.0, 0.0], [0.0, 1.0]])
    cs = finite_set(arms, np.eye(2), np.array([1.0, 0.0]), 1.0)
    idx, value = ucb_select_finite(arms, cs, scale=1.0)
    assert idx == 0
    assert abs(value - 2.0) < 1e-12


def test_finite_matches_brute_force_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(50):
        k = int(rng.integers(2, 21))
        d = int(rng.integers(2, 6))
        arms = rng.standard_normal((k, d))
        arms /= np.maximum(np.linalg.norm(arms, axis=1, keepdims=True), 1.0)
        m = rng.standard_normal((d, d))
        gram = np.eye(d) + m @ m.T
        center = rng.standard_normal(d)
        beta = float(rng.uniform(0, 2))
        cs = finite_set(arms, gram, center, beta)
        idx, value = ucb_select_finite(arms, cs, scale=1.3)
        inv = np.linalg.inv(gram)
        scores = arms @ cs.center + 1.3 * beta * np.sqrt(np.einsum("kd,de,ke->k", arms, inv, arms))
        assert idx == int(np.argmax(scores))
        assert abs(value - scores.max()) < 1e-10


def test_finite_ties_break_to_lowest_index():
    arms = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    cs = finite_set(arms, np.eye(2), np.array([1.0, 0.0]), 0.5)
    idx, _ = ucb_select_finite(arms, cs)
    assert idx == 0


def test_finite_round_one_scores_tie_to_the_last_bits():
    """In round 1 every learner holds lam * I and a zero moment, so a score is
    beta * ||x|| / sqrt(lam); the 20 unit arms drawn at d = 5 have norms equal
    in exact arithmetic, and their scores differ only by rounding, within 8
    ulps of the largest: argmax picks among them by rounding alone."""
    for arm_seed in range(4):
        config = parse_config({"topology": "ring", "N": 5, "d": 5, "T": 10, "algorithm": "dlucb",
                               "decision_set": {"variant": "finite", "num_arms": 20,
                                                "arm_seed": arm_seed}})
        arms = build_decision_set(config)
        k, d = arms.shape
        beta = beta_radius(1, d, 5, config.lam, config.delta, config.sigma, config.epsilon)
        # learner j may play arm j alone, so its value is arm j's score
        cs = ConfidenceSet.from_stats(np.broadcast_to(config.lam * np.eye(d), (k, d, d)),
                                      np.zeros((k, d)), beta, arms)
        _, scores = ucb_select_finite(arms, cs, certified=np.eye(k, dtype=bool))
        top = scores.max()
        assert np.all(top - scores <= 8 * np.spacing(top))
        assert len(np.unique(scores)) > 1


def test_finite_argmax_invariances():
    rng = np.random.default_rng(12)
    arms = rng.standard_normal((8, 3)) * 0.5
    gram = np.eye(3) * 2.0
    center = rng.standard_normal(3)
    cs = finite_set(arms, gram, center, 0.7)
    idx, _ = ucb_select_finite(arms, cs)
    # joint positive rescaling of (center, radius) preserves the argmax
    cs2 = finite_set(arms, gram, 3.0 * center, 2.1)
    idx2, _ = ucb_select_finite(arms, cs2)
    assert idx == idx2
    # adding a constant to every arm's score preserves the argmax
    inv = np.linalg.inv(gram)
    scores = arms @ cs.center + 0.7 * np.sqrt(np.einsum("kd,de,ke->k", arms, inv, arms))
    assert int(np.argmax(scores)) == int(np.argmax(scores + 11.0)) == idx


def test_finite_arm_solves_belong_to_their_arms():
    rng = np.random.default_rng(13)
    arms = 0.4 * rng.standard_normal((6, 3))
    m = rng.standard_normal((4, 3, 5))
    gram, moment = np.eye(3) + m @ np.swapaxes(m, -1, -2), rng.standard_normal((4, 3))
    cs = ConfidenceSet.from_stats(gram, moment, 0.8, arms=arms)
    assert cs.arm_solves.shape == (4, 3, 6)
    with pytest.raises(ValueError, match="no solves of these 5 arms"):
        ucb_select_finite(arms[:5], cs)
    # finite UCB reads the solves only from a set built with its arms. The
    # box path solves the same center with scipy's LAPACK, the finite one
    # with numpy's
    plain = ConfidenceSet.from_stats(gram, moment, 0.8)
    assert plain.arm_solves is None
    assert np.abs(plain.center - cs.center).max() <= 1e-12 * np.abs(plain.center).max()
    with pytest.raises(ValueError, match="no solves of these 6 arms"):
        ucb_select_finite(arms, plain)


# ------------------------------------------------------------------ box UCB

def test_box_greedy_when_radius_zero():
    cs = ConfidenceSet(center=np.array([0.3, -0.2, 0.0]), radius=0.0, gram=np.eye(3))
    x, value = ucb_select_box(cs)
    assert np.array_equal(x, [1.0, -1.0, 1.0])
    assert abs(value - 0.5) < 1e-14


def test_box_hand_example():
    # identity gram, radius 0.5 widened by sqrt(2): the best candidates lie
    # along the sign vector of theta, at ||theta||_1 + sqrt(2) * 0.5
    cs = ConfidenceSet(center=np.array([0.6, -0.2]), radius=0.5, gram=np.eye(2))
    x, value = ucb_select_box(cs)
    assert np.array_equal(x, [1.0, -1.0])
    assert abs(value - (0.8 + 0.5 * math.sqrt(2.0))) < 1e-12


def test_box_matches_lattice_oracle():
    rng = np.random.default_rng(13)
    for d in (1, 2, 3):
        for _ in range(6):
            m = rng.standard_normal((d, d))
            gram = np.eye(d) + m @ m.T
            center = rng.standard_normal(d)
            radius = float(rng.uniform(0.1, 1.5))
            cs = ConfidenceSet(center=center, radius=radius, gram=gram)
            x, value = ucb_select_box(cs)
            vals, vecs = np.linalg.eigh(gram)
            root = (vecs / np.sqrt(vals)) @ vecs.T
            axes = [np.linspace(-1, 1, 41)] * d
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
            objective = grid @ center + math.sqrt(d) * radius * np.abs(grid @ root.T).max(axis=1)
            # the maximizer sits at a corner, which the lattice contains
            assert value >= objective.max() - 1e-9
            assert abs(value - objective.max()) < 1e-9
            assert np.all(np.abs(x) == 1.0)


# ------------------------------------------------------------------ TS perturbation

def test_ts_zero_noise_returns_center():
    cs = ConfidenceSet(center=np.array([[0.4, -0.1]]), radius=2.0, gram=np.eye(2)[None])
    assert np.array_equal(ts_perturb(cs, [ZeroRng()]), cs.center)


def test_ts_reproducible_given_seed():
    cs = ConfidenceSet(center=np.zeros((1, 3)), radius=1.0, gram=np.eye(3)[None] * 2)
    a = ts_perturb(cs, [np.random.default_rng(5)])
    b = ts_perturb(cs, [np.random.default_rng(5)])
    assert np.array_equal(a, b)


def test_ts_covariance_monte_carlo():
    cs = ConfidenceSet(center=np.zeros((1, 2)), radius=1.0, gram=4.0 * np.eye(2)[None])
    rng = np.random.default_rng(6)
    draws = np.concatenate([ts_perturb(cs, [rng]) for _ in range(100_000)])
    cov = np.cov(draws.T)
    assert np.abs(cov - 0.25 * np.eye(2)).max() < 0.05 * 0.25
    # R rho draws the covariance radius^2 R R^T. On 4I the roots A^-1/2,
    # L^-T and L^-1 (A = L L^T) all give radius^2 A^-1; on a skewed A, L^-1
    # is 25% off it and R = A^-1 161% off. 100,000 learners share one
    # generator
    n, center, radius = 100_000, np.array([0.3, -0.2]), 0.7
    gram = np.array([[4.0, 1.5], [1.5, 1.0]])
    cs = ConfidenceSet(center=np.tile(center, (n, 1)), radius=radius,
                       gram=np.broadcast_to(gram, (n, 2, 2)))
    draws = ts_perturb(cs, [np.random.default_rng(7)] * n)
    expected = radius**2 * np.linalg.inv(gram)
    assert np.abs(np.cov(draws.T) - expected).max() < 0.03 * np.abs(expected).max()
    assert np.abs(draws.mean(axis=0) - center).max() < 0.01


# ------------------------------------------------------------------ safe geometry

def test_projection_splits():
    geo = SafeGeometry(x0=np.array([1.0, 0.0]), c0=0.0, c=0.5)
    basis = complement_basis(geo)
    # the complement projector B B^T splits off the safe direction
    assert np.allclose(basis @ basis.T @ np.array([3.0, 4.0]), [0.0, 4.0])
    assert np.allclose(basis @ basis.T @ geo.x0, 0.0)
    assert np.allclose(basis @ basis.T @ np.array([0.0, 2.0]), [0.0, 2.0])
    rng = np.random.default_rng(13)
    for d in range(2, 7):
        geo = SafeGeometry(x0=rng.standard_normal(d), c0=0.0, c=1.0)
        basis = complement_basis(geo)
        assert basis.shape == (d, d - 1)
        assert np.allclose(basis.T @ basis, np.eye(d - 1), atol=1e-12)
        assert np.abs(basis.T @ geo.x0_unit).max() < 1e-12
        x = rng.standard_normal(d)
        x_par = (x @ geo.x0_unit) * geo.x0_unit
        assert np.allclose(x_par + basis @ basis.T @ x, x, atol=1e-12)


def test_projection_zero_sentinel():
    geo = SafeGeometry(x0=np.zeros(3), c0=0.0, c=0.4)
    x = np.array([0.1, -0.2, 0.3])
    assert np.array_equal(geo.x0_unit, np.zeros(3))
    assert np.array_equal(complement_basis(geo), np.eye(3))
    assert np.array_equal(complement_basis(geo) @ complement_basis(geo).T @ x, x)


def test_kappa_r_values():
    assert SafeGeometry(x0=np.zeros(2), c0=-1.0, c=1.0).kappa_r == 2.0
    assert SafeGeometry(x0=np.zeros(2), c0=0.0, c=0.5).kappa_r == 5.0
    with pytest.raises(ValueError):
        SafeGeometry(x0=np.zeros(2), c0=0.5, c=0.5)


def test_ortho_stats_annihilate_safe_direction():
    geo = SafeGeometry(x0=np.array([0.6, 0.8, 0.0]), c0=0.0, c=0.5)
    gram = np.eye(3)
    basis = complement_basis(geo)
    reduced = basis.T @ gram @ basis
    assert np.linalg.eigvalsh(reduced).min() >= 1.0 - 1e-12
    # plays along the safe direction carry no constraint information
    along = basis.T @ (gram + 7.0 * np.outer(geo.x0, geo.x0)) @ basis
    assert np.abs(along - reduced).max() < 1e-12


def test_ortho_norm_basics():
    geo = SafeGeometry(x0=np.array([1.0, 0.0]), c0=0.0, c=0.5)
    assert ortho_norm(np.zeros(2), np.eye(2), geo) == 0.0
    assert abs(ortho_norm(np.array([0.0, 1.0]), np.eye(2), geo) - 1.0) < 1e-12
    with pytest.raises(ValueError, match="orthogonal"):
        ortho_norm(np.array([1.0, 1.0]), np.eye(2), geo)


def test_ortho_norm_dominated_by_full_norm():
    # restricted-complement norms never exceed the full-Gram norms of the
    # same statistics
    rng = np.random.default_rng(14)
    for _ in range(100):
        d = int(rng.integers(2, 6))
        x0 = rng.standard_normal(d)
        geo = SafeGeometry(x0=x0, c0=0.0, c=1.0)
        gram = np.eye(d)
        for _ in range(int(rng.integers(1, 30))):
            x = rng.standard_normal(d)
            x /= max(1.0, np.linalg.norm(x))
            gram += np.outer(x, x)
        probe = rng.standard_normal(d)
        probe /= np.linalg.norm(probe)
        probe_perp = probe - (probe @ geo.x0_unit) * geo.x0_unit
        lhs = ortho_norm(probe_perp, gram, geo)
        rhs = math.sqrt(probe @ np.linalg.inv(gram) @ probe)
        assert lhs <= rhs + 1e-12


def test_safe_filter_always_keeps_safe_action():
    geo = SafeGeometry(x0=np.array([1.0, 0.0]), c0=0.1, c=0.5)
    arms = np.array([[1.0, 0.0], [0.0, 1.0], [0.3, 0.9]])
    cs = ConfidenceSet.from_stats(np.eye(2), np.zeros(2), 100.0, arms)
    keep = np.flatnonzero(safe_filter(arms, cs, np.zeros(2), geo))
    assert 0 in keep
    # an enormous radius certifies only actions with no orthogonal component
    assert list(keep) == [0]


def test_safe_filter_hand_example():
    geo = SafeGeometry(x0=np.array([1.0, 0.0]), c0=0.0, c=0.5)
    gram = np.eye(2) + np.diag([0.0, 15.0])  # well-explored orthogonal direction
    safety = np.array([2.0, 6.4])  # mu_hat = (0, 6.4 / 16): the x0 entry drops out
    mu_hat = np.array([0.0, 0.4])
    arms = np.array([
        [1.0, 0.0],    # x0 itself -> value c0 = 0
        [0.0, 1.0],    # 0.4 + beta/4 = 0.525 > 0.5
        [0.0, 0.5],    # 0.2 + beta/8 = 0.2625 <= 0.5
        [0.0, -1.0],   # -0.4 + 0.125 <= 0.5
        [0.5, 0.5],    # 0.2 + 0.0625 <= 0.5
    ])
    cs = ConfidenceSet.from_stats(gram, np.zeros(2), 0.5, arms)
    keep = np.flatnonzero(safe_filter(arms, cs, safety, geo))
    values = []
    for arm in arms:
        perp = arm - (arm @ geo.x0_unit) * geo.x0_unit
        values.append(float(arm @ geo.x0_unit) / geo.norm_x0 * geo.c0
                      + mu_hat @ perp + 0.5 * ortho_norm(perp, gram, geo))
    expected = [k for k, v in enumerate(values) if v <= geo.c]
    assert list(keep) == expected == [0, 2, 3, 4]


def test_safe_filter_monotone_in_beta():
    rng = np.random.default_rng(15)
    geo = SafeGeometry(x0=np.zeros(3), c0=0.0, c=0.6)
    gram = np.eye(3)
    safety = np.zeros(3)
    for _ in range(20):
        x = rng.standard_normal(3) * 0.4
        z = float(rng.standard_normal())
        gram += np.outer(x, x)
        safety += z * x
    arms = rng.standard_normal((12, 3))
    arms /= np.maximum(np.linalg.norm(arms, axis=1, keepdims=True), 1.0)
    previous = None
    for beta in (3.0, 1.0, 0.3, 0.0001):
        cs = ConfidenceSet.from_stats(gram, np.zeros(3), beta, arms)
        keep = set(np.flatnonzero(safe_filter(arms, cs, safety, geo)).tolist())
        if previous is not None:
            assert previous <= keep  # shrinking beta never removes arms
        previous = keep


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 6), zero_x0=st.booleans(), seed=st.integers(0, 2**32 - 1),
       n_warmup=st.integers(0, 8), n_slots=st.integers(0, 4))
def test_restricted_statistics_match_projected_replay(d, zero_x0, seed, n_warmup, n_slots):
    # rebuild the complement statistics of the projected actions independently,
    # lam (I - u u^T) + sum x_perp x_perp^T and the moment sum z x_perp:
    # warm-up plays first, dropped at the reset of round S + 1, then absorbed
    # mixed slots
    rng = np.random.default_rng(seed)
    n, lam = 3, 1.0
    x0 = np.zeros(d) if zero_x0 else rng.standard_normal(d)
    x0 *= rng.uniform(0.1, 1.0) / max(np.linalg.norm(x0), 1e-300)
    geo = SafeGeometry(x0=x0, c0=0.0 if zero_x0 else float(rng.uniform(-0.3, 0.3)), c=0.5)
    # n agents that all play and receive the same: row 0 is the agent checked
    agent = SafeDlucbAgent(np.arange(n), d, lam, s_rounds=n_warmup)
    unit = geo.x0_unit
    projector = np.eye(d) - np.outer(unit, unit)
    gram_perp = lam * projector
    moment_perp = np.zeros(d)
    for t in range(1, n_warmup + 1):
        x = rng.uniform(-1.0, 1.0, d) / math.sqrt(d)
        z = float(rng.standard_normal())
        agent.finish_round(t, np.tile(x, (n, 1)), np.full(n, float(rng.standard_normal())),
                           np.full(n, z))
        gram_perp += np.outer(projector @ x, projector @ x)
        moment_perp += z * (projector @ x)
    gram_perp, moment_perp = lam * projector, np.zeros(d)
    for k in range(max(n_slots, 1)):
        slot = rng.standard_normal((n, d + 2)) / n if k < n_slots else None
        agent.begin_round(n_warmup + 1 + k, None if slot is None else np.stack([slot] * n))
        if slot is not None:
            perp = slot[:, :d] @ projector
            gram_perp += n**2 * perp.T @ perp
            moment_perp += n**2 * perp.T @ slot[:, d + 1]

    basis = complement_basis(geo)
    old = np.linalg.cholesky(basis.T @ gram_perp @ basis)
    new = np.linalg.cholesky(basis.T @ agent.gram[0] @ basis)
    assert np.abs(new - old).max() <= 1e-10 * np.abs(old).max()

    arms = rng.standard_normal((15, d))
    arms *= rng.uniform(0.0, 1.0, (15, 1)) / np.linalg.norm(arms, axis=1, keepdims=True)
    if not zero_x0:  # the filter reads the safe action's solve
        arms = np.vstack([arms, x0])
    beta = float(rng.uniform(0.0, 2.0))
    # the filter on projected arms against the projected statistics
    reduced = np.linalg.cholesky(basis.T @ gram_perp @ basis)
    mu_perp = basis @ np.linalg.solve(basis.T @ gram_perp @ basis, basis.T @ moment_perp)
    perp_arms = arms @ projector
    widths = np.linalg.solve(reduced, basis.T @ perp_arms.T)
    values = ((arms @ unit) / max(geo.norm_x0, 1e-300) * geo.c0 + perp_arms @ mu_perp
              + beta * np.sqrt((widths**2).sum(axis=0)))
    expected = np.flatnonzero(values <= geo.c)
    cs = ConfidenceSet.from_stats(agent.gram[0], agent.moment[0], beta, arms)
    keep = np.flatnonzero(safe_filter(arms, cs, agent.safety[0], geo))
    assert np.array_equal(keep, expected)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 20), d=st.integers(1, 7), k=st.integers(1, 20),
       zero_x0=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_safe_filter_from_arm_solves_matches_projected_oracle(n, d, k, zero_x0, seed):
    """Read from the arm solves, the filter certifies for every agent exactly
    the arms the projected estimator's own factorization certifies, gives the
    safe action a bonus of exactly 0, and needs a nonzero safe action among
    the arms."""
    rng = np.random.default_rng(seed)
    plays = rng.uniform(-1.0, 1.0, (n, int(rng.integers(0, 30)), d))
    grams = np.eye(d) + np.einsum("npd,npe->nde", plays, plays)
    safety = rng.standard_normal((n, d))
    x0 = np.zeros(d) if zero_x0 else rng.standard_normal(d)
    x0 *= rng.uniform(0.1, 1.0) / max(np.linalg.norm(x0), 1e-300)
    geo = SafeGeometry(x0=x0, c0=0.0 if zero_x0 else float(rng.uniform(-0.3, 0.3)), c=0.5)
    others = rng.standard_normal((k, d))
    others *= rng.uniform(0.0, 1.0, (k, 1)) / np.linalg.norm(others, axis=1, keepdims=True)
    j = int(rng.integers(0, k + 1))
    arms = np.insert(others, j, x0, axis=0)
    beta = float(rng.uniform(0.0, 3.0))

    def certify(arm_set, radius):
        cs = ConfidenceSet.from_stats(grams, np.zeros((n, d)), radius, arm_set)
        return safe_filter(arm_set, cs, safety, geo)

    certified = certify(arms, beta)
    for i in range(n):
        keep = oracle_safe_filter(arms, grams[i], safety[i], beta, geo)
        assert np.array_equal(np.flatnonzero(certified[i]), keep)
    # any positive bonus times this radius exceeds the constraint level
    assert certify(arms, 1e300)[:, j].all()
    if not zero_x0:
        with pytest.raises(ValueError, match="safe action"):
            certify(others, beta)


# ------------------------------------------------------------------ batched selection

@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 60), d=st.integers(1, 7), k=st.integers(1, 20),
       zero_x0=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_batched_selection_matches_per_agent_oracle(n, d, k, zero_x0, seed):
    """Every agent's slice of a stacked selection equals the unbatched code's
    result on that agent alone, bit for bit."""
    rng = np.random.default_rng(seed)
    plays = rng.uniform(-1.0, 1.0, (n, int(rng.integers(0, 30)), d))
    grams = np.eye(d) + np.einsum("npd,npe->nde", plays, plays)
    moments = 3.0 * rng.standard_normal((n, d))
    safety = rng.standard_normal((n, d))
    arms = rng.standard_normal((k, d))
    arms *= rng.uniform(0.0, 1.0, (k, 1)) / np.linalg.norm(arms, axis=1, keepdims=True)
    beta = float(rng.uniform(0.0, 3.0))
    x0 = np.zeros(d) if zero_x0 else 0.3 * rng.standard_normal(d)
    geo = SafeGeometry(x0=x0, c0=0.0 if zero_x0 else float(rng.uniform(-0.3, 0.3)), c=0.5)
    if not zero_x0:  # the safe filter reads the safe action's solve
        arms = np.vstack([arms, x0])
    streams = rng.integers(0, 2**32, n)

    cs = ConfidenceSet.from_stats(grams, moments, beta)
    # the center and the arms solved together, by numpy for the whole stack
    merged = ConfidenceSet.from_stats(grams, moments, beta, arms=arms)
    finite_idx, finite_value = ucb_select_finite(arms, merged, scale=1.3)
    box_x, box_value = ucb_select_box(cs)
    tilde = ts_perturb(cs, [np.random.default_rng(s) for s in streams])
    certified = safe_filter(arms, merged, safety, geo)
    agents = SimpleNamespace(gram=grams, moment=moments, safety=safety, inverse=None)
    safe_plays = _select(agents, beta, arms, geo, None)
    for i in range(n):
        center = oracle_center(grams[i], moments[i])
        assert np.array_equal(cs.center[i], center)
        finite_center, solved = oracle_finite_solves(grams[i], moments[i], arms)
        assert np.array_equal(merged.center[i], finite_center)
        assert np.array_equal(merged.arm_solves[i], solved)
        # numpy's solves against scipy's Cholesky solves
        factor = scipy_linalg.cho_factor(grams[i], lower=True)
        for ours, theirs in ((finite_center, center),
                             (solved, scipy_linalg.cho_solve(factor, arms.T))):
            assert np.abs(ours - theirs).max() <= 1e-12 * np.abs(theirs).max()
        idx, value = oracle_select_finite(arms, grams[i], moments[i], beta, scale=1.3)
        assert finite_idx[i] == idx and finite_value[i] == value
        x, value = oracle_select_box(grams[i], center, beta, scale=math.sqrt(d))
        assert np.array_equal(box_x[i], x) and box_value[i] == value
        own = np.random.default_rng(streams[i])
        assert np.array_equal(tilde[i], oracle_ts_perturb(grams[i], center, beta, own))
        keep = oracle_safe_filter(arms, grams[i], safety[i], beta, geo)
        assert np.array_equal(np.flatnonzero(certified[i]), keep)
        played = oracle_safe_select(arms, grams[i], safety[i], moments[i], beta, geo)
        assert np.array_equal(safe_plays[i], played)


@pytest.mark.parametrize("bad", ["nan", "indefinite"])
def test_one_bad_agent_fails_the_whole_stack(bad):
    n, d = 5, 3
    grams = np.stack([(1.0 + i) * np.eye(d) for i in range(n)])
    grams[3] = np.nan if bad == "nan" else np.diag([1.0, -1.0, 1.0])
    arms = np.eye(d)
    geo = SafeGeometry(x0=np.zeros(d), c0=0.0, c=0.5)
    for with_arms in (None, arms):
        with pytest.raises(ValueError):
            ConfidenceSet.from_stats(grams, np.ones((n, d)), 1.0, with_arms)
    with pytest.raises(ValueError):  # raised by from_stats: the filter factors nothing
        safe_filter(arms, ConfidenceSet.from_stats(grams, np.ones((n, d)), 1.0, arms),
                    np.zeros((n, d)), geo)
    with pytest.raises(ValueError):
        inv_sqrt_psd(grams)
    cs = ConfidenceSet(center=np.zeros((n, d)), radius=1.0, gram=grams)
    with pytest.raises(ValueError):
        ts_perturb(cs, [np.random.default_rng(i) for i in range(n)])
    with pytest.raises(ValueError):
        ucb_select_box(cs)


# ------------------------------------------------------------------ bounds

def test_bound_zero_horizon():
    for variant in ("dlucb", "rc_dlucb"):
        assert theoretical_regret_bound(variant, s_rounds=5, d=5, n_agents=20, horizon=0,
                                        lam=1.0, delta=0.1, sigma=0.1, epsilon=0.01) == 0.0


def test_bound_frozen_reference_value():
    # regression constant computed once from an independent transcription
    value = theoretical_regret_bound("dlucb", s_rounds=26, d=5, n_agents=20, horizon=1000,
                                     lam=1.0, delta=0.1, sigma=0.1, epsilon=1 / 21)
    assert abs(value / 15358.317118070272 - 1.0) < 1e-9


def test_safe_bound_second_term_ratio_is_kappa():
    params = dict(s_rounds=8, d=4, n_agents=6, horizon=500, lam=1.0, delta=0.1,
                  sigma=0.1, epsilon=1 / 18)
    first = 2.0 * mixing_delay_pairs(8, 4, 6, 500, 1.0)
    plain = theoretical_regret_bound("dlucb", **params)
    for kappa in (2.0, 5.0):
        safe = theoretical_regret_bound("safe_dlucb", kappa_r=kappa, **params)
        assert abs((safe - first) / (plain - first) - kappa) < 1e-12


def test_bound_epsilon_domains():
    common = dict(s_rounds=5, d=5, n_agents=10, horizon=100, lam=1.0, delta=0.1, sigma=0.1)
    with pytest.raises(ValueError):
        theoretical_regret_bound("dlucb", epsilon=0.2, **common)
    with pytest.raises(ValueError):
        theoretical_regret_bound("rc_dlucb", epsilon=1 / 10.9, **common)
    # boundary values are accepted, larger epsilon falls back to the general form
    theoretical_regret_bound("dlucb", epsilon=1 / 21, **common)
    theoretical_regret_bound("rc_dlucb", epsilon=1 / 11, **common)
    loose = theoretical_regret_bound("dlucb", epsilon=0.2, general_form=True, **common)
    tight = theoretical_regret_bound("dlucb", epsilon=1 / 21, **common)
    assert loose > 0 and tight > 0


def test_greedy_box_maps_zeros_up():
    assert np.array_equal(greedy_box(np.array([0.0, -0.3])), [1.0, -1.0])
