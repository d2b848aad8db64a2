"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The statistical criteria
share module-scoped experiment fixtures so the heavyweight runs execute once.
"""

import os
import time

import numpy as np
import pytest

import gossipbandits as gb
from gossipbandits.cli import main as cli_main
from gossipbandits.config import parse_config
from gossipbandits.sim import run_experiment, run_realization

WORKERS = min(4, os.cpu_count() or 1)


def report(num, ok, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {status} ({elapsed:.1f}s) {detail}", flush=True)


# ------------------------------------------------------------------ 1

def test_criterion_1_spectral_constants():
    t0 = time.perf_counter()
    ring = gb.build_comm_matrix(gb.build_topology("ring", 20))
    star = gb.build_comm_matrix(gb.build_topology("star", 20))
    comp = gb.build_comm_matrix(gb.build_topology("complete", 20))
    s_ring = gb.compute_mixing_rounds(20, 1 / 21, ring.lambda2_abs)
    s_star = gb.compute_mixing_rounds(20, 1 / 21, star.lambda2_abs)
    s_comp = gb.compute_mixing_rounds(20, 1 / 21, comp.lambda2_abs)
    elapsed = time.perf_counter() - t0
    ok = (abs(ring.lambda2_abs - 0.9674) <= 5e-4
          and abs(star.lambda2_abs - 0.9500) <= 5e-4
          and (s_ring, s_star, s_comp) == (26, 21, 1)
          and elapsed < 1.0)
    report(1, ok, elapsed,
           f"|l2|: ring {ring.lambda2_abs:.4f}, star {star.lambda2_abs:.4f}; "
           f"S = {s_ring}/{s_star}/{s_comp}")
    assert ok


# ------------------------------------------------------------------ 2

def test_criterion_2_consensus_mixing():
    t0 = time.perf_counter()
    graphs = []
    for kind in ("ring", "star", "path", "complete"):
        for n in (4, 9, 14, 20):
            graphs.append((f"{kind}{n}", gb.build_topology(kind, n)))
    rng = np.random.default_rng(0)
    for i in range(4):
        graphs.append((f"er{i}", gb.build_topology("erdos_renyi", 12, p=0.4, rng=rng)))
    worst = (np.inf, "")
    ok = True
    for name, topo in graphs:
        comm = gb.build_comm_matrix(topo)
        for eps in (0.3, 0.1, 1 / 21):
            plan = gb.MixingPlan(comm, eps)
            gain = comm.n * gb.mixing_polynomial(comm, plan)
            dev = float(np.linalg.norm(gain - 1.0, axis=0).max())
            if eps - dev < worst[0]:
                worst = (eps - dev, f"{name} eps={eps:.4f} dev={dev:.4f} S={plan.s_rounds}")
            ok &= dev <= eps
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(2, ok, elapsed, f"{len(graphs)} graphs x 3 tolerances; tightest: {worst[1]}")
    assert ok


# ------------------------------------------------------------------ 3

def test_criterion_3_gram_sandwich_oracle():
    t0 = time.perf_counter()
    config = parse_config({"topology": "path", "N": 3, "d": 2, "T": 40,
                           "algorithm": "dlucb",
                           "decision_set": {"variant": "finite", "num_arms": 4},
                           "realizations": 1})
    eps = config.epsilon
    lo, hi = (1 - eps) ** 2, (1 + eps) ** 2
    ok = True
    checked = 0
    for seed in range(5):
        rows = []

        def probe(t, info):
            rows.append((t, info["actions"].copy(), list(info["grams"])))

        trace = run_realization(config, master_seed=seed, probe=probe)
        s = trace.s_rounds
        per_round = {t: a for t, a, _ in rows}
        for t, _, grams in rows:
            if t <= s:
                continue
            star_t = config.lam * np.eye(2)
            for tau in range(1, t - s + 1):
                acts = per_round[tau]
                star_t += acts.T @ acts
            for gram in grams:
                checked += 1
                ok &= np.linalg.eigvalsh(gram - lo * star_t).min() >= -1e-9
                ok &= np.linalg.eigvalsh(hi * star_t - gram).min() >= -1e-9
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report(3, ok, elapsed, f"{checked} (agent, round) PSD orderings over 5 seeds")
    assert ok


# ------------------------------------------------------------------ 4 & 5 (shared run)

@pytest.fixture(scope="module")
def headline_runs():
    t0 = time.perf_counter()
    base = {"topology": {"kind": "erdos_renyi", "p": 0.5}, "N": 20, "d": 5, "T": 1000,
            "realizations": 20, "seed": 0}
    traces = {}
    for algo in ("dlucb", "no_comm", "centralized"):
        config = parse_config({**base, "algorithm": algo})
        traces[algo] = run_experiment(config, workers=WORKERS)
    return traces, parse_config({**base, "algorithm": "dlucb"}), time.perf_counter() - t0


def test_criterion_4_regret_ordering(headline_runs):
    traces, config, elapsed = headline_runs
    finals = {algo: np.mean([tr.final_regret for tr in runs])
              for algo, runs in traces.items()}
    ok = (finals["centralized"] <= finals["dlucb"] <= finals["no_comm"]
          and finals["dlucb"] <= 0.8 * finals["no_comm"]
          and elapsed < 300.0)
    report(4, ok, elapsed,
           f"mean R_T: centralized {finals['centralized']:.0f} <= "
           f"dlucb {finals['dlucb']:.0f} <= 0.8 x no_comm {0.8 * finals['no_comm']:.0f}")
    assert ok


def test_criterion_5_regret_bound(headline_runs):
    traces, config, elapsed = headline_runs
    t0 = time.perf_counter()
    within = 0
    for tr in traces["dlucb"]:
        bound = gb.theoretical_regret_bound(
            "dlucb", s_rounds=tr.s_rounds, d=config.d, n_agents=config.n_agents,
            horizon=config.horizon, lam=config.lam, delta=config.delta,
            sigma=config.sigma, epsilon=config.epsilon)
        within += tr.final_regret <= bound
    elapsed = time.perf_counter() - t0
    ok = within >= 17
    report(5, ok, elapsed, f"{within}/20 seeds within the closed-form bound (need >= 17)")
    assert ok


# ------------------------------------------------------------------ 6

def test_criterion_6_rare_communication():
    t0 = time.perf_counter()
    base = {"topology": {"kind": "erdos_renyi", "p": 0.5}, "N": 10, "d": 5,
            "algorithm": "rc_dlucb", "realizations": 10, "seed": 0}
    phase_means = {}
    rc_totals = {}
    for horizon in (500, 1000, 2000):
        runs = run_experiment(parse_config({**base, "T": horizon}), workers=WORKERS)
        phase_means[horizon] = float(np.mean([tr.phase_count for tr in runs]))
        rc_totals[horizon] = [tr.total_comm_scalars for tr in runs]
    spread = max(phase_means.values()) / min(phase_means.values())

    dlucb_cfg = parse_config({**base, "algorithm": "dlucb", "T": 2000, "realizations": 2})
    dlucb_runs = run_experiment(dlucb_cfg, workers=WORKERS)
    ratios = [d.total_comm_scalars / max(rc, 1)
              for d, rc in zip(dlucb_runs, rc_totals[2000][:2])]
    elapsed = time.perf_counter() - t0
    ok = spread <= 1.5 and min(ratios) >= 10.0 and elapsed < 600.0
    report(6, ok, elapsed,
           f"phase means {phase_means} (spread {spread:.2f} <= 1.5); "
           f"comm ratio dlucb/rc >= {min(ratios):.0f}x")
    assert ok


# ------------------------------------------------------------------ 7

def test_criterion_7_safety():
    t0 = time.perf_counter()
    config = parse_config({"topology": "path", "N": 3, "d": 2, "T": 400,
                           "algorithm": "safe_dlucb",
                           "decision_set": {"variant": "finite", "num_arms": 6},
                           "safe": {"c_min": 0.3}, "realizations": 20, "seed": 0})
    runs = run_experiment(config, workers=WORKERS)
    clean_runs = sum(int(tr.violations.sum()) == 0 for tr in runs)
    total_pairs = 20 * 3 * 400
    violation_rate = sum(int(tr.violations.sum()) for tr in runs) / total_pairs
    ratios = [tr.cum_regret[399] / max(tr.cum_regret[199], 1e-12) for tr in runs]
    mean_ratio = float(np.mean(ratios))
    elapsed = time.perf_counter() - t0
    ok = (clean_runs >= 18 and violation_rate <= 0.005 and mean_ratio <= 1.8
          and elapsed < 120.0)
    report(7, ok, elapsed,
           f"zero-violation runs {clean_runs}/20; rate {violation_rate:.4%}; "
           f"mean R_2T/R_T {mean_ratio:.2f} <= 1.8")
    assert ok


# ------------------------------------------------------------------ 8

def test_criterion_8_confidence_coverage():
    t0 = time.perf_counter()
    d, n, lam, delta, sigma, eps = 5, 20, 1.0, 0.1, 0.1, 1 / 21
    horizon, redraws = 200, 1000
    rng = np.random.default_rng(123)
    theta = rng.standard_normal(d)
    theta /= np.linalg.norm(theta)
    actions = rng.standard_normal((horizon, n, d))
    actions /= np.linalg.norm(actions, axis=2, keepdims=True)
    comm = gb.build_comm_matrix(gb.build_topology("ring", 20))
    plan = gb.MixingPlan(comm, eps)
    gains_sq = (comm.n * gb.mixing_polynomial(comm, plan)[0]) ** 2  # agent 0's pairwise gains
    noise = sigma * rng.standard_normal((redraws, horizon, n))

    weighted = actions * gains_sq[None, :, None]
    gram_cum = np.cumsum(np.einsum("tnd,tne->tde", weighted, actions), axis=0)
    drift_cum = np.cumsum(np.einsum("rtn,tnd->rtd", noise, weighted), axis=1)
    own_gram_cum = np.cumsum(np.einsum("td,te->tde", actions[:, 0], actions[:, 0]), axis=0)
    own_drift_cum = np.cumsum(np.einsum("rt,td->rtd", noise[:, :, 0], actions[:, 0]), axis=1)

    covered = np.ones(redraws, dtype=bool)
    s = plan.s_rounds
    eye = lam * np.eye(d)
    for t in range(1, horizon + 1):
        if t <= s:
            gram = eye + (own_gram_cum[t - 2] if t >= 2 else 0.0)
            drift = own_drift_cum[:, t - 2] if t >= 2 else np.zeros((redraws, d))
        else:
            gram = eye + gram_cum[t - s - 1]
            drift = drift_cum[:, t - s - 1]
        beta = gb.beta_radius(t, d, n, lam, delta, sigma, eps)
        vec = drift - lam * theta[None, :]
        norm_sq = np.einsum("rd,de,re->r", vec, np.linalg.inv(gram), vec)
        covered &= norm_sq <= beta**2
    coverage = covered.mean()
    elapsed = time.perf_counter() - t0
    ok = coverage >= 1 - delta - 0.03 and elapsed < 60.0
    report(8, ok, elapsed,
           f"simultaneous coverage {coverage:.3f} >= {1 - delta - 0.03:.2f} "
           f"over {redraws} noise redraws")
    assert ok


# ------------------------------------------------------------------ 9

def test_criterion_9_per_agent_speedup():
    t0 = time.perf_counter()
    per_agent = {}
    for n in (5, 10, 15):
        config = parse_config({"topology": {"kind": "erdos_renyi", "p": 0.5}, "N": n,
                               "d": 5, "T": 1000, "algorithm": "dlucb",
                               "realizations": 8, "seed": 0})
        runs = run_experiment(config, workers=WORKERS)
        per_agent[n] = float(np.mean([tr.final_regret / n for tr in runs]))
    elapsed = time.perf_counter() - t0
    ok = (per_agent[5] > per_agent[10] > per_agent[15]) and elapsed < 300.0
    report(9, ok, elapsed,
           "seed-averaged R_T/N strictly decreasing: "
           + " > ".join(f"{per_agent[n]:.1f} (N={n})" for n in (5, 10, 15)))
    assert ok


# ------------------------------------------------------------------ 10

def test_criterion_10_worker_determinism(tmp_path):
    t0 = time.perf_counter()
    import json

    config = {"topology": {"kind": "erdos_renyi", "p": 0.5}, "N": 8, "d": 3, "T": 60,
              "algorithm": "dlucb", "realizations": 8, "seed": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    outputs = []
    for workers in ("1", "8"):
        out = tmp_path / f"w{workers}"
        code = cli_main(["run", "--config", str(path), "--out", str(out),
                         "--workers", workers, "--overwrite"])
        assert code == 0
        outputs.append((out / "trace.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outputs[0] == outputs[1]
    report(10, ok, elapsed, "trace.csv byte-identical across 1 and 8 workers")
    assert ok
