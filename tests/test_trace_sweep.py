"""``tests/trace_sweep.py`` writes every run's trace arrays and flags the runs that moved."""

import numpy as np

import trace_sweep

# one rc_dlucb run per decision set
TWO_RUNS = ["--only", "algorithm=rc_dlucb", "--only", "topology=ring", "--only", "N=3",
            "--only", "d=2", "--only", "seed=0", "--horizon", "30"]
BOX, FINITE = "rc_dlucb-ring-3-2-0-box", "rc_dlucb-ring-3-2-0-finite"


def test_sweep_lists_the_runs_that_moved(tmp_path, capsys):
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    assert trace_sweep.main(["--out", str(before), *TWO_RUNS]) == 0
    with np.load(before) as arrays:
        recorded = dict(arrays)
    assert sorted(recorded) == sorted(f"{run}:{array}" for run in (BOX, FINITE)
                                  for array in trace_sweep.ARRAYS)
    assert all(values.shape == (30,) for values in recorded.values())
    # a rerun moves nothing
    assert trace_sweep.main(["--out", str(after), "--compare", str(before), *TWO_RUNS]) == 0
    assert "0/2 runs moved" in capsys.readouterr().out
    # a curve off in its last bit, and a run the other file lacks, both count
    runs = {key: values.copy() for key, values in recorded.items() if key.startswith(BOX)}
    curve = runs[f"{BOX}:cum_regret"]
    curve[-1] = np.nextafter(curve[-1], 0)
    np.savez(before, **runs)
    assert trace_sweep.main(["--out", str(after), "--compare", str(before), *TWO_RUNS]) == 1
    out = capsys.readouterr().out
    assert f"moved: {BOX} (cum_regret)" in out
    assert f"moved: {FINITE} ({', '.join(trace_sweep.ARRAYS)})" in out
    assert "2/2 runs moved" in out
    assert out.endswith("moved per algorithm: rc_dlucb 2/2\nmoved per d: 2 2/2\n"
                        "moved per decision_set: box 1/1, finite 1/1\n")
    # a run whose regret is untouched but whose phase rounds moved counts too
    runs = {key: values.copy() for key, values in recorded.items()}
    phase_id = runs[f"{FINITE}:phase_id"]
    booked = np.flatnonzero(phase_id)
    assert booked.size > 0
    phase_id[booked[-1]] = 0
    np.savez(before, **runs)
    assert trace_sweep.main(["--out", str(after), "--compare", str(before), *TWO_RUNS]) == 1
    out = capsys.readouterr().out
    assert f"moved: {FINITE} (phase_id)" in out and f"moved: {BOX}" not in out
    assert "1/2 runs moved" in out
    assert "moved per algorithm: rc_dlucb 1/2" in out and "moved per d: 2 1/2" in out
    assert "moved per decision_set: box 0/1, finite 1/1" in out


def test_moved_runs_are_counted_per_axis_value():
    """Every value of the axis is listed in grid order, with its moved runs
    out of its runs, also when none moved."""
    grid = {"algorithm": ("dlucb", "rc_dlucb"), "d": (2, 5)}
    names = ["dlucb-2", "dlucb-5", "rc_dlucb-2", "rc_dlucb-5"]
    changed = [("dlucb-5", ["cum_regret"]), ("rc_dlucb-5", ["scalars"])]
    assert trace_sweep.moved_per_value(names, changed, grid, "algorithm") == (
        "dlucb 1/2, rc_dlucb 1/2")
    assert trace_sweep.moved_per_value(names, changed, grid, "d") == "2 0/2, 5 2/2"
    assert trace_sweep.moved_per_value(names, [], grid, "d") == "2 0/2, 5 0/2"


def test_only_safe_dlucb_runs_the_nonzero_safe_action():
    """``finite_x0`` adds 144 safe_dlucb runs with x0 = 0.3 e_1 to the 1,584
    runs of the other two decision sets."""
    every = {name: raw for name, raw, _ in trace_sweep.runs(trace_sweep.GRID, 50)}
    added = {name: raw for name, raw in every.items() if name.endswith("-finite_x0")}
    assert len(every) == 1728 and len(added) == 144
    for name, raw in added.items():
        assert name.startswith("safe_dlucb-")
        assert raw["decision_set"] == {"variant": "finite", "num_arms": 20}
        assert raw["safe"] == {"c_min": 0.3, "x0": [0.3] + [0.0] * (raw["d"] - 1)}
