"""``tests/trace_sweep.py`` writes every run's curve and flags the runs that moved."""

import numpy as np

import trace_sweep

# one rc_dlucb run per decision set
TWO_RUNS = ["--only", "algorithm=rc_dlucb", "--only", "topology=ring", "--only", "N=3",
            "--only", "d=2", "--only", "seed=0", "--horizon", "30"]


def test_sweep_lists_the_runs_that_moved(tmp_path, capsys):
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    assert trace_sweep.main(["--out", str(before), *TWO_RUNS]) == 0
    with np.load(before) as curves:
        runs = dict(curves)
    assert sorted(runs) == ["rc_dlucb-ring-3-2-0-box", "rc_dlucb-ring-3-2-0-finite"]
    assert all(curve.shape == (30,) for curve in runs.values())
    # a rerun moves nothing
    assert trace_sweep.main(["--out", str(after), "--compare", str(before), *TWO_RUNS]) == 0
    assert "0/2 runs moved" in capsys.readouterr().out
    # a curve off in its last bit, and a run the other file lacks, both count
    runs["rc_dlucb-ring-3-2-0-box"][-1] = np.nextafter(runs["rc_dlucb-ring-3-2-0-box"][-1], 0)
    del runs["rc_dlucb-ring-3-2-0-finite"]
    np.savez(before, **runs)
    assert trace_sweep.main(["--out", str(after), "--compare", str(before), *TWO_RUNS]) == 1
    out = capsys.readouterr().out
    assert "moved: rc_dlucb-ring-3-2-0-box" in out and "moved: rc_dlucb-ring-3-2-0-finite" in out
    assert "2/2 runs moved" in out
