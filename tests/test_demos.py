"""The demos run end to end, each in a fresh interpreter, and print exactly
their frozen output in ``tests/demo_outputs/``.

Demos 02 and 03 take about 8 s and 23 s, so this suite runs only 01 and 04.
Compare all four with ``python tests/test_demos.py``, which prints one line
per demo and exits non-zero on any difference. A change that is meant to
alter a demo's output refreezes its file and says why.
"""

import difflib
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FROZEN = Path(__file__).resolve().parent / "demo_outputs"
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


@functools.cache
def run_demo(script):
    """The finished process of ``demos/<script>``, run once per session."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def frozen(script):
    return (FROZEN / script.replace(".py", ".txt")).read_text()


@pytest.mark.parametrize("script, expected", [
    ("01_graphs_and_mixing.py", "pairwise gains a_ij after S rounds"),
    ("04_safe_exploration.py", "constraint violations: 0 "),
])
def test_demo_exits_0(script, expected):
    result = run_demo(script)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout


@pytest.mark.parametrize("script", ["01_graphs_and_mixing.py", "04_safe_exploration.py"])
def test_demo_output_is_frozen(script):
    assert run_demo(script).stdout == frozen(script)


def check_all():
    """Run every demo, print one line each (and a diff on a mismatch), and
    return the number of demos that failed or printed other output."""
    failed = 0
    for script in DEMOS:
        result = run_demo(script)
        diff = list(difflib.unified_diff(frozen(script).splitlines(), result.stdout.splitlines(),
                                         "frozen", "printed", lineterm=""))
        ok = result.returncode == 0 and not diff
        status = "==" if ok else f"exit {result.returncode}" + (", output differs" if diff else "")
        print(f"{script}: {status}", flush=True)
        if not ok:
            print("\n".join(diff) or result.stderr)
        failed += not ok
    print(f"all: {len(DEMOS) - failed}/{len(DEMOS)} ==")
    return failed


if __name__ == "__main__":
    sys.exit(1 if check_all() else 0)
