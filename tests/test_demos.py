"""The fast demos run end to end, each in a fresh interpreter.

Demos 02 and 03 take about 8 s and 23 s, so they are left out of this suite;
run them by hand as the README shows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, expected", [
    ("01_graphs_and_mixing.py", "star + normalized_laplacian rejected"),
    ("04_safe_exploration.py", "constraint violations: 0 "),
])
def test_demo_exits_0(script, expected):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=ROOT,
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
