"""Each demo script runs to completion against the package in ``src``.

Demos 01 and 02 take about a second together; 03-05 run the basic
benchmark several times over (about 20 s, 25 s and 75 s) and are
marked ``slow``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW = ("03_threshold_sweep.py", "04_merge_modes.py", "05_engine_showdown.py")


@pytest.mark.parametrize("name", [
    pytest.param(path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in sorted((ROOT / "demos").glob("*.py"))
])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
