"""The quick demos run to completion through the public API.

alignment_table.py is left out: it simulates a full table and takes seconds,
not the fraction of one the others need.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import capmatch

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "demo", ["market_basics.py", "cutoff_walkthrough.py", "mechanism_showdown.py"]
)
def test_demo_runs(demo):
    # the demo imports the capmatch this test process imported
    src = str(Path(capmatch.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, str(DEMOS / demo)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
