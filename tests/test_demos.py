"""Every demo script runs to completion.

Each demo runs as its own process in a temporary directory, so the CSV
files some of them write never land in the checkout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewfib

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    src = str(Path(skewfib.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True, env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
