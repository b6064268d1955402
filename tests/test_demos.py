import glob
import os
import subprocess
import sys

import pytest

import gmlab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_all_demos_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    src = os.path.dirname(os.path.dirname(gmlab.__file__))
    proc = subprocess.run(
        [sys.executable, path],
        env={**os.environ, "PYTHONPATH": src},
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
