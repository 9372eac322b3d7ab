import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(demo, hash_seed="0"):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run(demo)
    assert proc.returncode == 0, proc.stderr


def test_demo_output_does_not_follow_the_hash_seed():
    # set iteration order follows PYTHONHASHSEED; the printed figures must not
    demo = ROOT / "demos" / "pcs_walkthrough.py"
    assert _run(demo, "0").stdout == _run(demo, "6").stdout
