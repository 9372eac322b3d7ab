import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_head_against_itself_has_no_mismatch():
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("needs a git checkout to export the parent from")
    cmd = [sys.executable, str(ROOT / "tools" / "qasm_differential.py"), "--parent", "HEAD",
           "--seeds", "1", "--mutations", "50"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "mismatches: 0" in out.stdout
