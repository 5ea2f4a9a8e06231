"""The benchmark's own self-test, run from the repository root as the
benchmark is. Its traced run wraps program methods by name, so renaming
or deleting one of them fails here instead of only breaking `--trace 1`."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert "selftest passed" in proc.stdout
