"""Smoke test of the benchmark harness at toy size.

``perfbench/selftest.py`` runs every workload briefly and checks that the
CLI bytes match what the benchmark's oracle expects, so a change to the
program's output fails here rather than only in a benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "0 failed check(s)" in done.stdout
