"""The benchmark's smoke check passes against this checkout, so renaming or
deleting a package name that the benchmark traces or rebinds fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
