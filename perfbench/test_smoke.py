"""Smoke test of the benchmark harness itself: run with ``pytest perfbench``.

Each workload runs at a tiny parameter set for a few rounds, untraced and
traced, and must emit every metric BENCHMARK.json declares with no failed op.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["authority", "tester-resident", "cli-session"])
def test_smoke(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert f"smoke {workload}: OK" in proc.stdout
