"""Smoke test of the traced benchmark run.

``perfbench/run.py --trace 1`` divides some per-layer counts by others, so
a change that stops calling a function it traces can break the traced run
while every other test passes.  This test runs it once, in a subprocess of
about four seconds, and requires a correct result with a finite value for
every metric.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_completes_with_finite_metrics():
    argv = [sys.executable, "perfbench/run.py", "--workload", "cli-rank", "--seed", "3",
            "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
