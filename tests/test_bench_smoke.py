"""Smoke runs of the benchmark harness, so it cannot rot unnoticed.

One short untraced run per workload on the default seed: every op's output
must pass the harness's oracles and golden hashes.  ``eu_council`` covers the
exact engine's shared coalition table; ``approx_mc`` covers the Monte Carlo
sampler (Hoeffding check of every estimate plus the seed-0 golden hashes).
No timing is asserted; timings on a shared machine are too noisy to gate on.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["eu_council", "approx_mc"])
def test_smoke_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
