"""Smoke run of the benchmark harness, so it cannot rot unnoticed.

One short untraced ``eu_council`` run on the default seed: every op's output
must pass the harness's oracles and golden hashes.  No timing is asserted;
timings on a shared machine are too noisy to gate on.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_eu_council_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "eu_council",
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
