"""Smoke runs of the benchmark harness, so it cannot rot unnoticed.

One short untraced run per workload on the default seed: every op's output
must pass the harness's oracles and golden hashes.  ``eu_council`` covers the
exact engine's shared coalition table under three quotas; ``exact_large``
covers the sum-grid count of integer single-quota games, its tables'
"subset-sum" engine (subset-sum DP oracle at m = 22 and 24, plus the seed-0
golden hashes), and no workload reaches the sorted halves, which the
unit tests cover; ``approx_mc`` covers the Monte Carlo
sampler (Hoeffding check of every estimate plus the seed-0 golden hashes).
Traced runs of all three check that every layer the tracer wraps still
records spans: ``eu_council`` and ``exact_large`` the exact engine's names,
``approx_mc`` the sampler's (``estimate_indices``, ``confidence_interval``,
``required_samples``, and ``ht_bound`` from the bounds module).  No timing is
asserted; timings on a shared machine are too noisy to gate on.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _assert_run_is_correct(workload: str, trace: str) -> None:
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout


@pytest.mark.parametrize("workload", ["eu_council", "exact_large", "approx_mc"])
def test_smoke_run_is_correct(workload):
    _assert_run_is_correct(workload, "0")


def test_traced_run_is_correct():
    """The tracer wraps package functions by name, and a traced pass fails
    when a layer records no span; this keeps those names in use."""
    _assert_run_is_correct("eu_council", "1")


def test_traced_exact_large_run_is_correct():
    """The same for the single-quota path, whose table methods the tracer
    wraps by name on ``CoalitionTable``."""
    _assert_run_is_correct("exact_large", "1")


def test_traced_approx_mc_run_is_correct():
    """The same for the Monte Carlo sampler and the ``ht_bound`` it calls."""
    _assert_run_is_correct("approx_mc", "1")
