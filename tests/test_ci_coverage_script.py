"""Smoke run of ``scripts/ci_coverage.py``, so the repository's script cannot
rot unnoticed.

One short run per interval method on the default 12-player game: the script
must exit 0 and print its header, its column line and one row per player,
with every coverage a fraction in [0, 1].  No timing is asserted; timings on
a shared machine are too noisy to gate on.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from banzhaf import CI_METHODS

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("method", CI_METHODS)
def test_ci_coverage_script_runs(method):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "scripts/ci_coverage.py", "--method", method,
         "--samples", "50", "--trials", "5"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, columns, *rows = proc.stdout.splitlines()
    assert header == f"{method} intervals, delta=0.05, n=50, 5 trials (nominal coverage 0.950)"
    assert columns.split() == ["player", "exact", "coverage", "mean", "width"]
    assert [row.split()[0] for row in rows] == [f"p{i}" for i in range(1, 13)]
    for row in rows:
        coverage = float(row.split()[2])
        assert 0.0 <= coverage <= 1.0
