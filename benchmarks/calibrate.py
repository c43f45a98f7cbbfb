"""Host-speed calibration for ``job_ref_s``.

On a small shared machine the same code runs up to about 1.3x slower for
minutes at a time while other tenants load the host, so a run's wall time
says as much about the host as about the program.  ``measure()`` times a
fixed kernel that uses nothing from ``banzhaf``: an interpreter loop (like
the CLI and the many small exact calls) and numpy passes over preallocated
arrays (like the enumerator scan and the sampler).  ``job.py`` runs it
between ops and passes, and ``run.py`` divides each pass by the median of
the calibrations around it and multiplies by ``REFERENCE_S``, so
``job_ref_s`` is the pass time at the host speed where the kernel takes
``REFERENCE_S``.

The kernel allocates no Python containers and writes numpy results into
preallocated buffers, so the program's garbage-collector settings and heap
do not change its time.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel time on a quiet 2-vCPU Xeon VM (2.0 GHz, Python 3.11, numpy with
# OpenBLAS pinned to one thread).  A fixed constant: it only sets the scale
# of job_ref_s and never changes between the runs that are compared.
REFERENCE_S = 0.060
# Seconds of program time between calibrations: often enough to follow the
# host's drift within a pass, rare enough to cost about a tenth of a run.
EVERY_S = 0.5

_LOOP = 360_000
_REPEATS = 24
_SIZE = 1 << 19
_A = np.arange(_SIZE, dtype=np.int64)
_B = np.empty(_SIZE, dtype=np.int64)
_MASK = np.empty(_SIZE, dtype=bool)


def _interpreter(n: int) -> int:
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFF
    return acc


def _arrays(repeats: int) -> int:
    total = 0
    for k in range(repeats):
        np.multiply(_A, 7, out=_B)
        np.add(_B, k, out=_B)
        np.bitwise_and(_B, 0xFFFF, out=_B)
        np.less(_B, 30_000, out=_MASK)
        total += int(np.count_nonzero(_MASK))
    return total


def measure() -> float:
    """Wall seconds for one run of the fixed kernel."""
    t0 = time.perf_counter()
    _interpreter(_LOOP)
    _arrays(_REPEATS)
    return time.perf_counter() - t0
