"""Calibration kernel for reporting times in reference seconds.

The machine the benchmark was built on is shared: the same operation runs
up to 1.6 times slower while other tenants are busy, in phases that last
minutes.  The kernel below is fixed work that touches no qcorr code: small
numpy calls in an interpreter loop, where the searches and the sampling
pipelines spend their time.  It is timed before and after every measured
unit, and the unit's time is reported as measured seconds x REF_S / (mean
of the two kernel times).  A change to qcorr moves the unit's time and not
the kernel's, so it shows in full, while a slow phase of the machine moves
both.  (A kernel of large-array passes like the DQC1 grids tracked the
dqc1 workload worse than this one did.)
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's time on a quiet core of the 2 GHz Xeon the benchmark was built on.
REF_S = 0.010

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_H = _M @ _M.conj().T


def kernel_s() -> float:
    """Seconds for one run of the kernel."""
    t0 = perf_counter()
    acc = 0.0
    for i in range(600):
        v = np.linalg.eigvalsh(_H)
        t = np.einsum("ij,jk->ik", _M, _H).real
        acc += float(np.sum(v * np.log2(v + 1.0))) + float(t[0, 0]) + i * 0.5
    return perf_counter() - t0


def to_reference(seconds: float, before: float, after: float) -> float:
    """Scale a measured time by the kernel times taken around it."""
    return seconds * REF_S / ((before + after) / 2)
