"""Host-speed reference: a fixed NumPy + Python kernel timed between
episodes.

On a shared machine the speed of the same computation drifts by tens of
percent over minutes (a fixed kernel timed back to back on a 2-vCPU
host: CV 0.15 over 1 s windows, 0.085 over 30 s windows).  The harness
times this kernel before the first episode and after every episode and
divides each episode's times by the host factor around it::

    factor = mean(reference before, reference after) / REFERENCE_S

so the reported times read as seconds at the reference host speed.  The
kernel does the same kinds of work as the program — elementwise
arithmetic over (N, K) arrays, an argmin over the small axis, a
bincount, a sort and a pure-Python loop — and never calls the program,
so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Median :func:`reference_seconds` on a 2-vCPU x86-64 host (Python
#: 3.11, NumPy 2.4, BLAS pinned to one thread).  Only ratios to it
#: matter: it sets the scale at which the adjusted times are reported.
REFERENCE_S = 0.2

_RNG = np.random.default_rng(20190707)
#: A cache-resident array and one well past the cache, because the
#: workloads' fleets (10k to 100k nodes) are of both kinds.
_ARRAYS = (_RNG.random(20_000), _RNG.random(400_000))
_CENTERS = np.array([0.2, 0.5, 0.8])
_ROUNDS = 12


def reference_seconds() -> float:
    """Wall-clock seconds of one fixed reference workload."""
    started = time.perf_counter()
    for _ in range(_ROUNDS):
        for points in _ARRAYS:
            distances = (points[:, None] - _CENTERS[None, :]) ** 2
            labels = distances.argmin(axis=1)
            np.bincount(labels, weights=points, minlength=_CENTERS.size)
            np.sort(points[:20_000])
        total = 0
        for i in range(20_000):
            total += i * i
    return time.perf_counter() - started
