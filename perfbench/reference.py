"""A fixed reference kernel that tracks the CPU speed the host gives this process.

The CPU speed of a shared host drifts by tens of percent over seconds to
minutes, and a slow stretch can cover a whole run.  The benchmark times the
kernel just before and just after every CLI call and scales times to a host
on which the kernel takes ``REFERENCE_MS``.  The kernel mixes what
ladsysid spends its time on (interpreter loops, small LAPACK calls through
numpy, sorts of arrays as long as the largest n) and calls nothing in
ladsysid, so a change to the package cannot move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_MS = 40.0

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((600, 5))
_Y = _rng.standard_normal(600)
_V = _rng.standard_normal(30000)


def reference_ms() -> float:
    """Wall time (ms) of one run of the kernel."""
    t0 = perf_counter()
    s = 0
    for i in range(200000):
        s += i * i
    for _ in range(200):
        np.linalg.lstsq(_A, _Y, rcond=None)
    for _ in range(20):
        np.argsort(_V)
    return (perf_counter() - t0) * 1e3
