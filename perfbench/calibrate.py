"""Machine-speed reference for normalizing wall times.

On a shared machine the speed of identical work drifts by 20% and more
over tens of seconds, so raw wall times of runs made minutes apart are not
comparable. ``reference_seconds`` times a fixed NumPy workload that does
not use the package: a ``np.unique`` over 10^5 integers and many calls on
small arrays, like the experiment path. A wall time scaled by
``REFERENCE_S / reference_seconds()`` measured next to it is the time the
work would take at a fixed reference speed.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# nominal time of one reference workload; sets the scale of normalized times
REFERENCE_S = 0.05


def reference_seconds() -> float:
    """Wall time of the fixed reference workload, in s."""
    rng = np.random.Generator(np.random.PCG64(20210510))
    t0 = perf_counter()
    np.unique(rng.integers(0, 1 << 40, size=100_000))
    for _ in range(40):
        x = rng.random(4000)
        u = np.unique((x * 3000).astype(np.int64))
        np.bincount(u % 97, minlength=97)
        x[x < 0.3].mean()
    return perf_counter() - t0
