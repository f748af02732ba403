"""The C allocator setting the package applies once, when it is imported.

A trial block frees numpy buffers that the next block allocates again
(at n = 1e5 a block peaks about 12 MiB above its layout). glibc's defaults
serve a large buffer by ``mmap`` and hand a freed heap top back to the
system, so a block can fault its memory in afresh. A trim threshold of
32 MiB keeps that much freed memory in the process's heap for reuse, and
an mmap threshold of 16 MiB keeps buffers of a few MB in the heap. Both
are needed: 16 and 8 MiB still fault as much as the defaults. The setting
changes where buffers live, not what is computed.

Minor page faults (``getrusage``) per experiment, on glibc 2.36 and two
cores, in three processes of 12 experiments each (the benchmark
workloads' configs), as "first experiment; range over the other eleven":

- ZTP(10), n = 1e5, 8 trials: 4.8k-5.3k; 2-201 with this setting,
  7.9k-12k; 2-8.4k with the arena cap only, 11k; 2-5 with glibc's
  defaults (whose mmap threshold grows as large buffers are freed).
- School, 300 trials: 1.1k; 0-16 with this setting, 2.8k; 479-601 with
  the arena cap only, 3.2k; 479-558 with the defaults.
- Pareto, a new graph per trial, 30 trials: 0.8k-1.2k; 2-483 with this
  setting, 1.3k-1.6k; 34-1.6k with the arena cap only, 2.1k-2.2k;
  0.8k-1.3k with the defaults.

A ``bootstrap_ci`` call at n = 1e4 and B = 1e3 faults 36k pages with the
defaults and none with the setting, after the first call.

A large graph's trial blocks run on several threads (``harness``), and
glibc gives each thread that allocates at once an arena of its own, up to
eight per core, each of which keeps its freed memory as the main heap
does. An arena cap of 1 makes every thread reuse the one heap. Six
8-trial ZTP(10) experiments at n = 1e5 on two threads peaked at 107-110 MB
of RSS without the cap and at 94-95 MB with it (78 MB on one thread), at
the same speed: a block makes few, large allocations, so the threads
rarely wait for the heap's lock.

Only glibc is tuned. Elsewhere there is no ``mallopt`` (macOS) or it does
nothing (musl), and the call is skipped or harmless.
"""
from __future__ import annotations

import ctypes
import sys

# parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

_TRIM_THRESHOLD = 32 << 20
_MMAP_THRESHOLD = 16 << 20
_ARENA_MAX = 1


def keep_freed_memory() -> None:
    """Set glibc's trim and mmap thresholds and its arena cap for this process."""
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_ARENA_MAX, _ARENA_MAX)
