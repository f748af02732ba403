"""The C allocator setting the package applies once, when it is imported.

A trial block at n = 1e5 frees about 15 MB of numpy buffers that the next
block allocates again, and its largest temporary is about 4 MB. glibc's
defaults serve such a buffer by ``mmap`` and hand a freed heap top back to
the system, so every block faulted its memory in afresh: 31k-37k minor
page faults per 8-trial experiment at n = 1e5, 36k per ``bootstrap_ci``
call at n = 1e4 and B = 1e3. A trim threshold of 32 MiB keeps that much
freed memory in the process's heap for reuse, and an mmap threshold of
16 MiB keeps buffers of a few MB in the heap. Both are needed: 16 and
8 MiB still fault as much as the defaults. The setting changes where
buffers live, not what is computed.

Only glibc is tuned. Elsewhere there is no ``mallopt`` (macOS) or it does
nothing (musl), and the call is skipped or harmless.
"""
from __future__ import annotations

import ctypes
import sys

# parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

_TRIM_THRESHOLD = 32 << 20
_MMAP_THRESHOLD = 16 << 20


def keep_freed_memory() -> None:
    """Set glibc's trim and mmap thresholds for this process."""
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
