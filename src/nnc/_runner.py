"""The in-order runner: one function over a sequence of items, its results
taken in item order, its calls run on a pool of threads when there are
several usable CPUs. ``harness`` runs the trial ranges of a run on a large
graph through it.
"""
from __future__ import annotations

import collections
import contextlib
import os
from concurrent.futures import ThreadPoolExecutor

# the names of the runner's worker threads start with this
_THREAD_PREFIX = "nnc-runner"


def _usable_cpus() -> int:
    # the CPUs this process may run on; all of them where there is no
    # affinity mask (macOS)
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@contextlib.contextmanager
def _in_order(fn, items, threads: int):
    """Open an iterator over ``fn(item)`` for each of ``items``, in order.

    With fewer than two ``threads`` the calls run in turn on the calling
    thread, as ``map`` runs them. Otherwise they run on a pool of
    ``threads`` threads: each call is submitted ``threads`` items before its
    result is taken, so at most ``threads`` run at once and one waits, and a
    call's exception is raised when its turn comes. What stops the later
    calls on leaving the context, also by an exception, is that nothing more
    is submitted: the calls already submitted (the others running and the
    one queued) still run, and then the pool's threads are joined, so none
    is left.
    """
    if threads < 2:
        yield map(fn, items)
        return
    pool = ThreadPoolExecutor(threads, thread_name_prefix=_THREAD_PREFIX)
    try:
        yield _submitted(pool, fn, items, threads)
    finally:
        pool.shutdown()


def _submitted(pool, fn, items, threads: int):
    pending = collections.deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) > threads:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()
