"""The in-order runner: one function over a sequence of items, its results
taken in item order, its calls run on a pool of threads when there are
several usable CPUs.

It serves two kinds of work: a large stub-matching build's attempts
(``graphs.build_graph_configuration``) and, in ``harness``, the trial ranges
of a run on a large graph. A runner opened on one of the runner's own worker
threads runs its calls in turn on that thread, so a graph that a regenerating
range builds there never nests a second pool.
"""
from __future__ import annotations

import collections
import contextlib
import os
import threading
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

    With fewer than two ``threads``, or on one of the runner's own worker
    threads, the calls run in turn on the calling thread, as ``map`` runs
    them. Otherwise they run on a pool of ``threads`` threads: each call is
    submitted ``threads`` items before its result is taken, so at most
    ``threads`` run at once and one waits, and a call's exception is raised
    when its turn comes. On leaving the context, also by an exception, no
    call is submitted any more, the submitted calls not yet started are
    cancelled, and then the pool's threads are joined, so none is left.
    """
    if threads < 2 or threading.current_thread().name.startswith(_THREAD_PREFIX):
        yield map(fn, items)
        return
    pool = ThreadPoolExecutor(threads, thread_name_prefix=_THREAD_PREFIX)
    try:
        yield _submitted(pool, fn, items, threads)
    finally:
        pool.shutdown(cancel_futures=True)


def _submitted(pool, fn, items, threads: int):
    pending = collections.deque()
    for item in items:
        pending.append(pool.submit(fn, item))
        if len(pending) > threads:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()
