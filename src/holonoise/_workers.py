"""How many workers a parallel stage may use, and an ordered process map.

One policy serves every parallel stage: the worker count is the size of
the process's CPU affinity mask (``os.sched_getaffinity``), so ``taskset``
is the only control, and with one CPU nothing is started at all.
`ProcessMap` forks processes, for pure-Python work such as CSV formatting
and parsing, and returns results in item order, so a caller that combines
them in that order gets the same bits on any CPU count.  The workers
inherit the function they run when they fork, so it may hold what cannot be
pickled, such as memory shared with them (the CSV writer's ring).
`ahead` advances an iterator one item ahead of its caller on a single
thread, for numpy work that releases the GIL, such as synthesis's block
loop; `thread_count` decides whether a run is worth that thread.  Pool
modules are imported only when a pool is started.
numpy's BLAS, OpenBLAS, keeps a pool of its own, one busy-waiting worker
per CPU started when numpy is loaded; no holonoise result goes through
BLAS, so ``holonoise/__init__.py`` pins it to the calling thread before
numpy is imported, and it is never started.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from collections.abc import Iterator

#: Array elements of work below which no thread is started, counted over
#: the whole run, not a block: synthesis counts every stream's n_samples.
#: On two cores, a null pair of 2^17 samples (2^18 elements) synthesized no
#: faster on two threads, and a 2^15-sample Monte Carlo replica slower.
MIN_THREAD_WORK = 1 << 19

#: In a worker of a `ProcessMap`, the function it maps.
_func = None


def cpu_count() -> int:
    """CPUs this process may run on; 1 where there is no affinity mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class ProcessMap:
    """``func`` over items put one at a time, results in put order, on forked processes.

    ``useful`` is the most workers the items can keep busy, at most one per
    item; for fewer than two, or a single CPU, everything runs in the
    calling process and no worker is started, and so on platforms without
    an affinity mask.  Otherwise the workers are forked on entering the
    ``with`` block, so a caller that enters it before starting any thread
    never forks a process with live threads.  Workers inherit the parent's
    open files and loaded modules, and ``func`` itself, and run only
    ``func``; only items and results are pickled.  At most two items per
    worker are in flight, so each has one queued behind the one it works
    on, and a result is handed back as soon as it and those before it are
    ready: the memory held for results does not grow with the number of
    items.  ``in_flight``, 2 * workers + 1 (1 in the calling process),
    bounds the items put and not yet used, counting the results a `put`
    returns as in use until the next `put`.
    """

    def __init__(self, func, useful: int):
        self.func = func
        self.workers = min(cpu_count(), useful)
        self.in_flight = 2 * self.workers + 1 if self.workers > 1 else 1
        self.pending: deque = deque()
        self.pool = None

    def __enter__(self) -> "ProcessMap":
        if self.workers > 1:
            import multiprocessing

            # A forked worker flushes the stdio buffers it inherited when it
            # exits; flushing first keeps it from writing them a second time.
            sys.stdout.flush()
            sys.stderr.flush()
            self.pool = multiprocessing.get_context("fork").Pool(self.workers, _inherit,
                                                                 (self.func,))
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()

    def put(self, item) -> list:
        """Queue ``item``; the results now due, oldest first."""
        if self.pool is None:
            return [self.func(item)]
        self.pending.append(self.pool.apply_async(_call, (item,)))
        due = []
        while self.pending and (len(self.pending) >= self.in_flight or self.pending[0].ready()):
            due.append(self.pending.popleft().get())
        return due

    def drain(self) -> Iterator:
        """The results still due, in put order."""
        while self.pending:
            yield self.pending.popleft().get()


def _inherit(func) -> None:
    global _func
    _func = func


def _call(item):
    return _func(item)


def thread_count(work: int) -> int:
    """Threads to run ``work`` array elements on, the caller's included: two
    where there is a second CPU and work enough to keep it busy, else one."""
    return 2 if work >= MIN_THREAD_WORK and cpu_count() > 1 else 1


def ahead(items: Iterator) -> Iterator:
    """``items`` in order, each drawn on one thread while the caller uses the one before.

    The thread starts with the first item and ends when the items run out or
    this iterator is closed; an exception raised drawing an item is raised
    to the caller in its place.
    """
    from concurrent.futures import ThreadPoolExecutor

    done = object()
    with ThreadPoolExecutor(1) as pool:
        drawing = pool.submit(next, items, done)
        while (item := drawing.result()) is not done:
            drawing = pool.submit(next, items, done)
            yield item
