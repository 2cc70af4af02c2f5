"""Ordered maps over the CPUs this process may use.

One policy serves every parallel stage: the worker count is the size of
the process's CPU affinity mask (``os.sched_getaffinity``), so ``taskset``
is the only control, and with one CPU nothing is started at all.
`ProcessMap` forks processes, for pure-Python work such as CSV formatting
and parsing; `ThreadMap` runs threads, for numpy work that releases the
GIL.  Both return results in item order, so a caller that combines them in
that order gets the same bits on any CPU count.  Their pool modules are
imported only when a pool is started.
"""

from __future__ import annotations

import os
import sys
from collections import deque
from collections.abc import Iterator

#: Array elements of work below which a `ThreadMap` stays in the calling thread.
#: On two cores, a null pair of 2^17 samples (2^18 elements) synthesized no
#: faster on two threads, and a 2^15-sample Monte Carlo replica slower.
MIN_THREAD_WORK = 1 << 19


def cpu_count() -> int:
    """CPUs this process may run on; 1 where there is no affinity mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


class ProcessMap:
    """``func`` over items put one at a time, results in put order, on forked processes.

    ``expected`` is how many items will be put; for fewer than two, or a
    single CPU, everything runs in the calling process and no worker is
    started, and so on platforms without an affinity mask.  Otherwise the
    workers are forked on entering the ``with`` block, so a caller that
    enters it before starting any thread never forks a process with live
    threads.  Workers inherit the parent's open files and loaded modules and
    run only ``func``.  At most two items per worker are in flight, so each
    has one queued behind the one it works on, and a result is handed back
    as soon as it and those before it are ready: the memory held for
    results does not grow with the number of items.
    """

    def __init__(self, func, expected: int):
        self.func = func
        self.workers = min(cpu_count(), expected)
        self.pending: deque = deque()
        self.pool = None

    def __enter__(self) -> "ProcessMap":
        if self.workers > 1:
            import multiprocessing

            # A forked worker flushes the stdio buffers it inherited when it
            # exits; flushing first keeps it from writing them a second time.
            sys.stdout.flush()
            sys.stderr.flush()
            self.pool = multiprocessing.get_context("fork").Pool(self.workers)
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()

    def put(self, item) -> list:
        """Queue ``item``; the results now due, oldest first."""
        if self.pool is None:
            return [self.func(item)]
        self.pending.append(self.pool.apply_async(self.func, (item,)))
        due = []
        while self.pending and (len(self.pending) > 2 * self.workers or self.pending[0].ready()):
            due.append(self.pending.popleft().get())
        return due

    def drain(self) -> Iterator:
        """The results still due, in put order."""
        while self.pending:
            yield self.pending.popleft().get()


def thread_count(items: int, work: int) -> int:
    """Threads a `ThreadMap` runs ``items`` tasks of ``work`` array elements in all on."""
    return 1 if work < MIN_THREAD_WORK else max(1, min(cpu_count(), items))


class ThreadMap:
    """Ordered maps over threads that live from entering the ``with`` block to leaving it.

    A stream processed block by block makes one short map per block; starting
    the threads once lets them stay on the CPUs they were placed on, where
    threads started anew for every block of a few milliseconds often share
    one CPU.  Every thread has ended when the ``with`` block is left, so a
    process forked before entering it or after leaving it never has live
    threads; nothing may be forked inside it.  `start` begins a map without
    waiting for it, so the caller can work meanwhile.  With one thread per
    map no thread is started at all, and the map runs at once.
    """

    def __init__(self):
        self.pool = None

    def __enter__(self) -> "ThreadMap":
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.shutdown()

    def map(self, func, items: list, work: int) -> list:
        """``list(map(func, items))``, over `thread_count` threads."""
        return self.start(func, items, work)()

    def start(self, func, items: list, work: int):
        """Start ``map(func, items)``; a call that waits for its results in order."""
        if thread_count(len(items), work) < 2:
            results = list(map(func, items))
            return lambda: results
        if self.pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self.pool = ThreadPoolExecutor(cpu_count())
        futures = [self.pool.submit(func, item) for item in items]
        return lambda: [future.result() for future in futures]
