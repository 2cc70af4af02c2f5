"""Ordered maps over the CPUs this process may use.

One policy serves every parallel stage: the worker count is the size of
the process's CPU affinity mask (``os.sched_getaffinity``), so ``taskset``
is the only control, and with one CPU nothing is started at all.
`pmap` forks processes, for pure-Python work such as CSV formatting and
parsing; `tmap` runs threads, for numpy work that releases the GIL.  Both
return results in item order, so a caller that combines them in that order
gets the same bits on any CPU count.  Their pool modules are imported only
when a pool is started.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterator

#: Array elements of work below which `tmap` stays in the calling thread.
#: On two cores, a null pair of 2^17 samples (2^18 elements) synthesized no
#: faster on two threads, and a 2^15-sample Monte Carlo replica slower.
MIN_THREAD_WORK = 1 << 19


def cpu_count() -> int:
    """CPUs this process may run on; 1 where there is no affinity mask."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def pmap(func, items: list) -> Iterator:
    """``map(func, items)`` in order, spread over the CPUs this process may use.

    Runs in-process for fewer than two items or a single CPU, so small
    outputs never start a worker; so do platforms without an affinity mask.
    Workers are forked: they inherit the parent's open files and loaded
    modules and run only ``func``.
    """
    workers = min(cpu_count(), len(items))
    if workers < 2:
        yield from map(func, items)
        return
    import multiprocessing

    # A forked worker flushes the stdio buffers it inherited when it exits;
    # flushing first keeps it from writing them a second time.
    sys.stdout.flush()
    sys.stderr.flush()
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        yield from pool.imap(func, items)


def thread_count(items: int, work: int) -> int:
    """Threads `tmap` runs for ``items`` tasks of ``work`` array elements in all."""
    return 1 if work < MIN_THREAD_WORK else max(1, min(cpu_count(), items))


def tmap(func, items: list, work: int) -> list:
    """``list(map(func, items))``, over `thread_count` threads.

    Every thread has ended when this returns, so a later `pmap` never forks
    a process with live threads.  With one thread it runs in the calling
    thread and starts none.
    """
    workers = thread_count(len(items), work)
    if workers < 2:
        return list(map(func, items))
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(func, items))
