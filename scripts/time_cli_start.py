#!/usr/bin/env python3
"""Time the five model commands, each in a fresh interpreter.

Runs ``constants``, ``info``, ``predict`` and the two ``slits`` commands
(a sweep and a blurred pattern) ``--repeats`` times each, one command after
another, as forked children of this process that exec
``python -m holonoise.cli`` with stdout discarded.  For each run it takes:

- ``wall_s``: from the fork to the child's exit;
- ``cpu_s``: the child's user plus system time, from ``os.wait4``;
- ``threads``: the threads alive in the child as the command returns,
  counted in ``/proc/self/task`` (null where there is no such directory).

Each figure printed is the median over the repeats; ``total`` sums the
medians of the five commands.  The result is printed as one JSON object.

    python scripts/time_cli_start.py --repeats 11
"""

import argparse
import json
import os
import statistics
import sys
import time

COMMANDS = {
    "constants": ["constants"],
    "info": ["info", "--length", "1.3e26"],
    "predict": ["predict", "--arm-length", "40"],
    "slits --sweep": ["slits", "--screen-distance", "1", "--sweep"],
    "slits --blurred": ["slits", "--screen-distance", "1", "--blurred"],
}

#: Runs holonoise.cli as ``python -m`` would, then writes the thread count to
#: the descriptor named by the first argument.
CHILD = """\
import os, runpy, sys
fd = int(sys.argv.pop(1))
try:
    runpy.run_module("holonoise.cli", run_name="__main__", alter_sys=True)
finally:
    tasks = "/proc/self/task"
    os.write(fd, str(len(os.listdir(tasks)) if os.path.isdir(tasks) else "").encode())
"""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    return ap.parse_args(argv)


def run(args: list[str]) -> tuple[float, float, int | None]:
    """Wall time, CPU time and thread count of one forked ``holonoise.cli`` run."""
    read, write = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            os.set_inheritable(write, True)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.execv(sys.executable, [sys.executable, "-c", CHILD, str(write), *args])
        finally:
            os._exit(127)
    os.close(write)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    with os.fdopen(read) as pipe:
        threads = pipe.read()
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"holonoise {' '.join(args)} failed")
    return wall, usage.ru_utime + usage.ru_stime, int(threads) if threads else None


def main(argv=None) -> int:
    args = parse_args(argv)
    runs = {name: [] for name in COMMANDS}
    for _ in range(args.repeats):
        for name, command in COMMANDS.items():
            runs[name].append(run(command))
    medians = {
        name: {key: statistics.median(column) if None not in column else None
               for key, column in zip(("wall_s", "cpu_s", "threads"), zip(*rows))}
        for name, rows in runs.items()
    }
    print(json.dumps({
        "repeats": args.repeats,
        "cpus": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commands": medians,
        "total": {key: sum(m[key] for m in medians.values()) for key in ("wall_s", "cpu_s")},
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
