"""Closed-loop Monte Carlo replicas in one long-lived interpreter.

Usage: mc_child.py SEED SECONDS

Imports holonoise, runs one untimed warm-up op and prints ``ready``: the
parent times set-up up to that line.  Then it runs ops until SECONDS have
passed (none when SECONDS is 0) and prints one JSON object with the op wall
times, the loop's CPU time and every z-score.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import holonoise  # noqa: F401  (part of the set-up the parent times)

import workloads


def cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    seed, seconds = int(sys.argv[1]), float(sys.argv[2])
    workloads.mc_op(seed, 0)
    print("ready", flush=True)

    walls, z_null, z_signal, errors = [], [], [], []
    cpu0 = cpu_s()
    start = time.perf_counter()
    k = 1
    while seconds > 0 and (k == 1 or time.perf_counter() - start < seconds):
        t0 = time.perf_counter()
        try:
            zn, zs = workloads.mc_op(seed, k)
            z_null.append(zn)
            z_signal.append(zs)
            error = workloads.mc_op_check(zn, zs)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        walls.append(time.perf_counter() - t0)
        if error:
            errors.append(f"op {k}: {error}")
        k += 1
    elapsed = time.perf_counter() - start
    cpu = cpu_s() - cpu0
    json.dump({
        "walls": walls,
        "elapsed": elapsed,
        "cpu_s": cpu,
        "z_null": z_null,
        "z_signal": z_signal,
        "errors": errors,
        "predicted": workloads.mc_predicted_snr(),
    }, sys.stdout)


if __name__ == "__main__":
    main()
