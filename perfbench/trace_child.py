"""Traced run of one workload, in one interpreter.

Usage: trace_child.py WORKLOAD SEED OUT_JSON

Runs one warm-up op, then ``UNTRACED`` ops with tracing off (their wall
times and minor page faults), then the next ``TRACED`` ops under `Tracer`
and ``tracemalloc``.  CLI workloads call ``holonoise.cli.main`` in-process,
inside a ``cli.<subcommand>`` span.  The spans and the checks' verdicts go
to OUT_JSON; the parent turns them into metrics.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

import holonoise.cli

import workloads
from tracer import Tracer

#: (untraced, traced) op counts: enough ops for a steady median and, on
#: mc-ensemble, for the ensemble check.
OPS = {
    "simulate-default": (1, 1),
    "file-roundtrip": (1, 1),
    "model-cli": (3, 3),
    "mc-ensemble": (50, 50),
}


def cli_op(name: str, seed: int, k: int, state: dict, tracer: Tracer | None) -> str | None:
    steps_of, check = workloads.CLI_WORKLOADS[name]
    op_dir = Path.cwd() / f"op{k}"
    op_dir.mkdir()
    steps = steps_of(op_dir, seed, k)
    home = os.getcwd()
    os.chdir(op_dir)
    try:
        for i, argv in enumerate(steps):
            with open(f"step{i}.out", "w") as out, contextlib.redirect_stdout(out):
                span = tracer.open("cli", f"cli.{argv[0]}", io=True) if tracer else None
                try:
                    code = holonoise.cli.main(list(argv))
                    out.flush()
                finally:
                    if tracer:
                        tracer.close(span)
            if code != 0:
                return f"{argv[0]} exited with {code}"
        return check(op_dir, k, state)
    finally:
        os.chdir(home)
        shutil.rmtree(op_dir)


def main() -> None:
    name, seed, out_path = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    untraced, traced = OPS[name]
    state = workloads.initial_state(name)
    predicted = workloads.mc_predicted_snr() if name == "mc-ensemble" else None
    z_null, z_signal, errors = [], [], []

    def op(k: int, tracer: Tracer | None) -> None:
        try:
            if name == "mc-ensemble":
                zn, zs = workloads.mc_op(seed, k)
                z_null.append(zn)
                z_signal.append(zs)
                error = workloads.mc_op_check(zn, zs)
            else:
                error = cli_op(name, seed, k, state, tracer)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        if error:
            errors.append(f"op {k}: {error}")

    op(0, None)
    untraced_s, minflt = [], []
    for k in range(1, 1 + untraced):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        op(k, None)
        untraced_s.append(time.perf_counter() - start)
        minflt.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)

    tracer = Tracer()
    tracer.install()
    traced_s = []
    tracemalloc.start()
    for k in range(1 + untraced, 1 + untraced + traced):
        start = time.perf_counter()
        op(k, tracer)
        traced_s.append(time.perf_counter() - start)
    tracemalloc.stop()

    if name == "mc-ensemble":
        error = workloads.mc_ensemble_check(z_null, z_signal, predicted)
        if error:
            errors.append(f"ensemble: {error}")
    out_path.write_text(json.dumps({
        "attempted": 1 + untraced + traced,
        "errors": errors,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "minflt": minflt,
        "absent": sorted(set(tracer.absent)),
        "spans": tracer.spans,
    }))


if __name__ == "__main__":
    main()
