"""holonoise benchmark: four closed-loop workloads, one client, one op at a time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times set-up, then runs ops for S seconds and prints the
end-to-end metrics.  ``--trace 1`` prints the per-layer metrics of a
separate traced child instead.  Every op's outputs are checked.  The last
line of standard output is the JSON result; the full record, with the
environment, is written to ``.bench_out/`` at the root of the checkout.
perfbench/README.md says why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import NamedTuple, NoReturn

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
)

#: Fresh interpreters timed per run for setup_s, and -X importtime runs per trace.
SETUP_REPEATS = 3
IMPORT_REPEATS = 3

IMPORT_CLI = [PY, "-c", "import holonoise.cli"]


class Usage(NamedTuple):
    wall: float
    cpu: float
    rss_mb: float
    code: int


def run_child(argv, cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) -> Usage:
    """Run one child to completion; CPU and peak RSS are its own, from wait4."""
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=cwd, env=CHILD_ENV, stdout=stdout, stderr=stderr) as proc:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Usage(time.perf_counter() - start, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024, proc.returncode)


def fatal(message: str) -> NoReturn:
    sys.exit(f"perfbench: {message}")


# --- environment -------------------------------------------------------------

def blas_threads() -> int | str:
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(ctypes.CDLL(lib), symbol, None)
            if getter is not None:
                return getter()
    return "unknown"


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": blas_threads(),
        "git_revision": revision,
        "seed": seed,
    }


# --- timed runs --------------------------------------------------------------

def import_setup(work: Path) -> list[float]:
    """Wall time of a fresh interpreter's ``import holonoise.cli``."""
    runs = [run_child(IMPORT_CLI, work) for _ in range(SETUP_REPEATS)]
    if any(run.code for run in runs):
        fatal("holonoise.cli does not import")
    return [run.wall for run in runs]


def next_op_fits(elapsed: float, n_ops: int, seconds: float) -> bool:
    """Start another op if it should end nearer to the budget than stopping now."""
    return elapsed + 0.5 * elapsed / n_ops < seconds


def timed_cli(name: str, seed: int, seconds: float, work: Path) -> dict:
    steps_of, check = workloads.CLI_WORKLOADS[name]
    setup = import_setup(work)
    state = workloads.initial_state(name)
    ops = []
    start = time.perf_counter()
    while not ops or next_op_fits(time.perf_counter() - start, len(ops), seconds):
        k = len(ops)
        op_dir = work / f"op{k}"
        op_dir.mkdir()
        steps, error = [], None
        for i, argv in enumerate(steps_of(op_dir, seed, k)):
            with open(op_dir / f"step{i}.out", "wb") as out, \
                    open(op_dir / f"step{i}.err", "wb") as err:
                steps.append(run_child([PY, "-m", "holonoise.cli", *argv], op_dir, out, err))
            if steps[-1].code != 0:
                tail = (op_dir / f"step{i}.err").read_text(errors="replace").strip()
                error = f"{argv[0]} exited with {steps[-1].code}: {tail[-200:]}"
                break
        if error is None:
            try:
                error = check(op_dir, k, state)
            except Exception as exc:  # unreadable output fails the op, not the run
                error = f"check raised {type(exc).__name__}: {exc}"
        shutil.rmtree(op_dir)
        ops.append({"wall": sum(s.wall for s in steps), "cpu": sum(s.cpu for s in steps),
                    "rss_mb": max(s.rss_mb for s in steps),
                    "steps": [s.wall for s in steps], "error": error})
    elapsed = time.perf_counter() - start
    walls = [op["wall"] for op in ops]
    extras = {}
    if name == "file-roundtrip":
        extras["dump_p50_s"] = statistics.median(op["steps"][0] for op in ops)
        extras["load_p50_s"] = statistics.median(sum(op["steps"][1:]) for op in ops)
    return {
        "attempted": len(ops),
        "ops": ops,
        "errors": [f"op {k}: {op['error']}" for k, op in enumerate(ops) if op["error"]],
        "metrics": {
            "ops_per_s": (len(ops) / elapsed, "1/s"),
            "op_p50_s": (statistics.median(walls), "s"),
            "cpu_s_per_op": (sum(op["cpu"] for op in ops) / len(ops), "s"),
            "peak_rss_mb": (max(op["rss_mb"] for op in ops), "MB"),
            "setup_s": (statistics.median(setup), "s"),
        },
        "extras": extras,
        "elapsed_s": elapsed,
    }


def timed_mc(seed: int, seconds: float, work: Path) -> dict:
    # Set-up is timed in SETUP_REPEATS children; only the last one runs ops.
    setup = []
    for i in range(SETUP_REPEATS):
        budget = seconds if i == SETUP_REPEATS - 1 else 0
        start = time.perf_counter()
        with subprocess.Popen([PY, str(HERE / "mc_child.py"), str(seed), str(budget)],
                              cwd=work, env=CHILD_ENV, stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.readline()
            setup.append(time.perf_counter() - start)
            data = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        if ready.strip() != b"ready" or proc.returncode != 0:
            fatal(f"mc-ensemble child failed with exit code {proc.returncode}")
    result = json.loads(data)
    walls = result["walls"]
    errors = result["errors"]
    ensemble = workloads.mc_ensemble_check(result["z_null"], result["z_signal"], result["predicted"])
    if ensemble:
        errors.append(f"ensemble: {ensemble}")
    return {
        "attempted": len(walls),
        "ops": [{"wall": wall} for wall in walls],
        "errors": errors,
        "metrics": {
            "ops_per_s": (len(walls) / result["elapsed"], "1/s"),
            "op_p50_s": (statistics.median(walls), "s"),
            "cpu_s_per_op": (result["cpu_s"] / len(walls), "s"),
            "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        },
        "extras": {"replicas_null": len(result["z_null"]), "predicted_snr": result["predicted"],
                   "mean_signal_z": statistics.fmean(result["z_signal"])},
        "elapsed_s": result["elapsed"],
    }


def tail(walls: list[float]) -> dict | None:
    """Highest percentile with at least ten ops beyond it; None below 20 ops."""
    n = len(walls)
    if n < 20:
        return None
    return {"value_s": sorted(walls)[n - 11], "percentile": 100.0 * (n - 10) / n, "ops": n}


# --- traced run --------------------------------------------------------------

def import_breakdown(work: Path) -> dict[str, float]:
    """Cumulative -X importtime seconds of holonoise and of scipy.signal in it."""
    proc = subprocess.run([PY, "-X", "importtime", *IMPORT_CLI[1:]], cwd=work,
                          env=CHILD_ENV, capture_output=True, text=True)
    if proc.returncode != 0:
        fatal("holonoise.cli does not import")
    holonoise_us = scipy_signal_us = 0
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or not fields[1].strip().isdigit():
            continue
        cumulative, name = int(fields[1]), fields[2].strip()
        top_level = not fields[2][1:].startswith(" ")
        if top_level and name.split(".")[0] == "holonoise":
            holonoise_us += cumulative
        if name == "scipy.signal":
            scipy_signal_us = cumulative
    return {"import.holonoise_s": holonoise_us / 1e6, "import.scipy_signal_s": scipy_signal_us / 1e6}


def traced(name: str, seed: int, work: Path) -> dict:
    imports = [import_breakdown(work) for _ in range(IMPORT_REPEATS)]
    out = work / "trace.json"
    with open(work / "trace.err", "wb") as err:
        child = run_child([PY, str(HERE / "trace_child.py"), name, str(seed), str(out)], work,
                          stderr=err)
    if child.code != 0:
        fatal(f"traced child failed with exit code {child.code}: "
              + (work / "trace.err").read_text(errors="replace").strip()[-300:])
    data = json.loads(out.read_text())
    metrics = {key: (statistics.median(run[key] for run in imports), "s") for key in imports[0]}
    metrics.update(tracer.aggregate(data["spans"], len(data["traced_s"]), data["absent"]))
    metrics["process.minflt_per_op"] = (statistics.fmean(data["minflt"]), "1/op")
    metrics["trace.overhead_s"] = (
        statistics.median(data["traced_s"]) - statistics.median(data["untraced_s"]), "s")
    return {
        "attempted": data["attempted"],
        "errors": data["errors"],
        "metrics": metrics,
        "extras": {"absent": data["absent"], "untraced_op_p50_s": statistics.median(data["untraced_s"]),
                   "traced_op_p50_s": statistics.median(data["traced_s"])},
        "spans": data["spans"],
    }


# --- main --------------------------------------------------------------------

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < workloads.SEED_LIMIT:
        parser.error(f"--seed must lie in [0, {workloads.SEED_LIMIT})")
    if not (SRC / "holonoise" / "cli.py").is_file():
        fatal(f"no holonoise package under {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))  # the model-cli checks recompute through the public API

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # Bytecode is written once here, so no timed import compiles.
        subprocess.run([PY, "-m", "compileall", "-q", str(SRC)], env=CHILD_ENV, check=True,
                       stdout=subprocess.DEVNULL)
        env = environment(args.seed)
        if args.trace:
            record = traced(args.workload, args.seed, work)
        elif args.workload == "mc-ensemble":
            record = timed_mc(args.seed, args.seconds, work)
        else:
            record = timed_cli(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = record["attempted"]
    failed = sum(error.startswith("op ") for error in record["errors"])
    if not args.trace:
        walls = [op["wall"] for op in record["ops"]]
        record["extras"].update(fail_ratio=failed / attempted, op_tail_s=tail(walls))
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace, env=env)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("env " + json.dumps(env))
    print(f"{args.workload} seed {args.seed}: {attempted} ops, {failed} failed")
    for key, (value, unit) in record["metrics"].items():
        print(f"  {key:42s} {value:14.6g} {unit}")
    for key, value in record["extras"].items():
        print(f"  {key:42s} {json.dumps(value)}")
    for error in record["errors"][:5]:
        print(f"  FAILED {error}")
    print(json.dumps({
        "correct": not record["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in record["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
