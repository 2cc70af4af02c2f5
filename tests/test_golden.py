"""Golden output bits: the SHA-256 of what fixed runs write, checked across commits.

Each output is hashed with its ``# holonoise v…`` line removed, so a version
bump alone does not change the table.  The bits are numpy's (its Philox
normals and pocketfft), so ``tests/golden.json`` is keyed by numpy
``major.minor``; on a numpy with no entry the test skips and names the
version.  numpy's SIMD dispatch also moves some bits, so a digest that
differs is reported with the dispatch targets in use.  Every run is made
at 1 and 2 CPUs (the ``cpus`` fixture), so the table also holds the bits to
not depending on the CPU count.  A change that moves a digest updates the
table, bumps the version and names each changed output in CHANGES.md.  To
print the table for the numpy at hand:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from holonoise.cli import main
from holonoise.files import numpy_cpu_dispatch

GOLDEN = Path(__file__).with_name("golden.json")

#: The README's example config.
README_CONFIG = {
    "arm_length": 40.0,
    "shot_asd": 2e-18,
    "sample_rate": 5e7,
    "n_samples": 4194304,
    "seed": 0,
    "holo_scale": 1.0,
    "segment_length": 8192,
    "overlap": 0.5,
}


def numpy_key() -> str:
    return ".".join(np.__version__.split(".")[:2])


def digest(path: Path, drop: bytes = b"# holonoise v") -> str:
    """SHA-256 of a file without its lines that start with ``drop``, by default its version line."""
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if not l.startswith(drop))).hexdigest()


def simulate(tmp_path: Path, config: dict, *flags: str) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--output-dir", str(out), *flags]) == 0
    return out


def spectra_and_report(tmp_path: Path, config: dict) -> dict:
    out = simulate(tmp_path, config)
    return {name: digest(out / name) for name in ("spectra.csv", "report.json")}


def dump_and_analyze(tmp_path: Path) -> dict:
    out = simulate(tmp_path, dict(README_CONFIG, n_samples=2**18, segment_length=1024),
                   "--dump-timeseries")
    analyzed = tmp_path / "analyzed.csv"
    assert main(["analyze", "--timeseries", str(out / "timeseries.csv"),
                 "--output", str(analyzed)]) == 0
    report = tmp_path / "detect.json"
    assert main(["detect", "--estimate", str(analyzed), "--band", "0:3.7e6",
                 "--output", str(report)]) == 0
    # input_sha256 covers the analyzed file's version line, so it is checked
    # against that file here and left out of the report's digest.
    input_sha256 = json.loads(report.read_text())["input_sha256"]
    assert input_sha256 == hashlib.sha256(analyzed.read_bytes()).hexdigest()
    names = ("timeseries.csv", "spectra.csv", "report.json")
    return {**{name: digest(out / name) for name in names}, "analyze": digest(analyzed),
            "detect": digest(report, b'  "input_sha256": ')}


def slits(tmp_path: Path) -> dict:
    # 2^17 rows: more than one CSV block, so at 2 CPUs they go through the workers.
    out = tmp_path / "pattern.csv"
    assert main(["slits", "--screen-distance", "1", "--n-angles", str(2**17),
                 "--output", str(out)]) == 0
    return {"pattern.csv": digest(out)}


#: The --output file of each model command, and its arguments.
MODEL_COMMANDS = {
    "constants.json": ["constants"],
    "info.json": ["info", "--length", "1.3e26"],
    "predict.csv": ["predict", "--arm-length", "40"],
    "slits-sweep.csv": ["slits", "--screen-distance", "1", "--sweep"],
    "slits-blurred.csv": ["slits", "--screen-distance", "1", "--blurred"],
}


def model_commands(tmp_path: Path) -> dict:
    for name, argv in MODEL_COMMANDS.items():
        assert main([*argv, "--output", str(tmp_path / name)]) == 0
    return {name: digest(tmp_path / name) for name in MODEL_COMMANDS}


RUNS = {
    "simulate-readme-seed0": lambda tmp_path: spectra_and_report(tmp_path, README_CONFIG),
    "simulate-readme-seed1": lambda tmp_path: spectra_and_report(tmp_path,
                                                                 dict(README_CONFIG, seed=1)),
    # The case whose bits depended on BLAS threads before 0.11.0.
    "simulate-2^19-L32768": lambda tmp_path: spectra_and_report(
        tmp_path, dict(README_CONFIG, n_samples=2**19, segment_length=32768)),
    "simulate-dump-2^18-L1024": dump_and_analyze,
    "slits-2^17": slits,
    "model-commands": model_commands,
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_output_bits_match_the_golden_table(tmp_path, run, cpus):
    table = json.loads(GOLDEN.read_text())
    if numpy_key() not in table:
        pytest.skip(f"tests/golden.json has no digests for numpy {numpy_key()}")
    assert RUNS[run](tmp_path) == table[numpy_key()][run], (
        f"numpy {np.__version__} dispatches to {numpy_cpu_dispatch()} on this CPU; the table "
        "was recorded under AVX-512 dispatch (X86_V4 and up), and under AVX2 or baseline "
        "dispatch some digests differ with no code change (README, Reproducibility)"
    )


if __name__ == "__main__":
    import contextlib
    import tempfile

    entry = {}
    for name, run in sorted(RUNS.items()):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
            entry[name] = run(Path(tmp))
    json.dump({numpy_key(): entry}, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
