"""Fuzz of the command line: no input ends in a traceback.

hypothesis drives ``main(argv)`` in-process, derandomized so every run tries
the same inputs.  One test draws argv for every subcommand, its floats
taken from the edges of the float range (0, +-inf, NaN, 1e+-300, the least subnormal) as well as
anywhere in it; the other feeds ``analyze`` and ``detect`` byte-level
corruptions of a small ``simulate --dump-timeseries`` run: a truncation, a
flipped digit, an edited header value or a duplicated line.  Every run must
exit 0, 1, 2 or 64, print no traceback, and explain a non-zero exit in
exactly one stderr line (after the usage, for a usage error); what a
successful run prints must hold no non-finite number.  A NumPy
RuntimeWarning is an error under the suite's warning filter, so an
overflow or invalid operation inside the package fails here too.

Each test runs in a few seconds; the dump has n = 2^12 samples and
256-sample segments.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonoise.cli import main
from holonoise.slits import MAX_ANGLES

DUMP_CONFIG = {
    "arm_length": 40.0,
    "shot_asd": 2e-18,
    "sample_rate": 5e7,
    "n_samples": 2**12,
    "seed": 5,
    "holo_scale": 1.0,
    "segment_length": 256,
    "overlap": 0.5,
}

EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, 1e-300, 5e-324, -1.0]
#: An edge, an ordinary value, a non-negative one or any float at all.  Most
#: flags refuse a negative value at once, so most draws are not negative,
#: and an edge in one flag meets valid values in the others.
FLOATS = st.one_of(st.sampled_from(EDGES), st.floats(1e-3, 1e3), st.floats(0.0), st.floats())


def run(argv: list[str]) -> int:
    """Exit code of ``main(argv)``, after checking how it ended."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = err.getvalue()
    assert code in (0, 1, 2, 64), (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    if code == 64:
        assert text.startswith("usage: "), (argv, text)
        text = text[text.index("\nerror: ") + 1 :]
    if code:
        assert len(text.splitlines()) == 1 and text.endswith("\n"), (argv, text)
        assert text.startswith(("error: ", "i/o error: ")), (argv, text)
    else:
        # What a command prints on success is finite: no nan or inf in a
        # CSV, and no NaN or Infinity, which are not JSON, in a report.
        assert not re.search(r"\b(nan|inf|NaN|Infinity)\b", out.getvalue()), argv
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding one dump run, in ``run/``, and a config file."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "config.json").write_text(json.dumps(DUMP_CONFIG))
    assert main(["simulate", "--config", str(root / "config.json"),
                 "--output-dir", str(root / "run"), "--dump-timeseries"]) == 0
    return root


def flag(name: str, value) -> str:
    return f"--{name}={value!r}"


def band(lo: float, hi: float) -> str:
    return f"--band={lo!r}:{hi!r}"


def argv_strategy(command: str, root) -> st.SearchStrategy:
    optional = st.one_of(st.none(), FLOATS)
    if command == "slits":
        return st.builds(
            lambda d, sep, width, lam, n, blurred, sweep: [
                "slits", flag("screen-distance", d),
                *([flag("separation", sep)] if sep is not None else []),
                *([flag("slit-width", width)] if width is not None else []),
                *([flag("wavelength", lam)] if lam is not None else []),
                *([f"--n-angles={n}"] if n is not None else []),
                *(["--blurred"] if blurred else []), *(["--sweep"] if sweep else []),
            ],
            FLOATS, optional, optional, optional,
            st.one_of(st.none(), st.sampled_from([-1, 0, 63, 64, 1000, MAX_ANGLES + 1])),
            st.booleans(), st.booleans(),
        )
    if command == "simulate":
        return st.builds(lambda lo, hi: ["simulate", "--config", str(root / "config.json"),
                                         "--output-dir", str(root / "sim"), band(lo, hi)],
                         FLOATS, FLOATS)
    if command == "detect":
        return st.builds(lambda lo, hi: ["detect", "--estimate", str(root / "run" / "spectra.csv"),
                                         band(lo, hi)], FLOATS, FLOATS)
    name = {"constants": None, "predict": "arm-length", "info": "length"}[command]
    return FLOATS.map(lambda x: [command] + ([flag(name, x)] if name else []))


@pytest.mark.parametrize("command", ["constants", "predict", "info", "slits", "simulate",
                                     "detect"])
def test_argv_never_ends_in_a_traceback(workdir, command):
    @settings(max_examples={"constants": 10, "slits": 300}.get(command, 150), deadline=None)
    @given(argv_strategy(command, workdir))
    def check(argv):
        run(argv)

    check()


@st.composite
def corrupted(draw, data: bytes) -> bytes:
    """``data`` with one truncation, flipped digit, header value or duplicated line."""
    kind = draw(st.sampled_from(["truncate", "digit", "header", "duplicate"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if kind == "digit":
        at = re.compile(rb"\d").search(data, draw(st.integers(0, len(data) - 1)))
        i = at.start() if at else data.index(b"0")
        new = draw(st.sampled_from(b"0123456789".replace(data[i : i + 1], b"")))
        return data[:i] + bytes([new]) + data[i + 1 :]
    lines = data.splitlines(keepends=True)
    if kind == "duplicate":
        i = draw(st.integers(0, len(lines) - 1))
        return b"".join(lines[: i + 1] + lines[i:])
    fields = [i for i, line in enumerate(lines) if line.startswith(b"# ") and b" = " in line]
    i = draw(st.sampled_from(fields))
    value = draw(st.one_of(FLOATS.map(repr), st.integers().map(str), st.text(max_size=6)))
    lines[i] = lines[i].partition(b" = ")[0] + b" = " + value.encode() + b"\n"
    return b"".join(lines)


def test_corrupted_files_never_end_in_a_traceback(workdir):
    series = (workdir / "run" / "timeseries.csv").read_bytes()
    spectra = (workdir / "run" / "spectra.csv").read_bytes()
    # No manifest beside them, so detect reaches the header and column checks.
    bad = workdir / "bad"
    bad.mkdir()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.tuples(st.just("timeseries.csv"), corrupted(series)),
        st.tuples(st.just("spectra.csv"), corrupted(spectra)),
    ))
    def check(case):
        name, data = case
        (bad / name).write_bytes(data)
        if name == "timeseries.csv":
            run(["analyze", "--timeseries", str(bad / name),
                 "--output", str(bad / "analyzed.csv")])
        else:
            run(["detect", "--estimate", str(bad / name), "--band", "0:1e7"])

    check()
