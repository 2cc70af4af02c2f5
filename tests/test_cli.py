"""End-to-end tests of the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes and file
outputs are asserted directly, except the checks that need a fresh
interpreter (no traceback on stderr, what ``import holonoise.cli`` loads and
starts, the same bytes on one BLAS thread and on two);
one smoke test exercises the installed console script if present.  Simulation configs are kept small (2^15
samples); the CSV block and byte-range tests share one 3-block, ~19 MB table,
and the streamed ``analyze`` tests two dumps of 2^18 and 2^20 samples
(~24 and ~94 MB), so the whole module stays around half a minute.
"""

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

import holonoise
from holonoise import CONSTANTS, ExperimentConfig, HolographicModel, cli, spectral
from holonoise.cli import (
    CHUNK_ROWS,
    ENV_OUTPUT_DIR,
    PRNG_IDENTIFIER,
    RANGE_BYTES,
    _Input,
    _write_csv,
    load_config,
    main,
)

SMALL_CONFIG = {
    "arm_length": 40.0,
    "shot_asd": 2e-18,
    "sample_rate": 5e7,
    "n_samples": 2**15,
    "seed": 123,
    "holo_scale": 1.0,
    "segment_length": 1024,
    "overlap": 0.5,
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def run_python(*args, env=None):
    """Run a fresh interpreter, which inherits how this one finds holonoise."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env=env)


def unvouched_spectra(tmp_path, config_path):
    """The spectra.csv of a simulate run, copied to where no manifest lists it.

    `detect` checks the digest of a file its manifest lists before anything
    else, so edits meant for the header and column checks go to this copy.
    """
    rundir = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path),
                 "--output-dir", str(rundir)]) == 0
    copy = tmp_path / "spectra.csv"
    copy.write_bytes((rundir / "spectra.csv").read_bytes())
    return copy


def read_csv(path):
    meta = {}
    for line in path.read_text().splitlines():
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "=" in body:
            key, _, val = body.partition("=")
            meta[key.strip()] = val.strip()
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return meta, data


# ------------------------------------------------------------------ constants


def test_constants_json(tmp_path):
    out = tmp_path / "constants.json"
    assert main(["constants", "--output", str(out)]) == 0
    values = json.loads(out.read_text())
    assert set(values) == {"c", "hbar", "G", "t_P", "l_P", "omega_P", "m_P"}
    assert values["t_P"] == pytest.approx(5.39e-44, rel=0.01)
    # 17-significant-digit rendering: parses back to the exact double.
    assert values["t_P"] == CONSTANTS.t_P
    assert values["c"] == 299792458.0


# -------------------------------------------------------------------- predict


def test_predict_curves(tmp_path):
    out = tmp_path / "curves.csv"
    assert main(["predict", "--arm-length", "40", "--output", str(out)]) == 0
    text = out.read_text()
    model = HolographicModel.from_baseline(40.0)
    assert f"# sigma2_m2 = {model.sigma2:.17g}" in text
    assert f"# tau_c_s = {model.tau_c:.17g}" in text
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    acf_rows = [r for r in rows if r.startswith("acf,")]
    psd_rows = [r for r in rows if r.startswith("psd,")]
    assert len(acf_rows) == 256
    assert len(psd_rows) == 512
    first_acf = acf_rows[0].split(",")
    assert float(first_acf[1]) == 0.0
    assert float(first_acf[2]) == model.sigma2
    first_psd = psd_rows[0].split(",")
    assert float(first_psd[2]) == pytest.approx(2 * model.sigma2 * model.tau_c, rel=1e-15)


def test_predict_rejects_overflowing_arm_length():
    # 2L overflows, so tau_c = 2L/c is inf; the message must say so before
    # numpy meets the inf and warns.
    proc = run_python("-m", "holonoise.cli", "predict", "--arm-length", "1e308")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: arm length L = 1e+308 m is out of range")
    assert "tau_c" in proc.stderr
    assert "Warning" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_csv_rows_match_per_value_formatting(tmp_path):
    rows = np.array([[-0.0, 1e300, 5e-324], [0.1, -2.5e-17, 123456789.125]])
    _write_csv(tmp_path / "rows.csv", {"sample_rate_hz": 5e7}, ["a", "b", "c"], rows)
    text = (tmp_path / "rows.csv").read_text()
    body = [line for line in text.splitlines() if not line.startswith("#")]
    assert body == [",".join(format(v, ".17g") for v in row) for row in rows.tolist()]
    assert body[0] == "-0,1.0000000000000001e+300,4.9406564584124654e-324"


@pytest.fixture(scope="module")
def block_rows():
    """3 blocks and 5 rows of awkward values, and their per-value CSV text."""
    rows = np.random.default_rng(7).standard_normal((3 * CHUNK_ROWS + 5, 4))
    rows *= 10.0 ** np.random.default_rng(8).integers(-300, 300, rows.shape)
    rows[0] = [-0.0, 1e300, 5e-324, 0.1]
    rows[-1] = [5e-324, -0.0, 1e300, -2.5e-17]
    text = "# holonoise v{}\n# sample_rate_hz = 50000000\n# columns: a,b,c,d\n".format(
        holonoise.__version__
    ) + "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in rows.tolist())
    return rows, text.encode()


def test_csv_blocks_match_per_value_formatting_on_any_cpu_count(tmp_path, block_rows, cpus):
    rows, expected = block_rows
    path = tmp_path / "blocks.csv"
    digest = _write_csv(path, {"sample_rate_hz": 5e7}, ["a", "b", "c", "d"], rows)
    data = path.read_bytes()
    assert data == expected
    assert digest == hashlib.sha256(data).hexdigest()


def test_read_csv_multi_range_is_bit_exact(tmp_path, block_rows, cpus):
    rows, expected = block_rows
    assert len(expected) > 2 * RANGE_BYTES
    path = tmp_path / "blocks.csv"
    path.write_bytes(expected)
    with _Input(path) as csv:
        parts = list(csv.parts())
    assert csv.meta == {"sample_rate_hz": "50000000"}
    assert len(parts) > 2
    assert csv.rows == len(rows)
    assert np.concatenate(parts).tobytes() == rows.tobytes()


@pytest.fixture(scope="module")
def long_dumps(tmp_path_factory):
    """The timeseries.csv of simulate --dump-timeseries runs of 2^18 and 2^20 samples."""
    paths = {}
    for n in (2**18, 2**20):
        rundir = tmp_path_factory.mktemp(f"dump{n}")
        config = rundir / "config.json"
        config.write_text(json.dumps(dict(SMALL_CONFIG, n_samples=n)))
        assert main(["simulate", "--config", str(config), "--output-dir", str(rundir),
                     "--dump-timeseries"]) == 0
        paths[n] = rundir / "timeseries.csv"
    return paths


def test_analyze_bad_value_in_last_range(tmp_path, long_dumps):
    expected = long_dumps[2**18].read_bytes()
    assert len(expected) > 2 * RANGE_BYTES
    bad = tmp_path / "timeseries.csv"
    bad.write_bytes(expected[: expected.rindex(b",")] + b",zz\n")
    proc = run_python("-m", "holonoise.cli", "analyze", "--timeseries", str(bad))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"error: malformed CSV {bad}")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_analyze_header_only_file(tmp_path, capsys):
    path = tmp_path / "timeseries.csv"
    path.write_text("# sample_rate_hz = 5e7\n# columns: time_s,ch1_m,ch2_m,common_m\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--timeseries", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path} has no data rows\n"


def test_multi_block_stdout_matches_file(tmp_path):
    # Forked workers must not repeat the header already buffered for stdout.
    argv = ["-m", "holonoise.cli", "slits", "--screen-distance", "1",
            "--n-angles", str(2 * CHUNK_ROWS + 1)]
    out = tmp_path / "pattern.csv"
    assert run_python(*argv, "--output", str(out)).returncode == 0
    proc = run_python(*argv)
    assert proc.returncode == 0
    assert proc.stdout == out.read_text()


def test_predict_rejects_bad_length():
    assert main(["predict", "--arm-length", "-3"]) == 1


# ----------------------------------------------------------------------- info


def test_info_hair_width(tmp_path):
    out = tmp_path / "info.json"
    assert main(["info", "--length", "1.3e26", "--output", str(out)]) == 0
    budget = json.loads(out.read_text())
    assert budget["pixel_size_m"] == pytest.approx(1.15e-4, rel=1e-3)
    assert budget["ratio"] == pytest.approx(budget["length_m"] / CONSTANTS.l_P, rel=1e-12)
    # Every value parses back to the double info_budget computed.
    assert budget["ratio"] == holonoise.info_budget(1.3e26).ratio
    assert budget["total_info"] == holonoise.info_budget(1.3e26).total_info


def test_info_rejects_sub_planckian():
    assert main(["info", "--length", "1e-40"]) == 1


# ---------------------------------------------------------------------- slits


def test_slits_pattern(tmp_path):
    out = tmp_path / "pattern.csv"
    code = main(
        [
            "slits",
            "--screen-distance", "1.0",
            "--separation", "8.04e-18",
            "--wavelength", "4.02e-18",
            "--output", str(out),
        ]
    )
    assert code == 0
    meta, data = read_csv(out)
    assert meta["blurred"] == "false"
    assert data.shape == (4096, 2)
    assert float(data[:, 1].sum()) == pytest.approx(1.0, rel=1e-12)


def test_slits_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "slits",
            "--screen-distance", "1.0",
            "--wavelength", "4.02e-18",
            "--sweep",
            "--output", str(out),
        ]
    )
    assert code == 0
    _, data = read_csv(out)
    assert data.shape == (41, 3)
    # bound column is constant sqrt(L c t_P).
    assert np.all(data[:, 2] == data[0, 2])
    assert data[0, 2] == pytest.approx(4.0202674338015744e-18, rel=1e-15)
    # metric rises through the sweep.
    assert data[-1, 1] > 0.5 > data[0, 1]


@pytest.mark.parametrize("argv,reason", [
    # dof**3 overflowed and ended in an OverflowError traceback.
    (["info", "--length", "1e100"], "more degrees of freedom than a float holds"),
    # Every count was inf, printed as "Infinity", which is not JSON, with exit 0.
    (["info", "--length", "1e300"], "more degrees of freedom than a float holds"),
    # The blur underflowed to 0 and the default angle span divided by it.
    (["slits", "--screen-distance", "1e-300"], "gives a blur of 0"),
    # The fringe phase overflowed: NaN intensities and numpy warnings, exit 0.
    (["slits", "--screen-distance", "1", "--separation", "1e300"],
     "pattern has no finite, positive power"),
])
def test_model_commands_refuse_values_past_the_float_range(argv, reason, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert reason in err


def test_slits_rejects_huge_angle_grid():
    proc = run_python("-m", "holonoise.cli", "slits", "--screen-distance", "1",
                      "--n-angles", "100000000000")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "n_angles" in proc.stderr


# ------------------------------------------------------------------- simulate


def test_simulate_outputs_and_manifest(tmp_path, config_path, capsys):
    outdir = tmp_path / "run"
    code = main(["simulate", "--config", str(config_path), "--output-dir", str(outdir)])
    assert code == 0
    for name in ("spectra.csv", "report.json", "manifest.json"):
        assert (outdir / name).is_file()

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"] == SMALL_CONFIG
    assert manifest["prng"] == PRNG_IDENTIFIER
    assert "philox" in manifest["prng"].lower()
    assert "common pieces=0, increments=3 (Brownian-difference moving sum)" in manifest["prng"]
    assert manifest["version"] == holonoise.__version__ == "0.11.0"
    assert manifest["numpy_version"] == np.__version__
    import hashlib

    for name, digest in manifest["outputs"].items():
        actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        assert actual == digest

    report = json.loads((outdir / "report.json").read_text())
    assert report["n_avg"] == 63
    assert 0.0 <= report["null_pvalue"] <= 1.0
    assert report["snr"] > 0.0

    printed = capsys.readouterr().out
    assert "spectra.csv" in printed


def test_simulate_deterministic_across_runs(tmp_path, config_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(config_path), "--output-dir", str(out1),
                 "--dump-timeseries"]) == 0
    assert main(["simulate", "--config", str(config_path), "--output-dir", str(out2),
                 "--dump-timeseries"]) == 0
    for name in ("spectra.csv", "report.json", "timeseries.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["outputs"] == m2["outputs"]
    assert m1["numpy_version"] == m2["numpy_version"] == np.__version__


def test_simulate_spectra_are_welch_of_synthesize_pair(tmp_path, cpus):
    # Three blocks, the last a partial one, each cutting a segment: the
    # streamed spectra are the one-shot Welch of the whole pair, and the
    # dumped series is that pair, on one CPU or two.
    config = dict(SMALL_CONFIG, n_samples=600_001)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output-dir", str(run),
                 "--dump-timeseries"]) == 0
    cfg = ExperimentConfig(**config)
    pair = holonoise.synthesize_pair(cfg)
    est = holonoise.welch_csd(pair, cfg.segment_length, cfg.overlap)
    meta, data = read_csv(run / "spectra.csv")
    assert int(meta["n_avg"]) == est.n_avg == 1170
    expected = np.column_stack([est.freqs, est.psd1, est.psd2, est.csd.real, est.csd.imag,
                                est.coherence])
    assert data.tobytes() == expected.tobytes()
    _, series = read_csv(run / "timeseries.csv")
    assert series[:, 1:].tobytes() == np.column_stack([pair.ch1, pair.ch2, pair.common]).tobytes()
    assert series[:, 0].tobytes() == (np.arange(cfg.n_samples) / cfg.sample_rate).tobytes()


def peak_rss_mb(argv, stderr_path, code=0):
    """Peak resident set of a fresh ``python -m holonoise.cli`` run that exits
    with ``code``, from wait4.

    A child started by vfork reports the peak of this process as its own,
    since exec folds the peak of the memory it leaves into the child's; a
    ``preexec_fn`` makes Popen fork instead.
    """
    with stderr_path.open("wb") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "holonoise.cli", *argv],
                                stdout=subprocess.DEVNULL, stderr=stderr,
                                preexec_fn=lambda: None)
        _, status, usage = os.wait4(proc.pid, 0)
        # Popen warns, when collected, about a child it has not seen exit.
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == code, stderr_path.read_text()
    return usage.ru_maxrss / 1024


def test_simulate_memory_does_not_grow_with_n(tmp_path):
    # The pair is synthesized and Welch-averaged block by block, so eight
    # times the samples (2^20 -> 2^23) may not cost more than 10 MB more;
    # holding the series whole cost ~176 MB more.
    peaks = []
    for n in (2**20, 2**23):
        config = tmp_path / f"config{n}.json"
        config.write_text(json.dumps(dict(SMALL_CONFIG, n_samples=n, segment_length=8192)))
        peaks.append(peak_rss_mb(["simulate", "--config", str(config),
                                  "--output-dir", str(tmp_path / f"run{n}")],
                                 tmp_path / "stderr.txt"))
    assert abs(peaks[1] - peaks[0]) <= 10.0, peaks


def test_analyze_memory_does_not_grow_with_n(tmp_path, long_dumps):
    # The file is parsed a byte range at a time and each range's rows go
    # straight into the Welch pass, so four times the samples (2^18 -> 2^20)
    # may not cost more than 15 MB more; a reader holding the series whole
    # needs ~50 MB more.
    peaks = [peak_rss_mb(["analyze", "--timeseries", str(path),
                          "--output", str(tmp_path / f"spectra{n}.csv")],
                         tmp_path / "stderr.txt")
             for n, path in sorted(long_dumps.items())]
    assert abs(peaks[1] - peaks[0]) <= 15.0, peaks


def test_detect_refuses_a_timeseries_in_memory_that_does_not_grow_with_n(tmp_path, long_dumps):
    # The header is checked before any row is parsed, and the digest taken a
    # megabyte at a time, so refusing the 2^20 dump may cost no more than
    # 10 MB more than refusing the 2^18 one; parsing the rows first cost
    # ~66 MB more.
    peaks = []
    for n, path in sorted(long_dumps.items()):
        stderr = tmp_path / f"stderr{n}.txt"
        peaks.append(peak_rss_mb(["detect", "--estimate", str(path), "--band", "0:1e6"],
                                 stderr, code=1))
        assert stderr.read_text() == (f"error: spectra file {path} lacks header fields: "
                                      "n_avg, n_samples, window\n")
    assert abs(peaks[1] - peaks[0]) <= 10.0, peaks


def test_detect_refuses_a_timeseries_before_parsing_it(tmp_path, capsys):
    bad = tmp_path / "timeseries.csv"
    bad.write_text("# sample_rate_hz = 5e7\n# segment_length = 1024\n# overlap = 0.5\n"
                   "# columns: time_s,ch1_m,ch2_m,common_m\n0,zz,0,0\n")
    assert main(["detect", "--estimate", str(bad), "--band", "0:1e6"]) == 1
    assert capsys.readouterr().err == (f"error: spectra file {bad} lacks header fields: "
                                       "n_avg, n_samples, window\n")


def test_simulate_env_var_output_dir(tmp_path, config_path, monkeypatch):
    envdir = tmp_path / "from-env"
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(envdir))
    assert main(["simulate", "--config", str(config_path)]) == 0
    assert (envdir / "manifest.json").is_file()
    # Explicit flag beats the environment.
    flagdir = tmp_path / "from-flag"
    assert main(["simulate", "--config", str(config_path),
                 "--output-dir", str(flagdir)]) == 0
    assert (flagdir / "manifest.json").is_file()


def test_simulate_missing_config(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2


def test_simulate_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"arm_length": 40.0,\n  "shot_asd": }')
    assert main(["simulate", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err


@pytest.mark.parametrize("content,reason", [
    (b"\xff{}", "can't decode byte 0xff"),
    (b"[" * 100000, "maximum recursion depth"),
    (b'{"seed": 1' + b"0" * 5000 + b"}", "Exceeds the limit"),
    (b'{"arm_length": 1' + b"0" * 400 + b"}", "config field arm_length must be a number"),
])
def test_simulate_refuses_an_unreadable_config_in_one_line(tmp_path, capsys, content, reason):
    # Each of these used to end in a traceback: UnicodeDecodeError,
    # RecursionError, ValueError and OverflowError.
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    assert main(["simulate", "--config", str(bad), "--output-dir", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert reason in err
    assert not (tmp_path / "o").exists()


def test_simulate_too_short_for_the_window_writes_nothing(tmp_path, capsys):
    # At 4 GHz the 40 m window spans 1068 samples, so 1024 samples cannot
    # hold two of them; the check comes before any output is opened.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL_CONFIG, n_samples=1024, sample_rate=4e9)))
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output-dir", str(run),
                 "--dump-timeseries"]) == 1
    assert "too short" in capsys.readouterr().err
    assert list(run.iterdir()) == []


def test_simulate_refuses_a_segment_length_welch_refuses_before_writing(tmp_path, capsys):
    # A 32-sample segment is a power of two, but below the Welch floor of 64:
    # the config is refused with the Welch message before any output exists.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(SMALL_CONFIG, segment_length=32, n_samples=4096)))
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(path), "--output-dir", str(run),
                 "--dump-timeseries"]) == 1
    err = capsys.readouterr().err
    assert err == "error: segment_length must be a power of two >= 64, got 32\n"
    assert not run.exists()


def test_simulate_unknown_config_field(tmp_path, capsys):
    bad = tmp_path / "typo.json"
    payload = dict(SMALL_CONFIG)
    payload["arm_lenght"] = payload.pop("arm_length")
    bad.write_text(json.dumps(payload))
    assert main(["simulate", "--config", str(bad)]) == 1
    assert "arm_lenght" in capsys.readouterr().err


# ------------------------------------------------------------ analyze, detect


def test_round_trip_simulate_analyze(tmp_path, config_path):
    rundir = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--output-dir", str(rundir),
                 "--dump-timeseries"]) == 0
    reanalyzed = tmp_path / "spectra2.csv"
    code = main(
        ["analyze", "--timeseries", str(rundir / "timeseries.csv"),
         "--output", str(reanalyzed)]
    )
    assert code == 0
    assert reanalyzed.read_bytes() == (rundir / "spectra.csv").read_bytes()


def test_detect_matches_simulate_report(tmp_path, config_path):
    rundir = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path),
                 "--output-dir", str(rundir)]) == 0
    report = json.loads((rundir / "report.json").read_text())
    lo, hi = report["band_hz"]
    out = tmp_path / "detect.json"
    code = main(
        ["detect", "--estimate", str(rundir / "spectra.csv"),
         "--band", f"{lo}:{hi}", "--output", str(out)]
    )
    assert code == 0
    detected = json.loads(out.read_text())
    # Spectra round-trip bit-exactly, so the z-score must agree too.
    assert detected["sigma_level"] == pytest.approx(report["sigma_level"], rel=1e-12)
    assert detected["null_pvalue"] == pytest.approx(report["null_pvalue"], rel=1e-9)
    assert detected["n_avg"] == report["n_avg"]
    assert detected["snr"] == 0.0  # standalone detect carries no prediction


def test_analyze_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# sample_rate_hz = 5e7\n1,2\n3\n")
    assert main(["analyze", "--timeseries", str(bad)]) == 1


@pytest.mark.parametrize("field,value", [("n_avg", "1023.5"), ("segment_length", "1024.0"),
                                         ("n_samples", "32768.0")])
def test_detect_rejects_non_integer_header(tmp_path, field, value):
    header = {"sample_rate_hz": "5e7", "n_samples": "32768", "segment_length": "1024",
              "overlap": "0.5", "window": "hann", "n_avg": "63"}
    header[field] = value
    bad = tmp_path / "spectra.csv"
    bad.write_text(
        "".join(f"# {k} = {v}\n" for k, v in header.items()) + "0,1,1,0,0,1\n"
    )
    proc = run_python("-m", "holonoise.cli", "detect", "--estimate", str(bad),
                      "--band", "0:1e6")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert field in proc.stderr


def test_detect_rejects_forged_n_avg(tmp_path, config_path):
    # n_avg sets the null variance: editing 63 to 6300 used to turn sigma
    # 0.63 into a 6.25-sigma "detection".  The header's n_samples,
    # segment_length and overlap fix n_avg, so the edit is refused.
    spectra = unvouched_spectra(tmp_path, config_path)
    text = spectra.read_text()
    assert "# n_samples = 32768\n" in text and "# n_avg = 63\n" in text
    spectra.write_text(text.replace("# n_avg = 63\n", "# n_avg = 6300\n"))
    proc = run_python("-m", "holonoise.cli", "detect", "--estimate", str(spectra),
                      "--band", "0:1e6")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "n_avg = 6300" in proc.stderr and "give 63" in proc.stderr


def test_detect_requires_n_samples(tmp_path, config_path):
    # A spectra file without the series length cannot vouch for its n_avg.
    spectra = unvouched_spectra(tmp_path, config_path)
    spectra.write_text(spectra.read_text().replace("# n_samples = 32768\n", ""))
    out = tmp_path / "detect.json"
    assert main(["detect", "--estimate", str(spectra), "--band", "0:1e6",
                 "--output", str(out)]) == 1
    assert not out.exists()


def test_detect_rejects_truncated_spectra(tmp_path, config_path):
    # A file cut on a line boundary parses cleanly; only the row count and
    # the frequency grid against the header show that it is not whole.
    rundir = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path),
                 "--output-dir", str(rundir)]) == 0
    lines = (rundir / "spectra.csv").read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.csv"
    cut.write_text("".join(lines[:48]))  # head -n 48
    proc = run_python("-m", "holonoise.cli", "detect", "--estimate", str(cut),
                      "--band", "0:3.7e6")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "rows" in proc.stderr and "513" in proc.stderr


def test_detect_rejects_shifted_frequency_grid(tmp_path, config_path):
    spectra = unvouched_spectra(tmp_path, config_path)
    spectra.write_text(spectra.read_text().replace(
        "# sample_rate_hz = 50000000", "# sample_rate_hz = 50000001"))
    out = tmp_path / "detect.json"
    assert main(["detect", "--estimate", str(spectra), "--band", "0:3.7e6",
                 "--output", str(out)]) == 1
    assert not out.exists()


def test_detect_unknown_window_is_an_error(tmp_path, config_path):
    # The null variance is that of the Hann window, so a file naming any
    # other is refused: an edit to boxcar used to move sigma with exit 0.
    spectra = unvouched_spectra(tmp_path, config_path)
    text = spectra.read_text()
    assert "# window = hann\n" in text
    for window in ("bogus", "boxcar"):
        spectra.write_text(text.replace("# window = hann\n", f"# window = {window}\n"))
        proc = run_python("-m", "holonoise.cli", "detect", "--estimate", str(spectra),
                          "--band", "0:3.7e6")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert f"unknown window '{window}'" in proc.stderr


@pytest.mark.parametrize("edits", [
    {"overlap": "1", "n_avg": "1000000"},
    {"overlap": "-0.25"},
    {"n_avg": "0"},
])
def test_detect_rejects_out_of_range_segmenting(tmp_path, config_path, edits):
    # overlap = 1 leaves no step between segments; the null variance used to
    # loop over every one of the n_avg lags instead of failing.
    spectra = unvouched_spectra(tmp_path, config_path)
    text = spectra.read_text()
    for key, value in edits.items():
        text, count = re.subn(rf"^# {key} = .*$", f"# {key} = {value}", text, flags=re.M)
        assert count == 1
    spectra.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "holonoise.cli", "detect", "--estimate", str(spectra),
         "--band", "0:3.7e6"], capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert next(iter(edits)) in proc.stderr


BAND_ROWS = range(2, 21)  # the bins of --band 0:1e6 on the 1024-sample grid


def negate_psd1(rows):
    rows[10][1] = "-" + rows[10][1]


def nan_psd1(rows):
    rows[10][1] = "nan"


def inf_csd_re(rows):
    rows[10][3] = "inf"


def zero_band_psds(rows):
    for k in BAND_ROWS:
        rows[k][1] = rows[k][2] = "0"


def halve_coherence(rows):
    rows[10][5] = repr(float(rows[10][5]) / 2.0)


def huge_csd_re(rows):
    rows[10][3] = "1e200"


def huge_psds(rows):
    rows[10][1] = rows[10][2] = "1e200"


def huge_band_psds(rows):
    for k in BAND_ROWS:
        rows[k][1] = rows[k][2] = "1e152"
        rows[k][5] = "0"


def detect_edited(tmp_path, config_path, edit):
    """``detect --band 0:1e6`` run on a copy of a spectra file whose rows ``edit`` changed."""
    spectra = unvouched_spectra(tmp_path, config_path)
    lines = spectra.read_text().splitlines()
    head = [line for line in lines if line.startswith("#")]
    rows = [line.split(",") for line in lines[len(head):]]
    assert all(float(rows[k][3]) != 0.0 for k in BAND_ROWS)
    edit(rows)
    spectra.write_text("\n".join(head + [",".join(row) for row in rows]) + "\n")
    return run_python("-m", "holonoise.cli", "detect", "--estimate", str(spectra),
                      "--band", "0:1e6")


@pytest.mark.parametrize("edit,reason", [
    (negate_psd1, "negative PSD"),
    (nan_psd1, "non-finite"),
    (inf_csd_re, "non-finite"),
    (zero_band_psds, "exceeds psd1 * psd2"),
    (halve_coherence, "coherence"),
    (huge_csd_re, "exceeds psd1 * psd2"),
    (huge_psds, "float range"),
])
def test_detect_rejects_inconsistent_columns(tmp_path, config_path, edit, reason):
    # The first five edits used to exit 0: sigma 0.0 for the first, second
    # and fourth, and a "sigma_level": Infinity that is not JSON for the
    # third.  The last two were refused only after numpy's overflow warnings.
    proc = detect_edited(tmp_path, config_path, edit)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert reason in proc.stderr


def test_detect_scores_in_band_psds_near_the_float_range(tmp_path, config_path):
    # PSDs of 1e152 pass every column check; the null variance squares them
    # again, and used to overflow to nan and exit 1.
    proc = detect_edited(tmp_path, config_path, huge_band_psds)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    sigma = json.loads(proc.stdout)["sigma_level"]
    assert math.isfinite(sigma) and sigma != 0.0


def test_detect_refuses_a_file_edited_after_its_manifest(tmp_path, config_path):
    # The manifest beside the file still holds the digest simulate wrote,
    # and detect checks it before it reads the edited header.
    rundir = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path),
                 "--output-dir", str(rundir)]) == 0
    spectra = rundir / "spectra.csv"
    text = spectra.read_text()
    assert "# window = hann\n" in text
    spectra.write_text(text.replace("# window = hann\n", "# window = boxcar\n"))
    proc = run_python("-m", "holonoise.cli", "detect", "--estimate", str(spectra),
                      "--band", "0:3.7e6")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "does not match the SHA-256" in proc.stderr


def test_detect_reports_what_vouched_for_its_input(tmp_path, config_path):
    rundir = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path),
                 "--output-dir", str(rundir)]) == 0
    spectra = rundir / "spectra.csv"
    digest = hashlib.sha256(spectra.read_bytes()).hexdigest()
    copy = tmp_path / "copy.csv"
    copy.write_bytes(spectra.read_bytes())
    reports = []
    for path in (spectra, copy):
        out = tmp_path / f"detect-{path.stem}.json"
        assert main(["detect", "--estimate", str(path), "--band", "0:3.7e6",
                     "--output", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert [r["manifest_vouched"] for r in reports] == [True, False]
    assert [r["input_sha256"] for r in reports] == [digest, digest]
    assert reports[0]["sigma_level"] == reports[1]["sigma_level"]


def test_detect_refuses_an_unreadable_manifest(tmp_path, config_path, capsys):
    rundir = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path),
                 "--output-dir", str(rundir)]) == 0
    (rundir / "manifest.json").write_text("{not json")
    assert main(["detect", "--estimate", str(rundir / "spectra.csv"),
                 "--band", "0:3.7e6"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_analyze_without_segmenting_headers_is_refused(tmp_path):
    # analyze takes its segmenting from the file alone; it used to fall back
    # to ExperimentConfig's 8192-sample, 50%-overlap defaults here.
    rng = np.random.default_rng(3)
    rows = np.column_stack([np.arange(16384) / 5e7, rng.standard_normal((16384, 2))])
    series = tmp_path / "timeseries.csv"
    _write_csv(series, {"sample_rate_hz": 5e7}, ["time_s", "ch1_m", "ch2_m"], rows)
    proc = run_python("-m", "holonoise.cli", "analyze", "--timeseries", str(series))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: timeseries file {series} lacks header fields: overlap, segment_length\n"
    )


def test_analyze_without_sample_rate_is_refused(tmp_path):
    # The rate comes from the header, never from the time column.
    bad = tmp_path / "timeseries.csv"
    bad.write_text("# columns: time_s,ch1_m,ch2_m\n0,1e-15,2e-15\n")
    proc = run_python("-m", "holonoise.cli", "analyze", "--timeseries", str(bad))
    assert proc.returncode == 1
    assert proc.stderr == (f"error: timeseries file {bad} lacks header fields: "
                           "overlap, sample_rate_hz, segment_length\n")


@pytest.fixture(scope="module")
def dumped_series(tmp_path_factory):
    """The timeseries.csv and spectra.csv of one small simulate --dump-timeseries run."""
    rundir = tmp_path_factory.mktemp("dump")
    config = rundir / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    assert main(["simulate", "--config", str(config), "--output-dir", str(rundir),
                 "--dump-timeseries"]) == 0
    return (rundir / "timeseries.csv").read_text(), (rundir / "spectra.csv").read_bytes()


def edited_time(text):
    """``text`` with the time of row 1000 scaled by 1.001."""
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1000
    time, _, rest = lines[row].partition(",")
    lines[row] = f"{float(time) * 1.001!r},{rest}"
    return "".join(lines)


@pytest.mark.parametrize("edit,reason", [
    (lambda text: text.replace("# overlap = 0.5\n", ""), "lacks header fields: overlap"),
    (lambda text: text.replace("# sample_rate_hz = 50000000\n", ""),
     "lacks header fields: sample_rate_hz"),
    (lambda text: re.sub(r",[^,\n]*$", "", text, flags=re.M), "must have 4 columns, found 3"),
    (edited_time, "time column is not arange(n) / rate"),
    (lambda text: text.replace("# segment_length = 1024\n", "# segment_length = 1099511627776\n"),
     "shorter than one segment (1099511627776)"),
])
def test_analyze_refuses_a_dump_that_does_not_vouch_for_itself(tmp_path, dumped_series,
                                                              edit, reason):
    text, _ = dumped_series
    bad = tmp_path / "timeseries.csv"
    bad.write_text(edit(text))
    assert bad.read_text() != text
    proc = run_python("-m", "holonoise.cli", "analyze", "--timeseries", str(bad))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert reason in proc.stderr


def test_analyze_refuses_a_forged_segment_length_before_the_last_range(
        tmp_path, dumped_series, monkeypatch, capsys):
    # 65536 passes the up-front bound of data bytes / 8, but not the bound of
    # rows parsed plus unread bytes / 8 once most ranges are in; Welch used to
    # carry the whole series, and make a window that long, before refusing it.
    text, _ = dumped_series
    bad = tmp_path / "timeseries.csv"
    bad.write_text(text.replace("# segment_length = 1024\n", "# segment_length = 65536\n"))
    data_bytes = len(text.encode()) - text.index("\n0,") - 1
    assert data_bytes // 8 > 65536
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(cli, "RANGE_BYTES", 1 << 12)
    parse_range, stops = cli._parse_range, []

    def recorded(task):
        stops.append(task[2])
        return parse_range(task)

    monkeypatch.setattr(cli, "_parse_range", recorded)
    hann_window, windows = spectral.hann_window, []

    def window(length):
        windows.append(length)
        return hann_window(length)

    monkeypatch.setattr(spectral, "hann_window", window)
    assert main(["analyze", "--timeseries", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: timeseries file {bad} is shorter than one segment (65536): "
                          f"its {data_bytes} data bytes hold at most ")
    assert len(err.splitlines()) == 1
    assert max(stops) < bad.stat().st_size
    assert windows == []


def test_analyze_refuses_a_sample_too_large_to_square(tmp_path, dumped_series):
    # 1e200 passes the finite check, but its square overflows, so the
    # spectra would be nan; they are refused without a RuntimeWarning.
    text, _ = dumped_series
    lines = text.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1000
    time, _, rest = lines[row].partition(",")
    lines[row] = f"{time},1e200,{rest.partition(',')[2]}"
    bad = tmp_path / "timeseries.csv"
    bad.write_text("".join(lines))
    out = tmp_path / "spectra.csv"
    proc = run_python("-m", "holonoise.cli", "analyze", "--timeseries", str(bad),
                      "--output", str(out))
    assert proc.returncode == 1
    assert proc.stderr == ("error: the spectra of this series are not finite: it holds a "
                           "sample that is not finite or too large to square\n")
    assert not out.exists()


def test_analyze_reproduces_the_dumped_spectra(tmp_path, dumped_series):
    text, spectra = dumped_series
    series = tmp_path / "timeseries.csv"
    series.write_text(text)
    out = tmp_path / "spectra.csv"
    assert main(["analyze", "--timeseries", str(series), "--output", str(out)]) == 0
    assert out.read_bytes() == spectra


def test_analyze_takes_only_its_file(capsys):
    for flag in ("--sample-rate", "--segment-length", "--overlap"):
        assert main(["analyze", "--timeseries", "x.csv", flag, "1"]) == 64
    with pytest.raises(SystemExit):
        main(["analyze", "--help"])
    options = re.findall(r"^  (?:-h, )?(--[a-z-]+)", capsys.readouterr().out, flags=re.M)
    assert options == ["--help", "--timeseries", "--output"]


def test_detect_rejects_bad_band(tmp_path, config_path):
    rundir = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path),
                 "--output-dir", str(rundir)]) == 0
    assert main(["detect", "--estimate", str(rundir / "spectra.csv"),
                 "--band", "zzz"]) == 1
    assert main(["detect", "--estimate", str(rundir / "spectra.csv"),
                 "--band", "5e6:1e6"]) == 1


# ----------------------------------------------------------------- exit codes


def test_usage_errors_exit_64(capsys):
    assert main(["frobnicate"]) == 64
    assert main(["predict"]) == 64  # missing required --arm-length
    assert main(["simulate", "--config", "x", "--bogus-flag"]) == 64
    err = capsys.readouterr().err
    assert "usage" in err.lower()


# -------------------------------------------------------------- config loader


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    cfg = load_config(path)
    assert cfg == ExperimentConfig(**SMALL_CONFIG)


def test_cli_import_does_not_load_scipy_signal(tmp_path, config_path):
    # No subcommand needs scipy.signal: the Welch kernel and the Hann window
    # are numpy, so neither starting the CLI nor simulate -> analyze ->
    # detect may pay for its import.  Their 2^15-sample files are one CSV
    # block or range each, so they start no worker processes either, their
    # synthesis work is below the thread floor, and the Welch pass starts no
    # thread, so no pool module is imported.
    modules = "('scipy.signal', 'multiprocessing', 'concurrent.futures')"
    script = (
        "import sys, holonoise.cli\n"
        f"print([m in sys.modules for m in {modules}])\n"
        "from holonoise.cli import main\n"
        f"run = {str(tmp_path / 'run')!r}\n"
        f"assert main(['simulate', '--config', {str(config_path)!r}, '--output-dir', run,\n"
        "             '--dump-timeseries']) == 0\n"
        "assert main(['analyze', '--timeseries', run + '/timeseries.csv',\n"
        "             '--output', run + '/analyzed.csv']) == 0\n"
        "assert main(['detect', '--estimate', run + '/analyzed.csv', '--band', '0:3.7e6',\n"
        "             '--output', run + '/detect.json']) == 0\n"
        f"print([m in sys.modules for m in {modules}])\n"
    )
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == lines[-1] == "[False, False, False]"


def blas_env(threads):
    """This environment with ``OPENBLAS_NUM_THREADS`` set to ``threads``, or removed for None."""
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def test_output_bits_do_not_depend_on_blas_threads(tmp_path):
    # At L = 32768 a dot product of the window with itself used to run on
    # every BLAS thread, and round differently on one thread than on two; so
    # did the slit pattern norms of a 20000-angle sweep.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL_CONFIG, "n_samples": 2**19, "segment_length": 32768}))
    outputs = []
    for threads in ("1", "2"):
        run = tmp_path / threads
        simulate = run_python("-m", "holonoise.cli", "simulate", "--config", str(config),
                              "--output-dir", str(run), env=blas_env(threads))
        sweep = run_python("-m", "holonoise.cli", "slits", "--screen-distance", "1", "--sweep",
                           "--n-angles", "20000", env=blas_env(threads))
        assert simulate.returncode == sweep.returncode == 0, simulate.stderr + sweep.stderr
        outputs.append([(run / "spectra.csv").read_bytes(), (run / "report.json").read_bytes(),
                        sweep.stdout])
    assert json.loads(outputs[0][1])["n_avg"] == 31
    assert outputs[0] == outputs[1]


def test_cli_import_starts_no_thread():
    # numpy's OpenBLAS starts one busy-waiting worker per CPU at import
    # unless its thread count is pinned before; holonoise needs none.
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc/self/task to count threads in")
    script = ("import os, holonoise.cli\n"
              "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    proc = run_python("-c", script, env=blas_env(None))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1"]


def test_cli_import_keeps_a_blas_thread_count_already_set():
    proc = run_python("-c", "import os, holonoise.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
                      env=blas_env("2"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"]


def test_every_subcommand_runs_without_scipy(tmp_path, config_path):
    # numpy is the only runtime dependency: with every scipy import refused,
    # all seven subcommands still work.
    run = str(tmp_path / "run")
    script = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ModuleNotFoundError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import holonoise\n"
        "from holonoise.cli import main\n"
        f"run = {run!r}\n"
        "argvs = [\n"
        "    ['constants', '--output', run + '/constants.json'],\n"
        "    ['predict', '--arm-length', '40', '--output', run + '/predict.csv'],\n"
        "    ['info', '--length', '1.3e26', '--output', run + '/info.json'],\n"
        "    ['slits', '--screen-distance', '1', '--sweep', '--output', run + '/sweep.csv'],\n"
        f"    ['simulate', '--config', {str(config_path)!r}, '--output-dir', run,\n"
        "     '--dump-timeseries'],\n"
        "    ['analyze', '--timeseries', run + '/timeseries.csv',\n"
        "     '--output', run + '/analyzed.csv'],\n"
        "    ['detect', '--estimate', run + '/analyzed.csv', '--band', '0:3.7e6',\n"
        "     '--output', run + '/detect.json'],\n"
        "]\n"
        "print([main(argv) for argv in argvs])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    (tmp_path / "run").mkdir()
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["[0, 0, 0, 0, 0, 0, 0]", "[]"]


def test_console_script_smoke():
    exe = shutil.which("holonoise")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "constants"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    values = json.loads(proc.stdout)
    assert math.isclose(values["l_P"], 1.616255e-35, rel_tol=1e-5)
