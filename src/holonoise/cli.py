"""Command-line front end.

Subcommands: ``constants``, ``predict``, ``info``, ``slits``, ``simulate``,
``analyze``, ``detect``.  Exit codes: 0 success, 1 domain/configuration
errors, 2 I/O errors, 64 usage errors.

CSV outputs carry their metadata as ``#``-prefixed header comments and
print floats with 17 significant digits, so a written series re-read from
disk is bit-identical to the in-memory one and repeated runs of the same
configuration produce byte-identical files.  CSVs are streamed in blocks of
``CHUNK_ROWS`` rows and hashed as they are written; reading cuts the data
into byte ranges of about ``RANGE_BYTES`` at line boundaries.  Blocks and
ranges are formatted or parsed across the CPUs the process may use, and
the bytes do not depend on how many there are.  ``simulate`` takes the
pair from synthesis to Welch block by block, and with ``--dump-timeseries``
writes each block's rows as it goes, so its memory does not grow with
n_samples.  It drops a manifest recording the config, constants, package
and numpy versions, PRNG identity, and SHA-256 of every output; ``detect``
refuses a spectra file whose digest differs from the one a manifest beside
it records.  The default output directory can be overridden with the
``HOLONOISE_OUTPUT_DIR`` environment variable (an explicit ``--output-dir``
still wins).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import sys
import warnings
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from ._workers import ProcessMap, pmap
from .constants import CONSTANTS
from .detection import null_significance, predicted_snr
from .errors import DomainError
from .model import (
    HolographicModel,
    autocorrelation,
    info_budget,
    psd_model,
    transverse_uncertainty,
)
from .slits import SlitSetup, fraunhofer_pattern, information_blurred_pattern, separation_sweep
from .spectral import SpectralEstimate, coherence_of, segment_count, welch_blocks, welch_csd
from .synthesis import ExperimentConfig, TimeSeriesPair, synthesize_blocks

PRNG_IDENTIFIER = (
    "philox4x64 counter-based; substreams via "
    "SeedSequence(seed, spawn_key=(stream_id,)); "
    "common pieces=0, increments=3 (Brownian-difference moving sum) shot1=1 shot2=2"
)

ENV_OUTPUT_DIR = "HOLONOISE_OUTPUT_DIR"

#: Rows formatted per CSV block, the unit of work handed to one CPU.
CHUNK_ROWS = 1 << 16

#: Approximate bytes of CSV data parsed per range when reading.
RANGE_BYTES = 1 << 23


class UsageError(Exception):
    """Raised by the parser instead of exiting, mapped to exit code 64."""

    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self.format_usage())


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _parse_band(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise DomainError(f"band must look like LO:HI in Hz, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise DomainError(f"band must be numeric LO:HI, got {text!r}") from exc
    return lo, hi


def _format_block(task: tuple[str, np.ndarray]) -> bytes:
    row_template, block = task
    return (row_template * len(block) % tuple(block.ravel().tolist())).encode()


def _csv_header(meta: dict, columns: list[str]) -> bytes:
    """The ``#`` header lines of a CSV file."""
    lines = [f"# holonoise v{__version__}"]
    for key, val in meta.items():
        if isinstance(val, float):
            val = _fmt(val)
        lines.append(f"# {key} = {val}")
    lines.append("# columns: " + ",".join(columns))
    return ("\n".join(lines) + "\n").encode()


class _Output:
    """An output file, or stdout when ``path`` is None, hashed as it is written.

    CSV rows are formatted CHUNK_ROWS at a time, on forked workers when
    ``rows``, the number of rows that will be written, fills more than one
    block (see `ProcessMap`).  The workers are forked on entering the
    ``with`` block, before the caller starts any thread.
    """

    def __init__(self, path: Path | None, rows: int = 0):
        self.path = path
        self.sha256 = hashlib.sha256()
        self.formatter = ProcessMap(_format_block, -(-rows // CHUNK_ROWS))

    def __enter__(self) -> "_Output":
        self.formatter.__enter__()
        try:
            self.handle = None if self.path is None else self.path.open("wb")
        except BaseException:
            self.formatter.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, kind, *exc) -> None:
        try:
            if kind is None:
                for data in self.formatter.drain():
                    self.write(data)
        finally:
            self.formatter.__exit__(kind, *exc)
            if self.handle is not None:
                self.handle.close()

    def write(self, data: bytes) -> None:
        if self.handle is None:
            sys.stdout.write(data.decode())
        else:
            self.handle.write(data)
        self.sha256.update(data)

    def rows(self, rows: np.ndarray, prefix: str = "") -> None:
        """CSV lines of a 2-D float array, each value at 17 digits."""
        row_template = prefix + ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for i in range(0, len(rows), CHUNK_ROWS):
            for data in self.formatter.put((row_template, rows[i : i + CHUNK_ROWS])):
                self.write(data)

    def hexdigest(self) -> str:
        return self.sha256.hexdigest()


def _write_text(path: Path | None, text: str) -> str:
    """Write ``text`` to ``path`` (stdout when None); the SHA-256 of what was written."""
    with _Output(path) as out:
        out.write(text.encode())
    return out.hexdigest()


def _write_csv(path: Path | None, meta: dict, columns: list[str], rows: np.ndarray) -> str:
    with _Output(path, len(rows)) as out:
        out.write(_csv_header(meta, columns))
        out.rows(rows)
    return out.hexdigest()


def _parse_range(task: tuple[int, int, int]) -> np.ndarray:
    fd, start, stop = task
    chunk = os.pread(fd, stop - start, start)
    with warnings.catch_warnings():
        # A range without data rows parses to an empty part; _read_csv
        # reports a file that has none at all.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(io.BytesIO(chunk), delimiter=",", comments="#", ndmin=2)


def _read_csv(path: Path) -> tuple[dict, np.ndarray]:
    """The ``key = value`` header comments and the data rows of a CSV, in one open."""
    meta: dict[str, str] = {}
    try:
        with path.open("rb") as handle:
            start = 0
            for line in handle:
                if not line.startswith(b"#"):
                    break
                start += len(line)
                body = line[1:].decode().strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    meta[key.strip()] = val.strip()
            size = os.fstat(handle.fileno()).st_size
            # Cut the data at the first newline after every RANGE_BYTES, so
            # each range holds whole lines.
            cuts = [start]
            while cuts[-1] + RANGE_BYTES < size:
                handle.seek(cuts[-1] + RANGE_BYTES)
                handle.readline()
                cuts.append(handle.tell())
            cuts.append(size)
            ranges = [(handle.fileno(), a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
            parts = list(pmap(_parse_range, ranges or [(handle.fileno(), start, size)]))
        # A range of comment lines alone parses to an empty part.
        data = np.concatenate([part for part in parts if len(part)] or parts)
    except ValueError as exc:
        raise DomainError(f"malformed CSV {path}: {exc}") from exc
    if not len(data):
        raise DomainError(f"{path} has no data rows")
    return meta, data


def _header_value(meta: dict, key: str, path: Path, kind=float, default=None):
    """Header field ``key`` parsed as ``kind``; a malformed value is a DomainError."""
    if key not in meta:
        return default
    try:
        return kind(meta[key])
    except ValueError as exc:
        expected = "an integer" if kind is int else "a number"
        raise DomainError(f"{path}: header {key} = {meta[key]!r} is not {expected}") from exc


def _resolve_outdir(flag_value: str | None) -> Path:
    if flag_value is not None:
        out = Path(flag_value)
    elif os.environ.get(ENV_OUTPUT_DIR):
        out = Path(os.environ[ENV_OUTPUT_DIR])
    else:
        out = Path.cwd()
    out.mkdir(parents=True, exist_ok=True)
    return out


def load_config(path: Path) -> ExperimentConfig:
    """Parse a JSON config file; unknown fields and bad JSON are rejected."""
    text = path.read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return ExperimentConfig.from_dict(raw)


def _report_dict(report) -> dict:
    return {
        "band_hz": [report.band[0], report.band[1]],
        "snr": report.snr,
        "n_avg": report.n_avg,
        "integration_time_s": report.integration_time,
        "sigma_level": report.sigma_level,
        "null_pvalue": report.null_pvalue,
    }


def _write_manifest(path: Path, command: str, config: dict, outputs: dict[str, str]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "constants": CONSTANTS.as_dict(),
        "version": __version__,
        "numpy_version": np.__version__,
        "prng": PRNG_IDENTIFIER,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_spectra(path: Path | None, est: SpectralEstimate, n_samples: int) -> str:
    """Spectra of an ``n_samples`` series; the header fixes its ``n_avg``."""
    rows = np.column_stack(
        [est.freqs, est.psd1, est.psd2, est.csd.real, est.csd.imag, est.coherence]
    )
    meta = {
        "sample_rate_hz": est.sample_rate,
        "n_samples": n_samples,
        "segment_length": est.segment_length,
        "overlap": est.overlap,
        "window": "hann",
        "n_avg": est.n_avg,
    }
    return _write_csv(
        path,
        meta,
        ["freq_hz", "psd1_m2_per_hz", "psd2_m2_per_hz", "csd_re_m2_per_hz",
         "csd_im_m2_per_hz", "coherence"],
        rows,
    )


def _estimate_from_csv(path: Path) -> SpectralEstimate:
    meta, data = _read_csv(path)
    required = {"sample_rate_hz", "n_samples", "segment_length", "overlap", "window", "n_avg"}
    missing = sorted(required - set(meta))
    if missing:
        raise DomainError(f"spectra file {path} lacks header fields: {', '.join(missing)}")
    # The null variance is computed for the Hann window, the only one Welch uses.
    if meta["window"] != "hann":
        raise DomainError(f"spectra file {path}: unknown window {meta['window']!r}; "
                          "holonoise spectra are always 'hann'")
    if data.shape[1] != 6:
        raise DomainError(f"spectra file {path} must have 6 columns, found {data.shape[1]}")
    n_avg = _header_value(meta, "n_avg", path, int)
    n_samples = _header_value(meta, "n_samples", path, int)
    segment_length = _header_value(meta, "segment_length", path, int)
    overlap = _header_value(meta, "overlap", path)
    sample_rate = _header_value(meta, "sample_rate_hz", path)
    # n_avg sets the null variance, so it must be the count the header's
    # segmenting gives, not a number the file merely states.
    expected = segment_count(n_samples, segment_length, overlap)
    if n_avg != expected:
        raise DomainError(
            f"spectra file {path}: n_avg = {n_avg}, but n_samples = {n_samples}, "
            f"segment_length = {segment_length} and overlap = {_fmt(overlap)} give {expected}"
        )
    # The rows must be the whole Welch grid the header describes, so a file
    # cut short or with an edited header is refused rather than trusted.
    if len(data) != segment_length // 2 + 1:
        raise DomainError(
            f"spectra file {path} has {len(data)} rows; segment_length = "
            f"{segment_length} needs {segment_length // 2 + 1}"
        )
    if not (math.isfinite(sample_rate) and sample_rate > 0.0):
        raise DomainError(
            f"spectra file {path}: sample_rate_hz = {sample_rate!r} is not a positive rate"
        )
    grid = np.fft.rfftfreq(segment_length, 1.0 / sample_rate)
    if not np.allclose(data[:, 0], grid, rtol=1e-12, atol=0.0):
        raise DomainError(
            f"spectra file {path}: frequency column is not the Welch grid "
            f"rfftfreq({segment_length}, 1/{_fmt(sample_rate)})"
        )
    # The columns must be spectra a Welch pair could have produced, so an
    # edited value is refused rather than turned into a sigma.
    psd1, psd2, csd, coherence = data[:, 1], data[:, 2], data[:, 3] + 1j * data[:, 4], data[:, 5]
    if not np.all(np.isfinite(data)):
        raise DomainError(f"spectra file {path} holds a non-finite value")
    if np.any(psd1 < 0.0) or np.any(psd2 < 0.0):
        raise DomainError(f"spectra file {path} holds a negative PSD")
    if np.any(np.abs(csd) ** 2 > psd1 * psd2 * (1.0 + 1e-12)):
        raise DomainError(f"spectra file {path}: |csd|^2 exceeds psd1 * psd2")
    if np.any(np.abs(coherence - coherence_of(psd1, psd2, csd)) > 1e-12):
        raise DomainError(f"spectra file {path}: coherence is not |csd|^2 / (psd1 * psd2)")
    return SpectralEstimate(
        freqs=data[:, 0],
        psd1=psd1,
        psd2=psd2,
        csd=csd,
        coherence=coherence,
        n_avg=n_avg,
        segment_length=segment_length,
        overlap=overlap,
        sample_rate=sample_rate,
    )


def cmd_constants(args) -> int:
    _write_text(
        Path(args.output) if args.output else None,
        json.dumps(CONSTANTS.as_dict(), indent=2) + "\n",
    )
    return 0


def cmd_predict(args) -> int:
    model = HolographicModel.from_baseline(args.arm_length)
    lags = np.linspace(0.0, 2.0 * model.tau_c, 256)
    freqs = np.linspace(0.0, 10.0 / model.tau_c, 512)
    acf = autocorrelation(model, lags)
    psd = psd_model(model, freqs)
    meta = {
        "arm_length_m": model.L,
        "sigma2_m2": model.sigma2,
        "tau_c_s": model.tau_c,
        "psd_zero_m2_per_hz": 2.0 * model.sigma2 * model.tau_c,
        "psd_convention": "one-sided, integrates to sigma2_m2",
    }
    with _Output(Path(args.output) if args.output else None, len(lags) + len(freqs)) as out:
        out.write(_csv_header(meta, ["quantity", "x", "value"]))
        out.rows(np.column_stack([lags, acf]), "acf,")
        out.rows(np.column_stack([freqs, psd]), "psd,")
    return 0


def cmd_info(args) -> int:
    budget = info_budget(args.length)
    _write_text(
        Path(args.output) if args.output else None,
        json.dumps(
            {
                "length_m": budget.L,
                "pixel_size_m": budget.pixel_size,
                "refresh_s": budget.refresh,
                "dof_radial": budget.dof_radial,
                "dof_angular": budget.dof_angular,
                "total_info": budget.total_info,
                "field_theory_info": budget.field_theory_info,
                "ratio": budget.ratio,
            },
            indent=2,
        )
        + "\n",
    )
    return 0


def cmd_slits(args) -> int:
    wavelength = args.wavelength if args.wavelength is not None else CONSTANTS.l_P
    slit_width = args.slit_width if args.slit_width is not None else wavelength
    setup = SlitSetup(
        separation=args.separation,
        slit_width=slit_width,
        screen_distance=args.screen_distance,
        wavelength=wavelength,
        n_angles=args.n_angles,
    )
    out = Path(args.output) if args.output else None
    if args.sweep:
        seps, metrics = separation_sweep(setup)
        bound = np.full_like(seps, transverse_uncertainty(setup.screen_distance))
        rows = np.column_stack([seps, metrics, bound])
        _write_csv(
            out,
            {
                "screen_distance_m": setup.screen_distance,
                "slit_width_m": setup.slit_width,
                "wavelength_m": setup.wavelength,
            },
            ["separation_m", "distance_metric", "bound_m"],
            rows,
        )
    else:
        if args.blurred:
            pattern = information_blurred_pattern(setup)
        else:
            pattern = fraunhofer_pattern(setup)
        rows = np.column_stack([setup.angles(), pattern])
        _write_csv(
            out,
            {
                "separation_m": setup.separation,
                "slit_width_m": setup.slit_width,
                "screen_distance_m": setup.screen_distance,
                "wavelength_m": setup.wavelength,
                "blurred": str(bool(args.blurred)).lower(),
            },
            ["angle_rad", "intensity"],
            rows,
        )
    return 0


TIMESERIES_COLUMNS = ["time_s", "ch1_m", "ch2_m", "common_m"]


def _dumped(blocks: Iterable[TimeSeriesPair], out: _Output) -> Iterator[TimeSeriesPair]:
    """``blocks`` passed on as they come, each also written to ``out`` as time-series rows."""
    start = 0
    for block in blocks:
        # Stacked CHUNK_ROWS rows at a time, so a row block waiting for a
        # CSV worker holds only its own rows.
        for i in range(0, block.n_samples, CHUNK_ROWS):
            part = slice(i, i + CHUNK_ROWS)
            times = np.arange(start + i, start + min(i + CHUNK_ROWS, block.n_samples))
            columns = [block.ch1[part], block.ch2[part], block.common[part]]
            out.rows(np.column_stack([times / block.sample_rate, *columns]))
        start += block.n_samples
        yield block


def cmd_simulate(args) -> int:
    config = load_config(Path(args.config))
    outdir = _resolve_outdir(args.output_dir)
    model = config.model()
    band = _parse_band(args.band) if args.band else (0.0, 1.0 / model.tau_c)
    outputs = {}
    # Checked before any file is opened; no block is drawn yet.
    blocks = synthesize_blocks(config)
    dump = _Output(outdir / "timeseries.csv", config.n_samples) if args.dump_timeseries else None
    # Entered before the first block is drawn, so the CSV workers are forked
    # while no synthesis or Welch thread is alive.
    with dump or contextlib.nullcontext():
        if dump is not None:
            meta = {
                "sample_rate_hz": config.sample_rate,
                "segment_length": config.segment_length,
                "overlap": config.overlap,
            }
            dump.write(_csv_header(meta, TIMESERIES_COLUMNS))
            blocks = _dumped(blocks, dump)
        estimate = welch_blocks(
            ((block.ch1, block.ch2) for block in blocks),
            config.sample_rate, config.segment_length, config.overlap,
        )
    if dump is not None:
        outputs["timeseries.csv"] = dump.hexdigest()
    prediction = predicted_snr(
        model,
        config.shot_asd,
        config.sample_rate,
        config.segment_length,
        estimate.n_avg,
        band,
        config.holo_scale,
    )
    report = null_significance(estimate, band, predicted=prediction)
    outputs["spectra.csv"] = _write_spectra(outdir / "spectra.csv", estimate, config.n_samples)
    outputs["report.json"] = _write_text(
        outdir / "report.json", json.dumps(_report_dict(report), indent=2) + "\n"
    )
    _write_manifest(outdir / "manifest.json", "simulate", config.as_dict(), outputs)

    print(f"wrote {', '.join(sorted(outputs))} to {outdir}")
    print(
        f"band {_fmt(band[0])}..{_fmt(band[1])} Hz  n_avg {estimate.n_avg}  "
        f"predicted snr {report.snr:.3f}  sigma {report.sigma_level:.3f}  "
        f"p {report.null_pvalue:.3e}"
    )
    return 0


def cmd_analyze(args) -> int:
    path = Path(args.timeseries)
    meta, data = _read_csv(path)
    if data.shape[1] not in (3, 4):
        raise DomainError(
            f"timeseries file must have columns time,ch1,ch2[,common]; found {data.shape[1]}"
        )
    if args.sample_rate is not None:
        fs = args.sample_rate
    elif "sample_rate_hz" in meta:
        fs = _header_value(meta, "sample_rate_hz", path)
    else:
        step = float(data[1, 0] - data[0, 0]) if len(data) > 1 else 0.0
        if not step > 0.0:
            raise DomainError(
                f"{path}: cannot infer the sample rate without a sample_rate_hz header "
                "and two increasing time values; pass --sample-rate"
            )
        fs = 1.0 / step
    # Without a flag or header, the segmenting is ExperimentConfig's default.
    segment_length = args.segment_length or _header_value(
        meta, "segment_length", path, int, ExperimentConfig.segment_length
    )
    overlap = args.overlap if args.overlap is not None else _header_value(
        meta, "overlap", path, float, ExperimentConfig.overlap
    )
    common = data[:, 3] if data.shape[1] == 4 else np.zeros(len(data))
    pair = TimeSeriesPair(sample_rate=fs, ch1=data[:, 1], ch2=data[:, 2], common=common)
    estimate = welch_csd(pair, segment_length, overlap)
    _write_spectra(Path(args.output) if args.output else None, estimate, pair.n_samples)
    return 0


def _vouched(path: Path) -> tuple[str, bool]:
    """The SHA-256 of ``path``, and whether a ``manifest.json`` beside it lists it.

    A listed file must have the digest the manifest records: that refuses a
    file edited after it was written, though not one whose manifest was
    edited with it.
    """
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest_path = path.parent / "manifest.json"
    if not manifest_path.is_file():
        return digest, False
    try:
        outputs = json.loads(manifest_path.read_text()).get("outputs")
    except (json.JSONDecodeError, UnicodeDecodeError, AttributeError) as exc:
        raise DomainError(f"{manifest_path} is not a readable manifest") from exc
    if not isinstance(outputs, dict) or path.name not in outputs:
        return digest, False
    if outputs[path.name] != digest:
        raise DomainError(
            f"{path} does not match the SHA-256 that {manifest_path} records for it"
        )
    return digest, True


def cmd_detect(args) -> int:
    path = Path(args.estimate)
    digest, vouched = _vouched(path)
    estimate = _estimate_from_csv(path)
    report = null_significance(estimate, _parse_band(args.band))
    values = dict(_report_dict(report), input_sha256=digest, manifest_vouched=vouched)
    _write_text(Path(args.output) if args.output else None, json.dumps(values, indent=2) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(
        prog="holonoise",
        description="Planck-bandwidth noise model and twin-interferometer simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("constants", help="print the constant set as JSON")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("predict", help="model autocovariance and PSD curves as CSV")
    p.add_argument("--arm-length", type=float, required=True, help="baseline in m")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("info", help="degree-of-freedom budget for a region as JSON")
    p.add_argument("--length", type=float, required=True, help="region size in m")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("slits", help="two-slit patterns and distinguishability sweeps")
    p.add_argument("--screen-distance", type=float, required=True, help="m")
    p.add_argument("--separation", type=float, default=0.0, help="slit separation, m")
    p.add_argument("--slit-width", type=float, default=None, help="m (default: wavelength)")
    p.add_argument("--wavelength", type=float, default=None, help="m (default: c t_P)")
    p.add_argument("--n-angles", type=int, default=4096)
    p.add_argument("--blurred", action="store_true", help="apply the information blur")
    p.add_argument("--sweep", action="store_true", help="emit the separation sweep instead")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_slits)

    p = sub.add_parser("simulate", help="synthesize a pair, estimate spectra, detect")
    p.add_argument("--config", required=True, help="JSON experiment configuration")
    p.add_argument("--band", help="detection band LO:HI in Hz (default 0:1/tau_c)")
    p.add_argument("--output-dir", help=f"output directory (or ${ENV_OUTPUT_DIR})")
    p.add_argument(
        "--dump-timeseries", action="store_true", help="also write timeseries.csv"
    )
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="Welch spectra from a time-series CSV")
    p.add_argument("--timeseries", required=True, help="CSV from simulate --dump-timeseries")
    p.add_argument("--segment-length", type=int, default=None)
    p.add_argument("--overlap", type=float, default=None)
    p.add_argument("--sample-rate", type=float, default=None, help="Hz override")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("detect", help="detection report from a spectra CSV")
    p.add_argument("--estimate", required=True, help="spectra CSV from analyze/simulate")
    p.add_argument("--band", required=True, help="band LO:HI in Hz")
    p.add_argument("--output", help="write to this file instead of stdout")
    p.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        sys.stderr.write(exc.usage)
        sys.stderr.write(f"error: {exc}\n")
        return 64
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except BrokenPipeError:
        # Reader went away (e.g. piped into head); not a failure of ours.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except OSError as exc:
        sys.stderr.write(f"i/o error: {exc}\n")
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
