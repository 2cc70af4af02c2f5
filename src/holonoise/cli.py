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
writes each block's rows as it goes; ``analyze`` takes it from the file to
Welch a byte range at a time.  So the memory of neither grows with
n_samples.  ``simulate`` drops a manifest recording the config, constants,
package and numpy versions, PRNG identity, and SHA-256 of every output;
``detect`` refuses a spectra file whose digest differs from the one a
manifest beside it records.  The default output directory can be overridden with the
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
from ._workers import ProcessMap
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
from .spectral import SpectralEstimate, coherence_of, segment_count, welch_blocks
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
        # A range without data rows parses to an empty part, which
        # _Input.parts skips.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(io.BytesIO(chunk), delimiter=",", comments="#", ndmin=2)


class _Input:
    """A CSV file being read: its ``key = value`` header comments, then its data rows.

    Entering the ``with`` block reads the header into ``meta`` and cuts the
    ``data_bytes`` that follow it into byte ranges of about RANGE_BYTES at
    line boundaries.  `parts` hands the ranges' rows back one range at a
    time, in file order, parsed on forked workers (see `ProcessMap`), so a
    caller that consumes them as they come never holds the whole file.  The
    workers are forked on entering the ``with`` block, before the caller
    starts any thread.
    """

    def __init__(self, path: Path):
        self.path = path
        self.meta: dict[str, str] = {}
        self.rows = 0

    def __enter__(self) -> "_Input":
        self.handle = self.path.open("rb")
        try:
            start = 0
            for line in self.handle:
                if not line.startswith(b"#"):
                    break
                start += len(line)
                try:
                    body = line[1:].decode().strip()
                except ValueError as exc:
                    raise DomainError(f"malformed CSV {self.path}: {exc}") from exc
                if "=" in body:
                    key, _, val = body.partition("=")
                    self.meta[key.strip()] = val.strip()
            size = os.fstat(self.handle.fileno()).st_size
            # Said before any header field is checked: the file is all header.
            if size == start:
                raise DomainError(f"{self.path} has no data rows")
            self.data_bytes = size - start
            # Cut the data at the first newline after every RANGE_BYTES, so
            # each range holds whole lines.
            cuts = [start]
            while cuts[-1] + RANGE_BYTES < size:
                self.handle.seek(cuts[-1] + RANGE_BYTES)
                self.handle.readline()
                cuts.append(self.handle.tell())
            cuts.append(size)
            self.ranges = [(self.handle.fileno(), a, b) for a, b in zip(cuts, cuts[1:]) if b > a]
            self.parser = ProcessMap(_parse_range, len(self.ranges)).__enter__()
        except BaseException:
            self.handle.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.parser.__exit__(*exc)
        finally:
            self.handle.close()

    def parts(self) -> Iterator[np.ndarray]:
        """The data rows as 2-D arrays, one per range that holds any, in file order.

        While the caller holds a part, ``rows`` counts the rows before it;
        once every part has been taken, it counts them all.
        """

        def parsed():
            for task in self.ranges:
                yield from self.parser.put(task)
            yield from self.parser.drain()

        try:
            for part in parsed():
                if len(part):  # a range of comment lines alone parses to no rows
                    yield part
                    self.rows += len(part)
        except ValueError as exc:
            raise DomainError(f"malformed CSV {self.path}: {exc}") from exc
        if not self.rows:
            raise DomainError(f"{self.path} has no data rows")


def _header(meta: dict, path: Path, kind: str, fields: dict) -> list:
    """Header ``fields`` (name: type) of a ``kind`` file, each required and parsed, in order."""
    missing = sorted(set(fields) - set(meta))
    if missing:
        raise DomainError(f"{kind} file {path} lacks header fields: {', '.join(missing)}")
    values = []
    for key, parse in fields.items():
        try:
            values.append(parse(meta[key]))
        except ValueError as exc:
            expected = "an integer" if parse is int else "a number"
            raise DomainError(f"{path}: header {key} = {meta[key]!r} is not {expected}") from exc
    return values


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
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer too long, too deep
        raise DomainError(f"malformed JSON in {path}: {exc}") from exc
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


#: The header fields of a spectra file and their types, written in this order.
SPECTRA_FIELDS = {"sample_rate_hz": float, "n_samples": int, "segment_length": int,
                  "overlap": float, "window": str, "n_avg": int}


def _write_spectra(path: Path | None, est: SpectralEstimate, n_samples: int) -> str:
    """Spectra of an ``n_samples`` series; the header fixes its ``n_avg``."""
    rows = np.column_stack(
        [est.freqs, est.psd1, est.psd2, est.csd.real, est.csd.imag, est.coherence]
    )
    values = (est.sample_rate, n_samples, est.segment_length, est.overlap, "hann", est.n_avg)
    columns = ["freq_hz", "psd1_m2_per_hz", "psd2_m2_per_hz", "csd_re_m2_per_hz",
               "csd_im_m2_per_hz", "coherence"]
    return _write_csv(path, dict(zip(SPECTRA_FIELDS, values)), columns, rows)


def _read_spectra(path: Path) -> SpectralEstimate:
    """The estimate in a spectra file, refused unless header and columns agree.

    The header is checked before any row is parsed, and each range's rows
    as they arrive, so a file that is not a spectra file is refused before
    it is read whole.
    """
    with _Input(path) as csv:
        sample_rate, n_samples, segment_length, overlap, window, n_avg = _header(
            csv.meta, path, "spectra", SPECTRA_FIELDS
        )
        # The null variance is computed for the Hann window, the only one Welch uses.
        if window != "hann":
            raise DomainError(f"spectra file {path}: unknown window {window!r}; "
                              "holonoise spectra are always 'hann'")
        # n_avg sets the null variance, so it must be the count the header's
        # segmenting gives, not a number the file merely states.
        expected = segment_count(n_samples, segment_length, overlap)
        if n_avg != expected:
            raise DomainError(
                f"spectra file {path}: n_avg = {n_avg}, but n_samples = {n_samples}, "
                f"segment_length = {segment_length} and overlap = {_fmt(overlap)} give {expected}"
            )
        if not (math.isfinite(sample_rate) and sample_rate > 0.0):
            raise DomainError(
                f"spectra file {path}: sample_rate_hz = {sample_rate!r} is not a positive rate"
            )
        # The rows must be the whole Welch grid the header describes, so a file
        # cut short, run long or with an edited header is refused rather than trusted.
        rows = segment_length // 2 + 1
        needs = f"segment_length = {segment_length} needs {rows}"
        parts = []
        for part in csv.parts():
            if part.shape[1] != 6:
                raise DomainError(f"spectra file {path} must have 6 columns, "
                                  f"found {part.shape[1]}")
            if csv.rows + len(part) > rows:
                raise DomainError(f"spectra file {path} has more than {rows} rows; {needs}")
            parts.append(part)
    if csv.rows != rows:
        raise DomainError(f"spectra file {path} has {csv.rows} rows; {needs}")
    data = np.concatenate(parts)
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
    with np.errstate(over="ignore"):
        power, cross = psd1 * psd2, np.abs(csd) ** 2
        if np.any(cross > power * (1.0 + 1e-12)):
            raise DomainError(f"spectra file {path}: |csd|^2 exceeds psd1 * psd2")
    # welch_blocks refuses spectra whose products pass the float range, as here.
    if not (np.isfinite(power).all() and np.isfinite(cross).all()):
        raise DomainError(f"spectra file {path}: |csd|^2 or psd1 * psd2 passes the float range")
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
#: The header fields of a timeseries file and their types, written in this order.
TIMESERIES_FIELDS = {"sample_rate_hz": float, "segment_length": int, "overlap": float}


def _read_timeseries(series: _Input) -> tuple[Iterator, float, int, float]:
    """The (ch1, ch2) blocks of a ``simulate --dump-timeseries`` file being read,
    and its sample rate, segment length and overlap.

    The header is checked at once; each block's columns, samples and times
    as its byte range is parsed.
    """
    path = series.path
    sample_rate, segment_length, overlap = _header(series.meta, path, "timeseries",
                                                   TIMESERIES_FIELDS)
    # A data row takes at least 8 bytes, "0,0,0,0\n" (7 for a last row without
    # its newline), so a segment this file cannot hold is refused before a
    # window that long is made.
    most = (series.data_bytes + 1) // 8
    if segment_length > most:
        raise DomainError(f"timeseries file {path} is shorter than one segment "
                          f"({segment_length}): its {series.data_bytes} data bytes hold "
                          f"at most {most} rows")

    def blocks():
        for part in series.parts():
            if part.shape[1] != 4:
                raise DomainError(f"timeseries file {path} must have 4 columns, "
                                  f"found {part.shape[1]}")
            pair = TimeSeriesPair(sample_rate, part[:, 1], part[:, 2], part[:, 3])
            # Every time must be its row's sample time, finite, so an edited
            # row or rate is refused.
            with np.errstate(over="ignore"):
                grid = np.arange(series.rows, series.rows + len(part)) / sample_rate
            if not (np.isfinite(grid[-1])
                    and np.allclose(part[:, 0], grid, rtol=1e-12, atol=0.0)):
                raise DomainError(f"timeseries file {path}: time column is not arange(n) / rate")
            yield pair.ch1, pair.ch2

    return blocks(), sample_rate, segment_length, overlap


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
    # while no synthesis thread is alive.
    with dump or contextlib.nullcontext():
        if dump is not None:
            values = (config.sample_rate, config.segment_length, config.overlap)
            dump.write(_csv_header(dict(zip(TIMESERIES_FIELDS, values)), TIMESERIES_COLUMNS))
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
    # welch_blocks starts no thread, so the CSV workers are forked, and run,
    # while none is alive.
    with _Input(Path(args.timeseries)) as series:
        estimate = welch_blocks(*_read_timeseries(series))
    _write_spectra(Path(args.output) if args.output else None, estimate, series.rows)
    return 0


def _vouched(path: Path) -> tuple[str, bool]:
    """The SHA-256 of ``path``, and whether a ``manifest.json`` beside it lists it.

    A listed file must have the digest the manifest records: that refuses a
    file edited after it was written, though not one whose manifest was
    edited with it.
    """
    sha256 = hashlib.sha256()
    with path.open("rb") as handle:
        while block := handle.read(1 << 20):
            sha256.update(block)
    digest = sha256.hexdigest()
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
    estimate = _read_spectra(path)
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
