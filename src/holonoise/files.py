"""holonoise's files: CSV spectra and time series, JSON reports, the manifest.

CSV outputs carry their metadata as ``#``-prefixed header comments and
print floats with 17 significant digits, so a written series re-read from
disk is bit-identical to the in-memory one and repeated runs of the same
configuration produce byte-identical files.  Rows are the bytes that
``%.17g`` gives each value, written by the numpy kernel
`holonoise._format.format_rows`.  CSVs are streamed in blocks of
``CHUNK_ROWS`` rows, stacked from the columns a caller hands `_Output`,
and hashed as they are written; reading cuts the data into byte ranges of
about ``RANGE_BYTES`` at line boundaries.  Blocks and ranges are formatted
or parsed across the CPUs the process may use, and the bytes do not depend
on how many there are; every formatted block goes through a ring of shared
memory that `_Output` sizes from its column count, not through a pipe.

The files holonoise reads back are of the kinds in `KINDS`: a name, header
fields with their types, and columns, which `_Input` checks a file against.
``simulate`` drops a manifest recording the config, constants, package and
numpy versions, numpy's SIMD dispatch, PRNG identity, and SHA-256 of every
output; ``detect`` refuses a spectra file whose digest differs from the one
a manifest beside it records.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import mmap
import os
import stat
import sys
import warnings
from collections.abc import Iterable, Iterator
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from ._format import format_rows, row_bytes
from ._workers import ProcessMap
from .constants import CONSTANTS
from .errors import DomainError
from .spectral import SpectralEstimate, coherence_of, segment_count, welch_blocks
from .synthesis import PRNG_IDENTIFIER, ExperimentConfig, TimeSeriesPair

#: Rows formatted per CSV block, the unit of work handed to one CPU.  It
#: also sizes the slots of `_Output`'s ring: a 2^20-sample dump on two CPUs
#: peaked at 103 MB with the ring and blocks of 2^16 rows, at 94 MB with
#: 2^16 and no ring, at 72 MB with the ring and 2^14, and at 50 MB with
#: 2^13 and synthesis blocks of 2^16.
CHUNK_ROWS = 1 << 13

#: CSV rows per formatting worker: an output under twice this many rows is
#: formatted in the calling process.  On two CPUs, 2^15 dump rows took 53 ms
#: on two workers and 34 ms in one process; 2^16 rows broke even.
WORKER_ROWS = 1 << 15

#: Approximate bytes of CSV data parsed per range when reading.
RANGE_BYTES = 1 << 21

#: CSV data bytes per parsing worker: a file is parsed on one worker per
#: started 8 MB, so one of 8 MB or less is parsed in the calling process.
WORKER_BYTES = 1 << 23


def _csv_header(meta: dict, columns: Iterable[str]) -> bytes:
    """The ``#`` header lines of a CSV file."""
    lines = [f"# holonoise v{__version__}"]
    for key, val in meta.items():
        lines.append(f"# {key} = {val:.17g}" if isinstance(val, float) else f"# {key} = {val}")
    lines.append("# columns: " + ",".join(columns))
    return ("\n".join(lines) + "\n").encode()


class FileKind(NamedTuple):
    """A kind of CSV file that holonoise writes and reads back."""

    name: str
    #: The header fields and their types, written in this order.
    fields: dict
    columns: tuple

    def header(self, *values) -> bytes:
        """The header lines of a file of this kind, its fields set to ``values`` in order."""
        return _csv_header(dict(zip(self.fields, values)), self.columns)

    def parse(self, meta: dict, path: Path) -> list:
        """The header fields in the ``meta`` of ``path``, each required and parsed, in order."""
        missing = sorted(set(self.fields) - set(meta))
        if missing:
            raise DomainError(f"{self.name} file {path} lacks header fields: {', '.join(missing)}")
        values = []
        for key, parse in self.fields.items():
            try:
                values.append(parse(meta[key]))
            except ValueError as exc:
                what = "an integer" if parse is int else "a number"
                raise DomainError(f"{path}: header {key} = {meta[key]!r} is not {what}") from exc
        return values


SPECTRA, TIMESERIES = KINDS = (
    FileKind("spectra",
             {"sample_rate_hz": float, "n_samples": int, "segment_length": int,
              "overlap": float, "window": str, "n_avg": int},
             ("freq_hz", "psd1_m2_per_hz", "psd2_m2_per_hz", "csd_re_m2_per_hz",
              "csd_im_m2_per_hz", "coherence")),
    FileKind("timeseries",
             {"sample_rate_hz": float, "n_samples": int, "segment_length": int, "overlap": float},
             ("ch1_m", "ch2_m", "common_m")),
)


class _Output:
    """An output file, or stdout when ``path`` is None, hashed as it is written.

    CSV rows of ``columns`` values are formatted CHUNK_ROWS at a time, on
    forked workers, one for every WORKER_ROWS of ``rows``, the number of
    rows to be written, and at most one per CPU (see `ProcessMap`); where
    that is fewer than two, in the calling process.  Every block's bytes
    go through a ring of shared memory, made before the workers fork, with
    one slot of CHUNK_ROWS lines of ``row_bytes(columns)`` bytes per block
    in flight: the block is formatted into the slot it is given, only the
    length comes back, and the block is written and hashed from the slot,
    in put order.  An output without columns, such as JSON, has no ring.
    The workers are forked on entering the ``with`` block, before the
    caller starts any thread.
    """

    def __init__(self, path: Path | None, rows: int = 0, columns: int = 0):
        self.path = path
        self.sha256 = hashlib.sha256()
        self.columns = columns
        self.formatter = ProcessMap(self.format_block, rows // WORKER_ROWS)
        self.slot_bytes = CHUNK_ROWS * row_bytes(columns)
        self.puts = 0

    def __enter__(self) -> "_Output":
        # Python sets sys.stdout to None when it starts with fd 1 closed.
        if self.path is None and sys.stdout is None:
            raise OSError("stdout is closed")
        with contextlib.ExitStack() as stack:
            if self.columns:
                self.ring = mmap.mmap(-1, self.formatter.in_flight * self.slot_bytes)
                stack.callback(self.ring.close)
            stack.enter_context(self.formatter)
            self.handle = None if self.path is None else stack.enter_context(self.path.open("wb"))
            self.resources = stack.pop_all()
        return self

    def __exit__(self, kind, *exc) -> None:
        # Closes the file, then stops the workers, then unmaps the ring.
        with self.resources:
            if kind is None:
                for start, length in self.formatter.drain():
                    self.write_slot(start, length)

    def write(self, data) -> None:
        if self.handle is None:
            sys.stdout.write(str(data, "utf-8"))
        else:
            self.handle.write(data)
        self.sha256.update(data)

    def format_block(self, task: tuple[int, np.ndarray]) -> tuple[int, int]:
        """Format a block into the ring slot at ``start``, on a worker's copy of
        this output or in the calling process; the start and its length."""
        start, block = task
        data = format_rows(block)
        self.ring[start : start + len(data)] = data
        return start, len(data)

    def write_slot(self, start: int, length: int) -> None:
        # Released at once, so the ring can be unmapped whatever is raised.
        with memoryview(self.ring)[start : start + length] as data:
            self.write(data)

    def rows(self, *columns: np.ndarray) -> None:
        """CSV lines of equal-length 1-D float columns, each value at 17 digits.

        A line of k values takes at most ``row_bytes(k)`` bytes, so a block
        outgrows its slot only if it has more columns than this output was
        made for: a block of any other count is refused before it is
        formatted.
        """
        for i in range(0, len(columns[0]), CHUNK_ROWS):
            # Stacked a block at a time, before it is put, so a block waiting
            # for a worker holds only its own rows.
            block = np.column_stack([column[i : i + CHUNK_ROWS] for column in columns])
            if block.shape[1] != self.columns:
                raise ValueError(f"a CSV block of {block.shape[1]} columns, "
                                 f"for an output of {self.columns}")
            # The slot of the block put in_flight puts ago, which is written.
            start = self.puts % self.formatter.in_flight * self.slot_bytes
            self.puts += 1
            for done in self.formatter.put((start, block)):
                self.write_slot(*done)

    def hexdigest(self) -> str:
        return self.sha256.hexdigest()


def _write_json(path: Path | None, value) -> str:
    """Write ``value`` as indented JSON to ``path`` (stdout when None); its SHA-256."""
    with _Output(path) as out:
        out.write((json.dumps(value, indent=2) + "\n").encode())
    return out.hexdigest()


def _write_csv(path: Path | None, header: bytes, *columns: np.ndarray) -> str:
    """Write ``header``, then ``columns`` as CSV lines, as `_write_json` writes."""
    with _Output(path, len(columns[0]), len(columns)) as out:
        out.write(header)
        out.rows(*columns)
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
    """A CSV file of ``kind`` being read: its ``key = value`` header comments, then its data rows.

    Entering the ``with`` block reads the header into ``meta``, and the
    kind's header fields, parsed, into ``header``; then it cuts the
    ``data_bytes`` that follow the header into byte ranges of about
    RANGE_BYTES at line boundaries.  `parts` hands the ranges' rows back one
    range at a time, in file order, parsed on forked workers, one for every
    WORKER_BYTES of data begun (see `ProcessMap`), so a caller that consumes
    them as they come never holds the whole file.  The workers are forked on
    entering the ``with`` block, before the caller starts any thread.
    """

    def __init__(self, path: Path, kind: FileKind):
        self.path = path
        self.kind = kind
        self.meta: dict[str, str] = {}
        self.rows = 0

    def __enter__(self) -> "_Input":
        with contextlib.ExitStack() as stack:
            self.handle = stack.enter_context(_regular(self.path).open("rb"))
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
            self.size = size = os.fstat(self.handle.fileno()).st_size
            # Said before any header field is checked: the file is all header.
            if size == start:
                raise DomainError(f"{self.path} has no data rows")
            self.header = self.kind.parse(self.meta, self.path)
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
            workers = -(-self.data_bytes // WORKER_BYTES)
            self.parser = stack.enter_context(ProcessMap(_parse_range, workers))
            self.resources = stack.pop_all()
        return self

    def __exit__(self, *exc) -> None:
        # Stops the workers, then closes the file.
        self.resources.close()

    def parts(self, rows: int, needs: str) -> Iterator[np.ndarray]:
        """The data rows as 2-D arrays, one per range that holds any, in file order,
        each refused unless it has the kind's number of columns, and the file
        refused unless it holds ``rows`` rows, ``needs`` saying why it must.

        A part that runs past ``rows`` is refused as it arrives, and a file
        that ends short once it is read.  A data row takes at least two bytes
        a column, "0,0,0\n" (one fewer for a last row without its newline),
        so the rows parsed and the data bytes still unread bound the rows the
        file can hold: a count they cannot reach is refused before any range
        is parsed and as each part arrives while any byte is unread (after
        that, the file's own count says more).  Once every part has been
        taken, the attribute ``rows`` counts them all.
        """
        columns = len(self.kind.columns)
        what = f"{self.kind.name} file {self.path}"

        def reachable(unread: int) -> None:
            most = self.rows + (unread + 1) // (2 * columns)
            if unread and most < rows:
                raise DomainError(f"{what} holds at most {most} rows; {needs}")

        def parsed():
            try:
                for task in self.ranges:
                    yield from self.parser.put(task)
                yield from self.parser.drain()
            except ValueError as exc:
                raise DomainError(f"malformed CSV {self.path}: {exc}") from exc

        reachable(self.data_bytes)
        # Each range gives one result, in range order.
        for (_, _, stop), part in zip(self.ranges, parsed()):
            if not len(part):  # a range of comment lines alone parses to no rows
                continue
            if part.shape[1] != columns:
                raise DomainError(f"{what} must have {columns} columns, found {part.shape[1]}")
            self.rows += len(part)
            if self.rows > rows:
                raise DomainError(f"{what} has more than {rows} rows; {needs}")
            reachable(self.size - stop)
            yield part
        if not self.rows:
            raise DomainError(f"{self.path} has no data rows")
        if self.rows != rows:
            raise DomainError(f"{what} has {self.rows} rows; {needs}")


def _regular(path: Path) -> Path:
    """``path``, refused unless it is a regular file: reading a device such as
    /dev/zero never ends, and opening a FIFO blocks until a writer comes."""
    if not stat.S_ISREG(path.stat().st_mode):
        raise OSError(f"{path} is not a regular file")
    return path


def _read_json(path: Path):
    """The JSON value in ``path``; malformed JSON is refused in one line."""
    try:
        return json.loads(_regular(path).read_text())
    except json.JSONDecodeError as exc:
        raise DomainError(
            f"malformed JSON in {path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer too long, too deep
        raise DomainError(f"malformed JSON in {path}: {exc}") from exc


def load_config(path: Path) -> ExperimentConfig:
    """Parse a JSON config file; unknown fields and bad JSON are rejected."""
    return ExperimentConfig.from_dict(_read_json(path))


def _report_dict(report) -> dict:
    return {
        "band_hz": [report.band[0], report.band[1]],
        "snr": report.snr,
        "n_avg": report.n_avg,
        "integration_time_s": report.integration_time,
        "sigma_level": report.sigma_level,
        "null_pvalue": report.null_pvalue,
    }


def numpy_cpu_dispatch() -> list[str]:
    """The SIMD targets numpy dispatches to on this CPU, some of which round
    differently: those of its ``__cpu_dispatch__`` that ``__cpu_features__``
    marks on."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]


def _write_manifest(path: Path, command: str, config: dict, outputs: dict[str, str]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "constants": CONSTANTS.as_dict(),
        "version": __version__,
        "numpy_version": np.__version__,
        "numpy_cpu_dispatch": numpy_cpu_dispatch(),
        "prng": PRNG_IDENTIFIER,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": outputs,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _vouched(path: Path) -> tuple[str, bool]:
    """The SHA-256 of ``path``, and whether a ``manifest.json`` beside it lists it.

    A listed file must have the digest the manifest records: that refuses a
    file edited after it was written, though not one whose manifest was
    edited with it.
    """
    sha256 = hashlib.sha256()
    with _regular(path).open("rb") as handle:
        while block := handle.read(1 << 20):
            sha256.update(block)
    digest = sha256.hexdigest()
    manifest_path = path.parent / "manifest.json"
    if not manifest_path.is_file():
        return digest, False
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise DomainError(f"manifest {manifest_path} must be a JSON object")
    outputs = manifest.get("outputs")
    if not isinstance(outputs, dict) or path.name not in outputs:
        return digest, False
    if outputs[path.name] != digest:
        raise DomainError(
            f"{path} does not match the SHA-256 that {manifest_path} records for it"
        )
    return digest, True


def _write_spectra(path: Path | None, est: SpectralEstimate, n_samples: int) -> str:
    """Spectra of an ``n_samples`` series; the header fixes its ``n_avg``."""
    header = SPECTRA.header(est.sample_rate, n_samples, est.segment_length, est.overlap, "hann",
                            est.n_avg)
    return _write_csv(path, header, est.freqs, est.psd1, est.psd2, est.csd.real, est.csd.imag,
                      est.coherence)


def _read_spectra(path: Path) -> SpectralEstimate:
    """The estimate in a spectra file, refused unless header and columns agree.

    The header is checked before any row is parsed, and each range's rows
    as they arrive, so a file that is not a spectra file is refused before
    it is read whole.
    """
    with _Input(path, SPECTRA) as csv:
        sample_rate, n_samples, segment_length, overlap, window, n_avg = csv.header
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
                f"segment_length = {segment_length} and overlap = {overlap:.17g} give {expected}"
            )
        if not (math.isfinite(sample_rate) and sample_rate > 0.0):
            raise DomainError(
                f"spectra file {path}: sample_rate_hz = {sample_rate!r} is not a positive rate"
            )
        # The rows must be the whole Welch grid the header describes, so a file
        # cut short, run long or with an edited header is refused rather than trusted.
        rows = segment_length // 2 + 1
        parts = list(csv.parts(rows, f"segment_length = {segment_length} needs {rows}"))
    data = np.concatenate(parts)
    grid = np.fft.rfftfreq(segment_length, 1.0 / sample_rate)
    if not np.allclose(data[:, 0], grid, rtol=1e-12, atol=0.0):
        raise DomainError(
            f"spectra file {path}: frequency column is not the Welch grid "
            f"rfftfreq({segment_length}, 1/{sample_rate:.17g})"
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


def _read_timeseries(path: Path) -> tuple[SpectralEstimate, int]:
    """The Welch spectra of a ``simulate --dump-timeseries`` file, and its sample count.

    The header is checked at once; each block's columns, samples and row
    count as its byte range is parsed, and Welch takes the blocks as they
    come.  A row's time is its index over the rate, so no column holds it.
    """
    # welch_blocks starts no thread, so the CSV workers are forked, and run,
    # while none is alive.
    with _Input(path, TIMESERIES) as series:
        sample_rate, n_samples, segment_length, overlap = series.header
        needs = f"its header gives n_samples = {n_samples}"
        if segment_length > n_samples:
            raise DomainError(f"timeseries file {path} is shorter than one segment "
                              f"({segment_length}): {needs}")

        blocks = (TimeSeriesPair(sample_rate, *part.T) for part in series.parts(n_samples, needs))
        return welch_blocks(blocks, segment_length, overlap), n_samples


def _dumped(blocks: Iterable[TimeSeriesPair], out: _Output) -> Iterator[TimeSeriesPair]:
    """``blocks`` passed on as they come, each also written to ``out`` as time-series rows."""
    for block in blocks:
        out.rows(block.ch1, block.ch2, block.common)
        yield block
