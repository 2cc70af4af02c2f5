#!/usr/bin/env python3
"""Time the CSV layer: formatting a dump-shaped block and parsing it back.

Synthesizes a ``simulate --dump-timeseries`` block of ``--rows`` rows, with
the columns of ``files.TIMESERIES`` (ch1, ch2, common), then times, each as
the median of ``--repeats`` runs from this process:

- ``format_block_s``: ``_format.format_rows``, the numpy ``%.17g`` row
  kernel that formats each CSV block;
- ``per_value_format_s``: the same rows through one Python ``%`` of a
  ``%.17g`` template over the block's values, the reference the kernel
  must equal byte for byte;
- ``write_csv_s``: ``files._write_csv`` of the block's columns to a file,
  the path ``simulate --dump-timeseries`` runs, on the CPUs this process
  may use (``cpus``), in blocks of ``files.CHUNK_ROWS`` rows;
- ``parse_range_s``: ``files._parse_range`` on the formatted bytes, which must
  give back the block bit for bit.

The result is printed as one JSON object.

    python scripts/time_csv_layer.py --rows 65536 --repeats 7
"""

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from holonoise import ExperimentConfig, files, synthesize_pair
from holonoise._format import format_rows
from holonoise._workers import cpu_count


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=2**16, help="a power of two >= 1024")
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args(argv)


def median_time(func, repeats: int):
    """The median wall time of ``repeats`` calls of ``func``, and its last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def main(argv=None) -> int:
    args = parse_args(argv)
    config = ExperimentConfig(n_samples=args.rows, seed=args.seed, segment_length=1024)
    pair = synthesize_pair(config)
    block = np.column_stack([getattr(pair, column.removesuffix("_m"))
                             for column in files.TIMESERIES.columns])

    template = ",".join(["%.17g"] * block.shape[1]) + "\n"
    format_s, data = median_time(lambda: format_rows(block), args.repeats)
    reference_s, expected = median_time(
        lambda: (template * len(block) % tuple(block.ravel().tolist())).encode(), args.repeats)
    if data != expected:
        sys.exit("the row kernel's bytes differ from per-value formatting")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "timeseries.csv"
        header = files._csv_header({}, files.TIMESERIES.columns)
        write_s, _ = median_time(lambda: files._write_csv(path, header, *block.T), args.repeats)
        if path.read_bytes() != header + expected:
            sys.exit("the written file differs from per-value formatting")

    with tempfile.TemporaryFile() as handle:
        handle.write(data)
        handle.flush()
        task = (handle.fileno(), 0, len(data))
        parse_s, parsed = median_time(lambda: files._parse_range(task), args.repeats)
    if parsed.tobytes() != block.tobytes():
        sys.exit("parsing the formatted block does not give it back bit for bit")

    print(json.dumps({
        "rows": args.rows,
        "columns": block.shape[1],
        "bytes": len(data),
        "repeats": args.repeats,
        "format_block_s": format_s,
        "per_value_format_s": reference_s,
        "write_csv_s": write_s,
        "parse_range_s": parse_s,
        "chunk_rows": files.CHUNK_ROWS,
        "cpus": cpu_count(),
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
