"""Outside-in spans over the holonoise layers.

`Tracer.install` wraps the public functions of each layer in every
``holonoise`` module namespace that holds them, and the 1-D transform entry
points of ``numpy.fft`` and ``scipy.fft``, which count the points they
transform into the innermost open span.  The harness opens one ``cli``
span around each in-process ``holonoise.cli.main`` call.  Spans are kept in
memory; `aggregate` turns them into per-layer metrics.

A name that no longer exists is listed in ``absent`` instead of failing, so
the trace survives refactors.  Private helpers are never wrapped: the time
a layer spends outside its wrapped children is its self time.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
import tracemalloc

LAYERS = {
    "model": ("holonoise.model", (
        "HolographicModel.from_baseline", "autocorrelation", "psd_model",
        "transverse_uncertainty", "info_budget")),
    "synthesis": ("holonoise.synthesis", ("synthesize_pair", "synthesize_common", "white_noise")),
    "spectral": ("holonoise.spectral", ("welch_csd", "welch_psd")),
    "detection": ("holonoise.detection", (
        "null_significance", "band_statistic_null_variance", "predicted_snr")),
    "slits": ("holonoise.slits", (
        "separation_sweep", "threshold_crossing", "distinguishability",
        "information_blurred_pattern", "fraunhofer_pattern")),
}

#: Functions whose calls count as one slit-pattern evaluation each.
PATTERN_FUNCTIONS = ("information_blurred_pattern", "fraunhofer_pattern")

#: Work a layer's result carries: samples synthesized, segment samples averaged.
UNITS = {
    "synthesize_pair": lambda pair: pair.n_samples,
    "welch_csd": lambda est: est.n_avg * est.segment_length,
    "welch_psd": lambda est: est.n_avg * est.segment_length,
}

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "hfft", "ihfft")

CLI_SUBCOMMANDS = ("constants", "predict", "info", "slits", "simulate", "analyze", "detect")

#: Subcommands whose work is reading a file; the others produce their output.
CLI_READERS = ("analyze", "detect")

MB = 2.0**20


def io_counters() -> tuple[int, int, int]:
    """(rchar, wchar, bytes this read added to rchar) of the calling process."""
    fd = os.open("/proc/self/io", os.O_RDONLY)
    try:
        text = os.read(fd, 4096)
    finally:
        os.close(fd)
    fields = dict(line.split(b":") for line in text.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(text)


class Tracer:
    """Span recorder; one per traced child, single-threaded."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.absent: list[str] = []

    def open(self, layer: str, name: str, io: bool = False) -> int:
        span = {"name": name, "layer": layer,
                "parent": self.stack[-1] if self.stack else None, "fft": 0}
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self.stack:
                parent = self.spans[self.stack[-1]]
                parent["peak"] = max(parent.get("peak", 0), peak)
            tracemalloc.reset_peak()
            span["alloc0"] = span["peak"] = current
        if io:
            span["io0"] = io_counters()
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span["start"] = time.perf_counter()
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span["end"] = end
        self.stack.pop()
        if "io0" in span:
            rchar0, wchar0, own = span.pop("io0")
            rchar, wchar, _ = io_counters()
            span["read"], span["written"] = rchar - rchar0 - own, wchar - wchar0
        if "peak" in span:
            span["peak"] = max(span["peak"], tracemalloc.get_traced_memory()[1])
            if self.stack:
                parent = self.spans[self.stack[-1]]
                parent["peak"] = max(parent.get("peak", 0), span["peak"])

    def _wrap(self, layer: str, name: str, fn):
        units = UNITS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if units is not None:
                try:
                    self.spans[index]["units"] = units(result)
                except AttributeError:
                    self.absent.append(f"{layer}.{name}.units")
            return result

        return traced

    def _wrap_fft(self, name: str, fn):
        import numpy as np

        complex_to_real = name in ("irfft", "hfft")

        @functools.wraps(fn)
        def counted(x, n=None, axis=-1, *args, **kwargs):
            shape = np.shape(x)
            length = shape[axis] if shape else 1
            points = n if n is not None else (2 * (length - 1) if complex_to_real else length)
            if self.stack and length:
                self.spans[self.stack[-1]]["fft"] += math.prod(shape) // length * points
            return fn(x, n, axis, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every layer function and transform that exists; note the rest."""
        namespaces = [module for key, module in list(sys.modules.items())
                      if key == "holonoise" or key.startswith("holonoise.")]

        def replace(fn, wrapped, owners):
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        setattr(owner, key, wrapped)

        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules.get(module_name)
            for name in names:
                cls_name, _, method = name.rpartition(".")
                owner = getattr(module, cls_name, None) if cls_name else module
                raw = vars(owner).get(method) if owner is not None else None
                if isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(self._wrap(layer, name, raw.__func__)))
                elif callable(raw) and not cls_name:
                    replace(raw, self._wrap(layer, name, raw), namespaces)
                else:
                    self.absent.append(f"{layer}.{name}")
        for module_name in FFT_MODULES:
            module = importlib.import_module(module_name)
            for name in FFT_FUNCTIONS:
                fn = getattr(module, name, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{name}")
                else:
                    replace(fn, self._wrap_fft(name, fn), [module, *namespaces])


def layer_absent(layer: str, absent: list[str]) -> bool:
    return all(f"{layer}.{name}" in absent for name in LAYERS[layer][1])


def aggregate(spans: list[dict], n_ops: int, absent: list[str]) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from the spans of ``n_ops`` traced ops."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    for span, inner in zip(spans, covered):
        span["self"] = span["end"] - span["start"] - inner

    def of(layer):
        return [span for span in spans if span["layer"] == layer]

    def peak_mb(group):
        return max((s["peak"] - s["alloc0"] for s in group if "peak" in s), default=0) / MB

    def ratio(num, den):
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        if layer_absent(layer, absent):
            continue
        group = of(layer)
        metrics[f"{layer}.calls"] = (len(group) / n_ops, "1/op")
        metrics[f"{layer}.self_s"] = (sum(s["self"] for s in group) / n_ops, "s/op")
        fft = sum(s["fft"] for s in group)
        units = sum(s.get("units", 0) for s in group)
        if layer == "synthesis":
            metrics["synthesis.fft_points_per_sample"] = (ratio(fft, units), "points/sample")
            metrics["synthesis.peak_alloc_mb"] = (peak_mb(group), "MB")
        elif layer == "spectral":
            metrics["spectral.fft_points_per_segment_sample"] = (ratio(fft, units), "points/sample")
            metrics["spectral.peak_alloc_mb"] = (peak_mb(group), "MB")
        elif layer == "slits":
            evals = sum(s["name"] in PATTERN_FUNCTIONS for s in group)
            metrics["slits.pattern_evals"] = (evals / n_ops, "1/op")

    cli = of("cli")
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.self_s"] = (
            sum(s["self"] for s in cli if s["name"] == f"cli.{sub}") / n_ops, "s/op")
    readers = [s for s in cli if s["name"].split(".")[1] in CLI_READERS]
    writers = [s for s in cli if s["name"].split(".")[1] not in CLI_READERS]
    written = sum(s["written"] for s in cli)
    read = sum(s["read"] for s in cli)
    metrics["cli.bytes_written"] = (written / n_ops, "B/op")
    metrics["cli.bytes_read"] = (read / n_ops, "B/op")
    metrics["cli.write_mb_per_s"] = (
        ratio(sum(s["written"] for s in writers) / MB, sum(s["self"] for s in writers)), "MB/s")
    metrics["cli.read_mb_per_s"] = (
        ratio(sum(s["read"] for s in readers) / MB, sum(s["self"] for s in readers)), "MB/s")
    metrics["cli.peak_alloc_mb"] = (peak_mb(cli), "MB")
    return metrics
