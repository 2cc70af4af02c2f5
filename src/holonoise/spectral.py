"""Welch spectral estimation and cross-covariance for channel pairs.

One numpy pass yields the auto- and cross-spectra of a pair: the series is
cut into strided segment views, whose means are removed, which are windowed
and go through one ``rfft`` per channel, about ``FFT_BATCH_SAMPLES``
samples per call, and whose ``|X1|^2``, ``|X2|^2`` and ``conj(X1) X2`` are
summed over chunks of ``SEGMENT_CHUNK`` segments.  The pass consumes the
series as consecutive blocks (`welch_blocks`): segments are counted from
the first sample, the samples of the segment a block cuts are carried into
the next, and each chunk sum joins the running total in chunk order as the
chunk completes, so memory is fixed by the block, not the series, and the
bits depend on neither the cut into blocks, the batch size nor the number
of worker threads a block's chunks are shared among (see
`_workers.ThreadMap`).  `welch_csd` is the one-block case.  The sums carry
scipy.signal's one-sided density scaling (Welch 1967; Heinzel, Ruediger &
Schilling 2002) with ``detrend="constant"``: a flat input returns its ASD^2
level, and DC and Nyquist are not doubled.  The window is always the
periodic Hann window (`hann_window`), 50% overlap is the default, and the
explicit segment count ``n_avg`` tells downstream detection statistics
exactly how much averaging went in.  `check_segment_length` is the one
place the segment length rule is decided, and `segment_step` the one place
the segment step and the overlap range are; `ExperimentConfig` calls both.
Everything here is numpy.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._workers import ThreadMap, thread_count
from .errors import DomainError

if TYPE_CHECKING:
    from .synthesis import TimeSeriesPair

#: Segments summed before their sum joins the running total; this fixes the
#: order of the additions, and so the bits of every spectrum.
SEGMENT_CHUNK = 32

#: Samples windowed and transformed per FFT call (whole segments, at least
#: one); small enough for the working arrays to stay in cache.
FFT_BATCH_SAMPLES = 1 << 15


@dataclass(frozen=True)
class SpectralEstimate:
    """Averaged one-sided spectra of a channel pair on a common bin grid."""

    freqs: np.ndarray      # Hz, increasing from 0 to sample_rate / 2
    psd1: np.ndarray       # m^2 / Hz
    psd2: np.ndarray       # m^2 / Hz
    csd: np.ndarray        # complex, m^2 / Hz
    coherence: np.ndarray  # |csd|^2 / (psd1 psd2), in [0, 1]
    n_avg: int             # number of averaged segments
    segment_length: int
    overlap: float
    sample_rate: float     # Hz


@dataclass(frozen=True)
class XcorrEstimate:
    """Unbiased sample cross-covariance on the sample-lag grid."""

    lags: np.ndarray   # s, symmetric about 0
    xcov: np.ndarray   # m^2
    n: int             # series length used


def check_segment_length(segment_length: int) -> None:
    """Refuse a Welch segment length that is not a power of two >= 64."""
    if not isinstance(segment_length, int) or segment_length < 64 or (
        segment_length & (segment_length - 1)
    ):
        raise DomainError(
            f"segment_length must be a power of two >= 64, got {segment_length!r}"
        )


def segment_step(segment_length: int, overlap: float) -> int:
    """Samples from the start of one Welch segment to the next.

    ``overlap`` must lie in [0, 0.75], and the step must be at least one
    sample; every step and segment count is taken from here.
    """
    if not 0.0 <= overlap <= 0.75:
        no_step = overlap >= 1.0
        why = "leaves no advance between segments" if no_step else "is outside [0, 0.75]"
        raise DomainError(f"overlap = {overlap!r} {why}")
    step = segment_length - int(round(segment_length * overlap))
    if step < 1:
        raise DomainError(f"overlap = {overlap!r} leaves no advance between segments")
    return step


def segment_count(n: int, segment_length: int, overlap: float) -> int:
    """Number of Welch segments for a series of length n."""
    return (n - segment_length) // segment_step(segment_length, overlap) + 1


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window, bit-identical to scipy's ``get_window("hann", length)``."""
    fac = np.linspace(-np.pi, np.pi, length + 1)
    return (0.5 + 0.5 * np.cos(fac))[:-1]


def coherence_of(psd1: np.ndarray, psd2: np.ndarray, csd: np.ndarray) -> np.ndarray:
    """|csd|^2 / (psd1 psd2) clipped to [0, 1], and 0 where psd1 psd2 is 0."""
    denom = psd1 * psd2
    coherence = np.zeros(len(denom))
    np.divide(np.abs(csd) ** 2, denom, out=coherence, where=denom > 0.0)
    return np.clip(coherence, 0.0, 1.0, out=coherence)


def _sum_rows(terms: np.ndarray, a: int, b: int, carry: bool, out: np.ndarray) -> None:
    """``out`` = terms[a + 1], ..., terms[b] added in order, after ``out`` when ``carry``.

    Rows are added one after another, so a chunk summed a piece at a time
    gets the same bits as a chunk summed at once.  terms[a] is overwritten.
    """
    if carry:
        terms[a] = out
        terms[a : b + 1].sum(axis=0, out=out)
    else:
        terms[a + 1 : b + 1].sum(axis=0, out=out)


def _work_arrays(length: int):
    """What one worker writes into: a scratch buffer, a spectrum per channel,
    and the rows to sum, for batches of ``FFT_BATCH_SAMPLES // length`` segments."""
    rows, n_freq = max(1, FFT_BATCH_SAMPLES // length), length // 2 + 1
    return (
        np.empty(max(rows * length, 2 * (rows + 1) * n_freq)),
        [np.empty((rows, n_freq), dtype=complex) for _ in range(2)],
        np.empty((rows + 1, n_freq)),
    )


def _chunk_sums(segments, base, win, first, stop, work, power, cross):
    """Sum the segments ``first`` to ``stop`` into their chunks' rows: row
    i - base // SEGMENT_CHUNK of ``power[c]`` gets chunk i's sum of |X_c|^2
    and the same row of ``cross`` its sum of conj(X1) X2.

    Segment indices count from the start of the series, and ``segments``
    holds each channel's segments from ``base`` onwards.  A chunk that
    began before ``first`` adds onto the sum its row already holds.
    Segments go through the FFT a batch at a time, whatever chunks they
    belong to, and every step writes into the ``work`` arrays, so a worker
    needs a fixed few times ``FFT_BATCH_SAMPLES`` floats.
    """
    scratch, spectra, terms = work
    length = len(win)
    n_freq = length // 2 + 1
    row0 = base // SEGMENT_CHUNK
    for lo in range(first, stop, len(terms) - 1):
        k = min(len(terms) - 1, stop - lo)
        # Batch rows a to b - 1 are chunk i's segments lo + a to lo + b - 1.
        pieces = [
            (i - row0, max(lo, i * SEGMENT_CHUNK) - lo,
             min(lo + k, (i + 1) * SEGMENT_CHUNK) - lo)
            for i in range(lo // SEGMENT_CHUNK, -(-(lo + k) // SEGMENT_CHUNK))
        ]
        for seg, spectrum, total in zip(segments, spectra, power):
            chunk = seg[lo - base : lo - base + k]
            x = scratch[: k * length].reshape(k, length)
            np.subtract(chunk, chunk.mean(axis=-1, keepdims=True), out=x)
            x *= win
            spec = np.fft.rfft(x, out=spectrum[:k])
            im2 = np.square(spec.imag, out=scratch[: k * n_freq].reshape(k, n_freq))
            re2 = np.square(spec.real, out=terms[1 : k + 1])
            re2 += im2
            for i, a, b in pieces:
                _sum_rows(terms, a, b, (lo + a) % SEGMENT_CHUNK > 0, total[i])
        prod = scratch[: 2 * (k + 1) * n_freq].view(complex).reshape(k + 1, n_freq)
        np.conjugate(spectra[0][:k], out=prod[1:])
        prod[1:] *= spectra[1][:k]
        for i, a, b in pieces:
            _sum_rows(prod, a, b, (lo + a) % SEGMENT_CHUNK > 0, cross[i])


def welch_blocks(
    blocks: Iterable,
    sample_rate: float,
    segment_length: int,
    overlap: float = 0.5,
) -> SpectralEstimate:
    """One-pass Welch auto- and cross-spectra of a channel pair, from consecutive blocks.

    Parameters
    ----------
    blocks : iterable of (ch1, ch2) array pairs
        Consecutive pieces of the pair, the two arrays of a piece of equal
        length; together they are the whole series, and any piece may be
        any length.
    sample_rate : float
        Sampling rate in Hz.
    segment_length : int
        Samples per segment, a power of two >= 64 (`check_segment_length`).
    overlap : float, optional
        Fractional segment overlap in [0, 0.75] (`segment_step`).

    Returns
    -------
    SpectralEstimate
        The bits `welch_csd` gives on the blocks put end to end.

    Every segment has its mean removed and is multiplied by `hann_window`.
    Segments are counted from the first sample, and the samples of a
    segment not yet whole, fewer than ``segment_length``, are carried into
    the next block.  Each worker thread (see `_workers.ThreadMap`) sums one
    contiguous group of a block's chunks, and every chunk sum joins the
    running total in chunk order as the chunk completes, so the result is
    the same bits on any CPU count and for any cut into blocks.
    """
    check_segment_length(segment_length)
    step = segment_step(segment_length, overlap)
    win = hann_window(segment_length)
    n_freq = segment_length // 2 + 1

    n = done = 0  # samples seen, and segments summed, so far
    carry = [np.empty(0), np.empty(0)]
    totals, csd = np.zeros((2, n_freq)), np.zeros(n_freq, dtype=complex)
    open_chunk = None
    work: list = []
    with ThreadMap() as threads:

        def accumulate(segments, first, stop):
            """Sum segments ``first`` to ``stop``, which ``segments`` holds from
            ``first`` on, and add the chunks they complete to the totals."""
            nonlocal open_chunk, totals, csd
            row0, rows = first // SEGMENT_CHUNK, -(-stop // SEGMENT_CHUNK)
            power = np.empty((2, rows - row0, n_freq))
            cross = np.empty((rows - row0, n_freq), dtype=complex)
            if open_chunk is not None:
                power[:, 0], cross[0] = open_chunk
            load = 2 * (stop - first) * segment_length
            groups = np.array_split(np.arange(row0, rows), thread_count(rows - row0, load))
            # Every array a worker writes is allocated here: memory that a worker
            # thread allocates stays in that thread's malloc arena after it ends.
            work.extend(_work_arrays(segment_length) for _ in range(len(groups) - len(work)))
            tasks = [
                (max(first, g[0] * SEGMENT_CHUNK), min(stop, (g[-1] + 1) * SEGMENT_CHUNK), w)
                for g, w in zip(groups, work)
            ]
            threads.map(
                lambda task: _chunk_sums(segments, first, win, *task, power, cross),
                tasks, load,
            )
            complete = stop // SEGMENT_CHUNK - row0
            for i in range(complete):
                totals += power[:, i]
                csd += cross[i]
            open_chunk = (power[:, complete], cross[complete]) if stop % SEGMENT_CHUNK else None

        def windows(series, count):
            return [sliding_window_view(ch, segment_length)[::step][:count] for ch in series]

        for block in blocks:
            channels = [np.ascontiguousarray(ch, dtype=float) for ch in block]
            if len(channels[0]) != len(channels[1]):
                raise DomainError(
                    f"block at sample {n} has channels of {len(channels[0])} and "
                    f"{len(channels[1])} samples; a pair needs equal lengths"
                )
            n += len(channels[0])
            # Segment ``done`` starts at carry[0].  The ``head`` segments that
            # start in the carry are cut from it joined to the block's first
            # samples; the rest are cut from the block itself.
            c = len(carry[0])
            whole = max(0, (c + len(channels[0]) - segment_length) // step + 1)
            head = min(whole, -(-c // step))
            if head:
                joined = [np.concatenate((old, ch[: (head - 1) * step + segment_length - c]))
                          for old, ch in zip(carry, channels)]
                accumulate(windows(joined, head), done, done + head)
            if whole > head:
                body = [ch[head * step - c :] for ch in channels]
                accumulate(windows(body, whole - head), done + head, done + whole)
            start = whole * step - c  # of segment done + whole, in the block
            if start >= 0:
                carry = [ch[start:].copy() for ch in channels]
            else:
                carry = [np.concatenate((old[whole * step :], ch))
                         for old, ch in zip(carry, channels)]
            done += whole
    if not done:
        raise DomainError(
            f"series of length {n} is shorter than one segment ({segment_length})"
        )
    if open_chunk is not None:
        totals += open_chunk[0]
        csd += open_chunk[1]

    # One-sided density: every bin but DC and Nyquist carries both signs.
    scale = np.full(n_freq, 2.0 / (sample_rate * float(np.dot(win, win)) * done))
    scale[0] /= 2.0
    scale[-1] /= 2.0
    psd1, psd2 = totals * scale
    csd *= scale
    return SpectralEstimate(
        freqs=np.fft.rfftfreq(segment_length, 1.0 / sample_rate),
        psd1=psd1,
        psd2=psd2,
        csd=csd,
        coherence=coherence_of(psd1, psd2, csd),
        n_avg=done,
        segment_length=segment_length,
        overlap=overlap,
        sample_rate=sample_rate,
    )


def welch_csd(
    pair: TimeSeriesPair,
    segment_length: int,
    overlap: float = 0.5,
) -> SpectralEstimate:
    """Welch auto- and cross-spectra of a channel pair, as `welch_blocks`.

    The cross spectrum follows the conj(X1) * X2 convention, so swapping
    the channels conjugates it.  Coherence is computed per bin from the
    averaged spectra and clipped to [0, 1]; bins with zero PSD product get
    coherence 0.
    """
    if segment_length > pair.n_samples:  # refused before the window is made that long
        raise DomainError(f"series of length {pair.n_samples} is shorter than one segment "
                          f"({segment_length})")
    return welch_blocks([(pair.ch1, pair.ch2)], pair.sample_rate, segment_length, overlap)


def xcorr(pair: TimeSeriesPair, max_lag: float) -> XcorrEstimate:
    """Unbiased cross-covariance of the pair out to +/- max_lag seconds.

    xcov[k] estimates E[ch1(t) ch2(t + k dt)] after mean removal, with the
    1/(n - |k|) unbiased normalization, evaluated on the sample-lag grid.
    max_lag may not exceed a quarter of the series duration.
    """
    n = pair.n_samples
    dt = 1.0 / pair.sample_rate
    if not math.isfinite(max_lag) or max_lag <= 0.0:
        raise DomainError(f"max_lag must be positive, got {max_lag!r}")
    if max_lag > n * dt / 4.0:
        raise DomainError(
            f"max_lag {max_lag!r} s exceeds a quarter of the duration {n * dt:.3e} s"
        )
    kmax = int(round(max_lag / dt))
    if kmax < 1:
        raise DomainError("max_lag is below one sample interval")
    x = pair.ch1 - pair.ch1.mean()
    y = pair.ch2 - pair.ch2.mean()
    # Zero-padded to nfft >= 2n - 1, so the circular correlation
    # c[k] = sum_t x[t] y[t + k] does not wrap; lag -k sits at c[nfft - k].
    nfft = 1 << (2 * n - 1).bit_length()
    c = np.fft.irfft(np.conjugate(np.fft.rfft(x, nfft)) * np.fft.rfft(y, nfft), nfft)
    k = np.arange(-kmax, kmax + 1)
    return XcorrEstimate(lags=k * dt, xcov=c[k] / (n - np.abs(k)), n=n)
