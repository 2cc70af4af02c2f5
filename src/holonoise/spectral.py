"""Welch auto- and cross-spectra of channel pairs.

One numpy pass yields the auto- and cross-spectra of a pair: the series is
cut into strided segment views, whose means are removed, which are windowed
and go through one ``rfft`` per channel, about ``FFT_BATCH_SAMPLES``
samples per call, and whose ``|X1|^2``, ``|X2|^2`` and ``conj(X1) X2`` are
summed over chunks of ``SEGMENT_CHUNK`` segments.  The pass consumes the
series as consecutive blocks (`welch_blocks`), in the calling thread:
segments are counted from the first sample, the samples of the segment a
block cuts are carried into the next, and each chunk sum joins the running
total in chunk order as the chunk completes, so memory is fixed by the
block, not the series, and the bits depend on neither the cut into blocks
nor the batch size.  `welch_csd` is the one-block case.  The sums carry
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

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError

if TYPE_CHECKING:
    from .synthesis import TimeSeriesPair

#: Segments summed before their sum joins the running total; this fixes the
#: order of the additions, and so the bits of every spectrum.
SEGMENT_CHUNK = 32

#: Samples windowed and transformed per FFT call (whole segments, at least
#: one and at most a chunk); small enough for the working arrays to stay in
#: cache.
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


def _sum_rows(terms: np.ndarray, k: int, carry: bool, out: np.ndarray) -> None:
    """``out`` = terms[1], ..., terms[k] added in order, after ``out`` when ``carry``.

    Rows are added one after another, so a chunk summed a batch at a time
    gets the same bits as a chunk summed at once.  terms[0] is overwritten.
    """
    if carry:
        terms[0] = out
        terms[: k + 1].sum(axis=0, out=out)
    else:
        terms[1 : k + 1].sum(axis=0, out=out)


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
    the next block.  Segments go through the FFT a batch at a time in the
    calling thread, no batch runs past the end of its chunk, and every
    chunk sum joins the running total in chunk order as the chunk
    completes, so the result is the same bits for any cut into blocks.
    Spectra that are not finite, from a sample that is not or whose square
    is not, are refused.
    """
    check_segment_length(segment_length)
    step = segment_step(segment_length, overlap)
    win = None  # made with the first whole segment, so a series too short makes none
    n_freq = segment_length // 2 + 1
    rows = min(SEGMENT_CHUNK, max(1, FFT_BATCH_SAMPLES // segment_length))
    scratch = np.empty(max(rows * segment_length, 2 * (rows + 1) * n_freq))
    spectra = np.empty((2, rows, n_freq), dtype=complex)
    terms = np.empty((rows + 1, n_freq))

    n = done = 0  # samples seen, and segments summed, so far
    carry = [np.empty(0), np.empty(0)]
    # The sums of the chunk in progress, and of the chunks before it.
    power, cross = np.empty((2, n_freq)), np.empty(n_freq, dtype=complex)
    totals, csd = np.zeros((2, n_freq)), np.zeros(n_freq, dtype=complex)
    # Samples too large to square give sums that are refused below.
    with np.errstate(over="ignore", invalid="ignore"):

        def accumulate(segments, first, stop):
            """Sum segments ``first`` to ``stop``, which ``segments`` holds from
            ``first`` on, a batch of at most ``rows`` at a time.  A batch ends
            at the end of its chunk, whose sums then join the totals."""
            nonlocal totals, csd, win
            if win is None:
                win = hann_window(segment_length)
            lo = first
            while lo < stop:
                k = min(rows, stop - lo, SEGMENT_CHUNK - lo % SEGMENT_CHUNK)
                continued = lo % SEGMENT_CHUNK > 0
                for seg, spectrum, total in zip(segments, spectra, power):
                    chunk = seg[lo - first : lo - first + k]
                    x = scratch[: k * segment_length].reshape(k, segment_length)
                    np.subtract(chunk, chunk.mean(axis=-1, keepdims=True), out=x)
                    x *= win
                    spec = np.fft.rfft(x, out=spectrum[:k])
                    im2 = np.square(spec.imag, out=scratch[: k * n_freq].reshape(k, n_freq))
                    re2 = np.square(spec.real, out=terms[1 : k + 1])
                    re2 += im2
                    _sum_rows(terms, k, continued, total)
                prod = scratch[: 2 * (k + 1) * n_freq].view(complex).reshape(k + 1, n_freq)
                np.conjugate(spectra[0][:k], out=prod[1:])
                prod[1:] *= spectra[1][:k]
                _sum_rows(prod, k, continued, cross)
                lo += k
                if lo % SEGMENT_CHUNK == 0:
                    totals += power
                    csd += cross

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
        if done % SEGMENT_CHUNK:
            totals += power
            csd += cross
        # One-sided density: every bin but DC and Nyquist carries both signs.
        scale = np.full(n_freq, 2.0 / (sample_rate * float(np.sum(win * win)) * done))
        scale[0] /= 2.0
        scale[-1] /= 2.0
        psd1, psd2 = totals * scale
        csd *= scale
        # The products coherence_of takes overflow when a sample is not
        # finite or too large to square.
        if not (np.isfinite(psd1 * psd2).all() and np.isfinite(np.abs(csd) ** 2).all()):
            raise DomainError("the spectra of this series are not finite: it holds a "
                              "sample that is not finite or too large to square")
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

