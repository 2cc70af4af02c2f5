"""Welch spectral estimation and cross-covariance for channel pairs.

One numpy pass yields the auto- and cross-spectra of a pair: the series is
cut into strided segment views, and chunks of ``SEGMENT_CHUNK`` segments at
a time have their means removed, are windowed and go through one ``rfft``
per channel, whose ``|X1|^2``, ``|X2|^2`` and ``conj(X1) X2`` are summed.
The sums carry scipy.signal's one-sided density scaling (Welch 1967;
Heinzel, Ruediger & Schilling 2002): a flat input returns its ASD^2 level,
and DC and Nyquist are not doubled.  Hann window and 50% overlap are the
defaults, and the explicit segment count ``n_avg`` tells downstream
detection statistics exactly how much averaging went in.  Only a window
other than Hann, and `xcorr`, import ``scipy.signal``, inside the function
that needs it, so the CLI never pays for that import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError
from .synthesis import TimeSeriesPair

#: Segments windowed and transformed per FFT call; bounds the working memory.
SEGMENT_CHUNK = 32


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
    window: str
    sample_rate: float     # Hz


@dataclass(frozen=True)
class XcorrEstimate:
    """Unbiased sample cross-covariance on the sample-lag grid."""

    lags: np.ndarray   # s, symmetric about 0
    xcov: np.ndarray   # m^2
    n: int             # series length used


def segment_count(n: int, segment_length: int, overlap: float) -> int:
    """Number of Welch segments for a series of length n."""
    step = segment_length - int(round(segment_length * overlap))
    if step < 1:
        raise DomainError("overlap leaves no advance between segments")
    return (n - segment_length) // step + 1


def _check_segmenting(n: int, segment_length: int, overlap: float) -> None:
    if not isinstance(segment_length, int) or segment_length < 64 or (
        segment_length & (segment_length - 1)
    ):
        raise DomainError(
            f"segment_length must be a power of two >= 64, got {segment_length!r}"
        )
    if n < segment_length:
        raise DomainError(
            f"series of length {n} is shorter than one segment ({segment_length})"
        )
    if not 0.0 <= overlap <= 0.75:
        raise DomainError(f"overlap must lie in [0, 0.75], got {overlap!r}")


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window, bit-identical to scipy's ``get_window("hann", length)``."""
    fac = np.linspace(-np.pi, np.pi, length + 1)
    return (0.5 + 0.5 * np.cos(fac))[:-1]


def window_sequence(window: str, length: int) -> np.ndarray:
    """The periodic (FFT-bin) window ``window`` of ``length`` samples."""
    if window == "hann":
        return hann_window(length)
    from scipy.signal import get_window

    try:
        return get_window(window, length, fftbins=True)
    except ValueError as exc:
        raise DomainError(f"unknown window {window!r}: {exc}") from exc


def _welch(channels, sample_rate, segment_length, overlap, window, detrend):
    """One-pass Welch spectra of one channel or a pair.

    Returns (freqs, n_avg, psds, csd): one PSD per channel and, for a pair,
    the conj(X1) * X2 cross spectrum (None for a single channel).
    """
    if not (detrend is False or detrend == "constant"):
        raise DomainError(f"detrend must be 'constant' or False, got {detrend!r}")
    n = len(channels[0])
    _check_segmenting(n, segment_length, overlap)
    n_avg = segment_count(n, segment_length, overlap)
    step = segment_length - int(round(segment_length * overlap))
    win = window_sequence(window, segment_length)
    n_freq = segment_length // 2 + 1

    segments = [
        sliding_window_view(np.ascontiguousarray(ch, dtype=float), segment_length)[::step][:n_avg]
        for ch in channels
    ]
    power = [np.zeros(n_freq) for _ in channels]
    cross = np.zeros(n_freq, dtype=complex)
    for start in range(0, n_avg, SEGMENT_CHUNK):
        spectra = []
        for seg, acc in zip(segments, power):
            chunk = seg[start : start + SEGMENT_CHUNK]
            if detrend:
                chunk = chunk - chunk.mean(axis=-1, keepdims=True)
            spec = np.fft.rfft(chunk * win)
            acc += (spec.real**2 + spec.imag**2).sum(axis=0)
            spectra.append(spec)
        if len(spectra) == 2:
            cross += (spectra[0].conj() * spectra[1]).sum(axis=0)

    # One-sided density: every bin but DC and Nyquist carries both signs.
    scale = np.full(n_freq, 2.0 / (sample_rate * float(np.dot(win, win)) * n_avg))
    scale[0] /= 2.0
    scale[-1] /= 2.0
    freqs = np.fft.rfftfreq(segment_length, 1.0 / sample_rate)
    csd = cross * scale if len(channels) == 2 else None
    return freqs, n_avg, [acc * scale for acc in power], csd


def welch_psd(
    series: np.ndarray,
    sample_rate: float,
    segment_length: int,
    overlap: float = 0.5,
    window: str = "hann",
    detrend="constant",
) -> SpectralEstimate:
    """Welch PSD of a single series, packaged as a degenerate pair estimate.

    Parameters
    ----------
    series : array_like
        Real time series in metres.
    sample_rate : float
        Sampling rate in Hz.
    segment_length : int
        Samples per segment (power of two).
    overlap : float, optional
        Fractional segment overlap in [0, 0.75].
    window : str, optional
        Window name understood by scipy.signal.get_window.
    detrend : "constant" or False, optional
        The default removes each segment's mean; False leaves segments as is.

    Returns
    -------
    SpectralEstimate
        With psd1 = psd2 = the PSD, csd real, coherence identically 1.
    """
    freqs, n_avg, (psd,), _ = _welch(
        [series], sample_rate, segment_length, overlap, window, detrend
    )
    return SpectralEstimate(
        freqs=freqs,
        psd1=psd,
        psd2=psd.copy(),
        csd=psd.astype(complex),
        coherence=np.ones_like(psd),
        n_avg=n_avg,
        segment_length=segment_length,
        overlap=overlap,
        window=window,
        sample_rate=sample_rate,
    )


def welch_csd(
    pair: TimeSeriesPair,
    segment_length: int,
    overlap: float = 0.5,
    window: str = "hann",
    detrend="constant",
) -> SpectralEstimate:
    """Welch auto- and cross-spectra of a channel pair.

    The cross spectrum follows the conj(X1) * X2 convention, so swapping
    the channels conjugates it.  Coherence is computed per bin from the
    averaged spectra and clipped to [0, 1]; bins with zero PSD product get
    coherence 0.
    """
    freqs, n_avg, (psd1, psd2), csd = _welch(
        [pair.ch1, pair.ch2], pair.sample_rate, segment_length, overlap, window, detrend
    )
    denom = psd1 * psd2
    coherence = np.zeros_like(psd1)
    np.divide(np.abs(csd) ** 2, denom, out=coherence, where=denom > 0.0)
    np.clip(coherence, 0.0, 1.0, out=coherence)
    return SpectralEstimate(
        freqs=freqs,
        psd1=psd1,
        psd2=psd2,
        csd=csd,
        coherence=coherence,
        n_avg=n_avg,
        segment_length=segment_length,
        overlap=overlap,
        window=window,
        sample_rate=pair.sample_rate,
    )


def xcorr(pair: TimeSeriesPair, max_lag: float) -> XcorrEstimate:
    """Unbiased cross-covariance of the pair out to +/- max_lag seconds.

    xcov[k] estimates E[ch1(t) ch2(t + k dt)] after mean removal, with the
    1/(n - |k|) unbiased normalization, evaluated on the sample-lag grid.
    max_lag may not exceed a quarter of the series duration.
    """
    from scipy import signal

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
    # full correlation c[n - 1 + k] = sum_t x[t] y[t + k]
    full = signal.correlate(y, x, mode="full", method="fft")
    k = np.arange(-kmax, kmax + 1)
    xcov = full[n - 1 + k[0] : n + k[-1]] / (n - np.abs(k))
    return XcorrEstimate(lags=k * dt, xcov=xcov, n=n)
