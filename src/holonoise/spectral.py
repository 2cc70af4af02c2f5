"""Welch spectral estimation and cross-covariance for channel pairs.

Thin, contract-pinning wrappers around scipy.signal's Welch machinery:
one-sided densities with window-power normalization (a flat input returns
its ASD^2 level), Hann window and 50% overlap by default, per-segment mean
removal, and an explicit segment count ``n_avg`` so downstream detection
statistics know exactly how much averaging went in.  ``scipy.signal`` is
imported inside the functions that use it, so importing the package (and
running the CLI commands that need no spectra) does not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .synthesis import TimeSeriesPair


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
    detrend : str or False, optional
        Per-segment detrending; the default removes each segment's mean.

    Returns
    -------
    SpectralEstimate
        With psd1 = psd2 = the PSD, csd real, coherence identically 1.
    """
    from scipy import signal

    series = np.asarray(series, dtype=float)
    _check_segmenting(len(series), segment_length, overlap)
    noverlap = int(round(segment_length * overlap))
    freqs, psd = signal.welch(
        series,
        fs=sample_rate,
        window=window,
        nperseg=segment_length,
        noverlap=noverlap,
        detrend=detrend,
        return_onesided=True,
        scaling="density",
        average="mean",
    )
    return SpectralEstimate(
        freqs=freqs,
        psd1=psd,
        psd2=psd.copy(),
        csd=psd.astype(complex),
        coherence=np.ones_like(psd),
        n_avg=segment_count(len(series), segment_length, overlap),
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
    from scipy import signal

    n = pair.n_samples
    _check_segmenting(n, segment_length, overlap)
    noverlap = int(round(segment_length * overlap))
    kwargs = dict(
        fs=pair.sample_rate,
        window=window,
        nperseg=segment_length,
        noverlap=noverlap,
        detrend=detrend,
        return_onesided=True,
        scaling="density",
        average="mean",
    )
    freqs, psd1 = signal.welch(pair.ch1, **kwargs)
    _, psd2 = signal.welch(pair.ch2, **kwargs)
    _, csd = signal.csd(pair.ch1, pair.ch2, **kwargs)
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
        n_avg=segment_count(n, segment_length, overlap),
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
