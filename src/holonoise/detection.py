"""Detection statistics for the cross-correlated common component.

The detection statistic is the uniform average of the real cross spectrum
over a frequency band.  Its expectation under signal is the band-averaged
model spectrum; under the null (independent channels) it is zero-mean
Gaussian once ``n_avg >= 30`` segments are averaged.

The null variance is exact for white channels and the Welch estimator
actually used, computed from its Hann window itself: overlapping segments
are correlated, every pair of bins k, k' is correlated through the window
transform at k - k' and through its image at k + k', and each per-bin real
part carries half the P1*P2 product.  Per-segment mean removal leaves bins
>= 2 untouched, so the variance is the same with or without it; for
coloured channels the measured P1*P2 levels stand in per bin.  Against the
naive ``P1 P2 / (2 n_avg B)`` for a band of B bins, the Hann window at 50%
overlap inflates the variance to
``1 + 2 (K - 1) / K * (1/6)^2`` (about 1.056 at K = n_avg = 1023) for a
single bin, 1/6 being the window's correlation with itself shifted by half
a segment, and to about 2.11 for a 1000-bin band, where neighbouring bins
share the window transform.  That matters when the z-scores are required to
be standard normal.

Band selection excludes the first two bins (per-segment mean removal biases
the DC-adjacent bin through the window transform) and the Nyquist bin; the
prediction and the measurement use the same selection so they are directly
comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnreachableTargetError
from .model import HolographicModel, psd_model
from .spectral import SpectralEstimate, hann_window, segment_step

#: Minimum averages for the Gaussian-statistics regime.
MIN_AVERAGES = 30

#: Default detection threshold in standard deviations.
SIGMA_THRESHOLD = 5.0


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of one band-limited cross-spectral detection."""

    band: tuple[float, float]  # Hz
    snr: float                 # predicted band SNR (0.0 when no prediction)
    n_avg: int
    integration_time: float    # s of data consumed by the averages
    sigma_level: float         # measured z-score of the band statistic
    null_pvalue: float         # one-sided survival probability


def band_indices(freqs: np.ndarray, band: tuple[float, float]) -> np.ndarray:
    """Bin indices inside ``band``, excluding bins 0-1 and Nyquist."""
    lo, hi = band
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0.0 or hi <= lo:
        raise DomainError(f"band must satisfy 0 <= lo < hi, got {band!r}")
    idx = np.nonzero((freqs >= lo) & (freqs <= hi))[0]
    idx = idx[(idx >= 2) & (idx < len(freqs) - 1)]
    if len(idx) == 0:
        raise DomainError(
            f"band {band!r} Hz selects no usable bins "
            f"(resolution {freqs[1] - freqs[0]:.6g} Hz)"
        )
    return idx


def check_averages(n_avg: int) -> None:
    """Refuse fewer than MIN_AVERAGES segments, too few for Gaussian statistics."""
    if n_avg < MIN_AVERAGES:
        raise DomainError(
            f"n_avg = {n_avg} < {MIN_AVERAGES}: too few averages for Gaussian statistics"
        )


def integration_time(n_avg: int, segment_length: int, overlap: float, sample_rate: float) -> float:
    """Wall-clock span of data consumed by n_avg overlapped segments, s."""
    return (segment_length + (n_avg - 1) * segment_step(segment_length, overlap)) / sample_rate


def predicted_snr(
    model: HolographicModel,
    shot_asd: float,
    sample_rate: float,
    segment_length: int,
    n_avg: int,
    band: tuple[float, float],
    holo_scale: float = 1.0,
) -> float:
    """Matched-band SNR sqrt(n_avg * sum_bins S^2 / (P1 P2)).

    S is the (scaled) model cross spectrum and P_i = shot_asd^2 + S the
    per-channel total PSD; bins follow `band_indices` on the Welch grid.
    Grows as sqrt(n_avg); with shot_asd = 0 every signal bin contributes
    S^2 / P^2 = 1.
    """
    if n_avg < 1:
        raise DomainError(f"n_avg must be positive, got {n_avg!r}")
    if shot_asd < 0.0 or not math.isfinite(shot_asd):
        raise DomainError(f"shot_asd must be >= 0, got {shot_asd!r}")
    if holo_scale < 0.0 or not math.isfinite(holo_scale):
        raise DomainError(f"holo_scale must be >= 0, got {holo_scale!r}")
    freqs = np.fft.rfftfreq(segment_length, d=1.0 / sample_rate)
    idx = band_indices(freqs, band)
    s_h = holo_scale * psd_model(model, freqs[idx])
    p_tot = shot_asd**2 + s_h
    denom = p_tot * p_tot
    terms = np.zeros_like(s_h)
    np.divide(s_h * s_h, denom, out=terms, where=denom > 0.0)
    return math.sqrt(n_avg * float(terms.sum()))


def integration_time_for(
    model: HolographicModel,
    shot_asd: float,
    sample_rate: float,
    segment_length: int,
    band: tuple[float, float],
    target_sigma: float,
    overlap: float = 0.5,
    holo_scale: float = 1.0,
) -> float:
    """Shortest integration time whose predicted SNR reaches ``target_sigma``, s.

    Inverts the sqrt(n_avg) law in closed form and converts the resulting
    segment count to the wall-clock span of overlapped segments.
    """
    if not math.isfinite(target_sigma) or target_sigma <= 0.0:
        raise DomainError(f"target_sigma must be positive, got {target_sigma!r}")
    snr_one = predicted_snr(
        model, shot_asd, sample_rate, segment_length, 1, band, holo_scale
    )
    if snr_one == 0.0:
        raise UnreachableTargetError(
            f"model spectrum is zero across band {band!r}; target unreachable"
        )
    n_req = max(1, math.ceil((target_sigma / snr_one) ** 2))
    return integration_time(n_req, segment_length, overlap, sample_rate)


def band_statistic_null_variance(estimate: SpectralEstimate, idx: np.ndarray) -> float:
    """Variance of mean(Re csd[idx]) under independent channels.

    ``idx`` is the contiguous run of bins that `band_indices` returns.  For
    white channels the covariance of Re csd at bins k and k' is P1 P2 / 2
    times |W_s(k - k')|^2 + |W_s(k + k')|^2, summed over segment pairs at
    lag s, with W_s the length-L transform of w[j] w[j + s].  The lag kernel
    sums those over every overlapping lag, and one rfft of sqrt(P1 P2)[idx]
    gives its autocorrelation (read at k - k') and self-convolution (read
    at k + k'), so every bin pair is counted.
    """
    length = estimate.segment_length
    step = segment_step(length, estimate.overlap)
    n_avg = estimate.n_avg
    n_bins = len(idx)
    win = hann_window(length)
    kernel = np.zeros(length)
    for dseg in range(min(n_avg, -(-length // step))):
        shift = dseg * step
        seg_weight = float(n_avg) if dseg == 0 else 2.0 * (n_avg - dseg)
        lag_transform = np.fft.fft(win[: length - shift] * win[shift:], length)
        kernel += seg_weight * np.abs(lag_transform) ** 2
    amp = np.sqrt(estimate.psd1[idx] * estimate.psd2[idx])
    # The transforms square amp, so it is scaled to below 1 by a power of two,
    # 2^-k: that is exact, and PSDs near the float range keep a finite variance.
    k = int(np.frexp(amp.max())[1])
    amp = np.ldexp(amp, -k)
    nfft = 1 << (2 * n_bins - 1).bit_length()
    # An amp that is not finite gives nan, and PSDs near the float range a
    # variance past it; the caller refuses what is not finite.
    with np.errstate(over="ignore", invalid="ignore"):
        spec = np.fft.rfft(amp, nfft)
        auto = np.fft.irfft(spec * np.conjugate(spec), nfft)[:n_bins]
        conv = np.fft.irfft(spec * spec, nfft)[: 2 * n_bins - 1]
        diff_sum = 2.0 * float(np.sum(auto * kernel[:n_bins])) - float(auto[0] * kernel[0])
        image_sum = float(np.sum(conv * kernel[(2 * idx[0] + np.arange(len(conv))) % length]))
        norm = 2.0 * n_avg**2 * n_bins**2 * float(np.sum(win * win)) ** 2
        return float(np.ldexp((diff_sum + image_sum) / norm, 2 * k))


def null_significance(
    estimate: SpectralEstimate,
    band: tuple[float, float],
    predicted: float | None = None,
) -> DetectionReport:
    """Band-averaged real CSD as a calibrated z-score plus p-value.

    Requires n_avg >= 30 so the statistic is in its Gaussian regime.  The
    one-sided p-value underflows to 0.0 for overwhelming detections.
    ``predicted`` optionally records a model SNR in the report.
    """
    check_averages(estimate.n_avg)
    idx = band_indices(estimate.freqs, band)
    stat = float(np.mean(estimate.csd[idx].real))
    if not (np.all(estimate.psd1[idx] >= 0.0) and np.all(estimate.psd2[idx] >= 0.0)):
        raise DomainError(f"band {band!r} holds a negative or NaN PSD value")
    variance = band_statistic_null_variance(estimate, idx)
    if not (math.isfinite(stat) and math.isfinite(variance)) or (variance == 0.0 and stat != 0.0):
        raise DomainError(f"band statistic {stat!r} over null variance {variance!r} is no z-score")
    sigma_level = stat / math.sqrt(variance) if variance > 0.0 else 0.0
    pvalue = 0.5 * math.erfc(sigma_level / math.sqrt(2.0))
    if predicted is not None and (not math.isfinite(predicted) or predicted < 0.0):
        raise DomainError(f"predicted SNR must be >= 0, got {predicted!r}")
    return DetectionReport(
        band=(float(band[0]), float(band[1])),
        snr=0.0 if predicted is None else float(predicted),
        n_avg=estimate.n_avg,
        integration_time=integration_time(
            estimate.n_avg, estimate.segment_length, estimate.overlap, estimate.sample_rate
        ),
        sigma_level=sigma_level,
        null_pvalue=pvalue,
    )
