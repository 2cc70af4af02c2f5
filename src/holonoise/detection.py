"""Detection statistics for the cross-correlated common component.

The detection statistic is the uniform average of the real cross spectrum
over a frequency band.  Its expectation under signal is the band-averaged
model spectrum; under the null (independent channels) it is zero-mean
Gaussian once ``n_avg >= 30`` segments are averaged.

The null variance is computed exactly for the Welch estimator actually
used, from the window sequence itself: overlapping segments are correlated,
adjacent frequency bins are correlated through the window transform, and
each per-bin real part carries half the P1*P2 product.  Against the naive
``P1 P2 / (2 n_avg B)`` for a band of B bins, a Hann window at 50% overlap
inflates the variance to ``1 + 2 (K - 1) / K * (1/6)^2`` (about 1.056 at
K = n_avg = 1023) for a single bin, 1/6 being the window's correlation with
itself shifted by half a segment, and to about 2.11 for a 1000-bin band,
where neighbouring bins share the window transform.  That matters when the
z-scores are required to be standard normal.

Band selection excludes the first two bins (per-segment mean removal biases
the DC-adjacent bin through the window transform) and the Nyquist bin; the
prediction and the measurement use the same selection so they are directly
comparable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnreachableTargetError
from .model import HolographicModel, psd_model
from .spectral import SpectralEstimate, segment_step, window_sequence

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
    """Shortest duration whose predicted SNR reaches ``target_sigma``, s.

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


def _cross_kernel(window: np.ndarray, shift: int, dbin: int) -> float:
    """|sum_j w[j] w[j+shift] e^(-2 pi i j dbin / L)| / sum_j w[j]^2."""
    length = len(window)
    if shift >= length:
        return 0.0
    prod = window[: length - shift] * window[shift:]
    j = np.arange(length - shift)
    phase = np.exp(-2j * np.pi * j * dbin / length)
    return abs(np.dot(prod, phase)) / float(np.dot(window, window))


@functools.lru_cache(maxsize=32)
def _kernel_table(window: str, length: int, step: int, max_dbin: int) -> tuple:
    """`_cross_kernel` for every overlapping segment lag and every dbin <= max_dbin.

    Row d is the lag d * step.  The table depends only on its arguments, so
    it is computed once per (window, length, step, max_dbin) and reused.
    """
    win = window_sequence(window, length)
    return tuple(
        tuple(_cross_kernel(win, dseg * step, dbin) for dbin in range(max_dbin + 1))
        for dseg in range(-(-length // step))
    )


def band_statistic_null_variance(estimate: SpectralEstimate, idx: np.ndarray) -> float:
    """Variance of mean(Re csd[idx]) under independent channels.

    Sums the exact covariance of the Welch cross-spectral real parts over
    all segment pairs (overlap correlation) and bin pairs (window-transform
    correlation), using the measured per-channel spectra for the P1*P2
    levels.  Reduces to P1 P2 / (2 K B) per the classic result for a
    rectangular window without overlap.
    """
    length = estimate.segment_length
    step = segment_step(length, estimate.overlap)
    n_avg = estimate.n_avg
    n_bins = len(idx)
    p12 = estimate.psd1[idx] * estimate.psd2[idx]
    amp = np.sqrt(p12)
    max_dbin = min(n_bins - 1, 8)
    kernels = _kernel_table(estimate.window, length, step, max_dbin)
    pair_sums = [float(p12.sum())] + [
        2.0 * float(np.dot(amp[:-dbin], amp[dbin:])) for dbin in range(1, max_dbin + 1)
    ]
    total = 0.0
    for dseg, row in enumerate(kernels[:n_avg]):
        seg_weight = float(n_avg) if dseg == 0 else 2.0 * (n_avg - dseg)
        for kern, pair_sum in zip(row, pair_sums):
            if kern == 0.0:
                continue
            total += seg_weight * kern * kern * pair_sum
    return total / (2.0 * n_avg**2 * n_bins**2)


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
    if estimate.n_avg < MIN_AVERAGES:
        raise DomainError(
            f"n_avg = {estimate.n_avg} < {MIN_AVERAGES}: too few averages for "
            "Gaussian statistics"
        )
    idx = band_indices(estimate.freqs, band)
    stat = float(np.mean(estimate.csd[idx].real))
    variance = band_statistic_null_variance(estimate, idx)
    if variance > 0.0:
        sigma_level = stat / math.sqrt(variance)
    else:
        sigma_level = 0.0
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
