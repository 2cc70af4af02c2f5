"""Tests for the band-limited detection statistics.

The z-score calibration test runs 100 null replicas of the full
synthesize -> Welch -> statistic pipeline; the variance of the scores is
the sharpest check that the window/overlap-exact null variance is right
(a naive P1*P2/n_avg count would inflate the variance by ~10%).
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from holonoise import (
    DomainError,
    ExperimentConfig,
    HolographicModel,
    SpectralEstimate,
    UnreachableTargetError,
    integration_time_for,
    null_significance,
    predicted_snr,
    synthesize_pair,
    welch_csd,
)
from holonoise.detection import (
    MIN_AVERAGES,
    SIGMA_THRESHOLD,
    band_indices,
    band_statistic_null_variance,
    integration_time,
)
from holonoise.spectral import hann_window, segment_count, segment_step

FS = 5e7


@pytest.fixture(scope="module")
def model40() -> HolographicModel:
    return HolographicModel.from_baseline(40.0)


def full_band(model: HolographicModel) -> tuple[float, float]:
    return (0.0, 1.0 / model.tau_c)


# ------------------------------------------------------------------ bin hygiene


def test_band_indices_excludes_edges():
    freqs = np.fft.rfftfreq(256, d=1.0 / FS)
    idx = band_indices(freqs, (0.0, FS / 2))
    assert idx[0] == 2          # DC and its detrend-biased neighbour dropped
    assert idx[-1] == len(freqs) - 2  # Nyquist dropped
    assert np.all(np.diff(idx) == 1)


def test_band_indices_respects_band_edges():
    freqs = np.fft.rfftfreq(256, d=1.0 / FS)
    df = freqs[1]
    idx = band_indices(freqs, (10 * df, 20 * df))
    assert freqs[idx[0]] >= 10 * df
    assert freqs[idx[-1]] <= 20 * df


def test_band_indices_rejects_bad_bands():
    freqs = np.fft.rfftfreq(256, d=1.0 / FS)
    with pytest.raises(DomainError):
        band_indices(freqs, (-1.0, 1e6))
    with pytest.raises(DomainError):
        band_indices(freqs, (1e6, 1e6))
    with pytest.raises(DomainError):
        band_indices(freqs, (0.0, 1e-3))  # below the first usable bin


def test_integration_time_overlapped():
    # 8192-sample segments, 50% overlap: span = 8192 + (K-1) * 4096 samples.
    assert integration_time(1, 8192, 0.5, FS) == pytest.approx(8192 / FS)
    assert integration_time(3, 8192, 0.5, FS) == pytest.approx(
        (8192 + 2 * 4096) / FS
    )


# ------------------------------------------------------------- predicted SNR


def test_predicted_snr_zero_shot_noise(model40):
    # With no shot noise every bin contributes S^2/P^2 = 1.
    segment = 8192
    band = full_band(model40)
    freqs = np.fft.rfftfreq(segment, d=1.0 / FS)
    n_bins = len(band_indices(freqs, band))
    snr = predicted_snr(model40, 0.0, FS, segment, 400, band)
    assert snr == pytest.approx(math.sqrt(400 * n_bins), rel=1e-12)


def test_predicted_snr_sqrt_n_scaling(model40):
    band = full_band(model40)
    one = predicted_snr(model40, 2e-18, FS, 8192, 1000, band)
    four = predicted_snr(model40, 2e-18, FS, 8192, 4000, band)
    assert four == pytest.approx(2.0 * one, rel=1e-12)


def test_predicted_snr_monotone_in_holo_scale(model40):
    band = full_band(model40)
    lo = predicted_snr(model40, 2e-18, FS, 8192, 1000, band, holo_scale=0.5)
    hi = predicted_snr(model40, 2e-18, FS, 8192, 1000, band, holo_scale=2.0)
    assert 0.0 < lo < hi


def test_predicted_snr_monotone_in_shot_noise(model40):
    band = full_band(model40)
    quiet = predicted_snr(model40, 1e-18, FS, 8192, 1000, band)
    loud = predicted_snr(model40, 4e-18, FS, 8192, 1000, band)
    assert quiet > loud > 0.0


def test_predicted_snr_zero_holo_scale(model40):
    assert predicted_snr(
        model40, 2e-18, FS, 8192, 1000, full_band(model40), holo_scale=0.0
    ) == 0.0


def test_predicted_snr_validation(model40):
    band = full_band(model40)
    with pytest.raises(DomainError):
        predicted_snr(model40, 2e-18, FS, 8192, 0, band)
    with pytest.raises(DomainError):
        predicted_snr(model40, -1e-18, FS, 8192, 100, band)
    with pytest.raises(DomainError):
        predicted_snr(model40, 2e-18, FS, 8192, 100, (5e6, 1e6))


# --------------------------------------------------------- integration time


def test_integration_time_for_quadratic_in_target(model40):
    band = full_band(model40)
    t5 = integration_time_for(model40, 2e-18, FS, 8192, band, 5.0)
    t10 = integration_time_for(model40, 2e-18, FS, 8192, band, 10.0)
    # Quadratic law up to the one-segment quantization of n_avg.
    assert t10 / t5 == pytest.approx(4.0, rel=0.01)


def test_integration_time_for_quarter_on_half_shot_power(model40):
    # Halving shot_asd^2 (asd / sqrt 2) quarters the time in the weak-signal
    # regime where P ~ shot_asd^2 dominates.
    band = full_band(model40)
    t_full = integration_time_for(model40, 2e-18, FS, 8192, band, 5.0)
    t_half = integration_time_for(model40, 2e-18 / math.sqrt(2), FS, 8192, band, 5.0)
    assert t_half / t_full == pytest.approx(0.25, rel=0.01)


def test_integration_time_for_consistency(model40):
    # The returned duration's n_avg must push predicted_snr past the target.
    band = full_band(model40)
    target = SIGMA_THRESHOLD
    duration = integration_time_for(model40, 2e-18, FS, 8192, band, target)
    assert duration > 0.0
    step = 8192 // 2
    n_avg = int((duration * FS - 8192) / step) + 1
    assert predicted_snr(model40, 2e-18, FS, 8192, n_avg, band) >= target
    assert predicted_snr(model40, 2e-18, FS, 8192, max(1, n_avg - 2), band) < target * 1.01


def test_integration_time_for_unreachable(model40):
    with pytest.raises(UnreachableTargetError):
        integration_time_for(
            model40, 2e-18, FS, 8192, full_band(model40), 5.0, holo_scale=0.0
        )


def test_integration_time_for_rejects_bad_target(model40):
    with pytest.raises(DomainError):
        integration_time_for(model40, 2e-18, FS, 8192, full_band(model40), 0.0)


# ----------------------------------------------------------- null statistics


def test_null_significance_requires_averages():
    cfg = ExperimentConfig(n_samples=2**13, seed=0)
    est = welch_csd(synthesize_pair(cfg), 4096)  # 3 segments only
    assert est.n_avg < MIN_AVERAGES
    with pytest.raises(DomainError, match="too few averages"):
        null_significance(est, (0.0, 1e6))


def test_null_significance_zero_shot_noise(model40):
    # Perfect correlation: the statistic is hugely positive; p underflows.
    cfg = ExperimentConfig(shot_asd=0.0, n_samples=2**17, seed=1)
    est = welch_csd(synthesize_pair(cfg), 1024)
    report = null_significance(est, full_band(model40))
    assert report.sigma_level > 8.0
    assert report.null_pvalue < 1e-15


def test_null_significance_report_fields(model40):
    cfg = ExperimentConfig(n_samples=2**16, seed=2)
    est = welch_csd(synthesize_pair(cfg), 1024)
    band = full_band(model40)
    snr = predicted_snr(model40, cfg.shot_asd, FS, 1024, est.n_avg, band)
    report = null_significance(est, band, predicted=snr)
    assert report.band == band
    assert report.snr == snr
    assert report.n_avg == est.n_avg
    assert report.integration_time == pytest.approx(
        integration_time(est.n_avg, 1024, 0.5, FS)
    )
    assert 0.0 <= report.null_pvalue <= 1.0


def test_null_significance_rejects_bad_predicted(model40):
    cfg = ExperimentConfig(n_samples=2**16, seed=2)
    est = welch_csd(synthesize_pair(cfg), 1024)
    with pytest.raises(DomainError):
        null_significance(est, full_band(model40), predicted=-1.0)


def test_pvalue_is_one_sided_gaussian(model40):
    cfg = ExperimentConfig(holo_scale=0.0, n_samples=2**16, seed=3)
    est = welch_csd(synthesize_pair(cfg), 1024)
    report = null_significance(est, full_band(model40))
    expected = 0.5 * math.erfc(report.sigma_level / math.sqrt(2.0))
    assert report.null_pvalue == pytest.approx(expected, rel=1e-12)


def test_null_variance_one_bin_hann_inflation():
    # One bin, Hann at 50% overlap, K = 1023 segments: only neighbouring
    # segments correlate, each through the window's half-segment overlap
    # correlation sum w[j] w[j + L/2] / sum w^2 = 1/6, so the variance is
    # the naive P1 P2 / (2 K) times 1 + 2 (K - 1) / K * (1/6)^2.
    length, n_avg = 8192, 1023
    freqs = np.fft.rfftfreq(length, 1.0 / FS)
    flat = np.full(len(freqs), 3.0)
    est = SpectralEstimate(
        freqs=freqs, psd1=flat, psd2=flat, csd=np.zeros(len(freqs), complex),
        coherence=np.zeros(len(freqs)), n_avg=n_avg, segment_length=length,
        overlap=0.5, sample_rate=FS,
    )
    naive = 3.0 * 3.0 / (2 * n_avg)
    ratio = band_statistic_null_variance(est, np.array([100])) / naive
    assert ratio == pytest.approx(1 + 2 * (n_avg - 1) / n_avg / 36, abs=1e-9)
    band = band_statistic_null_variance(est, np.arange(100, 1100)) / (naive / 1000)
    assert band == pytest.approx(2.11, abs=0.01)


def test_null_variance_rejects_zero_step():
    # A step of 0 would never shift a segment past its own length, so the
    # lag loop would run over all n_avg lags.
    length = 1024
    freqs = np.fft.rfftfreq(length, 1.0 / FS)
    flat = np.ones(len(freqs))
    est = SpectralEstimate(
        freqs=freqs, psd1=flat, psd2=flat, csd=np.zeros(len(freqs), complex),
        coherence=flat, n_avg=10**9, segment_length=length,
        overlap=1.0, sample_rate=FS,
    )
    with pytest.raises(DomainError, match="no advance"):
        band_statistic_null_variance(est, np.array([100]))


def frobenius_null_variance(n, length, overlap, idx, detrend):
    """||M||_F^2 for the band statistic x1^T M x2 of unit white channels at fs = 1.

    M is built densely from the Hann window, the mean removal, every segment
    and the one-sided scaling, so its squared Frobenius norm is the
    statistic's exact null variance.
    """
    step = segment_step(length, overlap)
    n_avg = segment_count(n, length, overlap)
    win = hann_window(length)
    rows = np.exp(-2j * np.pi * np.outer(idx, np.arange(length)) / length) * win
    if detrend:
        rows = rows - rows.mean(axis=1, keepdims=True)
    block = (rows.conj().T @ rows).real * 2.0 / (float(win @ win) * n_avg * len(idx))
    m = np.zeros((n, n))
    for seg in range(n_avg):
        lo = seg * step
        m[lo : lo + length, lo : lo + length] += block
    return float(np.sum(m * m)), n_avg


def test_null_variance_is_the_exact_bilinear_form_variance():
    # Unit white channels at fs = 1 have the flat one-sided PSD 2.  Every
    # bin offset and the image term at k + k' count, so the closed form
    # agrees with the dense form to rounding, at every overlap, with or
    # without mean removal, on an 11-bin band and on the full band.
    n, length = 1024, 128
    freqs = np.fft.rfftfreq(length, 1.0)
    flat = np.full(len(freqs), 2.0)
    cases = itertools.product(
        [0.0, 0.25, 0.5, 0.75], [(20 / length, 30 / length), (0.0, 0.5)], ["constant", False],
    )
    for overlap, band, detrend in cases:
        idx = band_indices(freqs, band)
        exact, n_avg = frobenius_null_variance(n, length, overlap, idx, detrend)
        est = SpectralEstimate(
            freqs=freqs, psd1=flat, psd2=flat, csd=np.zeros(len(freqs), complex),
            coherence=np.zeros(len(freqs)), n_avg=n_avg, segment_length=length,
            overlap=overlap, sample_rate=1.0,
        )
        assert band_statistic_null_variance(est, idx) == pytest.approx(exact, rel=1e-12), (
            overlap, band, detrend)


def test_null_variance_scales_exactly_up_to_the_float_range():
    # PSDs scaled by 2^s give a variance scaled by exactly 2^(2s): the bits
    # of today's variances are kept, and PSDs near 1e152, which the
    # transforms used to overflow on, get a finite one.
    cfg = ExperimentConfig(holo_scale=0.0, n_samples=2**15, seed=4, segment_length=1024)
    est = welch_csd(synthesize_pair(cfg), 1024)
    idx = band_indices(est.freqs, (0.0, 1e6))
    base = band_statistic_null_variance(est, idx)
    for shift in (-300, 300, 625):
        scaled = dataclasses.replace(est, psd1=np.ldexp(est.psd1, shift),
                                     psd2=np.ldexp(est.psd2, shift))
        assert band_statistic_null_variance(scaled, idx) == math.ldexp(base, 2 * shift)
    assert np.max(scaled.psd1[idx]) > 1e152


@pytest.mark.parametrize("overlap,band", [
    (0.5, (0.0, 1e6)),
    (0.75, (2e5, 3e5)),
    (0.0, (0.0, 1e6)),
    (0.5, (1e5, 1.5e5)),  # one bin
])
def test_sigma_is_the_statistic_over_the_null_deviation(overlap, band):
    cfg = ExperimentConfig(shot_asd=2e-20, n_samples=2**15, seed=6, segment_length=1024)
    est = welch_csd(synthesize_pair(cfg), 1024, overlap=overlap)
    idx = band_indices(est.freqs, band)
    stat = float(np.mean(est.csd[idx].real))
    assert null_significance(est, band).sigma_level == stat / math.sqrt(
        band_statistic_null_variance(est, idx))


def edited_estimate(column, value, bins):
    """A 2^15-sample null estimate with ``bins`` of ``column`` set to ``value``."""
    cfg = ExperimentConfig(holo_scale=0.0, n_samples=2**15, seed=4, segment_length=1024)
    est = welch_csd(synthesize_pair(cfg), 1024)
    edited = getattr(est, column).copy()
    edited[bins] = value
    return dataclasses.replace(est, **{column: edited})


@pytest.mark.parametrize("column,value,bins,match", [
    ("psd1", -1e-36, 10, "negative or NaN PSD"),
    ("psd2", np.nan, 10, "negative or NaN PSD"),
    ("csd", np.inf, 10, "is no z-score"),
    ("psd1", 0.0, slice(None), "is no z-score"),  # a cross spectrum without power
])
def test_null_significance_refuses_inconsistent_inputs(column, value, bins, match):
    # These used to give sigma 0.0 or an infinite sigma.
    with pytest.raises(DomainError, match=match):
        null_significance(edited_estimate(column, value, bins), (0.0, 1e6))


def test_null_zscores_standard_normal(model40):
    # 100 independent null replicas through the full pipeline.
    band = (0.0, 1e6)
    scores = []
    for seed in range(100):
        cfg = ExperimentConfig(
            holo_scale=0.0, n_samples=2**15, seed=seed, segment_length=1024
        )
        est = welch_csd(synthesize_pair(cfg), 1024)
        scores.append(null_significance(est, band).sigma_level)
    scores = np.asarray(scores)
    assert abs(float(scores.mean())) < 0.3
    assert float(scores.var()) == pytest.approx(1.0, abs=0.3)
    assert np.all(np.abs(scores) < 5.0)


def test_null_variance_against_monte_carlo(model40):
    # The analytic null variance of the band statistic must match the
    # empirical variance of the statistic itself, not just the z-scores.
    band = (0.0, 1e6)
    stats, variances = [], []
    for seed in range(100):
        cfg = ExperimentConfig(
            holo_scale=0.0, n_samples=2**15, seed=seed, segment_length=1024
        )
        est = welch_csd(synthesize_pair(cfg), 1024)
        idx = band_indices(est.freqs, band)
        stats.append(float(np.mean(est.csd[idx].real)))
        variances.append(band_statistic_null_variance(est, idx))
    empirical = float(np.var(stats))
    analytic = float(np.mean(variances))
    # 100 replicas: the empirical variance itself scatters ~ sqrt(2/100).
    assert empirical / analytic == pytest.approx(1.0, abs=0.45)


def test_detection_end_to_end_agreement(model40):
    # Measured significance within 30% of prediction for a strong injection.
    cfg = ExperimentConfig(
        shot_asd=2e-20, n_samples=2**19, seed=5, segment_length=8192
    )
    est = welch_csd(synthesize_pair(cfg), 8192)
    band = full_band(model40)
    snr = predicted_snr(model40, cfg.shot_asd, FS, 8192, est.n_avg, band)
    report = null_significance(est, band, predicted=snr)
    assert report.sigma_level == pytest.approx(snr, rel=0.5)
    assert report.sigma_level > 5.0
