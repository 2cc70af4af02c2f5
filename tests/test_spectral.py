"""Tests for the Welch spectra estimator.

Oracles: scipy.signal's window and Welch routines, the shot floor's
variance formula, Parseval's theorem (exact against the power of the
windowed, demeaned segments), and a bin-centered sinusoid.
The spectrum of a single series x is ``psd1`` of the pair (x, x).
"""

import math
import os
import threading

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from holonoise import (
    DomainError,
    ExperimentConfig,
    TimeSeriesPair,
    synthesize_pair,
    welch_csd,
)
from holonoise import spectral
from holonoise.spectral import (
    SEGMENT_CHUNK,
    hann_window,
    segment_count,
    segment_step,
    welch_blocks,
)

from helpers import white_noise

FS = 5e7


def make_pair(ch1: np.ndarray, ch2: np.ndarray, fs: float = FS) -> TimeSeriesPair:
    return TimeSeriesPair(
        sample_rate=fs, ch1=ch1, ch2=ch2, common=np.zeros_like(ch1)
    )


def zero_mean_segments(x: np.ndarray, seg: int, overlap: float) -> np.ndarray:
    """``x`` with the mean of every gcd(seg, step)-sample block removed, so
    that every Welch segment, a whole number of such blocks, has zero mean."""
    size = math.gcd(seg, segment_step(seg, overlap))
    out = x.copy()
    blocks = out[: len(x) // size * size].reshape(-1, size)
    blocks -= blocks.mean(axis=1, keepdims=True)
    return out


# The estimate removes every segment's mean, so it is scipy's Welch with
# detrend="constant" on any series, and with detrend=False as well on a
# series whose segments have zero mean.  The cases named after a scipy
# ``detrend`` feed the raw series ("constant") or that series with its
# segments made zero-mean (False, `zero_mean_segments`).


# ------------------------------------------------------------------- plumbing


def test_segment_count_no_overlap():
    assert segment_count(1024, 256, 0.0) == 4


def test_segment_count_half_overlap():
    assert segment_count(1024, 256, 0.5) == 7


def test_segment_count_partial_tail_dropped():
    assert segment_count(1000, 256, 0.0) == 3


def test_segment_step_owns_the_overlap_range():
    assert segment_step(1024, 0.5) == 512
    assert segment_step(1024, 0.75) == 256
    assert segment_step(8192, 0.0) == 8192
    for bad in (1.0, 1.5):
        with pytest.raises(DomainError, match="no advance"):
            segment_step(1024, bad)
    for bad in (-0.25, 0.9, math.nan):
        with pytest.raises(DomainError, match=r"overlap = .* is outside \[0, 0.75\]"):
            segment_step(1024, bad)
    with pytest.raises(DomainError, match="no advance"):
        segment_count(1024, 2, 0.75)  # round(1.5) = 2 leaves a step of 0


def test_invalid_segmenting():
    pair = make_pair(np.zeros(512), np.zeros(512))
    with pytest.raises(DomainError):
        welch_csd(pair, 100)  # not a power of two
    with pytest.raises(DomainError):
        welch_csd(pair, 32)  # too short a segment
    with pytest.raises(DomainError):
        welch_csd(pair, 1024)  # series shorter than one segment
    # Refused before a window of 2^40 samples is allocated.
    with pytest.raises(DomainError, match="shorter than one segment"):
        welch_csd(pair, 2**40)
    with pytest.raises(DomainError):
        welch_csd(pair, 256, overlap=0.9)


def test_invalid_detrend_and_window():
    pair = make_pair(np.zeros(512), np.zeros(512))
    # Neither is an option: every segment's mean is removed, and every
    # segment is Hann-windowed.
    with pytest.raises(TypeError, match="detrend"):
        welch_csd(pair, 256, detrend="linear")
    with pytest.raises(TypeError, match="window"):
        welch_csd(pair, 256, window="hann")
    with pytest.raises(TypeError, match="window"):
        welch_blocks([(pair.ch1, pair.ch2)], FS, 256, window="hann")


@pytest.mark.parametrize("n1,n2", [(3000, 4096), (4096, 3000)])
def test_welch_refuses_channels_of_unequal_length(n1, n2):
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError, match=f"channels of {n1} and {n2} samples"):
        welch_blocks([(rng.standard_normal(n1), rng.standard_normal(n2))], FS, 256)


# ------------------------------------------------------------- scipy oracle


@pytest.mark.parametrize("length", [64, 1024, 8192])
def test_hann_window_is_scipys(length):
    from scipy.signal import get_window

    assert np.array_equal(hann_window(length), get_window("hann", length, fftbins=True))


@pytest.mark.parametrize("overlap", [0.5, 0.25, 0.0], ids=lambda overlap: f"hann-{overlap}")
@pytest.mark.parametrize("detrend", ["constant", False])
def test_welch_matches_scipy(overlap, detrend):
    from scipy import signal

    seg = 256
    # More segments than one chunk, and a partial last chunk.
    n = seg * (2 * SEGMENT_CHUNK + 5)
    cfg = ExperimentConfig(n_samples=2**16, seed=21, holo_scale=4.0)
    full = synthesize_pair(cfg)
    channels = [full.ch1[:n] + 3e-16, full.ch2[:n]]
    if detrend is False:
        channels = [zero_mean_segments(ch, seg, overlap) for ch in channels]
    pair = make_pair(*channels, fs=cfg.sample_rate)
    kwargs = dict(fs=cfg.sample_rate, window="hann", nperseg=seg,
                  noverlap=int(round(seg * overlap)), detrend=detrend)
    freqs, psd1 = signal.welch(pair.ch1, **kwargs)
    _, psd2 = signal.welch(pair.ch2, **kwargs)
    _, csd = signal.csd(pair.ch1, pair.ch2, **kwargs)

    est = welch_csd(pair, seg, overlap=overlap)
    assert est.n_avg == segment_count(n, seg, overlap)
    assert np.array_equal(est.freqs, freqs)
    for mine, ref in [(est.psd1, psd1), (est.psd2, psd2), (est.csd, csd)]:
        assert np.max(np.abs(mine - ref)) <= 1e-13 * np.max(np.abs(ref))


SEG, N_AVG = 1024, 613  # 20 chunks, the last of 5 segments


@pytest.fixture(scope="module")
def parity_pair():
    cfg = ExperimentConfig(n_samples=2**19, seed=8, holo_scale=2.0)
    full = synthesize_pair(cfg)
    n = (N_AVG - 1) * SEG // 2 + SEG
    return make_pair(full.ch1[:n] + 3e-16, full.ch2[:n], fs=cfg.sample_rate)


def welch_bits(pair):
    """The bytes of the spectra and coherence of ``pair``."""
    est = welch_csd(pair, SEG)
    assert est.n_avg == N_AVG
    return [a.tobytes() for a in (est.psd1, est.psd2, est.csd, est.coherence)]


def zero_mean_pair(pair, overlap=0.5):
    """``pair`` with every Welch segment of SEG samples made zero-mean."""
    return make_pair(*(zero_mean_segments(ch, SEG, overlap) for ch in (pair.ch1, pair.ch2)),
                     fs=pair.sample_rate)


@pytest.mark.parametrize("detrend", ["constant", False], ids=lambda detrend: f"hann-{detrend}")
def test_welch_bits_do_not_depend_on_cpu_count(monkeypatch, cpus, parity_pair, detrend):
    pair = parity_pair if detrend else zero_mean_pair(parity_pair)
    threads_before = threading.active_count()
    got = welch_bits(pair)
    assert threading.active_count() == threads_before
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert got == welch_bits(pair)


def whole_chunk_spectra(pair, seg):
    """Hann Welch spectra summed the plain way: each chunk of SEGMENT_CHUNK
    segments in one FFT call, its sum added to the running total."""
    win = hann_window(seg)
    n_avg = segment_count(pair.n_samples, seg, 0.5)
    views = [sliding_window_view(ch, seg)[:: seg // 2][:n_avg] for ch in (pair.ch1, pair.ch2)]
    power = [np.zeros(seg // 2 + 1), np.zeros(seg // 2 + 1)]
    cross = np.zeros(seg // 2 + 1, dtype=complex)
    for start in range(0, n_avg, SEGMENT_CHUNK):
        spectra = []
        for view, acc in zip(views, power):
            chunk = view[start : start + SEGMENT_CHUNK]
            spec = np.fft.rfft((chunk - chunk.mean(axis=-1, keepdims=True)) * win)
            acc += (spec.real**2 + spec.imag**2).sum(axis=0)
            spectra.append(spec)
        cross += (spectra[0].conj() * spectra[1]).sum(axis=0)
    scale = np.full(seg // 2 + 1, 2.0 / (pair.sample_rate * float(np.dot(win, win)) * n_avg))
    scale[0] /= 2.0
    scale[-1] /= 2.0
    return [a.tobytes() for a in (power[0] * scale, power[1] * scale, cross * scale)]


@pytest.mark.parametrize("rows", [1, 13, 32, 100])
def test_welch_bits_do_not_depend_on_fft_batch(monkeypatch, cpus, parity_pair, rows):
    # Batches of fewer than 32 rows cut chunks into pieces, and the row sums
    # carry across the cuts; a batch of more stops at the end of its chunk.
    monkeypatch.setattr(spectral, "FFT_BATCH_SAMPLES", rows * SEG)
    assert welch_bits(parity_pair)[:3] == whole_chunk_spectra(parity_pair, SEG)


def cut(series: list[np.ndarray], sizes: list[int]) -> list[tuple]:
    """``series`` cut into consecutive blocks whose lengths cycle through ``sizes``."""
    blocks, start, i = [], 0, 0
    while start < len(series[0]):
        stop = start + sizes[i % len(sizes)]
        blocks.append(tuple(ch[start:stop] for ch in series))
        start, i = stop, i + 1
    return blocks


@pytest.mark.parametrize("overlap", [0.0, 0.5, 0.75], ids=lambda overlap: f"{overlap}-hann")
@pytest.mark.parametrize("detrend", ["constant", False])
def test_streamed_welch_is_the_one_shot_welch(cpus, parity_pair, overlap, detrend):
    # Blocks that split segments and chunks anywhere, and blocks shorter
    # than a segment, all give the one-shot bits.
    pair = parity_pair if detrend else zero_mean_pair(parity_pair, overlap)
    est = welch_csd(pair, SEG, overlap)
    sizes = [700, 150_001, 999, 40_000]
    threads_before = threading.active_count()
    streamed = welch_blocks(cut([pair.ch1, pair.ch2], sizes), FS, SEG, overlap)
    assert threading.active_count() == threads_before
    assert streamed.n_avg == est.n_avg == segment_count(pair.n_samples, SEG, overlap)
    for name in ("psd1", "psd2", "csd", "coherence"):
        assert getattr(streamed, name).tobytes() == getattr(est, name).tobytes()


def test_welch_starts_no_thread(monkeypatch, parity_pair):
    # Blocks of 2^18 samples are far above the thread floor, but on two CPUs
    # too the Welch pass sums them in the calling thread.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads_before = threading.active_count()
    counts = []

    def blocks():
        for block in cut([parity_pair.ch1, parity_pair.ch2], [1 << 18]):
            counts.append(threading.active_count())
            yield block

    welch_blocks(blocks(), FS, SEG)
    counts.append(threading.active_count())
    assert counts == [threads_before] * 3


def test_streamed_welch_rejects_too_few_samples():
    blocks = cut([np.zeros(1000), np.zeros(1000)], [300])
    with pytest.raises(DomainError, match="length 1000 is shorter than one segment"):
        welch_blocks(blocks, FS, 1024)
    with pytest.raises(DomainError, match="length 0"):
        welch_blocks([], FS, 1024)


# ------------------------------------------------------------------ PSD level


def test_white_noise_psd_level():
    # asd = 2e-18 -> flat PSD 4e-36 m^2/Hz; >= 500 averages, 3% band.
    asd = 2e-18
    x = white_noise(asd, FS, 2**18, seed=10, stream_id=1)
    est = welch_csd(make_pair(x, x), segment_length=512, overlap=0.5)
    assert est.n_avg >= 500
    band = est.psd1[2:-1].mean()
    assert band == pytest.approx(asd**2, rel=0.03)


def test_zero_input_zero_psd():
    x = np.zeros(2**12)
    est = welch_csd(make_pair(x, x), 256)
    assert np.all(est.psd1 == 0.0)


def test_sinusoid_power():
    # Bin-centered sinusoid of amplitude A carries power A^2/2.
    n, seg = 2**14, 1024
    amp = 3.5e-15
    cycles = 64  # bin 64 of the segment FFT
    t = np.arange(n) / FS
    x = amp * np.sin(2 * np.pi * (cycles * FS / seg) * t)
    est = welch_csd(make_pair(x, x), seg, overlap=0.5)
    df = est.freqs[1] - est.freqs[0]
    peak = slice(cycles - 3, cycles + 4)
    power = float(np.sum(est.psd1[peak]) * df)
    assert power == pytest.approx(amp**2 / 2.0, rel=0.01)


def test_parseval_exact_hann():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(2**12)
    est = welch_csd(make_pair(x, x), 1024, overlap=0.0)
    df = est.freqs[1] - est.freqs[0]
    # One-sided density: DC and Nyquist carry no doubling, so plain
    # rectangle-rule integration is, by Parseval, exactly the power of the
    # windowed segments over sum(w^2), averaged the way Welch segments the
    # series, each segment's mean removed.
    integral = float(np.sum(est.psd1) * df)
    win = hann_window(1024)
    segments = x.reshape(-1, 1024)
    windowed = (segments - segments.mean(axis=1, keepdims=True)) * win
    power = float(np.mean(np.sum(windowed**2, axis=1)) / np.dot(win, win))
    assert integral == pytest.approx(power, rel=1e-12)


def test_parseval_hann_within_one_percent():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(2**16)
    est = welch_csd(make_pair(x, x), 512, overlap=0.5)
    df = est.freqs[1] - est.freqs[0]
    integral = float(np.sum(est.psd1) * df)
    assert integral == pytest.approx(float(np.mean(x**2)), rel=0.01)


def test_freq_grid():
    x = np.zeros(2**12)
    est = welch_csd(make_pair(x, x), 256)
    assert est.freqs[0] == 0.0
    assert est.freqs[-1] == FS / 2
    assert np.all(np.diff(est.freqs) > 0)
    assert len(est.freqs) == 129


# ----------------------------------------------------------------- CSD and coh


def test_identical_channels_unit_coherence():
    x = white_noise(2e-18, FS, 2**14, seed=1, stream_id=1)
    est = welch_csd(make_pair(x, x.copy()), 256)
    assert np.all(np.abs(est.coherence - 1.0) < 1e-12)
    assert np.allclose(est.csd.real, est.psd1, rtol=1e-12)
    assert np.allclose(est.csd.imag, 0.0, atol=1e-12 * est.psd1.max())


def test_independent_channels_low_coherence():
    n = 2**18
    a = white_noise(2e-18, FS, n, seed=2, stream_id=1)
    b = white_noise(2e-18, FS, n, seed=2, stream_id=2)
    est = welch_csd(make_pair(a, b), 512)
    assert est.n_avg >= 500
    # Null coherence bias is ~1/n_avg per bin.
    assert float(est.coherence[2:-1].mean()) < 3.0 / est.n_avg


def test_csd_hermitian_swap():
    cfg = ExperimentConfig(n_samples=2**14, seed=8)
    pair = synthesize_pair(cfg)
    fwd = welch_csd(pair, 512)
    swapped = welch_csd(
        TimeSeriesPair(
            sample_rate=pair.sample_rate,
            ch1=pair.ch2,
            ch2=pair.ch1,
            common=pair.common,
        ),
        512,
    )
    scale = float(np.max(np.abs(fwd.csd)))
    assert np.allclose(swapped.csd, np.conj(fwd.csd), rtol=1e-12, atol=1e-12 * scale)
    assert np.array_equal(swapped.psd1, fwd.psd2)


def test_coherence_bounded_everywhere():
    cfg = ExperimentConfig(n_samples=2**15, seed=13, holo_scale=4.0)
    est = welch_csd(synthesize_pair(cfg), 1024)
    assert np.all(est.coherence >= 0.0)
    assert np.all(est.coherence <= 1.0)


def test_common_component_raises_low_freq_csd():
    cfg = ExperimentConfig(n_samples=2**18, seed=4)
    pair = synthesize_pair(cfg)
    est = welch_csd(pair, 1024)
    model = cfg.model()
    low = (est.freqs > 0) & (est.freqs < 0.3 / model.tau_c)
    low[:2] = False
    # Low-frequency real CSD should sit near the model level, far above the
    # null scatter of the shot-noise floor.
    measured = float(est.csd.real[low].mean())
    assert measured > 0.3 * float(np.mean(2 * model.sigma2 * model.tau_c))


def test_estimator_variance_halves_with_double_averaging():
    # Monte Carlo over seeds: var of band-mean PSD should scale ~1/n_avg.
    seg = 256
    var_short, var_long = [], []
    for seed in range(60):
        x = white_noise(2e-18, FS, 2**13, seed=seed, stream_id=1)
        e1 = welch_csd(make_pair(x[: 2**12], x[: 2**12]), seg, overlap=0.0)
        e2 = welch_csd(make_pair(x, x), seg, overlap=0.0)
        var_short.append(e1.psd1[10])
        var_long.append(e2.psd1[10])
    ratio = float(np.var(var_short) / np.var(var_long))
    assert ratio == pytest.approx(2.0, rel=0.35)
