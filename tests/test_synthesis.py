"""Tests for the seeded time-series synthesis.

Statistical gates were sized from Monte Carlo calibration runs: at the
default arm length the common component has ~13 samples per correlation
time, so 2^20 samples hold ~8e4 effective degrees of freedom and the
sample variance scatters by a few percent.
"""

import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holonoise import (
    DomainError,
    ExperimentConfig,
    HolographicModel,
    TimeSeriesPair,
    autocorrelation,
    synthesize_common,
    synthesize_pair,
)
from holonoise import _workers, synthesis
from holonoise.spectral import segment_count, welch_blocks, welch_csd
from holonoise.synthesis import (
    STREAM_COMMON,
    STREAM_INCREMENTS,
    STREAM_SHOT1,
    STREAM_SHOT2,
    generator,
    window_split,
)

from helpers import white_noise

FS = 5e7
N_LONG = 2**20


class Feed:
    """A stand-in for a Philox generator that hands out successive slices of ``row``."""

    def __init__(self, row: np.ndarray):
        self.row, self.taken = row, 0

    def standard_normal(self, out):
        out[:] = self.row[self.taken : self.taken + len(out)]
        self.taken += len(out)
        return out


def fed_common(monkeypatch, model, fs, pieces, increments):
    """synthesize_common with its two streams replaced by the given draws."""
    rows = {STREAM_COMMON: pieces, STREAM_INCREMENTS: increments}
    with monkeypatch.context() as patch:
        patch.setattr(synthesis, "generator", lambda seed, stream_id: Feed(rows[stream_id]))
        return synthesize_common(model, fs, len(pieces) - window_split(model, fs)[0], seed=0)


@pytest.fixture(scope="module")
def model40() -> HolographicModel:
    return HolographicModel.from_baseline(40.0)


@pytest.fixture(scope="module")
def common_long(model40) -> np.ndarray:
    return synthesize_common(model40, FS, N_LONG, seed=12345)


# -------------------------------------------------------------- configuration


def test_default_config_values():
    cfg = ExperimentConfig()
    assert cfg.arm_length == 40.0
    assert cfg.shot_asd == 2e-18
    assert cfg.sample_rate == 5e7
    assert cfg.n_samples == 2**22
    assert cfg.seed == 0
    assert cfg.holo_scale == 1.0
    assert cfg.segment_length == 8192
    assert cfg.overlap == 0.5


def test_config_resolves_correlation_time():
    cfg = ExperimentConfig()
    assert cfg.sample_rate * cfg.model().tau_c == pytest.approx(13.34, rel=1e-3)


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(arm_length=0.0)
    with pytest.raises(DomainError):
        ExperimentConfig(shot_asd=-1e-18)
    with pytest.raises(DomainError):
        ExperimentConfig(n_samples=1000)  # below the 1024 floor
    with pytest.raises(DomainError):
        ExperimentConfig(n_samples=512)  # too short
    with pytest.raises(DomainError):
        ExperimentConfig(seed=-1)
    with pytest.raises(DomainError):
        ExperimentConfig(seed=2**64)
    with pytest.raises(DomainError):
        ExperimentConfig(holo_scale=-0.5)
    with pytest.raises(DomainError):
        ExperimentConfig(segment_length=3000)
    with pytest.raises(DomainError):
        ExperimentConfig(segment_length=2**23)  # exceeds n_samples
    with pytest.raises(DomainError):
        ExperimentConfig(overlap=0.9)
    with pytest.raises(DomainError):
        # Undersampled: tau_c at 1 m is 6.7 ns, needs fs >= 6e8.
        ExperimentConfig(arm_length=1.0, sample_rate=5e7)


@pytest.mark.parametrize("segment_length,overlap",
                         [(2, 0.5), (32, 0.5), (3000, 0.5), (1024, 0.9), (1024, 1.0)])
def test_config_refuses_what_welch_refuses(segment_length, overlap):
    # The config applies the Welch pass's own segmenting rules, so a run it
    # accepts is never refused halfway, and its message is the same.
    pair = (np.zeros(4096), np.zeros(4096))
    with pytest.raises(DomainError) as welch:
        welch_blocks([pair], FS, segment_length, overlap)
    with pytest.raises(DomainError) as config:
        ExperimentConfig(n_samples=4096, segment_length=segment_length, overlap=overlap)
    assert str(config.value) == str(welch.value)


def test_config_refuses_what_synthesis_refuses(model40):
    with pytest.raises(DomainError) as synthesis_error:
        synthesize_common(model40, 1e7, 2**12, seed=0)
    with pytest.raises(DomainError) as config:
        ExperimentConfig(sample_rate=1e7)
    assert str(config.value) == str(synthesis_error.value)


def test_config_accepts_any_length_from_the_floor():
    # n_samples need not be a power of two: Welch drops the partial tail.
    cfg = ExperimentConfig(n_samples=100_000, segment_length=1024)
    est = welch_csd(synthesize_pair(cfg), cfg.segment_length, cfg.overlap)
    assert est.n_avg == segment_count(100_000, 1024, 0.5) == 194
    assert ExperimentConfig(n_samples=1024, segment_length=1024).n_samples == 1024


def test_config_dict_round_trip():
    cfg = ExperimentConfig(seed=77, holo_scale=0.5)
    rebuilt = ExperimentConfig.from_dict(cfg.as_dict())
    assert rebuilt == cfg


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(DomainError, match="unknown config fields"):
        ExperimentConfig.from_dict({"arm_lenght": 40.0})


def test_config_from_dict_rejects_bad_types():
    with pytest.raises(DomainError):
        ExperimentConfig.from_dict({"n_samples": 2.0**22})
    with pytest.raises(DomainError):
        ExperimentConfig.from_dict({"seed": True})
    with pytest.raises(DomainError):
        ExperimentConfig.from_dict({"arm_length": "40"})
    with pytest.raises(DomainError):
        ExperimentConfig.from_dict([40.0])
    # An integer past the float range, for a float field.
    with pytest.raises(DomainError, match="arm_length must be a number"):
        ExperimentConfig.from_dict({"arm_length": 10**400})


# ----------------------------------------------------------------- generators


def test_generator_determinism():
    a = generator(42, STREAM_COMMON).standard_normal(16)
    b = generator(42, STREAM_COMMON).standard_normal(16)
    assert np.array_equal(a, b)


def test_generator_stream_isolation():
    a = generator(42, STREAM_SHOT1).standard_normal(10_000)
    b = generator(42, STREAM_SHOT2).standard_normal(10_000)
    r = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert abs(r) < 3.0 / math.sqrt(10_000)


# ----------------------------------------------------------- common component


def test_common_determinism(model40):
    a = synthesize_common(model40, FS, 2**12, seed=7)
    b = synthesize_common(model40, FS, 2**12, seed=7)
    assert np.array_equal(a, b)


def test_common_seed_sensitivity(model40):
    a = synthesize_common(model40, FS, 2**16, seed=1)
    b = synthesize_common(model40, FS, 2**16, seed=2)
    r = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert abs(r) < 3.0 / math.sqrt(len(a) / 13.34)


def test_common_variance(model40, common_long):
    # 5% band per the Monte Carlo calibration at >= 1e6 samples.
    assert common_long.var() == pytest.approx(model40.sigma2, rel=0.05)


def test_common_mean_near_zero(model40, common_long):
    se = math.sqrt(model40.sigma2 * 13.34 / N_LONG)
    assert abs(common_long.mean()) < 4 * se


def test_common_autocovariance_support(model40, common_long):
    # Sample ACF beyond tau_c should vanish within a few standard errors.
    x = common_long - common_long.mean()
    n = len(x)
    for frac in (1.0, 1.5, 2.0):
        k = int(math.ceil(frac * model40.tau_c * FS))
        acov = float(np.dot(x[:-k], x[k:]) / (n - k))
        se = model40.sigma2 * math.sqrt(2 * 13.34 / n)
        assert abs(acov) < 3 * se


def test_common_triangle_at_half_support(model40, common_long):
    x = common_long - common_long.mean()
    n = len(x)
    k = int(round(0.5 * model40.tau_c * FS))
    acov = float(np.dot(x[:-k], x[k:]) / (n - k))
    se = model40.sigma2 * math.sqrt(2 * 13.34 / n)
    expected = autocorrelation(model40, k / FS)
    assert abs(acov - expected) < 3 * se


def test_common_gaussian_kurtosis(model40, common_long):
    x = common_long / math.sqrt(model40.sigma2)
    excess = float(np.mean(x**4)) / float(np.mean(x**2)) ** 2 - 3.0
    assert abs(excess) < 0.1


def test_common_rejects_undersampling(model40):
    with pytest.raises(DomainError, match="undersampled"):
        synthesize_common(model40, 1e7, 2**12, seed=0)


def test_common_rejects_short_series(model40):
    with pytest.raises(DomainError, match="too short"):
        synthesize_common(model40, FS, 16, seed=0)


@pytest.mark.parametrize("fs", [2.5e7, 5e7, 7.3e7, 1e8])
def test_common_linear_map_covariance_is_the_triangle(model40, monkeypatch, fs):
    # The sampler is linear in its standard-normal draws, x = A z, so its
    # covariance is A A^T exactly.  Build A column by column from unit draws
    # and compare with the Toeplitz triangle; S = fs tau_c runs over 6.67,
    # 13.34, 19.48 and 26.69, so both the whole and fractional parts vary.
    n = 64
    q, _ = window_split(model40, fs)
    unit_draws = np.eye(2 * (n + q)).reshape(-1, 2, n + q)
    a = np.column_stack([fed_common(monkeypatch, model40, fs, *z) for z in unit_draws])
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) / fs
    target = autocorrelation(model40, lags)
    assert np.max(np.abs(a @ a.T - target)) <= 1e-12 * model40.sigma2


def one_shot_moving_sum(draws, model, fs):
    """The moving sum of a whole (2, n + q) draw in one pass: one cumsum, one difference."""
    q, r = window_split(model, fs)
    n = draws.shape[1] - q
    unit = model.sigma2 / (q + r)
    b, u = draws.copy()
    b *= math.sqrt(r * unit)
    u *= math.sqrt((1.0 - r) * unit)
    u += b
    np.cumsum(u, out=u)
    x = u[q:] - u[:n]
    x += b[:n]
    return x


@pytest.mark.parametrize("block", [1, 7, 64, 1000])
def test_streamed_moving_sum_is_the_one_shot_sum(model40, monkeypatch, block):
    # Made BLOCK_SAMPLES at a time (blocks of 1 and 7 are shorter than the
    # q = 13 look-ahead), the series crosses many block boundaries and must
    # still equal the single cumsum bit for bit, from explicit draws and
    # from the generators alike.
    monkeypatch.setattr(synthesis, "BLOCK_SAMPLES", block)
    n = 1000
    q, _ = window_split(model40, FS)
    draws = generator(77, STREAM_COMMON).standard_normal((2, n + q)) * 1e3
    draws[1, ::97] = -0.0
    expected = one_shot_moving_sum(draws, model40, FS)
    streamed = fed_common(monkeypatch, model40, FS, *draws)
    assert streamed.tobytes() == expected.tobytes()
    draws = np.stack([generator(78, STREAM_COMMON).standard_normal(n + q),
                      generator(78, STREAM_INCREMENTS).standard_normal(n + q)])
    assert (synthesize_common(model40, FS, n, seed=78).tobytes()
            == one_shot_moving_sum(draws, model40, FS).tobytes())


def test_common_exact_small_case_covariance(model40):
    # Ensemble check of the sampler against the target triangle at small n:
    # 4000 draws of 64 samples, pooled lag estimates within 4 standard errors.
    n, reps = 64, 4000
    acc = np.zeros(3)
    lags = [0, 3, 7]
    for seed in range(reps):
        x = synthesize_common(model40, FS, n, seed=seed)
        for i, k in enumerate(lags):
            acc[i] += np.dot(x[: n - k], x[k:]) / (n - k)
    acc /= reps
    for i, k in enumerate(lags):
        expected = autocorrelation(model40, k / FS)
        se = model40.sigma2 * math.sqrt(2 * 13.34 / (reps * n))
        assert abs(acc[i] - expected) < 4 * se


# ----------------------------------------------------------------- shot noise


def test_white_noise_variance():
    # With holo_scale = 0 each channel is its shot floor alone.
    pair = synthesize_pair(ExperimentConfig(n_samples=2**20, seed=3, holo_scale=0.0))
    # Per-sample sigma = asd * sqrt(fs / 2) = 1e-14.
    assert pair.ch1.std() == pytest.approx(1e-14, rel=0.02)
    assert pair.ch2.std() == pytest.approx(1e-14, rel=0.02)


def test_white_noise_stream_independence():
    n = 2**20
    pair = synthesize_pair(ExperimentConfig(n_samples=n, seed=5, holo_scale=0.0))
    r = np.dot(pair.ch1, pair.ch2) / (np.linalg.norm(pair.ch1) * np.linalg.norm(pair.ch2))
    assert abs(r) < 3.0 / math.sqrt(n)


# ----------------------------------------------------------------- full pairs


def test_pair_determinism():
    cfg = ExperimentConfig(n_samples=2**14, seed=9)
    a = synthesize_pair(cfg)
    b = synthesize_pair(cfg)
    assert np.array_equal(a.ch1, b.ch1)
    assert np.array_equal(a.ch2, b.ch2)
    assert np.array_equal(a.common, b.common)


@pytest.mark.parametrize("holo_scale", [0.0, 1.0])
def test_pair_bits_do_not_depend_on_cpu_count(monkeypatch, cpus, holo_scale):
    # 2^18 samples put the two or three streams above the thread floor, so
    # with two CPUs they really are drawn on two threads.
    cfg = ExperimentConfig(n_samples=2**18, seed=5, holo_scale=holo_scale)
    assert _workers.thread_count(3, 2 * cfg.n_samples) == cpus
    threads_before = threading.active_count()
    pair = synthesize_pair(cfg)
    assert threading.active_count() == threads_before
    with monkeypatch.context() as one_cpu:
        one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = synthesize_pair(cfg)
    for name in ("ch1", "ch2", "common"):
        assert getattr(pair, name).tobytes() == getattr(serial, name).tobytes()
    shot1 = white_noise(cfg.shot_asd, cfg.sample_rate, cfg.n_samples, 5, STREAM_SHOT1)
    assert pair.ch1.tobytes() == (serial.common + shot1).tobytes()


def test_closing_the_blocks_early_ends_their_threads(monkeypatch):
    # On two CPUs the pool starts with the first block and is drawing the
    # second when the iterator is closed.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads_before = threading.active_count()
    blocks = synthesis.synthesize_blocks(ExperimentConfig(n_samples=2**20, seed=3))
    next(blocks)
    assert threading.active_count() > threads_before
    blocks.close()
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("holo_scale,shot_asd", [(1.0, 2e-18), (0.0, 2e-18), (1.0, 0.0)])
def test_pair_bits_do_not_depend_on_block_size(monkeypatch, holo_scale, shot_asd):
    # Blocks that do not divide n, and blocks shorter than the look-ahead,
    # give the bits of the default block, streamed or written in place;
    # each streamed block is a checked pair.
    cfg = ExperimentConfig(n_samples=5000, seed=6, holo_scale=holo_scale, shot_asd=shot_asd,
                           segment_length=1024)
    whole = synthesize_pair(cfg)
    for block in (5, 1024, 4999):
        monkeypatch.setattr(synthesis, "BLOCK_SAMPLES", block)
        blocks = list(synthesis.synthesize_blocks(cfg))
        assert all(isinstance(b, TimeSeriesPair) for b in blocks)
        assert [b.n_samples for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        in_place = synthesize_pair(cfg)
        for name in ("ch1", "ch2", "common"):
            joined = np.concatenate([getattr(b, name) for b in blocks])
            assert joined.tobytes() == getattr(whole, name).tobytes()
            assert getattr(in_place, name).tobytes() == getattr(whole, name).tobytes()


def test_pair_blocks_refuse_non_finite(monkeypatch):
    # A non-finite draw fails the block's TimeSeriesPair check.
    monkeypatch.setattr(synthesis, "BLOCK_SAMPLES", 1024)
    monkeypatch.setattr(synthesis, "_shot", lambda stream, out, scale: out.fill(np.inf))
    blocks = synthesis.synthesize_blocks(ExperimentConfig(n_samples=4096, segment_length=1024))
    with pytest.raises(DomainError, match="non-finite"):
        next(blocks)


def test_pair_zero_shot_noise_identical_channels():
    cfg = ExperimentConfig(shot_asd=0.0, n_samples=2**14, seed=3)
    pair = synthesize_pair(cfg)
    assert np.array_equal(pair.ch1, pair.ch2)
    assert np.array_equal(pair.ch1, pair.common)


def test_pair_zero_holo_scale_no_common(model40):
    cfg = ExperimentConfig(holo_scale=0.0, n_samples=2**14, seed=3)
    pair = synthesize_pair(cfg)
    assert np.array_equal(pair.common, np.zeros(cfg.n_samples))
    r = np.dot(pair.ch1, pair.ch2) / (
        np.linalg.norm(pair.ch1) * np.linalg.norm(pair.ch2)
    )
    assert abs(r) < 3.0 / math.sqrt(cfg.n_samples)


def test_pair_channel_decomposition():
    cfg = ExperimentConfig(n_samples=2**14, seed=11)
    pair = synthesize_pair(cfg)
    # The common part is synthesize_common's series, whose covariance the
    # exact linear-map test and acceptance 05 pin to the triangle.
    common = synthesize_common(cfg.model(), cfg.sample_rate, cfg.n_samples, cfg.seed)
    assert pair.common.tobytes() == common.tobytes()
    shot1 = pair.ch1 - pair.common
    shot2 = pair.ch2 - pair.common
    expected1 = white_noise(cfg.shot_asd, cfg.sample_rate, cfg.n_samples, 11, STREAM_SHOT1)
    expected2 = white_noise(cfg.shot_asd, cfg.sample_rate, cfg.n_samples, 11, STREAM_SHOT2)
    # add-then-subtract of the much smaller common costs a few ULP at 1e-14.
    assert np.allclose(shot1, expected1, rtol=0, atol=5e-29)
    assert np.allclose(shot2, expected2, rtol=0, atol=5e-29)


def test_pair_holo_scale_scales_common():
    base = synthesize_pair(ExperimentConfig(n_samples=2**14, seed=4))
    quarter = synthesize_pair(
        ExperimentConfig(n_samples=2**14, seed=4, holo_scale=0.25)
    )
    assert np.allclose(quarter.common, 0.5 * base.common, rtol=1e-12)


def test_pair_lag_zero_cross_covariance(model40):
    cfg = ExperimentConfig(n_samples=2**20, seed=21)
    pair = synthesize_pair(cfg)
    xcov0 = float(np.dot(pair.ch1, pair.ch2) / cfg.n_samples)
    # Shot noise raises the scatter but not the mean of the cross term.
    assert xcov0 == pytest.approx(model40.sigma2, rel=0.05)


def test_pair_properties():
    cfg = ExperimentConfig(n_samples=2**14)
    pair = synthesize_pair(cfg)
    assert pair.n_samples == 2**14


def test_pair_rejects_length_mismatch():
    with pytest.raises(DomainError):
        TimeSeriesPair(
            sample_rate=FS,
            ch1=np.zeros(8),
            ch2=np.zeros(9),
            common=np.zeros(8),
        )


def test_pair_rejects_non_finite():
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(DomainError):
        TimeSeriesPair(sample_rate=FS, ch1=bad, ch2=np.zeros(8), common=np.zeros(8))


# ------------------------------------------------------------------ properties


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_property_common_is_finite_any_seed(seed):
    model = HolographicModel.from_baseline(40.0)
    x = synthesize_common(model, FS, 2**10, seed=seed)
    assert np.all(np.isfinite(x))
    assert len(x) == 2**10


@settings(max_examples=20)
@given(
    st.floats(min_value=10.0, max_value=200.0),
    st.integers(min_value=0, max_value=1000),
)
def test_property_variance_order_any_baseline(L, seed):
    model = HolographicModel.from_baseline(L)
    fs = 8.0 / model.tau_c
    x = synthesize_common(model, fs, 2**12, seed=seed)
    # Loose factor-of-3 sanity: short series, wide statistical band.
    assert 0.1 * model.sigma2 < x.var() < 3.0 * model.sigma2
