"""Seeded synthesis of the correlated-pair interferometer time series.

Each channel is the sum of a common geometric component, shared between the
two instruments, and an independent white shot-noise floor:

    ch_i = sqrt(holo_scale) * common + shot_i

The common component is a stationary Gaussian series with the triangular
autocovariance of `HolographicModel`, sigma2 * max(0, 1 - |tau| / tau_c).
That triangle is exactly the covariance of a scaled Brownian difference,
sqrt(sigma2 / tau_c) * [B(t) - B(t - tau_c)], so the series is an exact
moving sum of independent Gaussian increments.  In sample units the window
is S = sample_rate * tau_c = q + r samples long (q an integer, 0 <= r < 1);
splitting every unit interval at r gives a grid on which each window is a
whole number of pieces, q + 1 of length r and q of length 1 - r.  One
cumulative sum and one difference produce every sample in O(n) time, and
the covariance is the sampled triangle by construction: no embedding,
eigenvalue check or FFT is involved.  The sum is streamed over blocks of
``SUM_BLOCK`` draws, so beyond the series itself it holds O(SUM_BLOCK + q)
memory, with the bits of a single pass.

All randomness is drawn from counter-based Philox generators keyed by
``SeedSequence(seed, spawn_key=(stream_id,))``, so the common and the two
shot streams are mutually independent and each is reproducible bit for bit
from ``(seed, stream_id)`` alone.  `synthesize_pair` therefore draws the
three streams concurrently, on as many of them as the CPUs the process may
use allow (see `_workers.tmap`), without changing a bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._workers import tmap
from .constants import CONSTANTS
from .errors import DomainError
from .model import HolographicModel

#: Stream identifiers for the per-run Philox substreams.
STREAM_COMMON = 0
STREAM_SHOT1 = 1
STREAM_SHOT2 = 2

#: Unit-interval draws summed per block by `brownian_difference`.
SUM_BLOCK = 1 << 16


def generator(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for one (seed, stream_id) substream."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.Philox(ss))


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible run of the twin-interferometer simulation."""

    arm_length: float = 40.0      # m
    shot_asd: float = 2e-18       # m / sqrt(Hz), per channel
    sample_rate: float = 5e7      # Hz
    n_samples: int = 2**22        # power of two
    seed: int = 0                 # 64-bit master seed
    holo_scale: float = 1.0       # common-component power multiplier
    segment_length: int = 8192    # Welch segment, power of two
    overlap: float = 0.5          # Welch segment overlap fraction

    def __post_init__(self):
        if not math.isfinite(self.arm_length) or self.arm_length <= 0.0:
            raise DomainError(f"arm_length must be positive, got {self.arm_length!r}")
        if not math.isfinite(self.shot_asd) or self.shot_asd < 0.0:
            raise DomainError(f"shot_asd must be >= 0, got {self.shot_asd!r}")
        if not math.isfinite(self.sample_rate) or self.sample_rate <= 0.0:
            raise DomainError(f"sample_rate must be positive, got {self.sample_rate!r}")
        if not isinstance(self.n_samples, int) or not _is_pow2(self.n_samples) or self.n_samples < 1024:
            raise DomainError(
                f"n_samples must be a power of two >= 1024, got {self.n_samples!r}"
            )
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not math.isfinite(self.holo_scale) or self.holo_scale < 0.0:
            raise DomainError(f"holo_scale must be >= 0, got {self.holo_scale!r}")
        if not isinstance(self.segment_length, int) or not _is_pow2(self.segment_length):
            raise DomainError(
                f"segment_length must be a power of two, got {self.segment_length!r}"
            )
        if self.segment_length > self.n_samples:
            raise DomainError("segment_length cannot exceed n_samples")
        if not 0.0 <= self.overlap <= 0.75:
            raise DomainError(f"overlap must lie in [0, 0.75], got {self.overlap!r}")
        tau_c = 2.0 * self.arm_length / CONSTANTS.c
        if self.sample_rate * tau_c < 4.0:
            raise DomainError(
                "undersampled: sample_rate * tau_c = "
                f"{self.sample_rate * tau_c:.3f} < 4; raise sample_rate or arm_length"
            )

    def model(self) -> HolographicModel:
        return HolographicModel.from_baseline(self.arm_length)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Build from a mapping, rejecting unknown keys (fail closed)."""
        if not isinstance(raw, dict):
            raise DomainError(f"config must be a JSON object, got {type(raw).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise DomainError(f"unknown config fields: {', '.join(unknown)}")
        kwargs = dict(raw)
        for name in ("n_samples", "seed", "segment_length"):
            if name in kwargs:
                v = kwargs[name]
                if isinstance(v, bool) or not isinstance(v, int):
                    raise DomainError(f"config field {name} must be an integer, got {v!r}")
        for name in ("arm_length", "shot_asd", "sample_rate", "holo_scale", "overlap"):
            if name in kwargs:
                v = kwargs[name]
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise DomainError(f"config field {name} must be a number, got {v!r}")
                kwargs[name] = float(v)
        return cls(**kwargs)


@dataclass(frozen=True)
class TimeSeriesPair:
    """Synthesized channel pair plus the injected common component."""

    sample_rate: float   # Hz
    ch1: np.ndarray      # m
    ch2: np.ndarray      # m
    common: np.ndarray   # m, as injected (already scaled by sqrt(holo_scale))

    def __post_init__(self):
        n = len(self.ch1)
        if len(self.ch2) != n or len(self.common) != n:
            raise DomainError("ch1, ch2, and common must have equal length")
        if self.sample_rate <= 0.0 or not math.isfinite(self.sample_rate):
            raise DomainError(f"sample_rate must be positive, got {self.sample_rate!r}")
        for name in ("ch1", "ch2", "common"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"{name} contains non-finite samples")

    @property
    def n_samples(self) -> int:
        return len(self.ch1)

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


def window_split(model: HolographicModel, sample_rate: float) -> tuple[int, float]:
    """The correlation window S = sample_rate * tau_c as (q, r), S = q + r."""
    s = sample_rate * model.tau_c
    q = math.floor(s)
    return q, s - q


def brownian_difference(
    pieces: np.ndarray, increments, model: HolographicModel, sample_rate: float
) -> np.ndarray:
    """Linear map from standard-normal draws to the triangular-ACF series.

    ``pieces`` holds the n + q draws (q from `window_split`) that feed the
    r-long Brownian pieces; it is overwritten and its first n entries are
    returned as the series.  ``increments(out)`` fills ``out`` with the next
    draws for the (1 - r)-long pieces, n + q in all, which are taken and
    summed ``SUM_BLOCK`` at a time, so only the returned series is held
    whole.  Sample k is the Brownian increment over [k - r, k + q]: the
    r-piece ending at k plus the q unit intervals after it, scaled so the
    variance is sigma2.  Every cumulative sum and difference is the one a
    single pass over all the draws would make, so the bits do not depend on
    the block size.
    """
    q, r = window_split(model, sample_rate)
    n = len(pieces) - q
    unit = model.sigma2 / (q + r)
    pieces *= math.sqrt(r * unit)
    scale = math.sqrt((1.0 - r) * unit)
    block = max(SUM_BLOCK, q)
    # cum[i] is the running sum U[j - q + i] of the whole unit intervals,
    # U[j] = U[j - 1] + (the interval [j - 1, j]), for the block at j.
    cum = np.empty(q + block)
    diff = np.empty(block)
    carry = 0.0
    for j in range(0, n + q, block):
        m = min(block, n + q - j)
        u = cum[q : q + m]
        increments(u)
        u *= scale
        u += pieces[j : j + m]
        if j:
            u[0] += carry
        np.cumsum(u, out=u)
        carry = u[-1]
        # x[k] = (U[k + q] - U[k]) + pieces[k] for every k whose U[k + q] is
        # here, written over pieces[k], which later blocks no longer need.
        k0, k1 = max(j - q, 0), j + m - q
        now, before = cum[k0 - j + 2 * q : k1 - j + 2 * q], cum[k0 - j + q : k1 - j + q]
        pieces[k0:k1] += np.subtract(now, before, out=diff[: k1 - k0])
        cum[:q] = cum[m : m + q]
    return pieces[:n]


def _check_common(model: HolographicModel, sample_rate: float, n: int) -> None:
    if sample_rate * model.tau_c < 4.0:
        raise DomainError(
            "undersampled: sample_rate * tau_c = "
            f"{sample_rate * model.tau_c:.3f} < 4"
        )
    support = int(math.ceil(sample_rate * model.tau_c))
    if n < 2 * support:
        raise DomainError(
            f"n = {n} too short: need at least twice the correlation support "
            f"({2 * support} samples)"
        )


def _common(model: HolographicModel, sample_rate: float, n: int, seed: int) -> np.ndarray:
    q, _ = window_split(model, sample_rate)
    gen = generator(seed, STREAM_COMMON)
    pieces = gen.standard_normal(n + q)
    return brownian_difference(pieces, lambda out: gen.standard_normal(out=out), model,
                               sample_rate)


def synthesize_common(
    model: HolographicModel, sample_rate: float, n: int, seed: int
) -> np.ndarray:
    """Generate ``n`` samples of the triangular-autocovariance process.

    Parameters
    ----------
    model : HolographicModel
        Supplies sigma2 and tau_c.
    sample_rate : float
        Sampling rate in Hz; must satisfy sample_rate * tau_c >= 4.
    n : int
        Number of samples; must be at least twice the correlation support.
    seed : int
        Master seed; the common stream id is fixed to STREAM_COMMON.

    Returns
    -------
    numpy.ndarray
        Zero-mean Gaussian series whose autocovariance equals the sampled
        triangle exactly (the moving sum is not an approximation).  The
        stream's first n + q draws feed the r-long pieces and the next
        n + q the unit-interval remainders.
    """
    _check_common(model, sample_rate, n)
    return _common(model, sample_rate, n, seed)


def _white(asd: float, sample_rate: float, n: int, seed: int, stream_id: int) -> np.ndarray:
    if asd == 0.0:
        return np.zeros(n)
    x = generator(seed, stream_id).standard_normal(n)
    x *= asd * math.sqrt(sample_rate / 2.0)
    return x


def white_noise(
    asd: float, sample_rate: float, n: int, seed: int, stream_id: int
) -> np.ndarray:
    """White series with one-sided PSD asd^2, i.e. variance asd^2 * fs / 2."""
    if not math.isfinite(asd) or asd < 0.0:
        raise DomainError(f"asd must be >= 0, got {asd!r}")
    if n < 1:
        raise DomainError(f"n must be positive, got {n!r}")
    return _white(asd, sample_rate, n, seed, stream_id)


def synthesize_pair(config: ExperimentConfig) -> TimeSeriesPair:
    """Synthesize both channels for one configuration.

    The stored ``common`` array is the injected component as it appears in
    the channels (scaled by sqrt(holo_scale)); with holo_scale = 0 the
    generation is skipped entirely and ``common`` is all zeros.  The three
    Philox streams are independent, so they are drawn concurrently on the
    CPUs the process may use (see `_workers.tmap`); each stream's draws and
    arithmetic are the same on any CPU count, and so are the bits.
    """
    n, fs, seed = config.n_samples, config.sample_rate, config.seed
    shots = [
        lambda: _white(config.shot_asd, fs, n, seed, STREAM_SHOT1),
        lambda: _white(config.shot_asd, fs, n, seed, STREAM_SHOT2),
    ]
    if config.holo_scale > 0.0:
        model = config.model()
        _check_common(model, fs, n)

        def injected():
            common = _common(model, fs, n, seed)
            common *= math.sqrt(config.holo_scale)
            return common

        common, ch1, ch2 = tmap(lambda draw: draw(), [injected, *shots], work=3 * n)
    else:
        ch1, ch2 = tmap(lambda draw: draw(), shots, work=2 * n)
        common = np.zeros(n)
    # ch_i = shot_i + common, which rounds exactly as common + shot_i.
    ch1 += common
    ch2 += common
    return TimeSeriesPair(sample_rate=fs, ch1=ch1, ch2=ch2, common=common)
