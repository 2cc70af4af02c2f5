"""Seeded synthesis of the correlated-pair interferometer time series.

Each channel is the sum of a common geometric component, shared between the
two instruments, and an independent white shot-noise floor of one-sided PSD
shot_asd^2, that is of variance shot_asd^2 * sample_rate / 2 per sample:

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
eigenvalue check or FFT is involved.

The pair is made in blocks of ``BLOCK_SAMPLES`` samples (`synthesize_blocks`),
2^16, so a consumer that takes it block by block, such as the Welch pass of
``holonoise simulate``, holds memory fixed by the block, not by n: 1.5 MB
for a block's three arrays.  The cumulative sum and a q-draw look-ahead are
carried from block to block, and a Philox stream drawn a block at a time
gives the bits of one draw, so `synthesize_pair` and `synthesize_common`,
the blocks put end to end, do not depend on the block size.

`ExperimentConfig` refuses a run before anything is drawn or written, by
the rules of the code that applies them: `spectral.check_segment_length`
and `spectral.segment_step` for the Welch segmenting, and the sampling
check of synthesis for sample_rate * tau_c >= 4.

All randomness is drawn from counter-based Philox generators keyed by
``SeedSequence(seed, spawn_key=(stream_id,))``: the common component's
r-pieces (stream 0) and unit-interval rests (stream 3), and the two shot
floors (streams 1 and 2) are mutually independent and each is reproducible
bit for bit from ``(seed, stream_id)`` alone.  The blocks are drawn by
one serial loop.  Where the run is worth it, that loop runs on one thread
more than the caller's, which draws the next block while the caller adds
up and uses this one (`_workers.ahead`).  Whether a run starts that thread
is decided from its whole work, every stream's n samples
(`_workers.thread_count`), never from the block size, and no bit depends
on it.
"""

from __future__ import annotations

import contextlib
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._workers import ahead, thread_count
from .errors import DomainError
from .model import HolographicModel
from .spectral import check_segment_length, segment_step

#: Stream identifiers for the per-run Philox substreams: the common
#: component's r-long pieces, the two shot-noise floors, and the rest of the
#: common component's unit intervals.
STREAM_COMMON = 0
STREAM_SHOT1 = 1
STREAM_SHOT2 = 2
STREAM_INCREMENTS = 3

#: How the streams are keyed, as the manifest records it.
PRNG_IDENTIFIER = (
    "philox4x64 counter-based; substreams via "
    "SeedSequence(seed, spawn_key=(stream_id,)); "
    f"common pieces={STREAM_COMMON}, increments={STREAM_INCREMENTS} "
    f"(Brownian-difference moving sum) shot1={STREAM_SHOT1} shot2={STREAM_SHOT2}"
)

#: Samples per synthesized block, 512 kB an array.  At the default
#: 8192-sample segments and 50% overlap that is 16 segment steps; memory
#: held between blocks does not grow with n_samples.
#: README-default simulate peaked at 62 MB with blocks of 2^18, 50 MB with
#: 2^17 and 44 MB with 2^16, with wall times within 5% of each other.
BLOCK_SAMPLES = 1 << 16


def generator(seed: int, stream_id: int) -> np.random.Generator:
    """Philox generator for one (seed, stream_id) substream."""
    ss = np.random.SeedSequence(seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class ExperimentConfig:
    """One reproducible run of the twin-interferometer simulation."""

    arm_length: float = 40.0      # m
    shot_asd: float = 2e-18       # m / sqrt(Hz), per channel
    sample_rate: float = 5e7      # Hz
    n_samples: int = 2**22        # at least 1024
    seed: int = 0                 # 64-bit master seed
    holo_scale: float = 1.0       # common-component power multiplier
    segment_length: int = 8192    # Welch segment, power of two >= 64
    overlap: float = 0.5          # Welch segment overlap fraction

    def __post_init__(self):
        # A float field takes any number but a bool, and stores it as a float.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, float):
                refused = DomainError(f"config field {f.name} must be a number, got {value!r}")
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise refused
                try:
                    object.__setattr__(self, f.name, float(value))
                except OverflowError as exc:  # an integer past the float range
                    raise refused from exc
        if not math.isfinite(self.arm_length) or self.arm_length <= 0.0:
            raise DomainError(f"arm_length must be positive, got {self.arm_length!r}")
        if not math.isfinite(self.shot_asd) or self.shot_asd < 0.0:
            raise DomainError(f"shot_asd must be >= 0, got {self.shot_asd!r}")
        if not math.isfinite(self.sample_rate) or self.sample_rate <= 0.0:
            raise DomainError(f"sample_rate must be positive, got {self.sample_rate!r}")
        # A bool is an int to isinstance, but neither a count nor a seed.
        if (isinstance(self.n_samples, bool) or not isinstance(self.n_samples, int)
                or self.n_samples < 1024):
            raise DomainError(f"n_samples must be an integer >= 1024, got {self.n_samples!r}")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, int)
                or not 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not math.isfinite(self.holo_scale) or self.holo_scale < 0.0:
            raise DomainError(f"holo_scale must be >= 0, got {self.holo_scale!r}")
        # The segmenting and sampling rules are those of the code that uses
        # them, checked here so a run is refused before it starts.
        check_segment_length(self.segment_length)
        if self.segment_length > self.n_samples:
            raise DomainError("segment_length cannot exceed n_samples")
        segment_step(self.segment_length, self.overlap)
        _check_sampling(self.model(), self.sample_rate)

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
        return cls(**raw)


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


def window_split(model: HolographicModel, sample_rate: float) -> tuple[int, float]:
    """The correlation window S = sample_rate * tau_c as (q, r), S = q + r."""
    s = sample_rate * model.tau_c
    q = math.floor(s)
    return q, s - q


def _check_sampling(model: HolographicModel, sample_rate: float) -> None:
    """Refuse a sample rate that puts fewer than 4 samples in the window tau_c."""
    if sample_rate * model.tau_c < 4.0:
        raise DomainError(
            "undersampled: sample_rate * tau_c = "
            f"{sample_rate * model.tau_c:.3f} < 4; raise sample_rate or arm_length"
        )


class _MovingSum:
    """The triangular-autocovariance series of one seed, a block at a time.

    Sample k is the Brownian increment over [k - r, k + q]: the r-long piece
    ending at k plus the q unit intervals after it, scaled so the variance
    is sigma2.  The r-long pieces are drawn from stream ``STREAM_COMMON``
    and the (1 - r)-long rest of each unit interval from
    ``STREAM_INCREMENTS``, n + q draws of each.  Between blocks it keeps the
    look-ahead the next block's differences need: the last q draws of the
    pieces and the cumulative sums up to them.  Every cumulative sum and
    difference is the one a single pass over all the draws would make, so
    the bits do not depend on the block size.  A series of ``n`` samples is
    refused unless sample_rate * tau_c >= 4 and n is at least twice the
    correlation support.
    """

    def __init__(self, model: HolographicModel, sample_rate: float, n: int, seed: int):
        _check_sampling(model, sample_rate)
        support = int(math.ceil(sample_rate * model.tau_c))
        if n < 2 * support:
            raise DomainError(
                f"n = {n} too short: need at least twice the correlation support "
                f"({2 * support} samples)"
            )
        block = min(n, BLOCK_SAMPLES)
        q, r = window_split(model, sample_rate)
        unit = model.sigma2 / (q + r)
        self.q = q
        self.scales = (math.sqrt(r * unit), math.sqrt((1.0 - r) * unit))
        self.streams = (generator(seed, STREAM_COMMON), generator(seed, STREAM_INCREMENTS))
        # For the block starting at sample j, pieces[i] is the scaled r-piece
        # of draw j + i and cum[i] the running sum U[j + i] of every piece and
        # unit-interval rest up to that draw; the first q are the look-ahead.
        self.pieces, self.cum = np.empty(q + block), np.empty(q + block)
        self._draw(0, q)

    def _draw(self, lo: int, hi: int) -> None:
        """Draw pieces[lo:hi] and cum[lo:hi], and carry the running sum through them."""
        b, u = self.pieces[lo:hi], self.cum[lo:hi]
        self.streams[0].standard_normal(out=b)
        self.streams[1].standard_normal(out=u)
        b *= self.scales[0]
        u *= self.scales[1]
        u += b
        if lo:
            u[0] += self.cum[lo - 1]
        np.cumsum(u, out=u)

    def next(self, out: np.ndarray, amplitude: float = 1.0) -> None:
        """Write the next ``len(out)`` samples, times ``amplitude``, into ``out``."""
        q, m = self.q, len(out)
        self._draw(q, q + m)
        np.subtract(self.cum[q : q + m], self.cum[:m], out=out)
        out += self.pieces[:m]
        out *= amplitude
        self.pieces[:q] = self.pieces[m : m + q]
        self.cum[:q] = self.cum[m : m + q]


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
        Master seed; the draws come from streams STREAM_COMMON and
        STREAM_INCREMENTS.

    Returns
    -------
    numpy.ndarray
        Zero-mean Gaussian series whose autocovariance equals the sampled
        triangle exactly (the moving sum is not an approximation).  It is
        the ``common`` of `synthesize_pair` at holo_scale = 1.
    """
    moving = _MovingSum(model, sample_rate, n, seed)
    x = np.empty(n)
    for j in range(0, n, BLOCK_SAMPLES):
        moving.next(x[j : j + BLOCK_SAMPLES])
    return x


def _shot(stream: np.random.Generator, out: np.ndarray, scale: float) -> None:
    stream.standard_normal(out=out)
    out *= scale


def synthesize_blocks(config: ExperimentConfig) -> Iterator[TimeSeriesPair]:
    """The pair of `synthesize_pair` as consecutive blocks of ``BLOCK_SAMPLES``.

    The configuration is checked before this returns.  Each block draws the
    common component, then the two shot floors; the calling thread adds the
    common component to each floor and makes the block a `TimeSeriesPair`,
    with its finite check.  The last block may be shorter.  Where
    `_workers.thread_count` grants the run a second thread, the draws are
    made on it, one block ahead of the caller; it starts with the first
    block and ends when the blocks run out or the iterator is closed.
    """
    n, fs, seed = config.n_samples, config.sample_rate, config.seed
    block = BLOCK_SAMPLES
    moving = _MovingSum(config.model(), fs, n, seed) if config.holo_scale > 0.0 else None
    shots = []
    if config.shot_asd > 0.0:
        shots = [generator(seed, STREAM_SHOT1), generator(seed, STREAM_SHOT2)]
    scale = config.shot_asd * math.sqrt(fs / 2.0)
    amplitude = math.sqrt(config.holo_scale)
    streams = len(shots) + (2 if moving is not None else 0)

    def draw() -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
        for j in range(0, n, block):
            m = min(block, n - j)
            # Allocated on the thread that draws them: README-default simulate
            # peaked at 43.7 MB at 2^22 and at 2^24 samples alike, on 2 CPUs.
            common = np.empty(m)
            if moving is None:
                common.fill(0.0)
            else:
                moving.next(common, amplitude)
            floors = [np.empty(m) for _ in shots]
            for stream, floor in zip(shots, floors):
                _shot(stream, floor, scale)
            yield common, floors

    def pairs(draws: Iterator) -> Iterator[TimeSeriesPair]:
        with contextlib.closing(draws):
            for common, floors in draws:
                for ch in floors:
                    # shot_i + common, which rounds exactly as common + shot_i.
                    ch += common
                ch1, ch2 = floors or (common.copy(), common.copy())
                yield TimeSeriesPair(fs, ch1, ch2, common)

    return pairs(ahead(draw()) if thread_count(streams * n) > 1 else draw())


def synthesize_pair(config: ExperimentConfig) -> TimeSeriesPair:
    """Synthesize both channels for one configuration.

    The stored ``common`` array is the injected component as it appears in
    the channels (scaled by sqrt(holo_scale)); with holo_scale = 0 the
    generation is skipped entirely and ``common`` is all zeros, and with
    shot_asd = 0 both channels equal ``common``.  It is the blocks of
    `synthesize_blocks` copied end to end, so the bits are the same on any
    CPU count.
    """
    out = [np.empty(config.n_samples) for _ in range(3)]
    j = 0
    for pair in synthesize_blocks(config):
        for whole, part in zip(out, (pair.ch1, pair.ch2, pair.common)):
            whole[j : j + pair.n_samples] = part
        j += pair.n_samples
    return TimeSeriesPair(config.sample_rate, *out)
