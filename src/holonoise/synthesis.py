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
so a consumer that takes it block by block, such as the Welch pass of
``holonoise simulate``, holds memory fixed by the block, not by n.  The
cumulative sum and a q-draw look-ahead are carried from block to block, and
a Philox stream drawn a block at a time gives the bits of one draw, so
`synthesize_pair` and `synthesize_common`, the blocks put end to end, do not
depend on the block size.

`ExperimentConfig` refuses a run before anything is drawn or written, by
the rules of the code that applies them: `spectral.check_segment_length`
and `spectral.segment_step` for the Welch segmenting, and the sampling
check of synthesis for sample_rate * tau_c >= 4.

All randomness is drawn from counter-based Philox generators keyed by
``SeedSequence(seed, spawn_key=(stream_id,))``: the common component's
r-pieces (stream 0) and unit-interval rests (stream 3), and the two shot
floors (streams 1 and 2) are mutually independent and each is reproducible
bit for bit from ``(seed, stream_id)`` alone.  Each block's common
component and two shot floors are therefore made concurrently, on as many
threads as the CPUs the process may use allow (`_workers.thread_count`),
without changing a bit.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._workers import thread_count
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

#: Samples per synthesized block.  At the default 8192-sample segments and
#: 50% overlap that is two 32-segment Welch chunks; memory held between
#: blocks does not grow with n_samples.
BLOCK_SAMPLES = 1 << 18


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
        if not math.isfinite(self.arm_length) or self.arm_length <= 0.0:
            raise DomainError(f"arm_length must be positive, got {self.arm_length!r}")
        if not math.isfinite(self.shot_asd) or self.shot_asd < 0.0:
            raise DomainError(f"shot_asd must be >= 0, got {self.shot_asd!r}")
        if not math.isfinite(self.sample_rate) or self.sample_rate <= 0.0:
            raise DomainError(f"sample_rate must be positive, got {self.sample_rate!r}")
        if not isinstance(self.n_samples, int) or self.n_samples < 1024:
            raise DomainError(f"n_samples must be an integer >= 1024, got {self.n_samples!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
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
        kwargs = dict(raw)
        # A field's kind is its default's: int takes JSON integers, float any number.
        for f in fields(cls):
            kind = type(f.default)
            v = kwargs.setdefault(f.name, f.default)
            expected = "an integer" if kind is int else "a number"
            if isinstance(v, bool) or not isinstance(v, (int, kind)):
                raise DomainError(f"config field {f.name} must be {expected}, got {v!r}")
            try:
                kwargs[f.name] = kind(v)
            except OverflowError as exc:  # an integer past the float range
                raise DomainError(f"config field {f.name} must be {expected}, got {v!r}") from exc
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


def _check_common(model: HolographicModel, sample_rate: float, n: int) -> None:
    _check_sampling(model, sample_rate)
    support = int(math.ceil(sample_rate * model.tau_c))
    if n < 2 * support:
        raise DomainError(
            f"n = {n} too short: need at least twice the correlation support "
            f"({2 * support} samples)"
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
    the bits do not depend on the block size.
    """

    def __init__(self, model: HolographicModel, sample_rate: float, seed: int, block: int):
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
    _check_common(model, sample_rate, n)
    block = min(n, BLOCK_SAMPLES)
    moving = _MovingSum(model, sample_rate, seed, block)
    x = np.empty(n)
    for j in range(0, n, block):
        moving.next(x[j : j + block])
    return x


def _shot(stream: np.random.Generator, out: np.ndarray, scale: float) -> None:
    stream.standard_normal(out=out)
    out *= scale


def synthesize_blocks(config: ExperimentConfig) -> Iterator[TimeSeriesPair]:
    """The pair of `synthesize_pair` as consecutive blocks of ``BLOCK_SAMPLES``.

    The configuration is checked before this returns.  For each block the
    common component (its two streams and the moving sum) and the two shot
    floors are made concurrently on a pool of `_workers.thread_count`
    threads, started with the first block and ended when the blocks run out
    or the iterator is closed, and the next block is drawn while the caller
    uses this one; the channel sums follow in the calling thread.  Each
    block is a `TimeSeriesPair`, with its finite check; the last may be
    shorter.
    """
    return (TimeSeriesPair(config.sample_rate, *block) for block in _blocks(config, None))


def _blocks(config: ExperimentConfig, out) -> Iterator[list[np.ndarray]]:
    """The (ch1, ch2, common) blocks of `synthesize_blocks`, written into new
    arrays or, when ``out`` holds three arrays of n_samples, into views of them."""
    n, fs, seed = config.n_samples, config.sample_rate, config.seed
    block = min(n, BLOCK_SAMPLES)
    moving = None
    if config.holo_scale > 0.0:
        model = config.model()
        _check_common(model, fs, n)
        moving = _MovingSum(model, fs, seed, block)
    shots = []
    if config.shot_asd > 0.0:
        shots = [generator(seed, STREAM_SHOT1), generator(seed, STREAM_SHOT2)]
    scale = config.shot_asd * math.sqrt(fs / 2.0)
    amplitude = math.sqrt(config.holo_scale)
    streams = len(shots) + (2 if moving is not None else 0)

    def start(pool, j: int):
        """Start drawing the block at sample j on the pool, if there is one; a call
        that returns its arrays once drawn, and draws them itself without a pool."""
        m = min(block, n - j)
        # Arrays are allocated here, not in the threads, whose malloc
        # arenas would keep the memory.
        arrays = [np.empty(m) for _ in range(3)] if out is None else [a[j : j + m] for a in out]
        ch1, ch2, common = arrays
        draws = [functools.partial(_shot, stream, ch, scale)
                 for stream, ch in zip(shots, (ch1, ch2))]
        if moving is None:
            common.fill(0.0)
        else:
            draws.insert(0, functools.partial(moving.next, common, amplitude))
        if pool is None:
            return lambda: ([draw() for draw in draws], arrays)[1]
        futures = [pool.submit(draw) for draw in draws]
        return lambda: ([future.result() for future in futures], arrays)[1]

    def generate():
        # A task for each shot floor, and one for the common component.
        threads = thread_count(len(shots) + (moving is not None), streams * block)
        pool = None
        try:
            if threads > 1:
                from concurrent.futures import ThreadPoolExecutor

                pool = ThreadPoolExecutor(threads)
            pending = start(pool, 0)
            for j in range(0, n, block):
                ch1, ch2, common = pending()
                # On the pool, the next block is drawn while the caller uses this one.
                if j + block < n:
                    pending = start(pool, j + block)
                for ch in (ch1, ch2):
                    if shots:
                        # shot_i + common, which rounds exactly as common + shot_i.
                        ch += common
                    else:
                        ch[:] = common
                yield ch1, ch2, common
        finally:
            if pool is not None:
                pool.shutdown()

    return generate()


def synthesize_pair(config: ExperimentConfig) -> TimeSeriesPair:
    """Synthesize both channels for one configuration.

    The stored ``common`` array is the injected component as it appears in
    the channels (scaled by sqrt(holo_scale)); with holo_scale = 0 the
    generation is skipped entirely and ``common`` is all zeros, and with
    shot_asd = 0 both channels equal ``common``.  It is the blocks of
    `synthesize_blocks`, each written in place, so the bits are the same on
    any CPU count.
    """
    out = [np.empty(config.n_samples) for _ in range(3)]
    for _ in _blocks(config, out):
        pass
    return TimeSeriesPair(config.sample_rate, *out)
