"""Reference series shared by the test modules."""

import math

import numpy as np

from holonoise.synthesis import generator


def white_noise(asd: float, sample_rate: float, n: int, seed: int, stream_id: int) -> np.ndarray:
    """The shot floor of Philox stream ``stream_id``: white, one-sided PSD asd^2,
    that is variance asd^2 * sample_rate / 2, drawn and scaled as synthesis does."""
    x = generator(seed, stream_id).standard_normal(n)
    x *= asd * math.sqrt(sample_rate / 2.0)
    return x
