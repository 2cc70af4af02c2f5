"""The CSV row kernel against Python's own ``%.17g``, byte for byte.

`format_rows` must write what ``format(v, ".17g")`` writes for every double,
so these tests compare the two on hypothesis-drawn floats (NaN, infinities
and subnormals included) and on a fixed list of values where a vectorised
formatter goes wrong first: a first exponent guess that is one off, digits
that round up to the next power of ten, exact ties that must round half to
even, the switch between fixed and scientific notation, and the ends of the
float range.  No RuntimeWarning may escape the kernel.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holonoise._format import PASS_VALUES, format_rows


def per_value(rows: np.ndarray) -> bytes:
    """The reference: each value through ``format(v, ".17g")``, joined per row."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n"
                   for row in rows.tolist()).encode()


def exact_ties() -> list[float]:
    """Doubles m * 2^-e whose decimal expansion has 18 significant digits, the
    last a 5, so rounding them to 17 digits is a tie."""
    return [m * 2.0**-e for m in range(1, 40, 2) for e in range(80)
            if len(str(m * 5**e)) == 18]


def neighbours(v: float, k: int = 2) -> list[float]:
    """v and the k doubles on either side of it."""
    out, up, down = [v], v, v
    for _ in range(k):
        up, down = float(np.nextafter(up, np.inf)), float(np.nextafter(down, -np.inf))
        out += [up, down]
    return out


HAZARDS = [
    float(np.nextafter(1e-7, 0.0)),  # log10 gives exactly -7, one too high
    99999999999999999.0,  # rounds up to 1e+17
    2.0**-25,  # 2.98023223876953125e-08, a tie at 17 digits
    *exact_ties(),
    *neighbours(1e-4), *neighbours(1e-5), *neighbours(1e17), *neighbours(1e16),
    *neighbours(10.0**-300), *neighbours(1e-280), *neighbours(1e280),
    0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    float("nan"), float("inf"), float("-inf"),
    123456789.125, 0.1, 1.0 / 3.0, 2.0**60, 1e22, 1e23, 0.5, 1.5, 100.0, 1e100,
]


def test_ties_are_ties():
    ties = exact_ties()
    assert 2.0**-25 in ties and len(ties) > 10
    for v in ties:
        assert format(v, ".18g").split("e")[0][-1] == "5"


@pytest.mark.parametrize("cols", [1, 3, 4])
def test_hazards_match_per_value_formatting(cols):
    values = np.array(HAZARDS + [-v for v in HAZARDS])
    rows = values[: len(values) // cols * cols].reshape(-1, cols)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert format_rows(rows) == per_value(rows)


def test_passes_join_into_the_same_bytes():
    # A block longer than one pass, with a fallback value in each pass.
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((2 * PASS_VALUES // 4 + 3, 4)) * 1e-16
    rows[:, 0] = np.arange(len(rows)) / 5e7
    rows[PASS_VALUES // 4 + 1, 2] = 0.0
    assert format_rows(rows) == per_value(rows)


@given(st.lists(st.floats(), min_size=1, max_size=48), st.integers(1, 6))
def test_any_floats_match_per_value_formatting(values, cols):
    rows = np.array(values + [0.0] * (-len(values) % cols)).reshape(-1, cols)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert format_rows(rows) == per_value(rows)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=48))
def test_any_bit_patterns_match_per_value_formatting(bits):
    rows = np.array(bits, dtype=np.uint64).view(np.float64).reshape(-1, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert format_rows(rows) == per_value(rows)
