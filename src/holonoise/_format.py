"""CSV rows of 17-significant-digit floats, bit for bit as ``%.17g`` writes them.

`format_rows` is a numpy kernel that works PASS_VALUES values at a time.  It
finds each value's 17 digits and decimal exponent in float arithmetic that
is exact wherever it decides, writes the characters into fixed slots, and
joins them with one boolean-mask compaction.

- The exponent X starts as floor(log10 |x|) and is corrected below.
- The digits are D = round(|x| * 10^(16 - X)).  The product is taken with
  Dekker's (1971) split and error-free two-product against 10^(16 - X) held
  as a double-double ``hi + lo``, so it is known to within about 1e-14.
  Each power is made from Python ints, whose true division rounds correctly.
- Where the product is below 10^16 the exponent was one too high, and where
  D reaches 10^17 one too low; those values are computed again.
- Python's own ``%.17g`` formats what the kernel cannot decide: zero, values
  that are not finite, |x| outside [1e-280, 1e280], where a power of ten or
  a split would leave the normal range, and products whose fractional part
  is within 1e-9 of one half, exact ties included, which round half-even.
- The layout is ``%g``'s: scientific when X < -4 or X >= 17, with at least
  two exponent digits, and fixed otherwise, with trailing zeros and a bare
  ``.`` removed.  Each value has SLOTS bytes, zero where it has no
  character, and the zeros are dropped when the values are joined.
"""

from __future__ import annotations

import numpy as np

#: Bytes a value and its separator take at most: "-d.dddddddddddddddde-ddd,".
SLOTS = 25
#: Values formatted in one pass: the temporaries of a pass take about
#: 200 bytes a value, and passes of 2^12 to 2^14 values ran fastest.
PASS_VALUES = 1 << 14

_SPLIT = 134217729.0  # 2^27 + 1
_TIE_MARGIN = 1e-9
_U8 = np.uint8
_ZERO, _POINT, _MINUS = _U8(ord("0")), _U8(ord(".")), _U8(ord("-"))


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: a = high + low, each with at most 26 significant bits."""
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _powers(lo: int, hi: int, known: dict) -> np.ndarray:
    """10^e for e in [lo, hi] as double-doubles: rows head, tail and the head's split.

    ``known`` maps each exponent already made to its head and tail.
    """
    for e in range(lo, hi + 1):
        if e not in known:
            num, den = (10**e, 1) if e >= 0 else (1, 10**-e)
            head = num / den
            h_num, h_den = head.as_integer_ratio()
            known[e] = head, (num * h_den - h_num * den) / (den * h_den)
    heads, tails = np.array([known[e] for e in range(lo, hi + 1)]).T
    return np.stack([heads, tails, *_split(heads)])


def _rounded(a: np.ndarray, x10: np.ndarray, powers: np.ndarray, e_lo: int):
    """round(a * 10^(16 - x10)), the fraction rounded away, and the product's excess over 10^16."""
    p_hi, p_lo, p_hh, p_hl = powers
    e = 16 - e_lo - x10
    head = a * p_hi[e]
    a_h, a_l = _split(a)
    # Dekker's two-product: head + rest is a * hi exactly; then a * lo.
    rest = a_h * p_hh[e]
    rest -= head
    rest += a_h * p_hl[e]
    rest += a_l * p_hh[e]
    rest += a_l * p_hl[e]
    rest += a * p_lo[e]
    whole = np.floor(rest)
    frac = np.subtract(rest, whole, out=a_h)
    # head is a whole number wherever the product is at least 2^53.
    d = head.astype(np.int64)
    d += whole.astype(np.int64)
    d += frac > 0.5
    head -= 1e16
    head += rest
    return d, frac, head


def _digits(a: np.ndarray, known: dict):
    """The 17 digits D and decimal exponent of each a in [1e-280, 1e280], and
    where the kernel is sure of them; ``known`` as for `_powers`."""
    x10 = np.floor(np.log10(a)).astype(np.int16)
    e_lo = 15 - int(x10.max())
    powers = _powers(e_lo, 17 - int(x10.min()), known)
    d, frac, excess = _rounded(a, x10, powers, e_lo)
    # a * 10^(16 - X) < 10^16: X was one too high.
    low = excess < 0.0
    if low.any():
        x10[low] -= 1
        d[low], frac[low], _ = _rounded(a[low], x10[low], powers, e_lo)
    # D reaches 10^17: X was one too low.
    high = d >= 10**17
    if high.any():
        x10[high] += 1
        d[high], frac[high], _ = _rounded(a[high], x10[high], powers, e_lo)
    sure = (np.abs(frac - 0.5) >= _TIE_MARGIN) & (d >= 10**16) & (d < 10**17)
    return d, x10, sure


def _digit_chars(d: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each d in [10^16, 10^17) as ASCII, most significant first."""
    rows = np.empty((17, len(d)), np.uint8)
    top = d // 10**9
    for last, part in ((7, top), (16, d - top * 10**9)):
        q = part.astype(np.uint32)
        for i in range(last, last - (8 if last == 7 else 9), -1):
            quotient = q // np.uint32(10)
            rows[i] = q - quotient * np.uint32(10)
            q = quotient
    rows += _ZERO
    return rows


def _pick(cond: np.ndarray, a, b) -> np.ndarray:
    """a where cond, else b, for uint8 a and b: numpy runs this arithmetic many
    times faster than ``np.where``."""
    return b + cond.view(np.uint8) * (a - b)


def _layout(d: np.ndarray, x10: np.ndarray, neg: np.ndarray, buf: np.ndarray) -> None:
    """Write the ``%.17g`` characters of digits d at exponent x10 into slots 0..23 of buf.

    Slot 0 holds the sign.  Slots 1..18 hold the digits and the point, and
    slots 19..23 the exponent of scientific notation, "e-ddd".  A value in
    [1e-4, 1) is written "0." and up to three zeros in slots 1..5 and its
    digits in slots 6..22.
    """
    sci = (x10 < -4) | (x10 >= 17)
    below = ~sci & (x10 < 0)
    point = (x10 * ~(sci | below)).astype(np.int8)  # the digit the point follows
    after_point = point + np.int8(1)
    chars = _digit_chars(d)
    # kept[i]: a digit other than 0 is at i or after it, so i is not a
    # trailing zero; the point is written after digit ``point`` where one is.
    kept = np.empty(chars.shape, bool)
    kept[16] = chars[16] != _ZERO
    for i in range(15, -1, -1):
        np.logical_or(kept[i + 1], chars[i] != _ZERO, out=kept[i])
    points = [kept[j].view(np.uint8) * _POINT for j in range(1, 17)]
    # Fixed notation keeps every digit before the point, trailing zeros too.
    for i in range(17):
        np.logical_or(kept[i], i <= point, out=kept[i])
    chars *= kept.view(np.uint8)
    del kept
    mag = np.abs(x10)
    lead = [_ZERO, _POINT, *((x10 <= depth).view(np.uint8) * _ZERO for depth in (-2, -3, -4))]
    exponent = [_U8(ord("e")), _pick(x10 < 0, _MINUS, np.full(len(d), ord("+"), np.uint8)),
                (mag >= 100).view(np.uint8) * (mag // 100 + 48).astype(np.uint8),
                (mag // 10 % 10 + 48).astype(np.uint8), (mag % 10 + 48).astype(np.uint8)]
    shifted = below.any()
    buf[0] = neg.view(np.uint8) * _MINUS
    for slot in range(1, 24):
        j = slot - 1
        if j == 0:
            char = chars[0]
        elif j < 17:
            char = _pick(j <= point, chars[j], chars[j - 1])
            char = _pick(j == after_point, points[j - 1], char)
        elif j == 17:
            char = chars[16] * (j != after_point).view(np.uint8)
        else:
            char = sci.view(np.uint8) * exponent[j - 18]
        if shifted and slot <= 22:
            char = _pick(below, lead[j] if slot <= 5 else chars[slot - 6], char)
        buf[slot] = char


def row_bytes(columns: int) -> int:
    """Bytes a line of ``columns`` values takes at most."""
    return columns * SLOTS


def format_rows(block: np.ndarray) -> bytes:
    """``%.17g`` CSV lines of a 2-D float array, formatted PASS_VALUES values at a time."""
    step = max(1, PASS_VALUES // block.shape[1])
    known: dict = {}
    return b"".join([_lines(block[i : i + step], known) for i in range(0, len(block), step)])


def _lines(block: np.ndarray, known: dict) -> np.ndarray:
    """The bytes of one pass's lines; ``known`` as for `_powers`."""
    cols = block.shape[1]
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    buf = np.empty((SLOTS, x.size), np.uint8)
    a = np.abs(x)
    sure = (a >= 1e-280) & (a <= 1e280)  # false for zero, nan and inf
    if sure.any():
        # The values the kernel skips are stood in for by 1 and written below.
        np.copyto(a, 1.0, where=~sure)
        d, x10, exact = _digits(a, known)
        del a
        _layout(d, x10, np.signbit(x), buf)
        sure &= exact
    if not sure.all():
        todo = np.flatnonzero(~sure)
        texts = b"".join(format(v, ".17g").encode().ljust(SLOTS - 1, b"\0")
                         for v in x[todo].tolist())
        buf[:-1, todo] = np.frombuffer(texts, np.uint8).reshape(-1, SLOTS - 1).T
    buf[-1] = ord(",")
    buf[-1, cols - 1 :: cols] = ord("\n")
    flat = np.ascontiguousarray(buf.T).ravel()
    del buf
    return flat[flat != 0]
