"""Exact ``%.17g`` text of float64 arrays, a whole array per call.

:func:`format_rows` lays out each value of an array as a row of
characters and :func:`rows_text` joins rows into one text; every value
reads exactly as ``"%.17g" % value``, the output's number format, byte
for byte, with no Python call per value but for the few left to ``%``.

A finite ``|x|`` in ``[1e-280, 1e280]`` is scaled by ``10**(16 - E)``,
``E = floor(log10 |x|)``, to ``p + low``, an unevaluated sum of two
doubles exact to about 1e-30 relative: the power of ten is a
double-double and the product Dekker's error-free two-product (Numer.
Math. 18, 224, 1971). ``p + low`` rounded to an integer is the 17
significant digits of ``%.17g`` and ``E`` their exponent, corrected by one
where ``log10`` missed it next to a power of ten. Every other value (a
zero is written directly), and every value whose digits a tie or an
exponent boundary leaves unsure, takes its digits and exponent from
``"%.16e"``, the same 17 correctly rounded digits: the fast path with an
exact fallback of Loitsch (PLDI 2010). The digits are laid out by the
``%g`` rules: fixed point for exponents -4 to 16, else exponential, without
trailing zeros.

The tables are built on first use, not at import.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["ROW_BYTES", "SEP_COLUMN", "format_rows", "rows_text"]

_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter of a 53-bit significand
_FAST = (1e-280, 1e280)  # every power of ten, split and product stays a normal double
_TIE = 1e-6  # a scaled value's fraction this close to 1/2 is left to "%.16e"
_E_MIN = -282  # the scaled exponents, with one correction step either way
_X_MIN = -330  # the exponent table covers every double's exponent

# A value's row is 48 bytes, six little-endian 64-bit words:
#   word 0      sign, "0." and up to three zeros, digit 0 and its point slot
#   words 1-4   digits 1-16, four to a word, each followed by its point slot
#   word 5      "e", sign and three exponent digits, then the separator
# with a NUL in every place the value leaves empty: the prefix of all but a
# fixed-point value below 1, the digits past the last shown, the point slots
# but one, the hundreds digit of a two-digit exponent and the exponent of the
# fixed-point style.
ROW_BYTES, SEP_COLUMN = 48, 45
_WORD = np.dtype("<u8")


def _words(parts: list[bytes]) -> np.ndarray:
    """Each of ``parts``, NUL-padded to eight bytes, as one word."""
    return np.frombuffer(b"".join(p.ljust(8, b"\0") for p in parts), _WORD)


@lru_cache(maxsize=None)
def _tables():
    """The kernel's tables, built on first use.

    ``power`` holds ``(hi, lo, hi_high, hi_low)`` at ``e - _E_MIN``: the
    double-double ``hi + lo`` of ``10**(16 - e)`` and Dekker's split of
    ``hi``. The rest hold row words, or parts of them, by index:
    ``prefixes[5 * negative + z]`` the sign and, for ``z > 0``, ``"0."``
    and ``z - 1`` zeros; ``tops[t]`` digit 0 as ``t``; ``groups[g]`` the
    four digits of ``g < 10**4`` with empty point slots and ``trailing[g]``
    their trailing zeros, four for ``g = 0``; ``shown[k - 1, c]`` keeps the
    digits of word ``k`` below digit ``c``; ``points[k, q + 1]`` is the
    point after digit ``q`` if word ``k`` holds that digit's slot.
    """
    his, los = [], []
    for e in range(_E_MIN, 1 - _E_MIN):
        k = 16 - e
        if k >= 0:
            exact = 10**k
            hi = float(exact)
            lo = float(exact - int(hi))
        else:
            # integer true division rounds correctly: hi, and lo from the remainder
            m = 10**-k
            hi = 1 / m
            num, den = hi.as_integer_ratio()
            lo = (den - num * m) / (den * m)
        his.append(hi)
        los.append(lo)
    hi = np.array(his)
    c = hi * _SPLIT
    high = c - (c - hi)
    power = (hi, np.array(los), high, hi - high)

    zeros = [b""] + [b"0." + b"0" * z for z in range(4)]
    prefixes = _words([sign + z for sign in (b"", b"-") for z in zeros])
    tops = _words([b"\0" * 6 + b"%d" % t for t in range(10)])
    g = np.arange(10**4, dtype=np.int16)
    digits = np.stack([g // 10**k % 10 for k in (3, 2, 1, 0)], axis=1).astype(np.uint8)
    groups = np.zeros((g.size, 8), np.uint8)
    groups[:, ::2] = ord("0") + digits
    groups = groups.view(_WORD).ravel()
    # a zero group counts four trailing zeros
    trailing = np.argmax(digits[:, ::-1] != 0, axis=1).astype(np.int8)
    trailing[0] = 4

    def slot(i):
        """(word, byte) of the point slot after digit i."""
        return (0, 7) if i == 0 else (1 + (i - 1) // 4, 2 * ((i - 1) % 4) + 1)

    # byte 2j of word k > 0 is digit 4k - 3 + j
    shown = np.stack([
        _words([bytes(b for j in range(4) for b in (255 * (4 * k - 3 + j < c), 0)) for c in range(18)])
        for k in range(1, 5)
    ])
    points = np.stack([
        _words([b""] + [b"\0" * slot(q)[1] + b"." if slot(q)[0] == k else b"" for q in range(16)])
        for k in range(5)
    ])
    return power, prefixes, tops, groups, trailing, shown, points


@lru_cache(maxsize=None)
def _exponents(sep: str) -> np.ndarray:
    """Word 5 of a row with separator ``sep``: ``"e"`` and exponent ``x`` at
    ``x - _X_MIN``, two digits at least, and no exponent at the last index."""
    tail = sep.encode().ljust(3, b"\0")
    return _words([
        b"e%c%c%02d" % (b"-+"[x >= 0], 48 + abs(x) // 100 if abs(x) >= 100 else 0, abs(x) % 100)
        + tail
        for x in range(_X_MIN, 1 - _X_MIN)
    ] + [b"\0" * 5 + tail])


def _scaled(a: np.ndarray, e: np.ndarray, power: tuple):
    """``(p, low)``: ``a * 10**(16 - e)`` as the sum ``p + low``, ``p = fl(a * hi)``."""
    i = e - _E_MIN
    hi, lo, high, low_part = (table[i] for table in power)
    p = a * hi
    # Dekker's split of a, then the two-product's error term, in place
    a_high = a * _SPLIT
    a_high -= a_high - a
    a_low = a - a_high
    err = a_high * high
    np.subtract(p, err, out=err)
    err -= np.multiply(a_low, high, out=high)
    err -= np.multiply(a_high, low_part, out=high)
    err = np.multiply(a_low, low_part, out=low_part) - err
    err += np.multiply(a, lo, out=lo)
    return p, err


def _outside(p: np.ndarray, low: np.ndarray) -> np.ndarray:
    """+1 where ``p + low >= 1e17``, -1 where it is below ``1e16``, else 0."""
    # p - 1e17 and p - 1e16 are exact near each bound, and a rounded sum keeps its sign
    return ((p - 1e17) + low >= 0).astype(np.intp) - ((p - 1e16) + low < 0)


def _decimal(a: np.ndarray):
    """``(digits, exponents, slow)`` of ``a >= 0``: 17 significant digits and
    the ``%e`` exponent of each value, and the indices left to ``"%.16e"``."""
    power = _tables()[0]
    digits = np.zeros(a.size, np.int64)
    exponents = np.zeros(a.size, np.intp)
    fast = (a >= _FAST[0]) & (a <= _FAST[1])
    at = np.flatnonzero(fast)
    v = a[at]
    e = np.floor(np.log10(v)).astype(np.intp)
    p, low = _scaled(v, e, power)
    step = _outside(p, low)
    moved = np.flatnonzero(step)
    if moved.size:
        e[moved] += step[moved]
        p[moved], low[moved] = _scaled(v[moved], e[moved], power)
    unsure = np.abs(low - np.floor(low) - 0.5) < _TIE
    if moved.size:
        unsure[moved] |= _outside(p[moved], low[moved]) != 0
    # p is an integer: it lies above 2**53
    d = p.astype(np.int64) + np.floor(low + 0.5).astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    digits[at] = d
    exponents[at] = e + carry
    slow = ~fast & (a != 0)
    slow[at[unsure]] = True
    return digits, exponents, np.flatnonzero(slow)


def format_rows(values: np.ndarray, sep: str) -> np.ndarray:
    """Row ``i``, its NULs dropped, is ``"%.17g" % values[i] + sep``.

    ``values`` is a 1-D float64 array and ``sep`` at most three ASCII
    characters; the rows are ``ROW_BYTES`` long, ``sep`` from
    ``SEP_COLUMN``. Rows can be reordered, repeated or given another
    separator before :func:`rows_text` joins them.
    """
    _, prefixes, tops, groups, trailing, shown, points = _tables()
    a = np.abs(values)
    d, x, slow = _decimal(a)
    letters = []
    for i in slow.tolist():
        text = "%.16e" % a[i]
        if text[0] in "in":  # inf or nan: three letters in place of digits
            letters.append((i, text))
            x[i] = 2
        else:
            d[i] = int(text[0] + text[2:18])
            x[i] = int(text[19:])
    del a
    # the digits of d < 10**17: digit 0, then four groups of four, split
    # first in two halves that fit 32 bits
    high, low = (half.astype(np.int32) for half in np.divmod(d, 10**8))
    del d
    top, high = np.divmod(high, 10**8)
    g1, g2 = np.divmod(high, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    del high, low
    zeros = (top == 0).astype(np.int8)
    for g in (g1, g2, g3, g4):
        zeros = np.where(g != 0, trailing[g], 4 + zeros)
    significant = 17 - zeros
    exponential = (x < -4) | (x >= 17)
    below_one = (x < 0) & ~exponential
    # the digit the point follows, plus one; 0 for no point
    point = np.where(exponential, 0, x)
    point[(point < 0) | (significant <= point + 1)] = -1
    point += 1
    count = np.maximum(significant, np.where(exponential | below_one, 1, x + 1))

    words = np.empty((values.size, ROW_BYTES // 8), _WORD)
    # Python writes every NaN without a sign
    negative = np.signbit(values) & (values == values)
    words[:, 0] = prefixes[5 * negative + np.where(below_one, -x, 0)] | tops[top] | points[0][point]
    for k, g in enumerate((g1, g2, g3, g4), 1):
        words[:, k] = groups[g] & shown[k - 1][count] | points[k][point]
    words[:, 5] = _exponents(sep)[np.where(exponential, x - _X_MIN, -1)]
    rows = words.view(np.uint8)
    for i, text in letters:
        rows[i, [6, 8, 10]] = np.frombuffer(text.encode(), np.uint8)
    return rows


def rows_text(rows: np.ndarray) -> str:
    """The text of :func:`format_rows` rows: their characters in order, NULs dropped."""
    return rows.tobytes().translate(None, b"\0").decode("ascii")
