"""A vectorized ``%g``: ``b"%.{digits}g" % v`` for every value of a
float64 array at once, byte for byte. It knows nothing of the artifact
formats; ``cli._cells`` builds each format's cells on it.

A fast path rounds each value to its decimal digits in float arithmetic
whose error is bounded, and keeps the result only where that bound
proves the rounding; every other value goes through the C routine of
``format``. This is the scheme of the shortest-repr algorithms (Grisu3,
Loitsch 2010; Ryu, Adams 2018), a fast path that knows when it may be
wrong and an exact fallback, applied to a fixed number of digits. On
the figure grid 99.9% of the cells take the fast path at 12 digits
and 91% at 14. The tables are built when the module loads, which
``cli._cells`` triggers on the first float64 array it renders; a
command that renders none never loads this module.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

_DBL_MIN = sys.float_info.min

# the fast path covers up to FAST_DIGITS digits, where its rounding
# test still passes ~91% of the figure grid's cells; a text is at most
# _WIDTH bytes ("1.2345678901234e-308")
FAST_DIGITS = 14
_WIDTH = 20
_POW10_LOW = -330


# the fast path's tables: float("1e{k}") for k from _POW10_LOW to
# -_POW10_LOW, each correctly rounded; the four ASCII digits of each
# q < 10**4 as one little-endian word, and the index of its last nonzero
# digit (-99 for 0); and for each word of a text the mask of its bytes
# below each text length
_POW10 = np.array([float(f"1e{k}")
                   for k in range(_POW10_LOW, 1 - _POW10_LOW)])
# the digits of each q < 10**4, most significant first
_DIGITS = np.meshgrid(*[np.arange(10, dtype=np.uint8)] * 4, indexing="ij")
_ASCII = (np.stack(_DIGITS, axis=-1) + ord("0")).reshape(-1, 4).view(
    "<u4").ravel()
_LAST_NZ = np.select([digit > 0 for digit in _DIGITS[::-1]], [3, 2, 1, 0],
                     -99).ravel()
_KEEP = ((1 << 8 * np.clip(np.arange(_WIDTH + 1)
                           - 4 * np.arange(_WIDTH // 4)[:, None], 0, 4))
         - 1).astype("<u4")


def _fast_texts(values: np.ndarray,
                digits: int) -> tuple[np.ndarray, np.ndarray]:
    """The fast path of g_texts for 1 <= digits <= FAST_DIGITS: the
    ``"%.{digits}g"`` text of each value of a 1-d float64 array, and
    where that text is proven. Only values in [DBL_MIN, 1e300) are
    tried. With e = floor(log10 v), the digits are M = rint(m) for m =
    v * 10**(digits - 1 - e); the table power and the product each
    round once, so m is within 2.2e-16 * 10**digits of its exact value,
    and M is proven where m lies more than twice that from a half
    integer. The texts are laid out per exponent, after one stable
    sort, as ``%g`` does: fixed notation for -4 <= X < digits, X the
    exponent of M, else a mantissa and "e", a sign and at least two
    exponent digits; trailing zeros and a bare point are dropped."""
    n, d = values.size, digits
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tried = (values >= _DBL_MIN) & (values < 1e300)
        v = np.where(tried, values, 1.0)
        e = np.floor(np.log10(v)).astype(np.intp)
        # log10 can be one off next to a power of ten
        e -= v < _POW10[e - _POW10_LOW]
        e += v >= _POW10[e + 1 - _POW10_LOW]
        m = v * _POW10[d - 1 - e - _POW10_LOW]
        proven = tried & (np.abs(m - np.floor(m) - 0.5)
                          > 4.5e-16 * 10.0 ** d)
        mant = np.rint(m)
    # M = 10**d carries into the exponent; cells not proven get the same
    # harmless 10**(d - 1), as g_texts replaces their text
    carry = mant == 10.0 ** d
    e += carry
    mant = np.where(proven & ~carry, mant, 10.0 ** (d - 1)).astype(np.int64)
    order = np.argsort(e.astype(np.int16), kind="stable")
    exponents, mant = e[order], mant[order]
    # the d digits, right-aligned in whole words, and kept: how many
    # remain once trailing zeros are dropped
    words = -(-d // 4)
    quads = np.empty((n, words), "<u4")
    kept = np.full(n, -99)
    for j in range(words - 1, -1, -1):
        high = mant // 10_000 if j else 0
        q = mant - high * 10_000
        mant = high
        quads[:, j] = _ASCII[q]
        np.maximum(kept, _LAST_NZ[q] + (4 * j + 1 + d - 4 * words), out=kept)
    digs = quads.view(np.uint8)[:, 4 * words - d:]
    out = np.zeros((n, _WIDTH), np.uint8)
    end = np.empty(n, np.intp)
    cuts = np.flatnonzero(exponents[1:] != exponents[:-1]) + 1
    tails = []
    for a, b in itertools.pairwise([0, *cuts.tolist(), n]):
        x, k, rows = int(exponents[a]), kept[a:b], out[a:b]
        if 0 <= x < d:
            rows[:, :x + 1] = digs[a:b, :x + 1]
            rows[:, x + 1] = ord(".")
            rows[:, x + 2:d + 1] = digs[a:b, x + 1:]
            end[a:b] = np.where(k > x + 1, k + 1, x + 1)
        elif -4 <= x < 0:
            rows[:, :1 - x] = np.frombuffer(b"0.000"[:1 - x], np.uint8)
            rows[:, 1 - x:1 - x + d] = digs[a:b]
            end[a:b] = 1 - x + k
        else:
            rows[:, 0] = digs[a:b, 0]
            rows[:, 1] = ord(".")
            rows[:, 2:d + 1] = digs[a:b, 1:]
            end[a:b] = np.where(k > 1, k + 1, 1)
            tails.append((a, b, np.frombuffer(b"e%+03d" % x, np.uint8)))
    for j, word in enumerate(out.view("<u4").T):
        word &= _KEEP[j][end]
    flat = out.ravel()
    for a, b, tail in tails:
        at = np.arange(a * _WIDTH, b * _WIDTH, _WIDTH) + end[a:b]
        flat[at[:, None] + np.arange(tail.size)] = tail
    texts = np.empty(n, f"S{_WIDTH}")
    texts[order] = out.view(f"S{_WIDTH}").ravel()
    return texts, proven


def g_texts(values: np.ndarray, digits: int) -> list[bytes]:
    """``b"%.{digits}g" % v`` for each value of a float64 array. Texts
    that _fast_texts does not prove, and all of them above FAST_DIGITS
    digits, come from _c_texts: the sign bit, zeros, subnormals, inf,
    nan, values from 1e300 on and values next to a rounding tie."""
    values = values.ravel()
    if digits > FAST_DIGITS or not values.size:
        return _c_texts(values, digits)
    texts, proven = _fast_texts(values, digits)
    texts = texts.tolist()
    slow = np.flatnonzero(~proven)
    for i, text in zip(slow.tolist(), _c_texts(values[slow], digits)):
        texts[i] = text
    return texts


def _c_texts(values: np.ndarray, digits: int) -> list[bytes]:
    # the C routine of format, by one bytes % over a NUL-separated
    # template; no rendered number holds a NUL
    if not values.size:
        return []
    template = b"\0".join([f"%.{digits}g".encode()] * values.size)
    return (template % tuple(values.tolist())).split(b"\0")
