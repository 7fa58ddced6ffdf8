"""The numpy block formatter behind csvio.format_rows: "%.17g" of a block of floats, byte for byte.

csvio imports this module on the first block that needs it, so its tables
(0.26 MB) are built then, not when the package is imported. Why the text
is exact, and when "%" still formats a value, is in csvio's docstring.

"%.17g" of a finite v != 0 follows from the decimal exponent
k = floor(log10|v|) and the 17-digit integer D, which is |v| * 10**(16 - k)
rounded half to even (D = 10**17 prints as 10**16 at k + 1). Each value is
laid out in six 8-byte words:
- "-0.000" and the first digit, then a "." slot;
- four groups of four digits, each digit followed by a "." slot;
- "e", the exponent's sign and two digits, the separator, three zero bytes.
A keep-mask per (sign, form, digits kept) zeroes the bytes that %g leaves
out, and deleting the zero bytes gives the text. Forms 0..20 are fixed
point at k = form - 4, form 21 is the exponent form and form 22 keeps the
separator alone, for the values "%" formats.
"""

from __future__ import annotations

import numpy as np

from .clarke import _readonly

_PASS_VALUES = 2048  # values per numpy pass: bounds the working set
_SPLIT = 2.0**27 + 1.0  # Veltkamp's constant: splits a double into two 26-bit halves
_E_MIN, _E_MAX = 1023 - 328, 1023 + 327  # biased exponents of 2**-328 <= |v| < 2**328, where -99 <= k <= 98
_K = np.arange(-99, 100)  # the decimal exponents the tables hold; k + 99 (+ 199 if v < 0) indexes them
_FORMS, _EXP_FORM = 23, 21
_EXP_WORDS = 10 + 10_000  # the first exponent-and-separator word, after 10 first words and 10**4 groups
_LAST = (np.arange(4) * 10_000 - 10)[:, None]  # digit group i's word index + _LAST[i] indexes _LAST_DIGIT


def format_block(rows: np.ndarray) -> str:
    """format_rows's text of a 2-D float array, _PASS_VALUES values at a time."""
    values, width = rows.ravel(), rows.shape[1]
    # The index of each value's exponent-and-separator word past 2k: its separator is "\n" at a row's end.
    ends = (np.arange(_PASS_VALUES + width) % width == width - 1) + _EXP_WORDS
    passes = range(0, values.size, _PASS_VALUES)
    return "".join(_pass_text(values[i : i + _PASS_VALUES], ends[i % width :]) for i in passes)


def _pow10(e: int) -> tuple[float, float]:
    """10**e as hi + lo: hi correctly rounded, lo the rest correctly rounded."""
    if e >= 0:
        hi = float(10**e)
        return hi, float(10**e - int(hi))
    hi = 1 / 10**-e
    num, den = hi.as_integer_ratio()
    return hi, (den - num * 10**-e) / (den * 10**-e)


def _exponent_tables() -> tuple[np.ndarray, ...]:
    """Per sign and biased exponent (v's top 12 bits): in the fast range; the
    index of floor(log10(2**(E - 1023))), or of k = 0; the smallest double
    >= 10**(k + 1) for that index, or inf. Per index: 10**(16 - k) as a
    double-double hi + lo, and hi's two halves."""
    biased = np.arange(2048)
    fast = (biased >= _E_MIN) & (biased <= _E_MAX)
    # floor(b * log10(2)) is exact: no b * log10(2) with 0 < |b| <= 1074 lies
    # within 4e-4 of an integer. Zero and the values "%" formats take k = 0.
    k0 = np.where(fast, np.floor((biased - 1023) * np.log10(2.0)), 0).astype(np.intp) + 99
    hi, lo = np.array([_pow10(e) for e in range(-98, 116)]).T  # 10**e for e in -98..115
    at_least = np.where(lo > 0, np.nextafter(hi, np.inf), hi)  # the smallest double >= 10**e
    up = np.where(fast, at_least[k0], np.inf)  # k0 = k + 99 indexes 10**(k + 1)
    hi, lo = hi[16 - _K + 98], lo[16 - _K + 98]
    high = hi * _SPLIT - (hi * _SPLIT - hi)
    return np.tile(fast, 2), np.concatenate([k0, k0 + 199]), np.tile(up, 2), np.tile([hi, lo, high, hi - high], 2)


def _word_tables() -> tuple[np.ndarray, np.ndarray]:
    """The words: 10 first words by digit, 10**4 group words by group, then
    exponent words by 2 * index + end. Per group position and group: the
    digits of D through its last nonzero one."""
    words = np.empty(_EXP_WORDS + 4 * _K.size, np.uint64)
    words[:10] = int.from_bytes(b"-0.0000.", "little") + (np.arange(10, dtype=np.uint64) << np.uint64(48))
    group = np.arange(10_000)
    words[10:_EXP_WORDS] = int.from_bytes(b"0." * 4, "little")
    for i, place in enumerate((1000, 100, 10, 1)):
        words[10:_EXP_WORDS] += (group // place % 10).astype(np.uint64) << np.uint64(16 * i)
    e = np.abs(_K)
    exp_words = ord("e") + ((43 + 2 * (_K < 0)) << 8) + ((48 + e // 10) << 16) + ((48 + e % 10) << 24)
    words[_EXP_WORDS:] = np.tile(exp_words[:, None] + (np.array([ord(","), ord("\n")]) << 32), (2, 1)).ravel()
    zeros = (group % 10 == 0).astype(np.intp) + (group % 100 == 0) + (group % 1000 == 0)
    through = np.where(group == 0, -16, 5 - zeros)  # the digits of D through group 0's last nonzero one
    last = np.empty((4, 10_000), np.uint8)
    for i in range(4):
        last[i] = np.maximum(through + 4 * i, 0)
    last[0, 0] = 1  # D = 0 prints its first digit
    return words, last.ravel()


def _mask_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per index: its mask index with no digit kept. Per mask index (that
    plus the digits kept): the keep-mask of the six words and the bytes it keeps."""
    form = np.where((_K >= -4) & (_K <= 16), _K + 4, _EXP_FORM)
    form = np.concatenate([form, form + _FORMS]) * 18
    sign, f, kept, byte = np.ix_(np.arange(2), np.arange(_FORMS), np.arange(18), np.arange(48))
    k = f - 4
    fixed, exp_form, shown = f < _EXP_FORM, f == _EXP_FORM, f <= _EXP_FORM
    n_digits = np.where(fixed & (k >= 0), np.maximum(kept, k + 1), kept)
    digit = (byte >= 6) & (byte < 40) & (byte % 2 == 0) & ((byte - 6) // 2 < n_digits) & shown
    dot = (fixed & (k >= 0) & (kept > k + 1) & (byte == 7 + 2 * k)) | (exp_form & (kept > 1) & (byte == 7))
    prefix = fixed & (k < 0) & (byte >= 1) & (byte < 2 - k)  # "0." and -k - 1 zeros
    keep = digit | dot | prefix | ((byte == 0) & (sign == 1) & shown) | (exp_form & (byte >= 40) & (byte < 44))
    keep = (keep | (byte == 44)).reshape(-1, 48)
    return form, (keep * np.uint8(255)).view(np.uint64), keep.sum(axis=1)


# Each builder's temporaries go when it returns; the tables are read-only.
_OK, _K0, _UP, _SCALE = _exponent_tables()
_WORDS, _LAST_DIGIT = _word_tables()
_FORM, _MASKS, _LENGTHS = _mask_tables()
for _table in (_OK, _K0, _UP, _SCALE, _WORDS, _LAST_DIGIT, _FORM, _MASKS, _LENGTHS):
    _readonly(_table)


def _pass_text(x: np.ndarray, ends: np.ndarray) -> str:
    """The text of the values x; ends[i] is _EXP_WORDS, plus 1 where a row ends.

    The values _digits cannot vouch for take the separator-only form, and
    their "%" text goes in front of that separator.
    """
    k, word_index, fallback = _digits(x, ends)
    words = _WORDS[word_index.T]
    index = _FORM.take(k)
    index += _LAST_DIGIT.take(word_index[1:5] + _LAST).max(axis=0)
    del word_index
    where = np.flatnonzero(fallback)
    index[where] = (_FORMS - 1) * 18
    words &= _MASKS.take(index, axis=0)
    text = words.tobytes().translate(None, b"\0").decode("ascii")
    if not where.size:
        return text
    starts = np.cumsum(_LENGTHS.take(index))[where] - 1
    pieces, start = [], 0
    for i, end in zip(where.tolist(), starts.tolist()):
        pieces += [text[start:end], "%.17g" % x[i]]
        start = end
    return "".join(pieces) + text[start:]


def _digits(x: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's table index, the (6, n) indexes of its six words, and the values "%" formats."""
    a = np.abs(x)
    bits = x.view(np.int64) >> 52  # sign and biased exponent; negative for v < 0: the tables' second half
    ok = _OK.take(bits)
    slow = None
    if not ok.all():
        slow = ~ok & (a != 0.0)  # zero takes k = 0
        a[slow] = 1.0
        bits[slow] = 1023
    k = _K0.take(bits)
    k += a >= _UP.take(bits)  # k = floor(log10|v|), exactly: a binade holds at most one power of ten
    p, r = _scaled(a, k)
    rounded = np.rint(r)
    r -= rounded
    fallback = np.abs(r) > 0.5 - 1e-9
    if slow is not None:
        fallback |= slow
    d = p.astype(np.int64)
    d += rounded.astype(np.int64)
    # Word indexes: row 0 by D's first digit, rows 1..4 by its four-digit groups, row 5 by k and separator.
    groups = np.empty((6, x.size), np.int64)
    np.floor_divide(d, 10**8, out=groups[1])
    np.multiply(groups[1], -(10**8), out=groups[3])
    groups[3] += d
    if groups[1].max() == 10**9:  # D = 10**17 prints as 10**16 at k + 1
        up = groups[1] == 10**9
        groups[1, up] = 10**8
        k[up] += 1
    pairs = groups[1:5:2]  # D // 10**8 and D % 10**8 split into four digits and the rest
    quotient = pairs // 10**4
    np.multiply(quotient, -(10**4), out=groups[2:6:2])
    groups[2:6:2] += pairs
    pairs[...] = quotient
    np.floor_divide(groups[1], 10**4, out=groups[0])
    groups[1] -= groups[0] * 10**4
    groups[1:5] += 10
    np.multiply(k, 2, out=groups[5])
    groups[5] += ends[: x.size]
    return k, groups, fallback


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p and r with a * 10**(16 - k) = p + r to within 1e-14, p = fl(a * hi) an integer >= 2**53 or 0."""
    scale = _SCALE.take(k, axis=1)  # hi, lo and hi's halves
    p = a * scale[0]
    halves = np.empty((2, a.size))  # a's Veltkamp halves
    np.multiply(a, _SPLIT, out=halves[0])
    halves[0] -= halves[0] - a
    np.subtract(a, halves[0], out=halves[1])
    products = np.empty((2, 2, a.size))  # Dekker: a * hi - p exactly
    for half, out in zip(halves, products):
        np.multiply(half, scale[2:], out=out)
    e = products[0, 0] - p
    e += products[0, 1]
    e += products[1, 0]
    e += products[1, 1]
    r = a * scale[1]
    r += e
    return p, r
