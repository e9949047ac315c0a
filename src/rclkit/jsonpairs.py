"""The ``[re, im]`` pair text of the CLI's JSON files, written and read.

A matrix is one ``(rows, cols, 2)`` float array of pairs, a stack of them (a
series' or a parameter's ``"coeffs"``) one ``(k, rows, cols, 2)`` array.
:func:`pairs_text` writes every such array as ``%.16e`` text, an empty one
from its shape alone. :class:`PairsDecoder` reads a document with each long
array that :func:`read_pairs` proves as a float array, and every other
value as the standard decoder gives it, so what a file means, and every
diagnostic, is the standard decoder's. Each direction is a vectorized pass
over about a thousand pairs at a time, with no Python float per entry, on
one exact table of powers of ten (:func:`_pow10_rows`) and one TwoProduct
(:func:`_two_product`), and hands each value its double-double product does
not prove to ``%.16e`` or ``float`` itself: every value keeps Python's text
and ``json``'s bits.
"""

from __future__ import annotations

import functools
import json
import math
import re
from json.scanner import py_make_scanner

import numpy as np

#: 2^27 + 1, the Veltkamp splitting factor of a double.
_SPLIT = 134217729.0


def _pow10_rows(exponents) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, scale)``: for the ``i``-th exponent ``q``, ``10^q = (hi +
    lo) 2^scale[i]`` to ``u^2 hi`` (``u = 2^-53``), row ``i`` being ``(hi,
    hi_head, hi_tail, lo)``: ``hi`` correctly rounded, in ``[1, 2]``, and
    split in halves, ``lo`` the remainder correctly rounded."""
    rows = np.empty((len(exponents), 4))
    scale = np.empty(len(exponents), dtype=np.int64)
    for row, q in enumerate(exponents):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        # 2^e <= 10^q < 2^(e + 1), as no 10^k with k > 0 is a power of two
        e = num.bit_length() - 1 if q >= 0 else -den.bit_length()
        num, den = num << max(-e, 0), den << max(e, 0)
        hi = num / den                           # int division rounds correctly
        a, b = hi.as_integer_ratio()
        head = _SPLIT * hi - (_SPLIT * hi - hi)
        rows[row] = hi, head, hi - head, (num * b - a * den) / (den * b)
        scale[row] = e
    return rows, scale


def _two_product(a: np.ndarray, hi: np.ndarray, head: np.ndarray, tail: np.ndarray):
    """``(p, err)``: ``p = fl(a hi)`` and ``a hi - p`` exactly, by Dekker's
    product on Veltkamp's split of ``a`` and the split ``head + tail`` of
    ``hi``, in the one order of terms both directions' bounds assume."""
    p = a * hi
    c = _SPLIT * a
    a_head = c - (c - a)
    a_tail = a - a_head
    return p, (((a_head * head - p) + a_head * tail) + a_tail * head) + a_tail * tail


# ---------------------------------------------------------------------------
# Writing: an array of pairs is formatted as %.16e text. For 1e-99 <= |x| <
# 1e99 and E = floor(log10 |x|), the 17 significant digits of x are the
# integer D nearest to V = |x| 10^(16 - E). Formed as a double-double, x
# 10^(16 - E) is p + t with |p + t - V| < 2^-46 (V < 2^57). So D = p +
# round(t) is exact whenever floor(p + t) >= 10^16 (E was not one too
# large), D < 10^17 (nor one too small, and no carry into an 18th digit) and
# the fractional part of t is farther than 2^-40 from 1/2: V then lies on
# the same side of the half-integer as p + t, and exact ties, which "%.16e"
# rounds to even, always fall inside that window. Zeros are exact with D = 0
# and E = 0. Every other entry, and every one that fails a guard, is
# formatted by "%.16e" itself, so each printed value is Python's.

#: Pairs formatted per piece of text: the working arrays stay small.
_CHUNK_PAIRS = 1024
#: Width of a float's field: "-d.dddddddddddddddde-ddd" at most.
_FIELD = 24
#: Decimal exponents of the fast path, indexed from 0 as ``E + 99``.
_EXPONENTS = range(-99, 99)
#: Bound on ``|t - round(t)|`` for exact digits: 2^6 times the error bound
#: away from 1/2, so only values within 2^-40 of a tie fall back.
_HALF_WINDOW = 0.5 - 2.0 ** -40


@functools.cache
def _format_tables():
    """``(pow10, exponent_text, digits, digit_scales)`` of the fast path,
    built on first use. Row ``E + 99`` of ``pow10`` is the row of ``10^(16 -
    E)`` of :func:`_pow10_rows` times its power of two, an exact scaling.
    Entry ``E + 99`` of ``exponent_text`` is the 4 bytes ``e±dd`` as a
    ``uint32``, and ``digits[k]`` the 4 bytes of ``"%04d" % k``."""
    rows, scale = _pow10_rows([16 - e for e in _EXPONENTS])
    pow10 = np.ldexp(rows, scale[:, None])
    exponent = np.frombuffer("".join(f"e{e:+03d}" for e in _EXPONENTS).encode(), dtype=np.uint32)
    two = np.frombuffer("".join(f"{k:02d}" for k in range(100)).encode(), dtype=np.uint16)
    four = np.empty((100, 100, 2), dtype=np.uint16)     # "%04d" % (100 i + j) is two[i] two[j]
    four[..., 0], four[..., 1] = two[:, None], two
    digits = four.view(np.uint32).ravel()
    return pow10, exponent, digits, np.array([10 ** 12, 10 ** 8, 10 ** 4, 1], dtype=np.int64)


def _format_floats(values: np.ndarray, fields: np.ndarray) -> None:
    """Write ``"%.16e" % x`` for each finite ``x`` in ``values`` into the
    NUL-filled ``_FIELD``-byte rows of ``fields``. Each row starts 1 byte
    past a multiple of 4, so that its columns ``3:19`` (the digits after
    the point) and ``19:23`` (``e±dd``) are 4-byte aligned."""
    pow10, exponent, digits, scales = _format_tables()
    mag = np.abs(values)
    fast = (mag >= 1e-99) & (mag < 1e99)
    # a wrong E from a clipped index or a rounded log10 fails the guards
    k = np.floor(np.log10(np.where(fast, mag, 1.0))).astype(np.intp) + 99
    hi, head, tail, lo = pow10.take(k, axis=0, mode="clip").T
    a = mag * fast
    p, err = _two_product(a, hi, head, tail)
    t = err + a * lo                       # a 10^(16 - E) = p + t
    r = np.floor(t + 0.5)
    frac = t - r                           # in [-1/2, 1/2)
    D = p.astype(np.int64) + r.astype(np.int64)
    exact = (np.abs(frac) < _HALF_WINDOW) & (D - (frac < 0) >= 10 ** 16) & (D < 10 ** 17)
    lead, rest = np.divmod(D, 10 ** 16)
    fields[:, 0] = np.signbit(values) * ord("-")
    fields[:, 1] = lead + ord("0")
    fields[:, 2] = ord(".")
    fields[:, 3:19].view(np.uint32)[:] = digits[rest[:, None] // scales % 10000]
    fields[:, 19:23].view(np.uint32)[:, 0] = exponent.take(k, mode="clip")
    slow = np.flatnonzero(~exact & (mag != 0))
    if slow.size:
        text = b"".join(("%.16e" % x).encode().ljust(_FIELD, b"\0") for x in values[slow].tolist())
        fields[slow] = np.frombuffer(text, dtype=np.uint8).reshape(-1, _FIELD)


@functools.cache
def _record(depth: int) -> tuple[int, bytes]:
    """``(offset, template)`` of the record of one pair of an array with
    ``depth`` axes before the pair axis: two slots of equal width, one per
    float, each with the float's field at ``offset``. The re slot opens
    with ", ", room for ``depth`` openers and the pair's "["; the im slot
    with ", ", and ends in "]" and room for ``depth`` closers. ``offset``
    is 1 past a multiple of 4 and the slot width a multiple of 4, so the
    digits of every field are 4-byte aligned."""
    offset = (depth + 5) // 4 * 4 + 1
    slot = (offset + _FIELD + 1 + depth + 3) // 4 * 4
    re_slot = b", " + bytes(depth) + b"[" + bytes(offset - depth - 3)
    im_slot = b", " + bytes(offset - 2 + _FIELD) + b"]"
    return offset, re_slot.ljust(slot, b"\0") + im_slot.ljust(slot, b"\0")


def pairs_text(pairs: np.ndarray):
    """The JSON text of a ``(..., rows, cols, 2)`` array of finite pairs, in
    pieces of at most ``_CHUNK_PAIRS`` pairs each.

    Each pair is laid out as a fixed-width NUL-padded record (see
    :func:`_record`), with its two floats written by
    :func:`_format_floats` and its openers and closers in their places;
    dropping the NULs leaves the text. An empty array is one piece, joined
    level by level from its shape: a text too long to exist fails at once,
    as a ``MemoryError``, and not after one piece per list."""
    shape = pairs.shape[:-1]
    if not pairs.size:
        text = "[]"
        for k in reversed(shape[:shape.index(0)]):
            try:
                text = f"[{', '.join([text] * k)}]"
            except MemoryError as exc:
                raise MemoryError(f"Unable to allocate the text of {k} empty lists") from exc
        yield text
        return
    depth = len(shape)
    offset, template = _record(depth)
    slot = len(template) // 2
    # the entry i of the flattened pairs opens a list of axis j when
    # spans[j], the entry count of such a list, divides i, and closes one
    # when it divides i + 1
    spans = [math.prod(shape[j:]) for j in range(depth)]
    values = np.ascontiguousarray(pairs, dtype=np.float64).reshape(-1)
    total = values.size // 2
    for start in range(0, total, _CHUNK_PAIRS):
        n = min(_CHUNK_PAIRS, total - start)
        rec = np.empty((n, 2, slot), dtype=np.uint8)
        rec[:] = np.frombuffer(template, dtype=np.uint8).reshape(2, slot)
        for j, span in enumerate(spans):
            rec[-start % span::span, 0, 2 + j] = ord("[")
            rec[(-start - 1) % span::span, 1, offset + _FIELD + 1 + j] = ord("]")
        if not start:
            rec[0, 0, 0:2] = 0
        flat = rec.reshape(2 * n, slot)
        _format_floats(values[2 * start:2 * (start + n)], flat[:, offset:offset + _FIELD])
        yield str(flat[flat != 0], "ascii")      # decoded from the array's buffer, no bytes copy


# ---------------------------------------------------------------------------
# Reading: a matrix or a stack of matrices is read from its text a piece of
# about a thousand pairs at a time, with no Python float per entry. Its
# shape is taken from its first row and its first matrix. At each comma that
# shape closes m lists, and the 8 bytes around the comma must read "]" m
# times, the comma, at most one space and "[" m times; byte comparisons find
# the commas. So every list holds lists one level down or, innermost, two
# numbers, and all lists of one level are of one length. The tokens fill the
# text between: their digits, points, exponent marks and signs must add up
# to their total length, each point and exponent mark lies alone in its
# token, a sign only at its start or after the mark, and each token is a
# JSON float: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? with a fraction
# or an exponent. Any other array (integers, NaN, empty lists, ragged rows,
# other whitespace, a non-ASCII byte) is not read here.
#
# A token's value is V = D 10^q with D its significand digits as an integer.
# With at most 18 digits, D < 10^18 is read by 64-bit word arithmetic: the 8
# bytes that end a run of digits, those before the run set to "0", give
# their value in a few multiplications and shifts. With 10^q = (hi + lo + e)
# 2^s as in _pow10_rows (|e| <= u^2 hi, u = 2^-53), a = fl(D) and b = D - a
# exact, D 10^q 2^-s is formed as p + t: p = fl(a hi) and its error exactly
# (_two_product), plus fl(a lo) + fl(b hi). Then |p + t - V 2^-s| < 9 u^2 V
# 2^-s < 2^-101 r for r = fl(p + t), and d = (p - r) + t is formed with a
# relative error below u. When |d| <= g - 2^-96 r, g half the gap below r
# (the smaller of its two gaps), r is closer to V 2^-s than half of either
# gap: r is V 2^-s correctly rounded, and r 2^s is V correctly rounded while
# it is a normal double. Exact ties never pass. Each token that fails a
# guard (more digits, an exponent out of range, a tie or a near tie, a
# result too small or too large) is converted by float() itself, as json
# converts it. So every value has the bits json gives it.

#: Characters of text read per piece: about 1024 pairs, as the encoder
#: formats per piece; up to twice as many in an array of more than 32 such
#: pieces, for fewer numpy calls per pair while the working arrays stay a
#: small part of the text's size.
_PIECE_CHARS = 48 * 1024
#: Characters kept before each piece (spaces at the start of the text), so
#: that the 8-byte words that end a token's runs of digits lie in the buffer.
_PAD = " " * 24
#: Decimal exponents ``q`` of the fast path.
_Q_MIN, _Q_MAX = -325, 308
#: Bound on ``|d|``, relative to ``r``, under half the gap below ``r``.
_GUARD = 2.0 ** -96
#: 0x30 in every byte: the ASCII "0" of each digit in a word.
_ZEROS = np.uint64(0x3030303030303030)


@functools.cache
def _parse_tables():
    """``(pow10, scale, keep, fill, pow10_int, gap_mask, gap_expect)`` of
    the pass, built on first use: row ``q - _Q_MIN`` of ``pow10, scale``
    from :func:`_pow10_rows`, and :func:`_gap_patterns`. ``keep[k]`` keeps
    the last ``k`` bytes of a word and ``fill[k]`` sets the others to "0";
    ``pow10_int[k]`` is ``10^k``."""
    keep = np.array([0] + [(1 << 64) - (1 << 8 * (8 - k)) for k in range(1, 9)], dtype=np.uint64)
    return (*_pow10_rows(range(_Q_MIN, _Q_MAX + 1)), keep, ~keep & _ZEROS, 10 ** np.arange(19, dtype=np.uint64),
            *_gap_patterns())


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """In place, the value of each word of 8 ASCII digits, the first in the
    low byte."""
    words -= _ZEROS
    pairs = words >> np.uint64(8)
    words *= np.uint64(10)
    words += pairs
    mask = np.uint64(0x000000FF000000FF)
    np.right_shift(words, np.uint64(16), out=pairs)
    pairs &= mask
    pairs *= np.uint64(1 + (10000 << 32))
    words &= mask
    words *= np.uint64(100 + (1000000 << 32))
    words += pairs
    words >>= np.uint64(32)
    return words


def _one_per_token(found: np.ndarray, start: np.ndarray, stop: np.ndarray, default: np.ndarray):
    """Per token ``[start, stop)``, the position among ``found`` (each in
    some token) that lies in it, else ``default``; None if one holds two."""
    if found.size == start.size and (found >= start).all() and (found < stop).all():
        return found
    owner = np.searchsorted(start, found, "right") - 1
    if (np.diff(owner) == 0).any():
        return None
    out = default.copy()
    out[owner] = found
    return out


def _gap_patterns():
    """``(mask, expect)`` of the 8 bytes from 3 before a comma that closes
    and opens ``m`` lists: "]" ``m`` times, the comma, a space or not, and
    "[" ``m`` times; indexed by ``2 m + space``, NUL where any byte may be."""
    texts = ["".join(("\0" * (3 - m), "]" * m, ",", " " * space, "[" * m)).ljust(8, "\0")
             for m in range(4) for space in (0, 1)]
    expect = np.frombuffer("".join(texts).encode(), dtype="<u8")
    return np.frombuffer(bytes(0xFF * (c != "\0") for c in "".join(texts)), dtype="<u8"), expect


def _scan_piece(s: str, lo: int, hi: int, first: bool, cut: int | None, depth: int, period: np.ndarray,
                count: int):
    """The values of the tokens of one piece ``s[lo:hi]`` of an array of
    ``depth`` levels, ``count`` tokens of it before the piece, in which
    ``period[i % period.size]`` lists close after token ``i``. The piece
    starts at the array's "[" if ``first``, else at a token, and ends after
    the comma at offset ``cut`` (and a look at the bytes after it) or, if
    ``cut`` is None, at the array's closing brackets. Returns ``(values,
    next_start)``, ``next_start`` the offset of the token after the last
    comma, which the values stop before; or None if the pass cannot prove
    the piece. Each stage is a function of its own, so that its working
    arrays are gone before the next one's exist."""
    pad = len(_PAD)
    # the piece and the 24 characters before it, or spaces, in one byte each
    buf = np.frombuffer((_PAD[:max(pad - lo, 0)] + s[max(lo - pad, 0):hi]).encode("ascii", "replace"),
                        dtype=np.uint8)
    if first and not s.startswith("[" * depth, lo) or cut is None and not s.endswith("]" * depth, lo, hi):
        return None
    bounds = _token_bounds(buf, hi - lo, cut, first, depth, period, count)
    parts = None if bounds is None else _significands(buf, *bounds)
    if parts is None:
        return None
    values, exact = _round(*parts)
    start, stop, next_start = bounds
    slow = np.flatnonzero(~exact)
    if slow.size:
        values[slow] = [float(s[lo + i - pad:lo + j - pad]) for i, j in zip(start[slow].tolist(), stop[slow].tolist())]
    return values, next_start


def _token_bounds(buf: np.ndarray, length: int, cut: int | None, first: bool, depth: int, period: np.ndarray,
                  count: int):
    """``(start, stop, next_start)`` of the piece of ``length`` bytes after
    ``len(_PAD)`` in ``buf`` (see :func:`_scan_piece`): where its tokens
    start and stop in ``buf``, and the offset of the next piece; None if the
    bytes around a comma do not close and open the lists the shape has
    there."""
    *_, gap_mask, gap_expect = _parse_tables()
    pad = len(_PAD)
    commas = np.flatnonzero(buf[pad:pad + (length if cut is None else cut + 1)] == ord(",")) + pad
    # the lists that close at each comma, as the shape has them; the bytes
    # around it must be "]" that many times, the comma, a space or not, and
    # "[" as often
    closes = period.take(np.arange(count, count + commas.size), mode="wrap")
    near = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))[commas - 3]
    space = (near >> np.uint64(32)) & np.uint64(0xFF) == ord(" ")
    pattern = 2 * closes + space
    if ((near & gap_mask.take(pattern)) != gap_expect.take(pattern)).any():
        return None
    start = np.empty(commas.size + 1, dtype=np.intp)
    start[0] = pad + depth * first
    start[1:] = commas + 1 + space + closes
    stop = np.empty_like(start)
    stop[:-1] = commas - closes
    stop[-1] = pad + length - depth
    if cut is None:
        return start, stop, length
    return start[:-1], stop[:-1], int(start[-1]) - pad      # the token after the last comma opens the next piece


def _significands(buf: np.ndarray, start: np.ndarray, stop: np.ndarray, length: int):
    """``(sig, q, fast, negative)`` of the tokens ``[start, stop)`` of
    ``buf``, which fill its ``length`` bytes after ``len(_PAD)`` but for
    the gaps at the commas: each token is ``-sig 10^q`` if ``negative``,
    else ``sig 10^q``, read exactly where ``fast``. None if a token is not
    a JSON float."""
    keep, fill, pow10_int = _parse_tables()[2:5]
    pad = len(_PAD)
    # every byte of a token is a digit, or a point, exponent mark or sign
    # in its place below
    region = buf[pad:pad + length]
    dots = np.count_nonzero(region == ord("."))
    exps = np.count_nonzero(region | 0x20 == ord("e"))
    signs = np.count_nonzero(region == ord("-")) + np.count_nonzero(region == ord("+"))
    digits = np.count_nonzero(region - ord("0") < 10)
    if (stop <= start).any() or digits + dots + exps + signs != (stop - start).sum():
        return None
    negative = buf.take(start) == ord("-")
    lead = start + negative
    lead_byte = buf.take(lead)
    # the point right after a one-digit integer part, where Python's repr
    # and %.16e put it in most floats, else each found where it is
    dot = lead + 1
    if dots != start.size or (buf.take(dot) != ord(".")).any():
        dot = _one_per_token(np.flatnonzero(region == ord(".")) + pad, start, stop, np.full(start.size, -1))
    exp = stop
    if exps:
        exp = _one_per_token(np.flatnonzero(region | 0x20 == ord("e")) + pad, start, stop, stop)
    if dot is None or exp is None:
        return None
    exp_sign = buf.take(exp + 1)
    has_dot, has_exp = dot >= 0, exp < stop
    exp_negative = has_exp & (exp_sign == ord("-"))
    exp_signed = exp_negative | has_exp & (exp_sign == ord("+"))
    int_end = np.where(has_dot, dot, exp)
    int_len = int_end - lead
    frac_len = np.where(has_dot, exp - dot - 1, 0)
    exp_len = np.where(has_exp, stop - exp - 1 - exp_signed, 0)
    zero_lead = lead_byte == ord("0")
    if (signs != np.count_nonzero(negative) + np.count_nonzero(exp_signed)
            or ((int_len < 1) | (frac_len < has_dot) | (exp_len < has_exp) | (zero_lead & (int_len > 1))
                | ~(has_dot | has_exp)).any()):
        return None

    # the digits from 8-byte words, each run right-aligned: three words of
    # fraction digits and the exponent digits, and the integer digits
    # unless every integer part is one digit
    fast = (int_len <= 8) & (int_len + frac_len - zero_lead <= 18) & (exp_len <= 8)
    one_digit = (int_len == 1).all()
    ends = np.array([exp, exp, exp, stop] + [int_end] * (not one_digit), dtype=np.int32)
    ends -= np.array([24, 16, 8, 8, 8][:len(ends)], dtype=np.int32)[:, None]
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,)).take(ends)
    del ends
    lengths = np.array([frac_len, frac_len, frac_len, exp_len] + [int_len] * (not one_digit), dtype=np.int16)
    lengths -= np.array([16, 8, 0, 0, 0][:len(lengths)], dtype=np.int16)[:, None]
    np.minimum(np.maximum(lengths, 0, out=lengths), 8, out=lengths)
    words &= keep.take(lengths)
    words |= fill.take(lengths)
    del lengths
    frac_high, frac_mid, frac_low, exp_digits, *ints = _eight_digits(words)
    ints = ints[0] if ints else (lead_byte - ord("0")).astype(np.uint64)
    e8 = np.uint64(10 ** 8)
    sig = ints * pow10_int.take(np.minimum(frac_len, 18)) + (frac_high * e8 + frac_mid) * e8 + frac_low
    q = exp_digits.view(np.int64)
    return sig.view(np.int64), np.where(exp_negative, -q, q) - frac_len, fast, negative


def _round(sig: np.ndarray, q: np.ndarray, fast: np.ndarray, negative: np.ndarray):
    """``(values, exact)``: ``sig 10^q``, negated where ``negative``, as
    doubles, each the correctly rounded value where ``exact``, and 0
    elsewhere."""
    pow10, scale = _parse_tables()[:2]
    row = q - _Q_MIN
    fast &= (row >= 0) & (row < len(pow10))
    ten_hi, ten_head, ten_tail, ten_lo = pow10.take(row, axis=0, mode="clip").T
    e2 = scale.take(row, mode="clip")
    fast &= (e2 >= -1022) & (e2 <= 962)            # r in [1, 2^61): r 2^s is normal
    sig = np.where(fast, sig, 1)
    # D 10^q 2^-s = p + t, and r = fl(p + t) where the guard proves it
    a = sig.astype(np.float64)
    b = (sig - a.astype(np.int64)).astype(np.float64)
    p, err = _two_product(a, ten_hi, ten_head, ten_tail)
    t = err + (a * ten_lo + b * ten_hi)
    r = p + t
    bits = r.view(np.int64)
    # half the gap below r >= 1: 2^(E - 53), or 2^(E - 54) at a power of two
    half_gap = (((bits >> 52) - 53 - (bits & ((1 << 52) - 1) == 0)) << 52).view(np.float64)
    exact = fast & ((np.abs((p - r) + t) <= half_gap - _GUARD * r) | (sig == 0))
    # 2^s as a double, with the token's sign
    power = ((np.where(exact, e2, 0) + 1023) << 52 | negative.astype(np.int64) << 63).view(np.float64)
    return np.where(exact, r, 0.0) * power, exact


def read_pairs(s: str, start: int, end: int, depth: int):
    """The array of ``depth`` levels (3 or 4) at ``s[start:end]`` read by
    :func:`_scan_piece`, piece by piece: a ``(rows, cols, 2)`` float array
    (``depth`` 3) or, for a stack, one ``(k, rows, cols, 2)`` array, as
    :func:`pairs_text` writes it (``depth`` 4); or None if the pass cannot
    prove it. Its shape is taken from its first row and matrix, and
    every comma must then close the lists that shape closes there."""
    count = s.count(",", start, end) + 1
    first_row = s.count(",", start, s.find("]]", start, end)) + 1
    first_matrix = s.count(",", start, s.find("]]]", start, end)) + 1
    spans = (2, first_row, first_matrix)[:depth - 1]
    shape = (count,) + spans[::-1]
    if any(outer % inner or inner < 2 for outer, inner in zip(shape, shape[1:])):
        return None
    period = np.zeros(spans[-1], dtype=np.int8)
    for span in spans:
        period[span - 1::span] += 1
    values = np.empty(count)
    piece_chars = min(max(_PIECE_CHARS, (end - start) // 32), 2 * _PIECE_CHARS)
    n, pos, first = 0, start, True
    while True:
        cut = s.find(",", pos + piece_chars, end)
        piece = _scan_piece(s, pos, end if cut < 0 else cut + depth + 2, first, None if cut < 0 else cut - pos,
                            depth, period, n)
        if piece is None or n + piece[0].size > count:
            return None
        values[n:n + piece[0].size] = piece[0]
        n += piece[0].size
        if cut < 0:
            break
        pos, first = pos + piece[1], False
    if n != count:
        return None
    return values.reshape([outer // inner for outer, inner in zip(shape, shape[1:])] + [2])


# ---------------------------------------------------------------------------
# Reading documents: each long matrix of floats arrives as a float array.

_C_DECODER = json.JSONDecoder()
#: The opening of a matrix (three brackets) or of a stack of matrices
#: (four) whose first entry is a number.
_OPENING = re.compile(r"\[[ \t\n\r]*\[[ \t\n\r]*\[[ \t\n\r]*(\[[ \t\n\r]*)?[-0-9]")
#: A shorter array goes to the standard decoder: the fixed cost of the
#: pass's hundred or so numpy calls would exceed what it saves there.
_MIN_CHARS = 20000


def _parse_array(s_and_end, scan_once):
    """An array that is a value of an object (or the whole document): a
    long matrix or stack of matrices that :func:`read_pairs` proves as its
    float array, any other array as the standard decoder gives it."""
    s, end = s_and_end
    start = end - 1
    opening = _OPENING.match(s, start)
    if opening:
        depth = 4 if opening.group(1) else 3
        end = s.find("]" * depth, start) + depth       # the end of a regular array
        value = read_pairs(s, start, end, depth) if end - start >= _MIN_CHARS else None
        if value is not None:
            return value, end
    return _C_DECODER.raw_decode(s, start)


class PairsDecoder(json.JSONDecoder):
    """``json`` decoding in which each long matrix, and each long stack of
    matrices, that :func:`read_pairs` proves arrives as one float array of
    pairs, ``(rows, cols, 2)`` or ``(k, rows, cols, 2)``. Such an array is
    only ever the value of an object key (or the whole document): an array
    inside an array is the standard decoder's. A document it cannot decode
    goes to the standard decoder, whose diagnostic is reported."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.parse_array = _parse_array
        self.scan_once = py_make_scanner(self)

    def decode(self, s, *args):
        try:
            return super().decode(s, *args)
        except (ValueError, RecursionError):
            return _C_DECODER.decode(s)


def as_lists(obj):
    """``obj`` with every matrix or stack decoded to a float array back as
    nested lists, as the standard decoder gives it; no decoded list holds
    such an array."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    return obj
