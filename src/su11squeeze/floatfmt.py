"""Shortest round-trip text of float64 arrays, as ``repr(float)`` spells it, computed in numpy.

CPython prints each double through David Gay's dtoa, a bignum search for the
shortest digit string that reads back as the same double.  Ryū (U. Adams,
"Ryū: fast float-to-string conversion", PLDI 2018) finds the same digits,
correctly rounded, from one 55 x 125-bit product per value against a table of
powers of five.  :func:`format_repr` runs Ryū's ``d2d`` over a whole array at
once and lays the digits out by CPython's rules: positional notation when
``1e-4 <= |x| < 1e16`` (``.0`` after an integral value), otherwise
``d[.ddd]e±XX`` with at least two exponent digits; zeros print as ``0.0`` and
``-0.0``.  Non-finite values take the spellings the caller passes: ``nan``,
``inf`` and ``-inf`` (:data:`CSV_NONFINITE`, the default) or ``NaN``,
``Infinity`` and ``-Infinity`` (:data:`JSON_NONFINITE`).

All integer work is uint64 with uint64 operands (int64 with int64 for the one
carry that can be negative, intp for table indices), so numpy's legacy
value-based promotion and NEP 50 give the same dtypes.  The operands are 0-d
arrays built once at import: building ``np.uint64(k)`` anew doubles the cost
of an operation on a small array.  Each value's text is built in three
little-endian 64-bit words (24 bytes), so moving text by a few bytes is a
shift of three words, not a gather per byte.  A call's fixed cost is its
number of numpy calls, so what depends only on a value's exponent field, or
only on its sign, digit count and decimal point, comes from table gathers of
several rows at once, and the three text words are worked on as one
``(3, n)`` array.
"""

from __future__ import annotations

import functools

import numpy as np

#: Bytes of text per value; ``-2.2250738585072014e-308`` is the longest repr.
WIDTH = 24

CSV_NONFINITE = ("nan", "inf", "-inf")
JSON_NONFINITE = ("NaN", "Infinity", "-Infinity")

_POW5_BITS = 125  # Ryū's DOUBLE_POW5_BITCOUNT and DOUBLE_POW5_INV_BITCOUNT
_DIGITS = 17      # a double's shortest repr has at most 17 significant digits
_EXP_BIAS = 400   # row of exponent 0 in the exponent-suffix tables


def _u64(value: int) -> np.ndarray:
    return np.array(value, dtype=np.uint64)


_U0, _U1, _U2, _U3, _U5, _U7, _U8, _U10 = map(_u64, (0, 1, 2, 3, 5, 7, 8, 10))
_U19, _U32, _U52, _U56, _U63, _U64 = map(_u64, (19, 32, 52, 56, 63, 64))
_ALL = _u64(2 ** 64 - 1)
_LOW32 = _u64(0xFFFFFFFF)
_FIELD = _u64(0x7FF)
_MANTISSA = _u64(2 ** 52 - 1)
_ONE_BITS = _u64(0x3FF0000000000000)  # 1.0, formatted in place of zeros and non-finite values
_INF_TWICE = _u64(0xFFE0000000000000)  # bits << 1 of an infinity; nans lie above
_SPECIAL = _u64(0xFFE0000000000000 - 1)  # (bits << 1) - 1 of zeros (it wraps), infinities and nans
_1E4, _1E9 = _u64(10 ** 4), _u64(10 ** 9)
_ASCII0 = _u64(ord("0"))
_TENS = tuple((k, _u64(10 ** k)) for k in (16, 8, 4, 2, 1))

# rows of the Ryū table, in the groups that are gathered together; column f serves biased
# exponent field f
_HIDDEN, _TZ_MASK, _KIND, _M, _TWO_M, _SHIFT, _E10 = 0, 1, 2, 3, 5, 7, 8
# rows of the layout table, one column per (decimal point, digit count, sign) class
_LEAD, _FILL, _KEEP, _DOT, _MASK, _LENGTH = 0, 1, 2, 5, 8, 11
_CLASSES = 22  # decimal points -4 to 17; -4 and 17 stand for every exponential one


def _words(values):
    """Python ints below 2**128 as (low, high) uint64 arrays."""
    return (np.array([v & (2 ** 64 - 1) for v in values], dtype=np.uint64),
            np.array([v >> 64 for v in values], dtype=np.uint64))


def _text_word(text: bytes) -> int:
    """Up to 8 bytes of text as the little-endian word that holds them."""
    return int.from_bytes(text, "little")


@functools.cache
def _tables():
    """The Ryū, layout and text tables; built on first use, not at import.

    Column ``f`` of ``ryu`` serves every double whose biased exponent field
    is ``f`` (0 to 2046).  Following Ryū's ``d2d``, with ``bits(x)`` the bit
    length of ``x`` and ``e2`` the binary exponent of ``mv = 4 * m2``:

    * ``e2 >= 0``: ``q = log10Pow2(e2) - (e2 > 3)``; the multiplier is
      ``POW5_INV_SPLIT[q] = 2**(bits(5**q) - 1 + 125) // 5**q + 1`` and the
      shift ``j = -e2 + q + 124 + bits(5**q)``; the decimal exponent is ``q``.
    * ``e2 < 0``: ``q = log10Pow5(-e2) - (-e2 > 1)`` and ``i = -e2 - q``; the
      multiplier is ``POW5_SPLIT[i]``, ``5**i`` cut or padded to 125 bits, and
      the shift ``j = q - (bits(5**i) - 125)``; the decimal exponent is ``q + e2``.

    The rows hold the hidden bit, ``tz_mask``, ``kind``, the multiplier
    ``M`` (low and high words), ``2 M``, the shift ``j - 64`` (in (0, 64)
    for every entry) and the decimal exponent; column ``2 f + mmShift`` of
    ``bound`` holds the bound offset ``B = (1 + mmShift) M``.  ``tz_mask``
    gives ``vr``'s trailing-zero flag as ``mv & tz_mask == 0``: ``2**q - 1``
    for ``e2 < 0, 1 < q < 63``, 0 (always set) for ``e2 < 0, q <= 1``, all
    ones (never set, or left to the mod-5 test) otherwise.  ``kind`` marks
    the entries whose flags or ``vp`` need more: 1 for ``e2 < 0, q <= 1``, 2
    for ``e2 >= 0, q <= 21``.

    Column ``(d + 4) * 36 + 2 * olen + negative`` of ``layout`` describes the
    text of a value with ``olen`` digits and decimal point ``d`` (clipped to
    [-4, 17]; ``value = 0.DIGITS * 10**d``): the bit shift and fill of its
    sign and leading zeros, the masks that keep the bytes before its ``.``
    and put the ``.`` there, the mask of the bytes it keeps, and its length
    (for an exponential value, the length of its mantissa).
    """
    pow5 = [5 ** k for k in range(342)]
    bits = [p.bit_length() for p in pow5]
    inv = [2 ** (bits[q] - 1 + _POW5_BITS) // pow5[q] + 1 for q in range(342)]
    pos = [p >> (b - _POW5_BITS) if b >= _POW5_BITS else p << (_POW5_BITS - b)
           for p, b in zip(pow5[:326], bits)]

    rows = []
    for field in range(2047):
        e2 = max(field, 1) - 1023 - 52 - 2
        if e2 >= 0:
            q = max(0, (e2 * 78913 >> 18) - (e2 > 3))
            mult, j, e10 = inv[q], -e2 + q + _POW5_BITS - 1 + bits[q], q
            tz_mask, kind = 2 ** 64 - 1, 2 if q <= 21 else 0
        else:
            q = max(0, (-e2 * 732923 >> 20) - (-e2 > 1))
            i = -e2 - q
            mult, j, e10 = pos[i], q - (bits[i] - _POW5_BITS), q + e2
            tz_mask = 0 if q <= 1 else 2 ** q - 1 if q < 63 else 2 ** 64 - 1
            kind = 1 if q <= 1 else 0
        rows.append((mult, j - 64, e10 % 2 ** 64, q, tz_mask, kind, 0 if field == 0 else 2 ** 52))
    mult, shift, e10, q, tz_mask, kind, hidden = zip(*rows)
    ryu = np.empty((9, 2047), dtype=np.uint64)
    ryu[_M:_M + 2] = _words(mult)
    ryu[_TWO_M:_TWO_M + 2] = _words([2 * m for m in mult])
    ryu[_SHIFT], ryu[_E10], ryu[_HIDDEN], ryu[_TZ_MASK], ryu[_KIND] = shift, e10, hidden, tz_mask, kind

    # low[k] keeps the first k bytes of a text in its three words; dot[p] is a '.' at byte p
    low = [[2 ** (8 * min(max(k - 8 * w, 0), 8)) - 1 for w in range(3)] for k in range(WIDTH + 1)]
    dot = [[ord(".") << 8 * (p - 8 * w) if p // 8 == w else 0 for w in range(3)] for p in range(WIDTH)]
    classes = []
    for point in range(-4, _CLASSES - 4):
        positional = -3 <= point <= 16
        zeros = max(1 - point, 0) if positional else 0
        for olen in range(_DIGITS + 1):
            for negative in (0, 1):
                lead = negative + zeros
                p = (max(point, 1) if positional else 1) + negative  # the '.' lands at byte p
                if positional:
                    length = max(olen, point + 1) + negative + 1 + zeros
                else:
                    length = negative + olen + (olen > 1)  # the suffix goes here
                classes.append([8 * lead, _text_word(b"-" * negative + b"0" * zeros),
                                *low[p], *dot[p], *low[length], length])
    layout = np.array(classes, dtype=np.uint64).T.copy()

    pow10 = [10 ** k for k in range(20)]
    # log10_guess[f]: floor(log10 x) of an x whose nearest double has exponent field f, or
    # one less, and log10_power[f] the power of ten that tells which (1233 / 4096 is just
    # below log10(2))
    guess = [max(f - 1023, 0) * 1233 >> 12 for f in range(2048)]
    exponents = range(-_EXP_BIAS, _EXP_BIAS)
    return {
        "ryu": ryu, "layout": layout,
        # bound[:, 2 f + mmShift]: B, the low and high words
        "bound": np.array(_words([(1 + mm_shift) * m for m in mult for mm_shift in (0, 1)])),
        "shift": ryu[_SHIFT], "q": np.array(q, dtype=np.intp),
        "pow5": np.array(pow5[:22], dtype=np.uint64),
        "pow10": np.array(pow10, dtype=np.uint64),
        "log10_guess": np.array(guess, dtype=np.intp),
        "log10_power": np.array([pow10[g + 1] if g < 19 else 2 ** 64 - 1 for g in guess],
                                dtype=np.uint64),
        # half[k] = 10**k / 2: k removed digits at or above it round up (k >= 1)
        "half": np.array([1] + [5 * 10 ** (k - 1) for k in range(1, 20)], dtype=np.uint64),
        # pad[olen] = 10**(17 - olen) fills the digits out to 17
        "pad": np.array([10 ** (_DIGITS - min(k, _DIGITS)) for k in range(_DIGITS + 1)],
                        dtype=np.uint64),
        # ascii4[k]: the four digits of k < 10**4, most significant first, as a little-endian word
        "ascii4": sum((np.arange(10 ** 4, dtype=np.uint64) // 10 ** (3 - i) % 10 + ord("0")) << 8 * i
                      for i in range(4)).astype(np.uint64),
        "exp_text": np.array([_text_word(b"e%+03d" % e) for e in exponents], dtype=np.uint64),
        "exp_len": np.array([len(b"e%+03d" % e) for e in exponents], dtype=np.intp),
    }


@functools.cache
def _special_texts(nonfinite):
    """Words and lengths of ``0.0``, ``-0.0``, inf, -inf and nan (twice), by ``2 * kind + sign``."""
    texts = [b"0.0", b"-0.0"] + [s.encode("ascii") for s in (nonfinite[1], nonfinite[2],
                                                              nonfinite[0], nonfinite[0])]
    words = np.array([[_text_word(t[8 * w:8 * w + 8]) for t in texts] for w in range(3)],
                     dtype=np.uint64)
    return words, np.array([len(t) for t in texts], dtype=np.intp)


def _mul(a0, a1, b):
    """Low and high words of ``a * b`` for uint64 arrays, ``a`` given as 32-bit halves ``a0``, ``a1``.

    ``b`` is overwritten with the high words.
    """
    x = b & _LOW32
    b >>= _U32
    low = x * a0
    x *= a1
    t = low >> _U32
    x += t                              # a1 * b0 + carry, below 2**64
    y = b * a0
    b *= a1
    np.right_shift(x, _U32, out=t)
    b += t
    x &= _LOW32
    y += x
    np.right_shift(y, _U32, out=t)
    b += t
    low &= _LOW32
    y <<= _U32
    low |= y
    return low, b


def _ryu(bits):
    """Ryū's ``d2d`` on finite nonzero doubles given as uint64 bit patterns.

    Returns the shortest correctly rounded decimal digits as an integer and
    their power of ten: ``value = digits * 10**exponent``.  The table rows
    are gathered in groups, each when it is first needed, so that the
    scratch stays near 100 bytes per value.
    """
    tab = _tables()
    ryu = tab["ryu"]
    field = bits >> _U52
    field &= _FIELD
    mv = bits & _MANTISSA
    accept = (bits & _U1) == _U0  # an even mantissa accepts the interval's bounds
    mm_shift = mv != _U0
    mm_shift |= field <= _U1
    column = field.view(np.intp)
    hidden, tz_mask, kind = ryu[_HIDDEN:_KIND + 1].take(column, axis=1)
    mv |= hidden
    mv <<= _U2
    vr_tz = (mv & tz_mask) == _U0
    vm_tz = np.zeros(len(bits), dtype=bool)
    vp_drop = None
    if kind.any():
        vp_drop = _edge_flags(kind, column, mv, accept, mm_shift, vr_tz, vm_tz, tab)
    del hidden, tz_mask, kind

    # P = mv * M as a 192-bit number (p2, p1, p0); vr = P >> (64 + s)
    a0 = mv & _LOW32
    mv >>= _U32
    p0, h0 = _mul(a0, mv, ryu[_M].take(column))  # a word at a time: half the scratch of both
    p1, p2 = _mul(a0, mv, ryu[_M + 1].take(column))
    del a0, mv
    p1 += h0
    p2 += p1 < h0
    del h0
    two_m_lo, two_m_hi, s = ryu[_TWO_M:_SHIFT + 1].take(column, axis=1)
    e10 = ryu[_E10].take(column).view(np.intp)
    field <<= _U1  # field, and column with it, become 2 f + mmShift, the column of B
    field |= mm_shift
    b_lo, b_hi = tab["bound"].take(column, axis=1)
    del field, column, mm_shift
    vr = p1 >> s
    back = _U64 - s
    p2 <<= back
    vr |= p2
    del p2
    # vp = (P + 2M) >> (64 + s) and vm = (P - B) >> (64 + s) differ from vr by the
    # carry out of the bits below the shift: (p1 mod 2**s, p0) + 2M or - B
    np.right_shift(_ALL, back, out=back)
    p1 &= back
    del back
    two_m_lo += p0
    vp = two_m_hi + p1
    vp += two_m_lo < p0
    vp >>= s
    vp += vr
    if vp_drop is not None:
        vp[vp_drop] -= _U1
    borrow = p0 < b_lo
    carry = p1.view(np.int64)  # below 2**63, so the difference below can go negative
    carry -= b_hi.view(np.int64)
    carry -= borrow
    carry >>= s.view(np.int64)
    vm = vr + carry.view(np.uint64)
    del carry, borrow, p0, p1, two_m_lo, two_m_hi, b_lo, b_hi, s
    digits, removed = _shortest(vr, vp, vm, vr_tz, vm_tz, accept, tab)
    removed += e10
    return digits, removed


def _edge_flags(kind, field, mv, accept, mm_shift, vr_tz, vm_tz, tab):
    """Ryū's trailing-zero and bound rules for the rows the ``kind`` table marks.

    Sets the flags in place and returns the rows whose ``vp`` drops by one.
    """
    rows = np.flatnonzero(kind)
    kind = kind[rows]
    # e2 < 0, q <= 1: vr's flag is set already; vm's is mmShift, or else vp drops by one
    one = rows[kind == _U1]
    vm_tz[one] = accept[one] & mm_shift[one]
    drop = [one[~accept[one]]]
    # e2 >= 0, q <= 21: at most one of mv, mv - 1 - mmShift and mv + 2 is a multiple of 5
    two = kind == _U2
    if two.any():
        rows = rows[two]
        mv, acc, p5 = mv[rows], accept[rows], tab["pow5"][tab["q"][field[rows]]]
        mv5 = mv % _U5 == _U0
        vr_tz[rows] = mv5 & (mv % p5 == _U0)
        vm_tz[rows] = ~mv5 & acc & ((mv - _U1 - mm_shift[rows]) % p5 == _U0)
        drop.append(rows[~mv5 & ~acc & ((mv + _U2) % p5 == _U0)])
    return np.concatenate(drop)


def _trailing_zeros(w):
    """How many decimal zeros each nonzero uint64 in ``w`` ends with."""
    count = np.zeros(len(w), dtype=np.intp)
    for k, power in _TENS:
        cut = w // power
        whole = w == cut * power
        w = np.where(whole, cut, w)  # faster than a masked copyto on these small subsets
        count += whole * k
    return count


def _shortest(vr, vp, vm, vr_tz, vm_tz, accept, tab):
    """Ryū's digit removal: the shortest digits in the interval (vm, vp], rounded as ``vr`` says.

    Returns the digits and how many were removed from ``vr``.  Ryū removes
    one digit per step while ``vp // 10 > vm // 10``, that is while a multiple
    of the next power of ten lies in (vm, vp].  The count has a closed form:
    every ``k`` below the digit count of ``vp - vm`` goes; then one more if
    ``vp``'s last digits are below ``vp - vm``, and one more for each zero
    digit of ``vp`` after those.  Rows with a trailing-zero flag set (Ryū's
    general case) are finished by :func:`_shortest_flagged`.  ``vr`` is
    overwritten.
    """
    pow10 = tab["pow10"]
    d = vp - vm
    removed = _log10(d, tab)
    scale = pow10.take(removed + 1)
    w = vp // scale
    scale *= w
    np.subtract(vp, scale, out=scale)
    one_more = scale < d
    del d
    w10 = w // _U10
    np.multiply(w10, _U10, out=scale)
    zero = w == scale
    zero &= one_more
    removed += one_more
    del w, one_more
    more = np.flatnonzero(zero)
    if more.size:
        removed[more] += _trailing_zeros(w10[more]) + 1
    del w10, zero

    flagged = np.flatnonzero(vr_tz | vm_tz)
    if flagged.size:
        sub = (vr[flagged], vm[flagged], vr_tz[flagged], vm_tz[flagged], accept[flagged], removed[flagged])
        flagged_out = _shortest_flagged(*sub, tab)
    scale = pow10.take(removed)
    digits = vr // scale
    scale *= digits
    vr -= scale
    up = vm >= scale
    up |= vr >= tab["half"].take(removed)
    digits += up
    if flagged.size:
        digits[flagged], removed[flagged] = flagged_out
    return digits, removed


def _shortest_flagged(vr, vm, vr_tz, vm_tz, accept, removed, tab):
    """Ryū's general case on rows with a trailing-zero flag, given the common case's count.

    Ryū's first loop removes the same digits and keeps ``vm``'s flag while
    those of ``vm`` are all zero; its second loop, for a flagged ``vm``, goes
    on while ``vm`` ends in 0.  ``vr``'s flag holds while every removed digit
    but the last is zero.  The last digit rounds, half to even where ``vr``'s
    flag holds.
    """
    pow10 = tab["pow10"]
    scale = pow10[removed]
    cut = vm // scale
    vm_tz &= vm == cut * scale
    extra = np.flatnonzero(vm_tz & (cut != _U0))
    if extra.size:
        removed[extra] += _trailing_zeros(cut[extra])
        scale = pow10[removed]
        cut = vm // scale
    before = pow10[np.maximum(removed, 1) - 1]
    above = vr // before
    vr_tz &= (removed == 0) | (vr == above * before)
    last = np.where(removed > 0, above % _U10, _U0)
    digits = vr // scale
    last[vr_tz & (last == _U5) & ((digits & _U1) == _U0)] = 4
    digits += ((digits == cut) & ~(accept & vm_tz)) | (last >= _U5)
    return digits, removed


def _log10(x, tab):
    """``floor(log10(x))`` of each uint64 ``x >= 1``, as intp."""
    # the exponent field of the double nearest x, which may round up to the next power of two
    field = x.astype(np.float64).view(np.uint64)
    field >>= _U52
    field = field.view(np.intp)
    log = tab["log10_guess"].take(field)
    log += x >= tab["log10_power"].take(field)
    return log


def format_repr(values, nonfinite=CSV_NONFINITE, out=None):
    """The ``repr`` text of each float64 in ``values``, flattened.

    Returns a ``(n, 24)`` uint8 matrix whose row ``i`` starts with the text
    of value ``i``, and the lengths of those texts (uint8).  Bytes past a
    text's length are zero.  ``nonfinite`` gives the spellings of nan, inf
    and -inf.  ``out``, if given, is the ``(n, 24)`` uint8 matrix to write
    into; its rows must be 8-byte aligned and its bytes contiguous within a row.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    bits = x.view(np.uint64)
    twice = bits << _U1  # without the sign
    twice -= _U1
    special = np.flatnonzero(twice >= _SPECIAL)
    if special.size:  # code 2 * kind + sign, kind 0 for zeros, 1 for infinities, 2 for nans
        twice = twice[special]
        twice += _U1
        code = (twice != _U0).astype(np.intp)
        code += twice > _INF_TWICE
        code <<= 1
        code += (bits[special] >> _U63).view(np.intp)
        bits = bits.copy()
        bits[special] = _ONE_BITS
    del twice
    digits, decpt = _ryu(bits)
    tab = _tables()
    olen = _log10(digits, tab)
    olen += 1
    decpt += olen  # value = 0.DIGITS * 10**decpt
    digits *= tab["pad"].take(olen)  # pad to 17 digits
    words = _ascii17(digits, tab)
    del digits
    length = _layout(words, olen, decpt, (bits >> _U63).view(np.intp), tab)
    if special.size:
        texts, lengths = _special_texts(tuple(nonfinite))
        words[:, special] = texts[:, code]
        length[special] = lengths[code]
    if out is None:
        out = np.empty((len(x), WIDTH), dtype=np.uint8)
    lanes = out.view("<u8")
    for w, word in enumerate(words):
        lanes[:, w] = word
    return out, length.astype(np.uint8)


def _ascii17(digits, tab):
    """The 17 digits of each ``digits < 10**17`` in ASCII, as bytes 0..16 of a ``(3, n)`` array of words.

    ``digits`` is overwritten.
    """
    words = np.empty((3, len(digits)), dtype=np.uint64)
    np.floor_divide(digits, _1E9, out=words[0])
    digits -= words[0] * _1E9
    np.floor_divide(digits, _U10, out=words[1])
    digits -= words[1] * _U10
    np.add(digits, _ASCII0, out=words[2])
    eight = words[:2]  # eight digits each, cut into halves of four
    half = eight // _1E4
    eight -= half * _1E4
    ascii4 = tab["ascii4"]
    low = ascii4.take(eight.view(np.intp))
    low <<= _U32
    ascii4.take(half.view(np.intp), out=eight, mode="clip")  # "raise" would buffer the output
    eight |= low
    return words


def _layout(words, olen, decpt, negative, tab):
    """Lay out 17 ASCII digits as repr text: ``value = 0.DIGITS * 10**decpt``, ``olen`` digits shown.

    ``words`` holds the digits as :func:`_ascii17` returns them and is
    overwritten with the text, zero past each text's end.  Returns the lengths.
    Every per-value quantity but the exponent comes from the value's column of
    the layout table, a few rows at a time.
    """
    column = np.maximum(decpt, -4)
    np.minimum(column, _CLASSES - 5, out=column)
    column += 4
    column *= 36
    column += olen << 1
    column += negative
    layout = tab["layout"]

    # positional: sign, zeros before the digits, '.' at its byte; otherwise sign,
    # first digit, '.', the other digits, then the exponent
    lead, fill = layout[_LEAD:_FILL + 1].take(column, axis=1)
    carry = words[:2] >> _U1
    carry >>= _U63 - lead
    words <<= lead
    words[1:] |= carry
    words[0] |= fill
    del lead, fill
    # insert the '.': the bytes from its byte on move up one
    keep = layout[_KEEP:_KEEP + 3].take(column, axis=1)
    keep &= words     # the bytes before the '.'
    words ^= keep     # the bytes from it on
    np.right_shift(words[:2], _U56, out=carry)
    words <<= _U8
    words |= keep
    words[1:] |= carry
    del carry, keep
    words |= layout[_DOT:_DOT + 3].take(column, axis=1)
    mask = layout[_MASK:_LENGTH + 1].take(column, axis=1)
    del column
    words &= mask[:3]
    length = mask[3].view(np.intp)

    expo = np.flatnonzero((decpt + 3).view(np.uint64) > _U19)  # decpt < -3 or > 16
    if expo.size:  # append "e-05" after the mantissa
        e = decpt[expo]
        e += _EXP_BIAS - 1
        cut = length[expo]
        suffix = tab["exp_text"].take(e)
        length[expo] = cut + tab["exp_len"].take(e)
        bitshift = cut.view(np.uint64) & _U7
        bitshift <<= _U3
        spill = suffix >> _U1
        spill >>= _U63 - bitshift
        suffix <<= bitshift
        cut >>= 3  # the word the suffix starts in; it ends in that word or the next
        at = np.arange(len(expo))
        placed = np.zeros((4, len(expo)), dtype=np.uint64)
        placed[cut, at] = suffix
        placed[cut + 1, at] = spill
        placed[:3] |= words[:, expo]
        words[:, expo] = placed[:3]
    return length
