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
value-based promotion and NEP 50 give the same dtypes.  Each value's text is
built in three little-endian 64-bit words (24 bytes), so moving text by a few
bytes is a shift of three words, not a gather per byte.
"""

from __future__ import annotations

import functools

import numpy as np

#: Bytes of text per value; ``-2.2250738585072014e-308`` is the longest repr.
WIDTH = 24

CSV_NONFINITE = ("nan", "inf", "-inf")
JSON_NONFINITE = ("NaN", "Infinity", "-Infinity")

_U = np.uint64
_POW5_BITS = 125  # Ryū's DOUBLE_POW5_BITCOUNT and DOUBLE_POW5_INV_BITCOUNT
_DIGITS = 17      # a double's shortest repr has at most 17 significant digits
_LOW32 = _U(0xFFFFFFFF)
_ONE_BITS = _U(0x3FF0000000000000)  # 1.0, formatted in place of zeros and non-finite values
_EXP_BIAS = 400  # row of exponent 0 in the exponent-suffix tables


def _words(values):
    """Python ints below 2**128 as (low, high) uint64 arrays."""
    return (np.array([v & (2 ** 64 - 1) for v in values], dtype=np.uint64),
            np.array([v >> 64 for v in values], dtype=np.uint64))


def _text_word(text: bytes) -> int:
    """Up to 8 bytes of text as the little-endian word that holds them."""
    return int.from_bytes(text, "little")


@functools.cache
def _tables():
    """Per-exponent multipliers and shifts, and the text tables; built on first use, not at import.

    Entry ``f`` of the exponent tables serves every double whose biased
    exponent field is ``f`` (0 to 2046).  Following Ryū's ``d2d``, with
    ``bits(x)`` the bit length of ``x`` and ``e2`` the binary exponent of
    ``mv = 4 * m2``:

    * ``e2 >= 0``: ``q = log10Pow2(e2) - (e2 > 3)``; the multiplier is
      ``POW5_INV_SPLIT[q] = 2**(bits(5**q) - 1 + 125) // 5**q + 1`` and the
      shift ``j = -e2 + q + 124 + bits(5**q)``; the decimal exponent is ``q``.
    * ``e2 < 0``: ``q = log10Pow5(-e2) - (-e2 > 1)`` and ``i = -e2 - q``; the
      multiplier is ``POW5_SPLIT[i]``, ``5**i`` cut or padded to 125 bits, and
      the shift ``j = q - (bits(5**i) - 125)``; the decimal exponent is ``q + e2``.

    ``j - 64`` lies in (0, 64) for every entry.  ``tz_mask`` gives ``vr``'s
    trailing-zero flag as ``mv & tz_mask == 0``: ``2**q - 1`` for ``e2 < 0,
    1 < q < 63``, 0 (always set) for ``e2 < 0, q <= 1``, all ones (never set,
    or left to the mod-5 test) otherwise.  ``kind`` marks the entries whose
    flags or ``vp`` need more: 1 for ``e2 < 0, q <= 1``, 2 for
    ``e2 >= 0, q <= 21``.
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
        rows.append((mult, j - 64, e10, q, tz_mask, kind))
    mult, shift, e10, q, tz_mask, kind = zip(*rows)
    m_lo, m_hi = _words(mult)
    b_lo, b_hi = _words([k * m for m in mult for k in (1, 2)])  # entry 2 f + k - 1: k M

    # low[w, k] keeps the first k bytes of a text in word w; dot[w, p] is a '.' at byte p
    low = np.array([[2 ** (8 * min(max(k - 8 * w, 0), 8)) - 1 for k in range(WIDTH + 1)]
                    for w in range(3)], dtype=np.uint64)
    dot = np.array([[ord(".") << 8 * (p - 8 * w) if p // 8 == w else 0 for p in range(WIDTH)]
                    for w in range(3)], dtype=np.uint64)
    exponents = range(-_EXP_BIAS, _EXP_BIAS)
    return {
        "m_lo": m_lo, "m_hi": m_hi, "b_lo": b_lo, "b_hi": b_hi,
        "shift": np.array(shift, dtype=np.uint64), "e10": np.array(e10, dtype=np.intp),
        "q": np.array(q, dtype=np.intp), "tz_mask": np.array(tz_mask, dtype=np.uint64),
        "kind": np.array(kind, dtype=np.uint8),
        "hidden": np.array([0] + [2 ** 52] * 2046, dtype=np.uint64),
        "pow5": np.array(pow5[:22], dtype=np.uint64),
        "pow10": np.array([10 ** k for k in range(20)], dtype=np.uint64),
        # half[k] = 10**k / 2: k removed digits at or above it round up (k >= 1)
        "half": np.array([1] + [5 * 10 ** (k - 1) for k in range(1, 20)], dtype=np.uint64),
        "low": low, "dot": dot,
        # fill[5 * negative + zeros]: the sign and the zeros before the digits
        "fill": np.array([_text_word(b"-" * s + b"0" * z) for s in range(2) for z in range(5)],
                         dtype=np.uint64),
        "exp_text": np.array([_text_word(b"e%+03d" % e) for e in exponents], dtype=np.uint64),
        "exp_len": np.array([len(b"e%+03d" % e) for e in exponents], dtype=np.intp),
    }


def _mul(a0, a1, b):
    """Low and high words of ``a * b`` for uint64 arrays, ``a`` given as 32-bit halves ``a0``, ``a1``."""
    b0 = b & _LOW32
    b >>= _U(32)
    low = a0 * b0
    b0 *= a1
    b0 += low >> _U(32)                    # a1 * b0 + carry, below 2**64
    mid = a0 * b
    mid += b0 & _LOW32
    b *= a1
    b0 >>= _U(32)
    b += b0
    b += mid >> _U(32)
    low &= _LOW32
    mid <<= _U(32)
    low |= mid
    return low, b


def _ryu(bits, tab):
    """Ryū's ``d2d`` on finite nonzero doubles given as uint64 bit patterns.

    Returns the shortest correctly rounded decimal digits as an integer and
    their power of ten: ``value = digits * 10**exponent``.
    """
    field = bits >> _U(52)
    field &= _U(0x7FF)
    field = field.astype(np.intp)
    mv = bits & _U((1 << 52) - 1)
    accept = (bits & _U(1)) == 0  # an even mantissa accepts the interval's bounds
    mm_shift = (mv != 0) | (field <= 1)
    mv |= tab["hidden"][field]
    mv <<= _U(2)
    vr_tz = (mv & tab["tz_mask"][field]) == 0
    vm_tz = np.zeros(len(bits), dtype=bool)
    kind = tab["kind"][field]
    edge = np.flatnonzero(kind)
    vp_drop = _edge_flags(edge, kind[edge], field[edge], mv[edge], accept, mm_shift, vr_tz, vm_tz, tab)
    del kind, edge

    # P = mv * M as a 192-bit number (p2, p1, p0); vr = P >> (64 + s)
    a0 = mv & _LOW32
    mv >>= _U(32)
    p0, h0 = _mul(a0, mv, tab["m_lo"][field])
    p1, p2 = _mul(a0, mv, tab["m_hi"][field])
    del a0, mv
    p1 += h0
    p2 += p1 < h0
    del h0
    s = tab["shift"][field]
    vr = p1 >> s
    p2 <<= _U(64) - s
    vr |= p2
    del p2
    # vp = (P + 2M) >> (64 + s) and vm = (P - B) >> (64 + s), B = (1 + mmShift) M, differ
    # from vr by the carry out of the bits below the shift: (p1 mod 2**s, p0) + 2M or - B
    p1 &= _U(2 ** 64 - 1) >> (_U(64) - s)
    b_row = 2 * field + 1  # 2M
    low = tab["b_lo"][b_row]
    low += p0
    vp = tab["b_hi"][b_row]
    vp += p1
    vp += low < p0
    vp >>= s
    vp += vr
    vp[vp_drop] -= _U(1)
    b_row -= ~mm_shift  # B
    e10 = tab["e10"][field]
    del field, mm_shift, low
    borrow = p0 < tab["b_lo"][b_row]
    del p0
    carry = p1.view(np.int64)  # below 2**63, so the difference below can go negative
    carry -= tab["b_hi"][b_row].view(np.int64)
    carry -= borrow
    carry >>= s.view(np.int64)
    vm = vr + carry.view(np.uint64)
    del carry, p1, s, b_row, borrow
    digits, removed = _shortest(vr, vp, vm, vr_tz, vm_tz, accept, tab)
    removed += e10
    return digits, removed


def _edge_flags(rows, kind, field, mv, accept, mm_shift, vr_tz, vm_tz, tab):
    """Ryū's trailing-zero and bound rules for the ``rows`` the ``kind`` table marks.

    Sets the flags in place and returns the rows whose ``vp`` drops by one.
    """
    # e2 < 0, q <= 1: vr's flag is set already; vm's is mmShift, or else vp drops by one
    one = rows[kind == 1]
    vm_tz[one] = accept[one] & mm_shift[one]
    drop = [one[~accept[one]]]
    # e2 >= 0, q <= 21: at most one of mv, mv - 1 - mmShift and mv + 2 is a multiple of 5
    two = kind == 2
    if two.any():
        rows, mv, field = rows[two], mv[two], field[two]
        acc, p5 = accept[rows], tab["pow5"][tab["q"][field]]
        mv5 = mv % _U(5) == 0
        vr_tz[rows] = mv5 & (mv % p5 == 0)
        vm_tz[rows] = ~mv5 & acc & ((mv - _U(1) - mm_shift[rows]) % p5 == 0)
        drop.append(rows[~mv5 & ~acc & ((mv + _U(2)) % p5 == 0)])
    return np.concatenate(drop)


def _trailing_zeros(w):
    """How many decimal zeros each nonzero uint64 in ``w`` ends with; ``w`` is overwritten."""
    count = np.zeros(len(w), dtype=np.intp)
    for k in (16, 8, 4, 2, 1):
        cut = w // _U(10 ** k)
        whole = w == cut * _U(10 ** k)
        np.copyto(w, cut, where=whole)
        count += k * whole
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
    removed = _log10(d, pow10)
    scale = pow10[removed + 1]
    w = vp // scale
    one_more = vp - w * scale < d
    del d, scale
    w10 = w // _U(10)
    zero = one_more & (w == w10 * _U(10))
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
    scale = pow10[removed]
    digits = vr // scale
    scale *= digits
    vr -= scale
    digits += (vm >= scale) | (vr >= tab["half"][removed])
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
    cut = vm // pow10[removed]
    vm_tz &= vm == cut * pow10[removed]
    extra = np.flatnonzero(vm_tz & (cut != 0))
    removed[extra] += _trailing_zeros(cut[extra])
    before = pow10[np.maximum(removed, 1) - 1]
    above = vr // before
    vr_tz &= (removed == 0) | (vr == above * before)
    last = np.where(removed > 0, above % _U(10), _U(0))
    digits = vr // pow10[removed]
    cut = vm // pow10[removed]
    last[vr_tz & (last == 5) & ((digits & _U(1)) == 0)] = 4
    digits += ((digits == cut) & ~(accept & vm_tz)) | (last >= 5)
    return digits, removed


def _log10(x, pow10):
    """``floor(log10(x))`` of each uint64 ``x >= 1``, as intp."""
    # floor(log2 x) from the double nearest x, which may round up to the next power of two;
    # 1233 / 4096 is just below log10(2), so the estimate is floor(log10 x) or one less
    log = (x.astype(np.float64).view(np.uint64) >> _U(52)).astype(np.intp)
    log -= 1023
    log *= 1233
    log >>= 12
    log += x >= pow10[log + 1]
    return log


def _ascii8(v):
    """Eight ASCII digits of each ``v < 10**8``, the most significant in the lowest byte."""
    hi = v // _U(10000)
    w = v - hi * _U(10000)
    w <<= _U(32)
    w |= hi                                                      # 4-digit halves in 32-bit lanes
    q = ((w * _U(5243)) >> _U(19)) & _U(0x0000007F0000007F)     # lane // 100
    w -= q * _U(100)
    w <<= _U(16)
    w |= q                                                       # 2-digit quarters in 16-bit lanes
    q = ((w * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)      # lane // 10
    w -= q * _U(10)
    w <<= _U(8)
    w |= q
    w += _U(0x3030303030303030)
    return w


def format_repr(values, nonfinite=CSV_NONFINITE, out=None):
    """The ``repr`` text of each float64 in ``values``, flattened.

    Returns a ``(n, 24)`` uint8 matrix whose row ``i`` starts with the text
    of value ``i``, and the lengths of those texts (uint8).  Bytes past a
    text's length are unspecified.  ``nonfinite`` gives the spellings of nan,
    inf and -inf.  ``out``, if given, is the ``(n, 24)`` uint8 matrix to write
    into; its rows must be 8-byte aligned and its bytes contiguous within a row.
    """
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    tab = _tables()
    bits = x.view(np.uint64)
    negative = (bits >> _U(63)).astype(np.intp)
    special = ~np.isfinite(x)
    special |= x == 0.0
    any_special = special.any()
    if any_special:
        bits = np.where(special, _ONE_BITS, bits)
    digits, decpt = _ryu(bits, tab)
    del bits
    pow10 = tab["pow10"]
    olen = _log10(digits, pow10) + 1
    if any_special:
        digits[x == 0.0] = 0  # and 1.0's olen and exponent give "0.0"
    digits *= pow10[_DIGITS - olen]  # pad to 17 digits
    decpt += olen  # value = 0.DIGITS * 10**decpt
    chars, length = _layout(digits, olen, decpt, negative, tab, out)
    if any_special:
        for which, spelling in zip((np.isnan(x), np.isposinf(x), np.isneginf(x)), nonfinite):
            if which.any():
                text = np.frombuffer(spelling.encode("ascii"), dtype=np.uint8)
                chars[which, :len(text)] = text
                length[which] = len(text)
    return chars, length


def _layout(digits, olen, decpt, negative, tab, out):
    """Lay out 17-digit strings as repr text: ``value = 0.DIGITS * 10**decpt``, ``olen`` digits shown.

    ``digits`` is overwritten.
    """
    n = len(digits)
    # bytes 0..16 of the words (g0, g1, g2): the 17 digits in ASCII
    hi = digits // _U(10 ** 9)
    digits -= hi * _U(10 ** 9)
    g0 = _ascii8(hi)
    np.floor_divide(digits, _U(10), out=hi)
    digits -= hi * _U(10)
    g2 = digits
    g2 += _U(ord("0"))
    g1 = _ascii8(hi)
    del hi, digits

    # positional for -3 <= decpt <= 16: sign, zeros before the digits, '.' at byte p;
    # otherwise sign, first digit, '.', the other digits, then the exponent
    positional = (decpt >= -3) & (decpt <= 16)
    zeros = np.maximum(1 - decpt, 0)
    zeros *= positional
    lead = negative + zeros
    fill = tab["fill"][lead + 4 * negative]
    lead <<= 3
    bitshift = lead.astype(np.uint64)
    del lead
    back = _U(63) - bitshift
    g2 <<= bitshift
    g2 |= (g1 >> _U(1)) >> back
    g1 <<= bitshift
    g1 |= (g0 >> _U(1)) >> back
    g0 <<= bitshift
    g0 |= fill
    del back, bitshift, fill

    p = np.maximum(decpt, 1)
    p *= positional
    p += ~positional  # 1 where exponential
    p += negative
    if out is None:
        out = np.empty((n, WIDTH), dtype=np.uint8)
    lanes = out.view("<u8")
    # insert the '.' at byte p: the bytes from p on move up one
    low, dot = tab["low"], tab["dot"]
    carry = None
    for w, g in enumerate((g0, g1, g2)):
        keep = low[w][p]
        keep &= g        # the bytes before p
        g ^= keep        # the bytes from p on
        spill = g >> _U(56)
        g <<= _U(8)
        g |= keep
        del keep
        g |= dot[w][p]
        if carry is not None:
            g |= carry
        lanes[:, w] = g
        carry = spill
    del g0, g1, g2, g, carry, spill

    # positional: sign, max(olen, decpt + 1) digits and the '.', and the zeros before
    length = np.maximum(olen, decpt + 1)
    length += negative + 1
    length += zeros
    expo = np.flatnonzero(~positional)
    if expo.size:  # cut after the mantissa and append "e-05"
        cut = negative[expo] + olen[expo] + (olen[expo] > 1)
        e = decpt[expo] + (_EXP_BIAS - 1)
        suffix = tab["exp_text"][e]
        bitshift = (cut & 7).astype(np.uint64) << _U(3)
        spill = (suffix >> _U(1)) >> (_U(63) - bitshift)
        suffix <<= bitshift
        at = cut >> 3
        for w in range(3):
            text = lanes[expo, w] & low[w][cut]
            text |= np.where(at == w, suffix, _U(0))
            if w:
                text |= np.where(at == w - 1, spill, _U(0))
            lanes[expo, w] = text
        length[expo] = cut + tab["exp_len"][e]
    return out, length.astype(np.uint8)
