"""Shortest round-trip text of float64 blocks, as ``repr`` writes it.

``csv_rows(block)`` returns the ASCII bytes of
``",".join(map(repr, row)) + "\\n"`` for every row of a 2-D float64 array.

Digits: Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020; OpenJDK's ``Double.toString``) on uint64 arrays.  Among the decimals
that round to a double it finds the shortest and, of those, the closest, ties
to even: the digits of ``repr`` (Gay's dtoa, shortest mode).  It needs one
126-bit constant ``g(k)`` per decimal exponent ``k`` and three round-to-odd
products (the value and the two ends of its rounding interval), which NumPy
runs on a few thousand values at once, in 32-bit limbs.

Layout: as in ``repr``, a value 0.ddd 10^p with -4 < p <= 16 is written in
fixed notation (``.0`` on an integer), any other as ``d[.ddd]e±XX``.  Each value is rendered into a fixed-width byte
record (sign, 16-digit integer part, point, 20-digit fraction, exponent,
separator) from a table of 4-digit ASCII groups; one boolean mask, taken per
value from a table of layouts, drops the unused bytes of all records at once.

Non-finite and subnormal values, rare in this program's output, take
``repr`` one value at a time: published Schubfach keeps two digits on tiny
subnormals (``4.9e-324`` where ``repr`` gives ``5e-324``).

Importing this module builds its tables (about 0.1 MB), so only the CSV
writer imports it.
"""

import numpy as np

_U = np.uint64
_32 = _U(32)
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_FRACTION = _U((1 << 52) - 1)
_SIGN = _U(1 << 63)
_ONE = np.float64(1.0).view(_U)  # stands in for values that skip Schubfach
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_K_MIN, _K_MAX = -324, 292  # the decimal exponents k of all normal doubles


def _flog2pow10(e):
    """floor(log2(10^e)) for |e| <= 1233, on Python ints or int64 arrays."""
    return (e * 913124641741) >> 38


def _g(k):
    r = _flog2pow10(-k) - 125
    if k <= 0:
        return (10 ** -k >> r if r >= 0 else 10 ** -k << -r) + 1
    return (1 << -r) // 10 ** k + 1


# g(k) = floor(10^-k 2^-r) + 1 with 2^125 <= g < 2^126, split as
# g = g1 2^63 + g0; the rows are g1 and the 32-bit limbs of g1 and g0
_G = np.array([[g >> 63, g >> 63 & 0xFFFFFFFF, g >> 95,
                g & 0xFFFFFFFF, g >> 32 & 0x7FFFFFFF]
               for g in map(_g, range(_K_MIN, _K_MAX + 1))], dtype=_U).T.copy()


def _umulh(a0, a1, b0, b1):
    """High 64 bits of a b, for uint64 arrays given as 32-bit limbs
    a = a1 2^32 + a0 and b = b1 2^32 + b0."""
    t = a1 * b0 + ((a0 * b0) >> _32)
    w = a0 * b1 + (t & _M32)
    return a1 * b1 + (t >> _32) + (w >> _32)


def _rop(g, cp):
    """cp g 2^-127 rounded to odd: its integer part, with the lowest bit set
    when a fraction is dropped.  ``g`` holds g1 and the 32-bit limbs of g1
    and g0, where g = g1 2^63 + g0."""
    g1, g1l, g1h, g0l, g0h = g
    c0, c1 = cp & _M32, cp >> _32
    z = ((g1 * cp) >> _U(1)) + _umulh(g0l, g0h, c0, c1)
    return (_umulh(g1l, g1h, c0, c1) + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _interval(bits):
    """Schubfach's k and its rounding interval for positive normal doubles
    given by their bits: vb = v 10^-k scaled by 4 and rounded to odd, and the
    interval ends vbl, vbr on the same scale, moved inwards by one where they
    are excluded."""
    fraction = bits & _FRACTION
    c = fraction | _U(1 << 52)
    biased = (bits >> _U(52)).astype(np.int64)
    q = biased - 1075
    # at a power of two the lower neighbour is half as far as the upper one,
    # except at the smallest normal, whose lower neighbour is subnormal
    irregular = (fraction == 0) & (biased > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10)
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g = np.take(_G, k - _K_MIN, axis=1)
    cb = c << _U(2)
    out = c & _U(1)  # the ends are included iff c is even
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + irregular) << h) + out
    vbr = _rop(g, (cb + _U(2)) << h) - out
    return k, vb, vbl, vbr


def _digits(bits):
    """The shortest decimal d 10^e in the rounding interval of each positive
    normal double given by its bits, the closest of them, ties to even; d has
    no trailing zeros.  Returns d, e and the point position decpt, with
    d 10^e = 0.ddd 10^decpt, as int64 arrays."""
    k, vb, vbl, vbr = _interval(bits)
    s = vb >> _U(2)
    # one digit fewer: at most one of u' = 10 floor(s / 10) and w' = u' + 10
    # lies in the interval
    s10 = s // _U(10)
    upin = vbl <= s10 * _U(40)
    wpin = s10 * _U(40) + _U(40) <= vbr
    # otherwise s or s + 1: the one in the interval, or else the closer one,
    # ties to even
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    rest = vb & _U(3)
    closer_s = (rest < 2) | ((rest == 2) & ((s & _U(1)) == 0))
    pick_t = (win & ~uin) | ((uin == win) & ~closer_s)
    shorter = upin != wpin
    d = np.where(shorter, s10 + wpin, s + pick_t).view(np.int64)
    e = k + shorter
    # the point position, from d before any zero is stripped: 10^15 < s < 10^17,
    # and the shorter choice has one digit fewer and e one more
    decpt = k + 16 + (d >= np.where(shorter, 10 ** 15, 10 ** 16))
    _strip_zeros(d, e)
    return d, e, decpt


def _strip_zeros(d, e):
    """Move the trailing decimal zeros of d > 0 into e, in place."""
    i = np.flatnonzero(d == d // 10 * 10)
    if i.size:
        di, ei = d[i], e[i]
        for p in (16, 8, 4, 2, 1):
            quot = di // 10 ** p
            zeros = quot * 10 ** p == di
            di = np.where(zeros, quot, di)
            ei += zeros * p
        d[i], e[i] = di, ei


# A value's record: 56 bytes, 14 uint32 words, with its digit groups word
# aligned.  A layout code gives the bytes that are not digits (sign, point,
# "e" and the exponent's sign, separator) and the mask of the bytes kept.
_SIGN_AT, _INT, _POINT_AT, _FRAC, _E_AT, _EXP, _SEP_AT = 3, 4, 20, 24, 44, 48, 52
_WIDTH = 56
_FIXED_LAYOUTS = 16 * 20  # integer part 1..16 digits, fraction 1..20


def _layouts():
    """The record bytes and kept masks of every layout code: fixed notation
    ``(int_len - 1) * 20 + frac_len - 1``; exponent notation
    ``_FIXED_LAYOUTS + 4 * frac_len + 2 * (exponent < 0) + (|exponent| >= 100)``."""
    shapes = [(i, f, None, 0) for i in range(1, 17) for f in range(1, 21)]
    shapes += [(1, f, sign, width) for f in range(17) for sign in "+-" for width in (2, 3)]
    rec = np.zeros((len(shapes), _WIDTH), dtype=np.uint8)
    keep = np.zeros((len(shapes), _WIDTH), dtype=bool)
    rec[:, [_SIGN_AT, _POINT_AT, _E_AT, _SEP_AT]] = np.frombuffer(b"-.e,", np.uint8)
    for row, (int_len, frac_len, sign, width) in enumerate(shapes):
        keep[row, _POINT_AT - int_len:_POINT_AT] = True
        keep[row, _POINT_AT] = frac_len > 0
        keep[row, _FRAC + 20 - frac_len:_FRAC + 20] = True
        if sign:
            rec[row, _E_AT + 1] = ord(sign)
            keep[row, _E_AT:_E_AT + 2] = True
            keep[row, _EXP + 4 - width:_EXP + 4] = True
    keep[:, _SEP_AT] = True
    return rec, keep


_LAYOUT_BYTES, _LAYOUT_KEEP = _layouts()
# values formatted at once: a third of a block of 1024 rows of 9, so that
# the temporaries (about 300 bytes a value) peak near 1 MB; a whole block at
# once saves little per NumPy call and pages in fresh memory for each block
_CHUNK_VALUES = 3072
# the four ASCII digits of 0..9999, one uint32 each (bytes in memory order)
_DIGITS4 = ((np.arange(10000)[:, None] // np.array([1000, 100, 10, 1])) % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()


def csv_rows(block):
    """The bytes of ``",".join(map(repr, row)) + "\\n"`` for each row of the
    2-D float64 array ``block``."""
    a = np.ascontiguousarray(block, dtype=np.float64)
    chunks = -(-a.size // _CHUNK_VALUES)
    step = max(1, -(-len(a) // max(chunks, 1)))
    return b"".join(_rows(a[i:i + step]) for i in range(0, len(a), step))


def _rows(a):
    """``csv_rows`` of a C-contiguous float64 array of a few thousand values."""
    bits = a.view(_U).ravel()
    mag = bits & ~_SIGN
    biased = mag >> _U(52)
    normal = (biased != 0) & (biased != _U(2047))
    d, e, decpt = _digits(np.where(normal, mag, _ONE))
    other = ~normal
    d[other] = 0  # +-0.0 is digit 0 with its sign; the rest take repr
    e[other] = 0
    decpt[other] = 1

    fixed = (decpt > -4) & (decpt <= 16)
    point = np.where(fixed, decpt, 1)  # digits before the point
    shift = decpt - e - point  # digits of d after the point, up to 20
    down = _POW10[np.clip(shift, 0, 18)]
    whole = d // down
    frac = d - whole * down
    whole *= _POW10[np.clip(-shift, 0, 18)]
    frac_len = np.maximum(shift, fixed)
    x = decpt - 1  # the exponent of d.ddd
    ax = np.abs(x)
    code = np.where(fixed, np.maximum(point, 1) * 20 + frac_len - 21,
                    _FIXED_LAYOUTS + 4 * frac_len + 2 * (x < 0) + (ax >= 100))

    rec = np.take(_LAYOUT_BYTES, code, axis=0)
    keep = np.take(_LAYOUT_KEEP, code, axis=0)
    keep[:, _SIGN_AT] = bits >= _SIGN
    rec[a.shape[1] - 1::a.shape[1], _SEP_AT] = ord("\n")
    # digit groups from the last; the leading groups that no value keeps are
    # left as they are, since unkept bytes may hold anything
    words = rec.view(np.uint32)
    int_words = -(-max(int(point.max()), 1) // 4)
    for w in range(_POINT_AT // 4 - 1, _POINT_AT // 4 - 1 - int_words, -1):
        whole = _put_group(words[:, w], whole)
    frac_words = -(-int(frac_len.max()) // 4)
    for w in range(_E_AT // 4 - 1, _E_AT // 4 - 1 - frac_words, -1):
        frac = _put_group(words[:, w], frac)
    words[:, _EXP // 4] = np.take(_DIGITS4, ax)

    for i in np.flatnonzero(other & (mag != 0)):  # subnormal, inf, nan
        text = repr(float(a.flat[i])).encode()
        rec[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
        keep[i, :_SEP_AT] = False
        keep[i, :len(text)] = True
    return rec[keep].tobytes()


def _put_group(out, x):
    """Write the ASCII of the last four decimal digits of x to ``out`` and
    return the rest, x // 10^4."""
    quot = x // 10000
    out[...] = np.take(_DIGITS4, x - quot * 10000)
    return quot
