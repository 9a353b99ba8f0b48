"""The array kernel of the long t,i,value tables, ``indexed_rows``.

Its bytes are those of ``tvar2.cli._INDEXED % row`` for every input.  An int
prints from a table of 4-digit groups, over the whole int64 range.  A
nonzero float below 1e15 prints from the 15 significant digits that
``_decimal`` proves, in fixed notation where %.15g uses it and in exponent
form below 1e-4, subnormals included.  Zeros, infinities and nan print
from fixed strings, and any other float (one whose rounding ``_decimal``
leaves undecided, or one that prints as 1e+15 or more) through one %
call a batch.

tvar2.cli imports it at its first table of more than PERCENT_MAX_ROWS
rows, and its tables are built at that import.  A row is built in quads,
little-endian uint32 words of four ASCII bytes; NUL bytes pad each field
out to whole quads and are dropped from the batch's text at the end.  The
quad table maps each group g of four decimal digits to its characters: at
_FULL + g every digit, at _LEAD + g with the leading zeros blanked (0 all
blank: a quad above a number's first digit), at _UNITS + g the same but 0
as "0" (a number's last quad), and at _TRAIL + g with the trailing zeros
blanked (0 all blank: a quad past a float's last digit).  The top table
holds a NUL, the point and the first two fraction digits g, at [g] in full
and at [100 + g] with trailing zeros blanked, 0 all blank: a float without
fraction digits prints no point.  The exponent form's last two fraction
digits g and "e-" are at tail[g], trailing zeros blanked, and its exponent
x, at least two digits, at power[x].
"""

from __future__ import annotations

import math

import numpy as np

_FULL, _LEAD, _UNITS, _TRAIL = (np.uint64(i * 10**4) for i in range(4))
# the separator and the sign, bytes 0 and 1 of a field's first quad
_COMMA, _MINUS = np.uint32(ord(",")), np.uint32(ord("-") << 8)
_NEWLINE = ord("\n")
# ',' and a float's %.15g, tvar2.cli's FLOAT_FORMAT, right-aligned in the 22
# bytes of the longest (-1.23456789012345e-308), then a pad: six quads, once
# NUL replaces space
_OTHER = ",%22.15g "
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)
# |y| * 2**_SHIFT is normal, and so is 10**q * 2**-_SHIFT for q <= 338
_SHIFT = 600
# a bound on the error of _decimal's rounding residue where 10**q is inexact
_RESIDUE_ERROR = 2.0**-48


def _quad_table() -> np.ndarray:
    """The quad table, from the decimal digits of the groups 0 .. 9999:
    at _FULL + g every digit, at _LEAD + g and _UNITS + g each digit above
    g's first blank (_UNITS keeping the last digit of 0), at _TRAIL + g
    each digit past g's last nonzero one blank.  A quad's byte j is its
    digit at place 10**(3 - j), or NUL where blank."""
    g = np.arange(10**4, dtype=np.uint32)
    place = np.array([1000, 100, 10, 1], np.uint32)[:, None]   # of byte j
    shift = 8 * np.arange(4, dtype=np.uint32)[:, None]
    chars = (g // place % 10 + ord("0")) << shift
    lead = g < place
    blank = np.stack([np.zeros_like(lead), lead, lead & (place > 1),
                      g % (10 * place) == 0])
    quads = np.where(blank, 0, chars).sum(axis=1, dtype=np.uint32)
    quads = quads.ravel().astype("<u4")
    quads.flags.writeable = False
    return quads


# the top, tail and power tables, and the six quads of ',' and the %.15g
# of infinity and nan at 2 * kind + sign bit (kind 0, finite, blank)
_pairs = [f"{g:02d}" for g in range(100)]
_text = "".join(
    [" ." + d for d in _pairs] + ["    "]
    + [(" ." + d.rstrip("0")).ljust(4) for d in _pairs[1:]]
    + [d.rstrip("0").ljust(2) + "e-" for d in _pairs]
    + [f"{x:02d}".rjust(4) for x in range(325)]
    + ["," + word.rjust(22) + " "
       for word in ("", "", "inf", "-inf", "nan", "nan")])
_TOP, _TAIL, _POWER, _SPELLED = np.split(
    np.frombuffer(_text.replace(" ", "\0").encode("ascii"), "<u4"),
    np.cumsum([200, 100, 325]))
_SPELLED = _SPELLED.reshape(6, 6)
_QUADS = _quad_table()
del _pairs, _text

# 10**q * 2**-_SHIFT for q in [0, 338] as double-doubles (_HIGH, _LOW),
# exactly from Python ints (int / int rounds correctly; _LOW is 0 where
# 10**q is a float, q <= 22), and _HIGH's Veltkamp halves
_HIGH = np.array([10**q / 2**_SHIFT for q in range(339)])
_LOW = np.array([(10**q * den - num * 2**_SHIFT) / (den << _SHIFT)
                 for q, (num, den) in enumerate(map(float.as_integer_ratio,
                                                    _HIGH.tolist()))])
_UPPER = _HIGH * 134217729.0   # 2**27 + 1
_UPPER -= _UPPER - _HIGH
_LOWER = _HIGH - _UPPER


def _int_quads(out, mag) -> None:
    """Write the uint64 array ``mag`` right-aligned into the quad columns
    of ``out``, leading zeros blanked (0 prints as 0)."""
    table = _UNITS
    for k in range(out.shape[1] - 1, -1, -1):
        high = mag // 10**4
        np.take(_QUADS, mag - high * 10**4 + np.where(high == 0, table, _FULL),
                out=out[:, k])
        table, mag = _LEAD, high


def _decimal(a):
    """(n, e, exact) for an array ``a`` of positive floats below 1e15: n is
    ``a * 10**(14 - e)`` rounded half to even to an int in [10**14,
    10**15), the 15 significant digits of %.15g, and e in [-324, 15] its
    decimal exponent (e = 15 where a rounds up to 1e15).  ``exact`` is
    false where e is not proven, or where the rounding is not decided."""
    a = a * 2.0**_SHIFT     # exact: subnormals become normal and split exactly
    e = np.log10(a)
    e -= _SHIFT * math.log10(2)
    e = np.clip(np.floor(e, out=e).astype(np.intp), -324, 14)
    a_high = a * 134217729.0   # 2**27 + 1
    a_high -= a_high - a
    a_low = a - a_high
    for _ in range(2):
        # a * high[q] is exactly prod + err (Dekker's two-product), to which
        # low[q] adds the rest of 10**q; the pair is then renormalised, so
        # |err| is at most half an ulp of prod and the range test is exact
        # for prod + err.  log10 may put e one off near a power of ten.  In
        # place, to keep few arrays alive at once.
        q = 14 - e
        u, v = _UPPER[q], _LOWER[q]
        prod = a * _HIGH[q]
        err = a_high * u - prod
        err += a_high * v
        err += a_low * u
        err += a_low * v
        err += a * _LOW[q]
        total = prod + err
        err -= total - prod
        prod = total
        below = (prod < 1e14) | ((prod == 1e14) & (err < 0))
        above = (prod > 1e15) | ((prod == 1e15) & (err >= 0))
        if not (below.any() or above.any()):
            break
        e = np.clip(e - below + above, -324, 14)
    # prod's fraction is a multiple of its ulp (at most 1/8) and |err| is at
    # most half of one; where 10**q is a float (e >= -8) err is exact, and
    # decides only where prod itself ends in .5; elsewhere the residue is
    # known to within _RESIDUE_ERROR
    whole = np.floor(prod)
    residue = prod - whole
    residue -= 0.5
    residue += err
    n = whole.astype(np.int64)
    n += (residue > 0) | ((residue == 0) & ((n & 1) == 1))
    carry = n == 10**15
    n[carry] = 10**14
    undecided = (np.abs(residue) <= _RESIDUE_ERROR) & (e < -8)
    return n, e + carry, ~(below | above | undecided)


def indexed_rows(i, j, y) -> str:
    """The text of ``tvar2.cli._INDEXED % row`` for each row (i, j, y) of
    the float64 array y and the int fields i and j, each a pair (values,
    at): the int64 values at the intp index array ``at``, or one value a
    row where ``at`` is None.  A zero, and a float whose %.15g is in fixed
    notation, prints from _decimal's digits where they are exact, any
    other float from _other_quads."""
    a = np.abs(y)
    finite = (a > 0) & (a < 1e15)
    n, e, exact = _decimal(np.where(finite, a, 1.0))
    n *= finite     # a zero prints as its fixed notation of n = 0
    fixed = (finite & exact & (e >= -4) & (e <= 14)) | (a == 0)
    # each int, then the integer part of |y|, each with room for ',' and
    # '-' in its first quad; then the point and 18 fraction digits in five
    # quads, and the newline
    ints = []
    for values, at in (i, j):
        # as uint64, 2**63 for -2**63
        mag = np.where(values < 0, -values, values).view(np.uint64)
        ints.append((values, at, mag, (len(str(mag.max())) + 5) // 4))
    point = np.clip(e, -4, 14)
    n_int = (max(int(point.max()), 0) + 6) // 4     # |y| < 1 prints 0
    out = np.empty((len(y), ints[0][3] + ints[1][3] + n_int + 6), "<u4",
                   order="F")
    col = 0
    for (values, at, mag, nq), sep in zip(ints, (0, _COMMA)):
        field = out[:, col:col + nq]
        if at is not None:
            field = np.empty((len(values), nq), "<u4", order="F")
        _int_quads(field, mag)
        field[:, 0] |= sep | (values < 0) * _MINUS
        if at is not None:
            for k in range(nq):
                np.take(field[:, k], at, out=out[:, col + k])
        col += nq
    # n's digits split at the point
    unit = _POW10_INT[14 - point]
    whole = n // unit
    frac = ((n - whole * unit) * _POW10_INT[4 + point]).view(np.uint64)
    _int_quads(out[:, col:col + n_int], whole.view(np.uint64))
    out[:, col] |= _COMMA | np.signbit(y) * _MINUS
    first = frac // 10**16
    frac -= first * 10**16
    zero = np.ones(len(y), bool)     # every fraction digit further on is 0
    for k in range(col + n_int + 4, col + n_int, -1):
        high = frac // 10**4
        group = frac - high * 10**4
        np.take(_QUADS, group + np.where(zero, _TRAIL, _FULL), out=out[:, k])
        zero &= group == 0
        frac = high
    np.take(_TOP, first + zero * np.uint64(100), out=out[:, col + n_int])
    out[:, col + n_int + 5] = _NEWLINE
    rest = np.flatnonzero(~fixed)
    if len(rest):
        out[rest, col + 6:col + n_int + 5] = 0
        small = exact[rest] & (e[rest] < -4)
        rows = rest[small]
        if len(rows):
            out[rows, col:col + 6] = _exponent_quads(y[rows], n[rows],
                                                     e[rows])
        rows = rest[~small]
        if len(rows):
            out[rows, col:col + 6] = _other_quads(y[rows])
    return out.tobytes(order="C").translate(None, b"\0").decode("ascii")


def _other_quads(y):
    """Six quads for each nonzero float of ``y``: ``,`` and its %.15g,
    right-aligned in 22 bytes.  Infinities and nan take their fixed
    strings; the other floats go through one %.15g % for all of them."""
    kind = np.isinf(y) + 2 * np.isnan(y)
    block = _SPELLED[2 * kind + np.signbit(y)]
    other = np.flatnonzero(kind == 0)
    if len(other):
        values = y[other].tolist()
        text = np.frombuffer(((_OTHER * len(values)) % tuple(values))
                             .encode("ascii"), np.uint8)
        block[other] = np.where(text == ord(" "), 0, text).view("<u4") \
            .reshape(len(values), 6)
    return block


def _exponent_quads(y, n, e):
    """Six quads of ``,`` and the %.15g exponent form of each float of y,
    from its digits n and decimal exponent e < -4: the sign, n's first
    digit, the point, the other 14 digits with their trailing zeros dropped
    (and the point with them if all are), then e-XX or e-XXX."""
    block = np.empty((len(n), 6), "<u4", order="F")
    lead = n // 10**14
    frac = (n - lead * 10**14).view(np.uint64)
    digits = frac // 100
    group = frac - digits * 100
    np.take(_TAIL, group, out=block[:, 4])
    zero = group == 0    # every fraction digit further on is 0
    for k in (3, 2, 1):
        high = digits // 10**4
        group = digits - high * 10**4
        np.take(_QUADS, group + np.where(zero, _TRAIL, _FULL), out=block[:, k])
        zero &= group == 0
        digits = high
    block[:, 0] = (_COMMA | np.signbit(y) * _MINUS
                   | (lead + ord("0")) << 16 | ~zero * (ord(".") << 24))
    np.take(_POWER, -e, out=block[:, 5])
    return block
