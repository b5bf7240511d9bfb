"""binary64 to the shortest scientific-notation string that reads back exactly.

|f| = lmant * 2**e2 is divided once, rounding half-even, by 10**(point - 2),
where 10**point is the least power of ten at or above one ulp: the finest
scale a shortest output can need.  That scale depends on the binary
exponent alone, so its (point, ulp, den, cut) is read from _SCALES, a
table built once at import, one entry per biased exponent.
Writes make exactly 1 division (the paper's budget is 4).  The candidates
with one and two digits fewer are that quotient's nearest multiples of 10
and 100.  A candidate reads back to f when it lies in f's rounding
interval, half an ulp on each side, with the endpoints counting only for
an even significand.  Every write but a power of two's is decided in
straight-line code: the multiple of 100 when it fits, else the multiple
of 10, which always does.  The multiple of 100's distance from the
quotient, against cut (half an ulp rounded down, in quotient units),
decides its fit for all but about 4% of writes; the rest measure the
exact distance.  Just above a binade boundary (significand 2**52, above
the smallest normal) the interval reaches only a quarter ulp down.
Those 2045 powers of two go round a loop of their own, which measures
each candidate exactly: one that falls short below gives way to its
upper neighbour when that one fits, and the quotient itself is the last
resort.  The fewest digits that fit win, and nothing is read back.

double_to_string composes the two halves, a plain (lquo, point) pair and
format_sci, without building the ShortestDigits that shortest_digits returns.
It unpacks |f| once with math.frexp into m * 2**e, where 0.5 <= m < 1
exactly when f is finite and nonzero.  A normal (e > -1022) has biased
exponent e + 1022 and significand m * 2**53, a subnormal 0 and
m * 2**(e + 1074); both are exact.  format_sci spells the exponent from
bigmath._EXP_TEXTS, the keys of the reader's exponent table.
float_to_bits and bits_to_float map a double to its raw 64-bit pattern and
back through prebuilt Structs.
"""

import math
import struct
from collections import namedtuple
from enum import Enum

from .bigmath import _EXP_TEXTS, _POWS5, LLOG2, ConversionStats, round_quotient

__all__ = [
    "FloatKind",
    "ShortestDigits",
    "UnpackedDouble",
    "bits_to_float",
    "double_to_string",
    "float_to_bits",
    "format_sci",
    "shortest_digits",
    "unpack_double",
]

_FRAC_MASK = (1 << 52) - 1

# Bound methods of prebuilt Structs: no format-string lookup per call.
pack_f64 = struct.Struct("<d").pack
unpack_f64 = struct.Struct("<d").unpack
pack_u64 = struct.Struct("<Q").pack
unpack_u64 = struct.Struct("<Q").unpack


def float_to_bits(f: float) -> int:
    return unpack_u64(pack_f64(f))[0]


def bits_to_float(u: int) -> float:
    return unpack_f64(pack_u64(u))[0]


class FloatKind(Enum):
    ZERO = "zero"
    SUBNORMAL = "subnormal"
    NORMAL = "normal"
    INFINITE = "infinite"
    NAN = "nan"


class UnpackedDouble(namedtuple("UnpackedDouble", "negative lmant e2 kind")):
    """Sign, integer significand and binary exponent: |value| = lmant * 2**e2.

    Normals carry the implicit bit (2**52 <= lmant < 2**53); subnormals and
    zero sit at the fixed scale e2 = -1074.  For NaN, lmant holds the raw
    payload and e2 is 0.  ``kind`` is a FloatKind.
    """

    __slots__ = ()


class ShortestDigits(namedtuple("ShortestDigits", "lquo point")):
    """Decimal significand as an integer: |value| reads back from lquo * 10**point."""

    __slots__ = ()


def unpack_double(f: float) -> UnpackedDouble:
    bits = float_to_bits(f)
    negative = bool(bits >> 63)
    ue2 = (bits >> 52) & 0x7FF
    frac = bits & _FRAC_MASK
    if ue2 == 0x7FF:
        return UnpackedDouble(negative, frac, 0, FloatKind.NAN if frac else FloatKind.INFINITE)
    # Biased exponent 0 means no implicit bit and a one-higher scale.
    if ue2 == 0:
        kind = FloatKind.ZERO if frac == 0 else FloatKind.SUBNORMAL
        return UnpackedDouble(negative, frac, -1074, kind)
    return UnpackedDouble(negative, frac + (1 << 52), ue2 - 1075, FloatKind.NORMAL)


def _build_scales() -> tuple[tuple[int, int, int, int], ...]:
    # point is the unique one with 10**(point-1) < 2**e2 <= 10**point; exact
    # for every binary64 exponent (checked over [-1100, 1100] by the tests).
    # Biased exponents 0 and 1 both have e2 = -1074, and 2..0x7FE map to
    # e2 = ue2 - 1075; e2 <= 0 gives point <= 0 and e2 > 0 gives point > 0.
    out = []
    for e2 in (-1074, *range(-1074, 1)):
        point = math.ceil(e2 * LLOG2)
        ulp = 100 * _POWS5[-point]
        out.append((point, ulp, 1 << (point - e2), ulp >> (point - e2 + 1)))
    for e2 in range(1, 972):
        point = math.ceil(e2 * LLOG2)
        ulp, den = 100 << (e2 - point), _POWS5[point]
        out.append((point, ulp, den, ulp // den >> 1))
    return tuple(out)


# (point, ulp, den, cut) for each finite biased exponent 0..0x7FE, where
# lmant * ulp / den == |f| / 10**(point - 2) and one ulp of f is `ulp` in
# the units of num = lmant * ulp: more than 10 and at most 100 units of
# 10**(point - 2).  cut == ulp // (2 * den), half an ulp rounded down in
# those units, so 5 <= cut <= 50.  Then 0 <= point <= 293 resp.
# 0 <= -point <= 323.  Immutable, so shared freely across threads.
_SCALES = _build_scales()


def _shortest(m: float, e: int, stats: ConversionStats | None) -> tuple[int, int]:
    """shortest_digits' (lquo, point) for |f| = m * 2**e, 0.5 <= m < 1, unchecked."""
    if e > -1022:
        ue2, lmant = e + 1022, int(m * 2.0**53)
    else:
        ue2, lmant = 0, int(math.ldexp(m, e + 1074))
    # num / den == |f| / 10**(point - 2), at the scale _SCALES holds for
    # this exponent: nothing about the scale is computed per write.
    point, ulp, den, cut = _SCALES[ue2]
    num = lmant * ulp
    # The one division: |q - num / den| <= 1/2.
    q = round_quotient(num, den, stats, "write")
    # |f| / 10**(point - less) rounded half-even is q's nearest multiple of
    # `scale`, in units of `scale`.  q % scale decides it, but at exactly
    # half a scale the side of num / den that q lies on does, and
    # q == num / den is a true tie.  q itself always fits:
    # 2 * |q * den - num| <= den < ulp / 10.
    if lmant == 1 << 52 and ue2 > 1:
        # Above a power of two with e2 > -1074 the next double down is half
        # as far, so the interval reaches a quarter ulp below and half an
        # ulp above (lmant is even: the endpoints count).  Every candidate
        # is measured exactly; one that falls short below gives way to its
        # upper neighbour, which then must lie within half an ulp above.
        for less, scale, half in ((0, 100, 50), (1, 10, 5)):
            lquo, d = divmod(q, scale)
            # No power of two reaches an odd exact tie, so ties need no parity.
            if d > half or d == half and q * den < num:
                lquo += 1
            dist = lquo * scale * den - num
            if -dist << 2 > ulp:  # more than a quarter ulp below
                lquo += 1
                dist += scale * den
            if dist << 1 <= ulp:
                break
        else:
            lquo, less = q, 2
    else:
        lquo, d = q // 100, q % 100
        # An exact tie (50 units off) fits only if ulp == 100 * den: e2 == point == 0, q % 100 == 0.
        if d > 50 or d == 50 and q * den < num:
            lquo += 1
            d = 100 - d
        # d is the candidate's distance from q, so its distance from |f|
        # lies within d +- 1/2 units, against half an ulp in [cut, cut + 1):
        # d < cut fits and d > cut + 1 does not.  Twice the exact distance
        # may reach one ulp, a tie only for an even significand.
        if d < cut or d <= cut + 1 and abs(lquo * 100 * den - num) << 1 <= ulp - (lmant & 1):
            less = 0
        else:
            # At point - 1, d <= 5 <= cut always fits: a tie at 5 rounds
            # toward |f| or is exact (10 * den < ulp).
            lquo, d = divmod(q, 10)
            if d > 5 or d == 5 and (q * den < num or q * den == num and lquo & 1):
                lquo += 1
            less = 1
    assert 0 < lquo < 10**17, "decimal significand out of range"
    return lquo, point - less


def shortest_digits(f: float, stats: ConversionStats | None = None) -> ShortestDigits:
    """Shortest (lquo, point) whose read-back equals |f| bit for bit.

    Of the shortest candidates the nearest to |f| is taken, or its upper
    neighbour where the nearest falls below a binade boundary's narrow
    interval.
    """
    m, e = math.frexp(abs(f))
    if not 0.5 <= m < 1.0:
        raise ValueError("shortest_digits requires a finite nonzero value")
    return ShortestDigits(*_shortest(m, e, stats))


def format_sci(negative: bool, lquo: int, point: int) -> str:
    """Render lquo * 10**point as d.dddEn with trailing zeros trimmed.

    A single-digit significand is padded to "d.0".  The exponent is point
    plus the untrimmed digit count minus one, printed without a plus sign.
    """
    sman = str(lquo)
    body = sman[1:].rstrip("0") or "0"
    sign = "-" if negative else ""
    exp = point + len(sman) - 1
    if -324 <= exp <= 308:
        exp = _EXP_TEXTS[exp + 324]
    return f"{sign}{sman[0]}.{body}E{exp}"


def double_to_string(f: float, stats: ConversionStats | None = None) -> str:
    """Shortest scientific notation whose read-back is bit-identical to f.

    Finite nonzero values render as format_sci does; the rest as "NaN",
    "Infinity", "-Infinity", "0.0" and "-0.0", so negative zero keeps
    its sign.
    """
    m, e = math.frexp(abs(f))
    if 0.5 <= m < 1.0:
        lquo, point = _shortest(m, e, stats)
        return format_sci(f < 0, lquo, point)
    if f != f:
        return "NaN"
    if f == math.inf:
        return "Infinity"
    if f == -math.inf:
        return "-Infinity"
    if math.copysign(1.0, f) < 0:
        return "-0.0"
    return "0.0"
