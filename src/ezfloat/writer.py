"""binary64 to the shortest scientific-notation string that reads back exactly.

|f| = lmant * 2**e2 is divided by 10**point with one rounding division,
starting at the fewest digits the binary exponent allows.  The division's
exact remainder decides whether the quotient reads back to f: it must lie
in f's rounding interval, half an ulp on each side, with the endpoints
counting only for an even significand.  Just above a binade boundary the
interval reaches only a quarter ulp down; a quotient that falls short
there gives way to its upper neighbour when that one fits.  Otherwise one
more digit is taken.  Two divisions all but always suffice, three are the
most any double needs, and nothing is read back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ._bits import float_to_bits
from .bigmath import LLOG2, ConversionStats, power_of_5, round_quotient

__all__ = [
    "FloatKind",
    "ShortestDigits",
    "UnpackedDouble",
    "double_to_string",
    "double_to_string_fast",
    "estimate_point",
    "format_sci",
    "shortest_digits",
    "unpack_double",
]

_FRAC_MASK = (1 << 52) - 1


class FloatKind(Enum):
    ZERO = "zero"
    SUBNORMAL = "subnormal"
    NORMAL = "normal"
    INFINITE = "infinite"
    NAN = "nan"


@dataclass(frozen=True)
class UnpackedDouble:
    """Sign, integer significand and binary exponent: |value| = lmant * 2**e2.

    Normals carry the implicit bit (2**52 <= lmant < 2**53); subnormals and
    zero sit at the fixed scale e2 = -1074.  For NaN, lmant holds the raw
    payload and e2 is 0.
    """

    negative: bool
    lmant: int
    e2: int
    kind: FloatKind


@dataclass(frozen=True)
class ShortestDigits:
    """Decimal significand as an integer: |value| reads back from lquo * 10**point."""

    lquo: int
    point: int


def _fields(f: float) -> tuple[int, int, int]:
    """Sign bit, biased exponent and 52-bit fraction of f's bit pattern."""
    bits = float_to_bits(f)
    return bits >> 63, (bits >> 52) & 0x7FF, bits & _FRAC_MASK


def unpack_double(f: float) -> UnpackedDouble:
    sign, ue2, frac = _fields(f)
    negative = bool(sign)
    if ue2 == 0x7FF:
        return UnpackedDouble(negative, frac, 0, FloatKind.NAN if frac else FloatKind.INFINITE)
    # Biased exponent 0 means no implicit bit and a one-higher scale.
    if ue2 == 0:
        kind = FloatKind.ZERO if frac == 0 else FloatKind.SUBNORMAL
        return UnpackedDouble(negative, frac, -1074, kind)
    return UnpackedDouble(negative, frac + (1 << 52), ue2 - 1075, FloatKind.NORMAL)


def estimate_point(e2: int) -> int:
    """ceil(e2 * log10(2)): the unique p with 10**(p-1) < 2**e2 <= 10**p.

    Exact for every binary64 exponent (verified by integer comparison over
    [-1100, 1100] in the test suite).
    """
    return math.ceil(e2 * LLOG2)


def shortest_digits(f: float, stats: ConversionStats | None = None) -> ShortestDigits:
    """Shortest (lquo, point) whose read-back equals |f| bit for bit.

    Of the shortest candidates the nearest to |f| is taken, or its upper
    neighbour where the nearest falls below a binade boundary's narrow
    interval.
    """
    _, ue2, lmant = _fields(f)
    if ue2 == 0x7FF or (ue2 == 0 and lmant == 0):
        raise ValueError("shortest_digits requires a finite nonzero value")
    if ue2:
        lmant += 1 << 52
        e2 = ue2 - 1075
    else:
        e2 = -1074
    point = estimate_point(e2)
    # num / den == |f| / 10**point, and one ulp of f is `ulp` in num's units.
    if e2 > 0:
        ulp = 1 << (e2 - point)
        den = power_of_5(point)
    else:
        ulp = power_of_5(-point)
        den = 1 << (point - e2)
    num = lmant * ulp
    # Twice a candidate's distance from |f| may reach one ulp, a tie only
    # for an even significand.  Above a power of two the next double down
    # is half as far, so the reach below halves.
    odd = lmant & 1
    narrow = 1 if lmant == 1 << 52 and e2 > -1074 else 0
    for _ in range(3):
        lquo = round_quotient(num, den, stats, "write-attempt")
        dist2 = (lquo * den - num) << 1
        if dist2 >= 0:
            if dist2 <= ulp - odd:
                break
        elif (-dist2 << narrow) <= ulp - odd:
            break
        elif narrow and dist2 + (den << 1) <= ulp:
            lquo += 1
            break
        # One more digit: |f| / 10**point grows tenfold, and the ulp with it.
        point -= 1
        if e2 > 0:
            num <<= 1
            ulp <<= 1
            den = power_of_5(point)
        else:
            num *= 10
            ulp *= 10
    else:
        raise AssertionError(f"shortest-digits candidates exhausted for {f!r}")
    assert 0 < lquo < 10**17, "decimal significand out of range"
    return ShortestDigits(lquo, point)


def format_sci(negative: bool, lquo: int, point: int, compat: bool = False) -> str:
    """Render lquo * 10**point as d.dddEn with trailing zeros trimmed.

    A single-digit significand is padded to "d.0" unless ``compat`` asks
    for the bare "d." form.  The exponent is point plus the untrimmed
    digit count minus one, printed without a plus sign.
    """
    sman = str(lquo)
    length = len(sman)
    lent = length
    while sman[lent - 1] == "0":
        lent -= 1
    head = "-" + sman[0] if negative else sman[0]
    if lent > 1:
        body = sman[1:lent]
    else:
        body = "" if compat else "0"
    return f"{head}.{body}E{point + length - 1}"


def double_to_string(
    f: float, compat: bool = False, stats: ConversionStats | None = None
) -> str:
    """Shortest scientific notation whose read-back is bit-identical to f.

    ``compat`` restores two legacy behaviours: negative zero prints as
    "0.0" and single-digit significands drop the padded fractional zero.
    """
    if f != f:
        return "NaN"
    if f == math.inf:
        return "Infinity"
    if f == -math.inf:
        return "-Infinity"
    if f == 0.0:
        if not compat and math.copysign(1.0, f) < 0:
            return "-0.0"
        return "0.0"
    sd = shortest_digits(f, stats)
    return format_sci(f < 0, sd.lquo, sd.point, compat)


# Same function under the name that `write --fast` and `bench --fast` use.
double_to_string_fast = double_to_string
