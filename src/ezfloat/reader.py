"""Decimal scientific notation to the nearest binary64, with one rounding.

The core routine scales the decimal significand by a power of two chosen so
that a single rounding division by a power of 5 (or 10) lands exactly on the
53-bit binary significand.  At most two rounding divisions are ever needed
per conversion; results below the normal range are produced by one rounding
at the subnormal bit position, never by rounding twice.  When both the
significand and the power of ten are exact doubles (Clinger's path), the
one rounding is an IEEE multiply or divide and no division is made.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .bigmath import (
    DBL_MANT_DIG,
    ConversionStats,
    power_of_5,
    power_of_10,
    round_quotient,
)

__all__ = [
    "DecimalSci",
    "ParseError",
    "ReadOutcome",
    "mant_exp_to_double5",
    "mant_exp_to_double10",
    "parse_decimal",
    "read_double",
    "read_double_with_stats",
]

# Exponents written with more than this many digits are treated as +/-huge;
# the overflow/underflow clamps make the result exact without ever building
# a proportionally huge integer.
_MAX_EXP_DIGITS = 10
_HUGE_EXP = 10**12

# CPython limits str<->int conversion length; convert long digit runs in
# chunks so mantissas of any length are read exactly.
_INT_CHUNK = 4000
_CHUNK_SCALE = 10**_INT_CHUNK

# Significant digits a read keeps: the most any binary64 halfway point
# has, that of (2**53 - 1) * 2**-1075 between the largest subnormal and
# the smallest normal.  A longer significand keeps these plus one sticky
# digit.
_KEPT_DIGITS = 768

# Clinger's exact path: 10**k for 0 <= k <= 22 is an exact binary64
# (5**22 < 2**53), so mant * 10**point with mant < 2**53 is one IEEE
# rounding of two exact operands.
_CLINGER_POWS = tuple(float(10**k) for k in range(23))
_CLINGER_MANT = 1 << DBL_MANT_DIG

# The accepted grammar, groups: sign, NaN, Infinity, integer digits,
# fraction digits, exponent sign, exponent digits.  A match with no
# mantissa digit and no special word is rejected.
_NUMBER = re.compile(
    r"([+-]?)(?:(NaN)|(Infinity)|(\d*)(?:\.(\d*))?(?:[eE]([+-]?)(\d+))?)",
    re.ASCII,
)
# The longest prefix of some accepted string: an exponent is viable only
# after a digit, the special words only whole.
_VIABLE = re.compile(
    r"[+-]?(?:NaN|Infinity|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?|\.?)",
    re.ASCII,
)


class ParseError(ValueError):
    """Rejected input text; ``position`` indexes the offending character,
    or equals the text's length when the input ends early."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


@dataclass(frozen=True)
class DecimalSci:
    """A parsed decimal: value = (-1)**negative * mant * 10**point.

    Canonical form has no trailing zero digits in ``mant`` (they are folded
    into ``point``) and ``point == 0`` when ``mant == 0``.
    """

    negative: bool
    mant: int
    point: int


@dataclass(frozen=True)
class ReadOutcome:
    value: float
    stats: ConversionStats


def _digits_to_int(s: str) -> int:
    if len(s) <= _INT_CHUNK:
        return int(s)
    val = 0
    for pos in range(0, len(s), _INT_CHUNK):
        chunk = s[pos : pos + _INT_CHUNK]
        if len(chunk) == _INT_CHUNK:
            val = val * _CHUNK_SCALE + int(chunk)
        else:
            val = val * 10 ** len(chunk) + int(chunk)
    return val


def _scan(text: str) -> tuple[bool, str, int] | float:
    # The one scanner: (negative, digits, point) with the value
    # (-1)**negative * int(digits) * 10**point, where digits has no leading
    # or trailing zero ("" for zero, with point 0), or a float for the
    # special tokens.
    m = _NUMBER.fullmatch(text)
    if m is None or not (m[2] or m[3] or m[4] or m[5]):
        pos = _VIABLE.match(text).end()
        what = repr(text[pos]) if pos < len(text) else "end of input"
        raise ParseError(f"unexpected {what}", pos)
    sign, nan, inf, int_digits, frac_digits, exp_sign, exp_digits = m.groups("")
    negative = sign == "-"
    if nan:
        return math.nan
    if inf:
        return -math.inf if negative else math.inf

    exp = 0
    if exp_digits:
        exp_digits = exp_digits.lstrip("0")
        if len(exp_digits) > _MAX_EXP_DIGITS:
            exp = _HUGE_EXP  # saturates; the read clamps decide the value
        else:
            exp = int(exp_digits or 0)
        if exp_sign == "-":
            exp = -exp

    digits = (int_digits + frac_digits).lstrip("0")
    stripped = digits.rstrip("0")
    if not stripped:
        return negative, "", 0
    return negative, stripped, exp - len(frac_digits) + (len(digits) - len(stripped))


def parse_decimal(text: str) -> DecimalSci | float:
    """Parse scientific-notation text, keeping every significand digit.

    The grammar is ``_NUMBER``::

        input    = sign? ("NaN" | "Infinity" | number)
        number   = digits ["." digits?] exponent?
                 | "." digits exponent?
        exponent = ("e" | "E") sign? digits

    Digits are ASCII only and the special words are case sensitive.  At
    least one mantissa digit must be present and the whole string must be
    consumed.  A rejection points just past the longest prefix that some
    accepted string starts with (``_VIABLE``).  Returns a canonical
    DecimalSci, exact at any length, or a float for the special tokens
    (NaN maps to the canonical quiet NaN regardless of sign).
    """
    scanned = _scan(text)
    if isinstance(scanned, float):
        return scanned
    negative, digits, point = scanned
    return DecimalSci(negative, _digits_to_int(digits or "0"), point)


def _finish(quo: int, e: int) -> float:
    # quo <= 2**53, so the int -> float conversion is exact.
    if e + quo.bit_length() - 1 > 1023:
        return math.inf
    return math.ldexp(quo, e)


def _subnormal_quotient(
    mant: int, point: int, scl5: int, stats: ConversionStats | None
) -> float:
    # One rounding at the fixed subnormal scale 2**-1074: the quotient is
    # round(value * 2**1074) and the final scaling is exact.  A quotient of
    # exactly 2**52 is the smallest normal and still scales exactly.
    shift = 1074 + point
    if shift >= 0:
        quo = round_quotient(mant << shift, scl5, stats, "read-subnormal")
    else:
        quo = round_quotient(mant, scl5 << -shift, stats, "read-subnormal")
    return math.ldexp(quo, -1074)


def _is_subnormal(num: int, den: int, scale: int) -> bool:
    # Exact test for value = (num/den) * 2**scale < 2**-1022, relying on
    # num/den lying strictly inside (2**52, 2**54).
    if scale + 52 >= -1022:
        return False
    if scale + 54 <= -1022:
        return True
    e = -1022 - scale  # 53 or 54 here
    return num < den << e


def mant_exp_to_double5(
    mant: int, point: int, stats: ConversionStats | None = None
) -> float:
    """Nearest binary64 to mant * 10**point, scaling with powers of 5.

    ``mant`` may be arbitrarily large; the rounding is always a single
    round-half-to-even division, or one IEEE multiply or divide when
    ``mant < 2**53`` and ``|point| <= 22``.  Overflow returns +Infinity,
    total underflow +0.0.  The sign is the caller's concern.
    """
    if mant < 0:
        raise ValueError("mant must be nonnegative")
    if mant == 0:
        return 0.0
    if mant < _CLINGER_MANT and -22 <= point <= 22:
        if point >= 0:
            return mant * _CLINGER_POWS[point]
        return mant / _CLINGER_POWS[-point]
    if point >= 0:
        num = mant * power_of_5(point)
        bex = num.bit_length() - DBL_MANT_DIG
        if bex <= 0:
            return math.ldexp(num, point)  # exact: num fits the significand
        quo = round_quotient(num, 1 << bex, stats, "read5-shift")
        return _finish(quo, bex + point)

    scl = power_of_5(-point)
    bex = mant.bit_length() - scl.bit_length() - DBL_MANT_DIG
    if bex < 0:
        num = mant << -bex
        den = scl
    else:
        num = mant
        den = scl << bex
    quo = round_quotient(num, den, stats, "read5-main")
    if _is_subnormal(num, den, bex + point):
        return _subnormal_quotient(mant, point, scl, stats)
    if quo.bit_length() > DBL_MANT_DIG:
        bex += 1
        quo = round_quotient(num, den << 1, stats, "read5-retry")
    return _finish(quo, bex + point)


def mant_exp_to_double10(
    mant: int, point: int, stats: ConversionStats | None = None
) -> float:
    """mant_exp_to_double5 with power-of-10 scaling, kept as a reference.

    Intermediate integers run roughly 40% wider than on the power-of-5
    route; the two must agree bit for bit on every input.
    """
    if mant < 0:
        raise ValueError("mant must be nonnegative")
    if mant == 0:
        return 0.0
    if point >= 0:
        num = mant * power_of_10(point)
        bex = num.bit_length() - DBL_MANT_DIG
        if bex <= 0:
            return float(num)  # exact small integer
        quo = round_quotient(num, 1 << bex, stats, "read10-shift")
        return _finish(quo, bex)

    scl = power_of_10(-point)
    bex = mant.bit_length() - scl.bit_length() - DBL_MANT_DIG
    if bex < 0:
        num = mant << -bex
        den = scl
    else:
        num = mant
        den = scl << bex
    quo = round_quotient(num, den, stats, "read10-main")
    if _is_subnormal(num, den, bex):
        return _subnormal_quotient(mant, point, power_of_5(-point), stats)
    if quo.bit_length() > DBL_MANT_DIG:
        bex += 1
        quo = round_quotient(num, den << 1, stats, "read10-retry")
    return _finish(quo, bex)


def _signed(value: float, negative: bool) -> float:
    return -value if negative else value


def _convert(
    negative: bool, digits: str, point: int, stats: ConversionStats | None
) -> float:
    # The value is int(digits) * 10**point with 10**(top-1) <= value < 10**top.
    if not digits:
        return _signed(0.0, negative)
    top = point + len(digits)
    # value >= 10**309 overflows; value < 10**-324, under half the
    # smallest subnormal (2**-1075 ~= 2.47e-324), underflows.
    if top > 309:
        return _signed(math.inf, negative)
    if top <= -324:
        return _signed(0.0, negative)
    # Every binary64 halfway point has at most 768 significant digits.  A
    # longer significand and its first 768 digits plus a sticky 1 (the
    # stripped tail is nonzero) lie strictly inside the same gap between
    # adjacent 768-digit decimals, which holds no halfway point, so both
    # round alike.
    if len(digits) > _KEPT_DIGITS + 1:
        point = top - _KEPT_DIGITS - 1
        digits = digits[:_KEPT_DIGITS] + "1"
    return _signed(mant_exp_to_double5(int(digits), point, stats), negative)


def read_double_with_stats(text: str) -> ReadOutcome:
    """read_double plus the instrumentation for the conversion performed."""
    scanned = _scan(text)
    stats = ConversionStats()
    if isinstance(scanned, float):
        return ReadOutcome(scanned, stats)
    return ReadOutcome(_convert(*scanned, stats), stats)


def read_double(text: str) -> float:
    """Convert text to the nearest binary64 (round half to even).

    Only the first 768 significant digits and one sticky digit standing
    for the nonzero rest take part in the conversion, so a read costs
    one scan of the text plus a conversion of bounded width.
    """
    scanned = _scan(text)
    if isinstance(scanned, float):
        return scanned
    return _convert(*scanned, None)
