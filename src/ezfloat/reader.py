"""Decimal scientific notation to the nearest binary64, with one rounding.

The core routine scales the decimal significand by a power of two chosen so
that a single rounding division by a power of 5 (or 10) lands exactly on the
53-bit binary significand.  At most two rounding divisions are ever needed
per conversion; results below the normal range are produced by one rounding
at the subnormal bit position, never by rounding twice.
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


def parse_decimal(text: str) -> DecimalSci | float:
    """Parse scientific-notation text.

    The grammar is ``_NUMBER``::

        input    = sign? ("NaN" | "Infinity" | number)
        number   = digits ["." digits?] exponent?
                 | "." digits exponent?
        exponent = ("e" | "E") sign? digits

    Digits are ASCII only and the special words are case sensitive.  At
    least one mantissa digit must be present and the whole string must be
    consumed.  A rejection points just past the longest prefix that some
    accepted string starts with (``_VIABLE``).  Returns a canonical
    DecimalSci, or a float for the special tokens (NaN maps to the
    canonical quiet NaN regardless of sign).
    """
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
        return DecimalSci(negative, 0, 0)
    point = exp - len(frac_digits) + (len(digits) - len(stripped))
    return DecimalSci(negative, _digits_to_int(stripped), point)


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
    round-half-to-even division.  Overflow returns +Infinity, total
    underflow +0.0.  The sign is the caller's concern.
    """
    if mant < 0:
        raise ValueError("mant must be nonnegative")
    if mant == 0:
        return 0.0
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


def _decimal_digits_at_most(mant: int, bound: int) -> bool:
    # Whether mant has at most `bound` decimal digits, avoiding str() on
    # huge integers.  Digit-count bounds come from bit length; only the
    # ambiguous band needs one exact comparison.
    if bound <= 0:
        return False
    b = mant.bit_length()
    upper = b * 30103 // 100000 + 1
    if upper <= bound:
        return True
    lower = (b - 1) * 30102 // 100000 + 1
    if lower > bound:
        return False
    return mant < power_of_10(bound)


def _signed(value: float, negative: bool) -> float:
    return -value if negative else value


def _convert(dec: DecimalSci, stats: ConversionStats | None) -> float:
    if dec.mant == 0:
        return _signed(0.0, dec.negative)
    # Clamps keep powers and intermediate sizes bounded; any
    # value that could round to a finite nonzero double passes through
    # (the smallest half-ulp is 2**-1075 ~= 2.47e-324).
    if dec.point >= 309:
        return _signed(math.inf, dec.negative)
    if dec.point <= -324 and _decimal_digits_at_most(dec.mant, -324 - dec.point):
        return _signed(0.0, dec.negative)
    return _signed(mant_exp_to_double5(dec.mant, dec.point, stats), dec.negative)


def read_double_with_stats(text: str) -> ReadOutcome:
    """read_double plus the instrumentation for the conversion performed."""
    dec = parse_decimal(text)
    stats = ConversionStats()
    if isinstance(dec, float):
        return ReadOutcome(dec, stats)
    return ReadOutcome(_convert(dec, stats), stats)


def read_double(text: str) -> float:
    """Convert text to the nearest binary64 (round half to even)."""
    dec = parse_decimal(text)
    if isinstance(dec, float):
        return dec
    return _convert(dec, None)
