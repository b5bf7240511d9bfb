"""Decimal scientific notation to the nearest binary64, with one rounding.

The core routine scales the decimal significand by a power of two chosen so
that a single rounding division by a power of 5 lands exactly on the 53-bit
binary significand.  A shift and a compare settle the binary exponent
before dividing, so a conversion makes at most one rounding division; results
below the normal range are produced by that one rounding at the subnormal bit
position, never by rounding twice.  When both the significand and the
power of ten are exact doubles (Clinger's path), the one rounding is an IEEE
multiply or divide and no division is made.

``mant_exp_to_double5`` and ``mant_exp_to_double10`` are that one routine,
``_to_double``, with ``2**point`` kept outside the operands (powers of 5)
or shifted into them (powers of 10).  ``_to_double`` checks nothing: it
takes a positive significand whose value is neither past the overflow
clamp nor below the underflow clamp.  The bindings, which accept any
``mant`` and ``point``, make those checks first, each once: a negative
``mant`` is rejected, and zero, overflow and total underflow return
before a power is built.  ``read_double`` makes its own clamps from the
text's digit count and exponent, then calls ``_to_double`` the way
``mant_exp_to_double5`` does, on at most the significant digits a binary64
halfway point in the value's decade can have, plus one sticky digit.
"""

from __future__ import annotations

import functools
import math
import re
from collections import namedtuple

from .bigmath import _POWS5, DBL_MANT_DIG, MAX_POW, ConversionStats, round_quotient

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

# Exponents of more than this many digits, leading zeros not counted, are
# treated as +/-huge; the overflow/underflow clamps make the result exact
# without ever building a proportionally huge integer.  An exponent of at
# most this many characters is read as it is, zeros and all.
_MAX_EXP_DIGITS = 10
_HUGE_EXP = 10**12

# CPython limits str<->int conversion length; convert long digit runs in
# chunks so mantissas of any length are read exactly.
_INT_CHUNK = 4000

# Clinger's exact path: 10**k for 0 <= k <= 22 is an exact binary64
# (5**22 < 2**53), so mant * 10**point with mant < 2**53 is one IEEE
# rounding of two exact operands.
_CLINGER_POWS = tuple(float(10**k) for k in range(23))
_CLINGER_MANT = 1 << DBL_MANT_DIG

# The longest prefix of some accepted string: an exponent is viable only
# after a digit, the special words only whole.  Groups: sign, integer
# digits, fraction digits, exponent mark, exponent sign, exponent digits,
# NaN, Infinity.  Digits are spelled [0-9], not \d: the same ASCII set,
# but sre tests a range about 25% faster per character than the digit
# category, and a long read spends most of its scan here.
_NUMBER = re.compile(
    r"([+-]?)(?:(?:([0-9]+)|(?=\.[0-9]))(?:\.([0-9]*))?(?:([eE])([+-]?)([0-9]*))?|(NaN)|(Infinity)|\.?)"
)


class ParseError(ValueError):
    """Rejected input text; ``position`` indexes the offending character,
    or equals the text's length when the input ends early."""

    def __init__(self, message: str, position: int):
        # Both arguments kept in args, so pickle and copy can rebuild it.
        super().__init__(message, position)
        self.position = position

    def __str__(self) -> str:
        return f"{self.args[0]} at position {self.position}"


def _record_repr(record) -> str:
    """A named tuple's repr, with an int field past CPython's int-to-str
    limit (4300 digits by default) shown as ``<N digits>``."""
    fields = []
    for name, value in zip(record._fields, record):
        try:
            fields.append(f"{name}={value!r}")
        except ValueError:  # floor(log10 |value|) is k or k - 1
            k = round(math.log10(abs(value)))
            fields.append(f"{name}=<{k + (abs(value) >= 10**k)} digits>")
    return f"{type(record).__name__}({', '.join(fields)})"


class DecimalSci(namedtuple("DecimalSci", "negative mant point")):
    """A parsed decimal: value = (-1)**negative * mant * 10**point.

    Canonical form has no trailing zero digits in ``mant`` (they are folded
    into ``point``) and ``point == 0`` when ``mant == 0``.
    """

    __slots__ = ()
    __repr__ = _record_repr


class ReadOutcome(namedtuple("ReadOutcome", "value stats")):
    """A read's value and the ConversionStats of the conversion."""

    __slots__ = ()


def _digits_to_int(s: str) -> int:
    # Divide and conquer at a chunk boundary: hi + lo reads as
    # int(hi) * 10**len(lo) + int(lo).  Halving the chunk count keeps the
    # products balanced, which CPython multiplies subquadratically; one
    # growing product per chunk would be quadratic.
    if len(s) <= _INT_CHUNK:
        return int(s)
    m = -(-len(s) // _INT_CHUNK) // 2 * _INT_CHUNK
    return _digits_to_int(s[:-m]) * 10**m + _digits_to_int(s[-m:])


def _scan(text: str) -> tuple[bool, str, int] | float:
    # The one scanner: (negative, digits, point) with the value
    # (-1)**negative * int(digits) * 10**point, where digits has no leading
    # or trailing zero ("" for zero, with point 0), or a float for the
    # special tokens.  A match short of the text, or not itself accepted
    # ("+", "1e"), is rejected where it ends.
    m = _NUMBER.match(text)
    if (pos := m.end()) == len(text):
        sign, int_digits, frac_digits, mark, exp_sign, exp_digits, nan, inf = m.groups("")
        if (int_digits or frac_digits) and (exp_digits or not mark):
            digits = (int_digits + frac_digits).lstrip("0")
            stripped = digits.rstrip("0")
            if not stripped:
                return sign == "-", "", 0
            point = len(digits) - len(stripped) - len(frac_digits)
            if exp_digits:
                if len(exp_digits) <= _MAX_EXP_DIGITS:
                    exp = int(exp_digits)
                elif len(exp_digits := exp_digits.lstrip("0")) > _MAX_EXP_DIGITS:
                    exp = _HUGE_EXP  # saturates; the read clamps decide the value
                else:
                    exp = int(exp_digits or 0)
                point = point - exp if exp_sign == "-" else point + exp
            return sign == "-", stripped, point
        if nan:
            return math.nan
        if inf:
            return -math.inf if sign == "-" else math.inf
    what = repr(text[pos]) if pos < len(text) else "end of input"
    raise ParseError(f"unexpected {what}", pos)


def parse_decimal(text: str) -> DecimalSci | float:
    """Parse scientific-notation text, keeping every significand digit.

    The grammar, which ``_NUMBER`` states::

        input    = sign? ("NaN" | "Infinity" | number)
        number   = digits ["." digits?] exponent?
                 | "." digits exponent?
        exponent = ("e" | "E") sign? digits

    Digits are ASCII only and the special words are case sensitive.  At
    least one mantissa digit must be present and the whole string must be
    consumed.  A rejection points just past the longest prefix that some
    accepted string starts with, where the match ends.  Returns a canonical
    DecimalSci, its significand exact at any length, or a float for the
    special tokens (NaN maps to the canonical quiet NaN regardless of
    sign).  An exponent of more than ten digits saturates to +/-10**12
    (``_HUGE_EXP``), so ``point`` is then inexact but still far beyond the
    overflow and underflow clamps that decide such a value.
    """
    scanned = _scan(text)
    if isinstance(scanned, float):
        return scanned
    negative, digits, point = scanned
    return DecimalSci(negative, _digits_to_int(digits or "0"), point)


@functools.cache
def _kept_digits(top: int) -> int:
    # The most significant digits a binary64 halfway point in the decade
    # [10**(top-1), 10**top) has, for -323 <= top <= 309.  With 2**e0 the
    # ulp of the binade holding 10**(top-1), at least 2**-1074, every
    # halfway point of the decade is a multiple of 2**(e0-1) below
    # 10**top: it has at most 1 - e0 fraction digits, and is an integer
    # when e0 >= 1.  floor(log2(10**k)) is k + floor(log2(5**k)): exactly
    # k + bits(5**k) - 1 for k >= 0 and k - bits(5**-k) for k < 0.
    # Cached: one entry per decade a long read reaches, at most 633, each
    # computed on first use.
    k = top - 1
    if k >= 0:
        e0 = k + _POWS5[k].bit_length() - 1 - 52
    else:
        e0 = max(k - _POWS5[-k].bit_length() - 52, -1074)
    return top + 1 - e0 if e0 < 1 else top


def _to_double(mant: int, point: int, stats: ConversionStats | None, twos: int) -> float:
    # mant * 10**point as mant * 5**point * 2**point, with 2**twos outside
    # the operands and 2**(point - twos) shifted into them: twos is point
    # (powers of 5) or 0 (powers of 10); a shift by 0 would only copy.
    # Unchecked: the caller has made sure that mant > 0, that point <= 308
    # and that the value is not below the underflow clamp, so 5**point and,
    # on every read, 5**-point are in the power table.
    if mant < _CLINGER_MANT and -22 <= point <= 22:
        if point >= 0:
            return mant * _CLINGER_POWS[point]
        return mant / _CLINGER_POWS[-point]
    if point >= 0:
        # Past Clinger's path mant >= 2**53 or point >= 23 (5**23 > 2**53),
        # so num has at least 54 bits and bex >= 1.
        num = mant * _POWS5[point]
        if not twos:
            num <<= point
        bex = num.bit_length() - DBL_MANT_DIG
        den = 1 << bex
        site = "read-shift"
    else:
        # value = (num / den) * 2**(bex + twos), with num 53 bits longer
        # than den, so 2**52 < num/den < 2**54.  One shift and compare
        # settle the binary exponent before the one rounding: afterwards
        # 2**52 <= num/den < 2**53 and the quotient has 53 bits, or is
        # 2**53 after a rounding carry, which still converts exactly.
        # Only a binding's long significand reaches a point below -MAX_POW.
        scl = pow5 = _POWS5[-point] if point >= -MAX_POW else 5**-point
        if not twos:
            scl <<= -point
        bex = mant.bit_length() - scl.bit_length() - DBL_MANT_DIG
        if bex < 0:
            num = mant << -bex
            den = scl
        else:
            num = mant
            den = scl << bex
        if num >= den << DBL_MANT_DIG:
            den <<= 1
            bex += 1
        # value < 2**(bex + twos + 53) <= 2**-1022 exactly when subnormal.
        # Then the quotient is round(value * 2**1074), by 5**-point in either
        # binding; 2**52 is the smallest normal and still scales exactly.
        if bex + twos + 52 < -1022:
            shift = 1074 + point
            num = mant << max(shift, 0)
            den = pow5 << max(-shift, 0)
            bex = -1074 - twos
            site = "read-subnormal"
        else:
            site = "read-main"
    quo = round_quotient(num, den, stats, site)
    # quo <= 2**53 converts exactly, so ldexp is exact or overflows.
    try:
        return math.ldexp(quo, bex + twos)
    except OverflowError:
        return math.inf


def _checked(mant: int, point: int, stats: ConversionStats | None, twos: int) -> float:
    # The bindings' checks, each made once, before any power is built;
    # then the conversion.
    if mant < 0:
        raise ValueError("mant must be nonnegative")
    if mant == 0:
        return 0.0
    if point >= 309:
        return math.inf  # value >= 10**309, past the largest double
    if point < -324 and point + mant.bit_length() * 30103 // 100000 < -324:
        return 0.0  # value < 2**bits * 10**point < 10**-324
    return _to_double(mant, point, stats, twos)


def mant_exp_to_double5(
    mant: int, point: int, stats: ConversionStats | None = None
) -> float:
    """Nearest binary64 to mant * 10**point, scaling with powers of 5.

    ``mant`` may be arbitrarily large; the rounding is always a single
    round-half-to-even division, or one IEEE multiply or divide when
    ``mant < 2**53`` and ``|point| <= 22``.  Overflow returns +Infinity,
    total underflow +0.0, both without building a power for a ``point``
    beyond range.  The sign is the caller's concern.
    """
    return _checked(mant, point, stats, point)


def mant_exp_to_double10(
    mant: int, point: int, stats: ConversionStats | None = None
) -> float:
    """mant_exp_to_double5 with ``2**point`` left inside a power of 10.

    The same routine and the same values and division counts, with
    operands roughly 40% wider: the contrast acceptance criterion 5
    measures, not a separate implementation.
    """
    return _checked(mant, point, stats, 0)


def read_double(text: str, stats: ConversionStats | None = None) -> float:
    """Convert text to the nearest binary64 (round half to even).

    A significand longer than any binary64 halfway point of its decade
    keeps only that many significant digits (17 to 768, 296 on average
    over the decades) and one sticky digit standing for the nonzero rest,
    so a read costs one scan of the text plus a conversion of bounded
    width, with at most one rounding division.  The read clamps zero,
    overflow and underflow itself, from the digit count and the exponent,
    and then makes mant_exp_to_double5's conversion without that
    binding's frame or its checks, which the clamps have already settled.
    When *stats* is given that division is recorded there.
    """
    scanned = _scan(text)
    if scanned.__class__ is float:
        return scanned
    negative, digits, point = scanned
    # The value is int(digits) * 10**point with 10**(top-1) <= value < 10**top.
    top = point + len(digits)
    # value >= 10**309 overflows; value < 10**-324, under half the
    # smallest subnormal (2**-1075 ~= 2.47e-324), underflows.
    if not digits or top <= -324:
        value = 0.0
    elif top > 309:
        value = math.inf
    else:
        # Every binary64 halfway point in this decade has at most
        # kept = _kept_digits(top) significant digits, and kept >= 17.  A
        # longer significand and its first kept digits plus a sticky 1
        # (the stripped tail is nonzero) lie strictly inside the same gap
        # between adjacent kept-digit decimals, which holds no halfway
        # point, so both round alike.
        if len(digits) > 18:
            kept = _kept_digits(top)
            if len(digits) > kept + 1:
                point = top - kept - 1
                digits = digits[:kept] + "1"
        value = _to_double(int(digits), point, stats, point)
    return -value if negative else value


def read_double_with_stats(text: str) -> ReadOutcome:
    """read_double plus the instrumentation for the conversion performed."""
    stats = ConversionStats()
    return ReadOutcome(read_double(text, stats), stats)
