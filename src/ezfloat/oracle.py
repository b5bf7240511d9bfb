"""Brute-force-exact reference conversions used to verify the fast paths.

Nothing here shares scaling logic with the production reader: the
nearest-double computation works from the exact rational value, locating
the binade by integer comparison, and rounds once with the shared kernel
``round_quotient`` on operands it scaled itself.  A scaling bug would have
to be reinvented independently on both sides to hide.  So this module
imports only ``math``, ``bigmath.round_quotient`` and the reader's
``DecimalSci`` record, never the code it checks (enforced by
``tests/test_oracle.py::test_oracle_imports_nothing_it_checks``); the
audits that drive that code live in ``audit``.
"""

import math

from .bigmath import round_quotient
from .reader import DecimalSci

__all__ = ["minimality_check", "nearest_double_exact"]

# Values at or beyond the midpoint between the largest finite double and
# 2**1024 round to infinity; values at or below half the smallest subnormal
# round to zero (the tie goes to the even candidate, zero, in both cases).
_OVERFLOW_BOUNDARY = (1 << 1024) - (1 << 970)


def nearest_double_exact(dec: DecimalSci) -> float:
    """The binary64 nearest to dec's exact value, ties to even.

    Works purely on integers: the binade of the exact value a/b is found by
    shifted comparison, then the 53 significand bits (fewer at the
    subnormal scale) come from one exact rounding division.  Overflow and underflow are
    decided by comparing against 2**1024 - 2**970 and 2**-1075 exactly,
    once a bound from ``point`` has settled values far beyond them.
    """
    if dec.mant == 0:
        return -0.0 if dec.negative else 0.0
    # Far out of range before building 10**|point|: 2**(n-1) <= mant < 2**n
    # and 8**k <= 10**k put the value at or above 2**(n-1+3*point) when
    # point > 0, and below 2**(n+3*point) when point < 0.  What passes has
    # point <= 341 or -point < (n + 1075) / 3, so the power of ten built
    # below has at most 1133 bits, or about 1.11 * (n + 1075).
    n = dec.mant.bit_length()
    if dec.point > 0 and n - 1 + 3 * dec.point >= 1024:
        return -math.inf if dec.negative else math.inf
    if dec.point < 0 and n + 3 * dec.point <= -1075:
        return -0.0 if dec.negative else 0.0
    if dec.point >= 0:
        a, b = dec.mant * 10**dec.point, 1
    else:
        a, b = dec.mant, 10**-dec.point
    if a >= b * _OVERFLOW_BOUNDARY:
        return -math.inf if dec.negative else math.inf
    if a << 1075 <= b:
        return -0.0 if dec.negative else 0.0
    # Binade: 2**(d-1) <= a/b < 2**d.
    d = a.bit_length() - b.bit_length()
    if (a >> d if d >= 0 else a << -d) >= b:
        d += 1
    # Round at 53 bits, or at the fixed scale 2**-1074 below the normal range.
    e = max(d, -1021) - 53
    q = round_quotient(a << max(-e, 0), b << max(e, 0))
    assert q.bit_length() <= 54  # q <= 2**53; exact as a float either way
    value = math.ldexp(q, e)
    return -value if dec.negative else value


def _cmp_pow10(a: int, b: int, p: int) -> int:
    """Sign of a/b - 10**p."""
    if p >= 0:
        rhs = b * 10**p
        return (a > rhs) - (a < rhs)
    lhs = a * 10**-p
    return (lhs > b) - (lhs < b)


def _floor_log10(a: int, b: int) -> int:
    e = (a.bit_length() - b.bit_length()) * 30103 // 100000
    while _cmp_pow10(a, b, e + 1) >= 0:
        e += 1
    while _cmp_pow10(a, b, e) < 0:
        e -= 1
    return e


def minimality_check(f: float, produced_digits: int) -> bool:
    """True iff no decimal with fewer significant digits reads back to f.

    For every shorter digit count the two bracketing decimal neighbours of
    |f| are constructed exactly (floor and ceiling at the admissible
    decimal exponent, so a shortest form that is not the correctly rounded
    prefix is still caught) and pushed through nearest_double_exact.
    """
    if not 0.0 < abs(f) < math.inf:
        raise ValueError("minimality_check requires a finite nonzero value")
    if produced_digits <= 1:
        return True
    a, b = abs(f).as_integer_ratio()
    exp10 = _floor_log10(a, b)
    target = abs(f)
    for d in range(1, produced_digits):
        p = exp10 - d + 1
        if p >= 0:
            lo = a // (b * 10**p)
        else:
            lo = (a * 10**-p) // b
        for cand in (lo, lo + 1):
            if cand <= 0:
                continue
            if nearest_double_exact(DecimalSci(False, cand, p)) == target:
                return False
    return True
