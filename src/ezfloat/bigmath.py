"""Arbitrary-precision integer support: the rounding quotient and power tables.

Everything downstream (reading, writing, the exact oracle) is built on a
single division primitive that rounds to nearest with ties to even, plus
precomputed tables of integer powers of 5 and 10.  The reader and writer
call ``round_quotient``, which also records each division in an optional
``ConversionStats``; the oracle calls ``round_quotient_big``, the same
rounding without the result-width contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DBL_MANT_DIG",
    "LLOG2",
    "MAX_POW",
    "POWER_TABLES",
    "ConversionStats",
    "PowerTables",
    "power_of_5",
    "power_of_10",
    "round_quotient",
    "round_quotient_big",
]

DBL_MANT_DIG = 53            # significand bits of binary64, implicit bit included
LLOG2 = math.log10(2.0)      # nearest binary64 to log10(2)

MAX_POW = 325


@dataclass(frozen=True)
class PowerTables:
    """Immutable tables of 5^k and 10^k for 0 <= k <= maxpow."""

    pows5: tuple[int, ...]
    pows10: tuple[int, ...]
    maxpow: int


def _build(base: int) -> tuple[int, ...]:
    out = [1]
    for _ in range(MAX_POW):
        out.append(out[-1] * base)
    return tuple(out)


POWER_TABLES = PowerTables(pows5=_build(5), pows10=_build(10), maxpow=MAX_POW)

_POWS5 = POWER_TABLES.pows5
_POWS10 = POWER_TABLES.pows10


@dataclass
class ConversionStats:
    """Per-call instrumentation for the conversion routines.

    Every rounding division of a read or a write passes through
    ``round_quotient``, which notes it here when given a stats object:
    ``divisions`` counts them, ``max_intermediate_bits`` is the widest
    operand fed to one.  ``trace`` (opt-in) records every division as
    ``(site, num_bits, den_bits, quotient)`` for the quotient-length audit.
    """

    divisions: int = 0
    max_intermediate_bits: int = 0
    trace: list[tuple[str, int, int, int]] | None = None

    def note_division(self, site: str, num: int, den: int, quo: int) -> None:
        self.divisions += 1
        nb = num.bit_length()
        db = den.bit_length()
        if nb > self.max_intermediate_bits:
            self.max_intermediate_bits = nb
        if db > self.max_intermediate_bits:
            self.max_intermediate_bits = db
        if self.trace is not None:
            self.trace.append((site, nb, db, quo))


def round_quotient_big(num: int, den: int) -> int:
    """Nearest integer to num/den with ties to even, of any width.

    Requires num >= 0 and den > 0; a zero denominator raises
    ZeroDivisionError.  If twice the remainder exceeds the denominator the
    quotient rounds up; if below, down; on a tie it takes the even one.
    """
    if num < 0 or den < 0:
        raise ValueError("the rounding division requires num >= 0 and den > 0")
    quo, rem = divmod(num, den)
    rem2 = rem << 1
    if rem2 > den or (rem2 == den and quo & 1):
        quo += 1
    return quo


def round_quotient(
    num: int, den: int, stats: ConversionStats | None = None, site: str = ""
) -> int:
    """round_quotient_big for the conversions: result fits 63 bits.

    The width limit is a caller contract, checked by assertion: every
    caller in this package produces quotients of at most 57 bits.  When
    *stats* is given the division is recorded there under *site*.
    """
    quo = round_quotient_big(num, den)
    assert quo.bit_length() <= 63, "round_quotient result exceeds 63 bits"
    if stats is not None:
        stats.note_division(site, num, den, quo)
    return quo


def power_of_5(k: int) -> int:
    """5**k.  Table lookup for k <= 325, chained table products beyond."""
    if k < 0:
        raise ValueError("power_of_5 requires k >= 0")
    if k <= MAX_POW:
        return _POWS5[k]
    acc = _POWS5[MAX_POW]
    k -= MAX_POW
    while k > MAX_POW:
        acc *= _POWS5[MAX_POW]
        k -= MAX_POW
    return acc * _POWS5[k]


def power_of_10(k: int) -> int:
    """10**k, same table-plus-chaining scheme as power_of_5."""
    if k < 0:
        raise ValueError("power_of_10 requires k >= 0")
    if k <= MAX_POW:
        return _POWS10[k]
    acc = _POWS10[MAX_POW]
    k -= MAX_POW
    while k > MAX_POW:
        acc *= _POWS10[MAX_POW]
        k -= MAX_POW
    return acc * _POWS10[k]
