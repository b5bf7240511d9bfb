"""Arbitrary-precision integer support: the rounding quotient and the power table.

Everything downstream (reading, writing, the exact oracle) is built on a
single division primitive, ``round_quotient``, that rounds to nearest with
ties to even, plus a precomputed table of integer powers of 5.  The
reader, the writer and the oracle all call it; it also records each
division in an optional ``ConversionStats``.

The table holds 5**k for every k up to ``MAX_POW`` = 1076, which covers
every power a read of any length divides or multiplies by: a read of a
value in [10**(top-1), 10**top) keeps at most the significant digits of
a halfway point there plus a sticky digit, so its ``point`` is at least
e0 - 2 for the ulp 2**e0 >= 2**-1074 of the binade holding 10**(top-1),
and a value at or above 10**309 is infinity without a power, so
``point`` is at most 308.  The table is built once at import (about
0.2 ms, about 0.2 MB), as is ``_EXP_TEXTS``, the exponents a written
double has, -324 to 308, spelled once for the writer and the reader.
"""

import math

__all__ = [
    "DBL_MANT_DIG",
    "LLOG2",
    "MAX_POW",
    "ConversionStats",
    "round_quotient",
]

DBL_MANT_DIG = 53            # significand bits of binary64, implicit bit included
LLOG2 = math.log10(2.0)      # nearest binary64 to log10(2)

# 1074 + 2: the most negative point a read reaches, at every top from
# -323 to -307, where the ulp is 2**-1074 (reader._kept_digits).
MAX_POW = 1076


def _build() -> tuple[int, ...]:
    acc = 1
    out = [acc]
    for _ in range(MAX_POW):
        acc *= 5
        out.append(acc)
    return tuple(out)


# 5**k for 0 <= k <= MAX_POW; multiplying is 4x faster than 5**k for each.
_POWS5 = _build()

# str(k) at index k + 324: the exponents of 4.9E-324 to 1.7976931348623157E308.
_EXP_TEXTS = tuple(map(str, range(-324, 309)))


class ConversionStats:
    """Per-call instrumentation for the conversion routines.

    Every rounding division of a read or a write passes through
    ``round_quotient``, which notes it here when given a stats object.
    ``trace`` holds one ``(site, num_bits, den_bits, quotient)`` record
    per division; ``divisions`` and ``max_intermediate_bits`` (the widest
    operand fed to one) are read from it, so they always agree with it.
    A mutable accumulator; two compare equal when their traces do.
    """

    __slots__ = ("trace",)

    def __init__(self) -> None:
        self.trace: list[tuple[str, int, int, int]] = []

    @property
    def divisions(self) -> int:
        return len(self.trace)

    @property
    def max_intermediate_bits(self) -> int:
        # Plain compares: several times faster than max() over a generator,
        # and the audits read this once per conversion.
        widest = 0
        for _, num_bits, den_bits, _ in self.trace:
            if num_bits > widest:
                widest = num_bits
            if den_bits > widest:
                widest = den_bits
        return widest

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.trace == other.trace

    def __repr__(self) -> str:
        return f"{type(self).__name__}(trace={self.trace!r})"

    def note_division(self, site: str, num: int, den: int, quo: int) -> None:
        self.trace.append((site, num.bit_length(), den.bit_length(), quo))


def round_quotient(
    num: int, den: int, stats: ConversionStats | None = None, site: str = ""
) -> int:
    """Nearest integer to num/den with ties to even; the result fits 63 bits.

    Requires num >= 0 and den > 0; a zero denominator raises
    ZeroDivisionError.  If twice the remainder exceeds the denominator the
    quotient rounds up; if below, down; on a tie it takes the even one.

    The width limit is a caller contract, checked by assertion.  Read
    quotients, the oracle's included, are at most 2**53 (54 bits); write
    quotients are at most 100 * 2**53 and reach 60 bits, e.g. for an
    all-ones significand at biased exponent 2.  When *stats* is given the
    division is recorded there under *site*.
    """
    if num < 0 or den < 0:
        raise ValueError("the rounding division requires num >= 0 and den > 0")
    quo, rem = divmod(num, den)
    rem <<= 1
    if rem > den or (rem == den and quo & 1):
        quo += 1
    assert quo < 1 << 63, "round_quotient result exceeds 63 bits"
    if stats is not None:
        stats.note_division(site, num, den, quo)
    return quo
