"""Brute-force-exact reference conversions used to verify the fast paths.

Nothing here shares scaling logic with the production reader: the
nearest-double computation works from the exact rational value, locating
the binade by integer comparison, and rounds once with the shared kernel
``round_quotient`` on operands it scaled itself.  A scaling bug would have
to be reinvented independently on both sides to hide.
"""

from __future__ import annotations

import math
from collections import namedtuple

from ._bits import float_to_bits
from .bigmath import ConversionStats, round_quotient
from .reader import DecimalSci, _record_repr, mant_exp_to_double5, mant_exp_to_double10, parse_decimal
from .writer import format_sci, shortest_digits

__all__ = [
    "AuditReport",
    "ExactRational",
    "IntermediateSizeReport",
    "all_ones_mantissa_values",
    "intermediate_size_scan",
    "minimality_check",
    "nearest_double_exact",
    "quotient_length_audit",
]

# Values at or beyond the midpoint between the largest finite double and
# 2**1024 round to infinity; values at or below half the smallest subnormal
# round to zero (the tie goes to the even candidate, zero, in both cases).
_OVERFLOW_BOUNDARY = (1 << 1024) - (1 << 970)


class ExactRational(namedtuple("ExactRational", "num den negative", defaults=(False,))):
    """(-1)**negative * num / den, unreduced.

    Equality is field-wise, as for any tuple: 1/2 and 2/4 differ.
    """

    __slots__ = ()
    __repr__ = _record_repr

    @classmethod
    def from_decimal(cls, dec: DecimalSci) -> "ExactRational":
        """dec's exact value.  |point| > bits(mant) + 2048 raises ValueError
        rather than build a power of ten far longer than the significand."""
        if abs(dec.point) > dec.mant.bit_length() + 2048:
            raise ValueError("from_decimal requires |point| <= bits(mant) + 2048")
        if dec.point >= 0:
            return cls(dec.mant * 10**dec.point, 1, dec.negative)
        return cls(dec.mant, 10**-dec.point, dec.negative)

    @classmethod
    def from_float(cls, f: float) -> "ExactRational":
        """f's exact value, the sign of -0.0 kept; f must be finite."""
        if not math.isfinite(f):
            raise ValueError("from_float requires a finite value")
        negative = math.copysign(1.0, f) < 0
        # frexp is exact for subnormals too: |f| = m * 2**e with 0.5 <= m < 1.
        m, e = math.frexp(abs(f))
        lmant = int(m * (1 << 53))
        e2 = e - 53
        if e2 >= 0:
            return cls(lmant << e2, 1, negative)
        return cls(lmant, 1 << -e2, negative)


def nearest_double_exact(dec: DecimalSci) -> float:
    """The binary64 nearest to dec's exact value, ties to even.

    Works purely on integers: the binade of num/den is found by shifted
    comparison, then the 53 significand bits (fewer at the subnormal scale)
    come from one exact rounding division.  Overflow and underflow are
    decided by comparing against 2**1024 - 2**970 and 2**-1075 exactly,
    once a bound from ``point`` has settled values far beyond them.
    """
    if dec.mant == 0:
        return -0.0 if dec.negative else 0.0
    # Far out of range before building 10**|point|: 2**(n-1) <= mant < 2**n
    # and 8**k <= 10**k put the value at or above 2**(n-1+3*point) when
    # point > 0, and below 2**(n+3*point) when point < 0.  What passes has
    # point <= 341 or -point < (n + 1075) / 3, inside from_decimal's bound.
    n = dec.mant.bit_length()
    if dec.point > 0 and n - 1 + 3 * dec.point >= 1024:
        return -math.inf if dec.negative else math.inf
    if dec.point < 0 and n + 3 * dec.point <= -1075:
        return -0.0 if dec.negative else 0.0
    r = ExactRational.from_decimal(dec)
    a, b = r.num, r.den
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
    r = ExactRational.from_float(f)
    a, b = r.num, r.den
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


def all_ones_mantissa_values() -> list[float]:
    """Every positive finite double whose significand bits are all ones.

    52 subnormals (2**k - 1 at scale 2**-1074) plus the all-ones 53-bit
    significand in each of the 2046 normal binades: 2098 values, sorted.
    """
    out = set()
    for k in range(1, 53):
        out.add(math.ldexp((1 << k) - 1, -1074))
    full = float((1 << 53) - 1)
    for biased in range(1, 2047):
        out.add(math.ldexp(full, biased - 1075))
    return sorted(out)


class AuditReport:
    """Outcome of the quotient-length audit over the all-ones enumeration."""

    def __init__(self) -> None:
        self.values_tested = self.max_write_bits = self.max_write_divisions = 0
        self.violations: list[str] = []

    def render(self) -> str:
        lines = [f"VIOLATION {v}" for v in self.violations]
        lines.append(f"values tested: {self.values_tested}")
        lines.append(f"max write operand bits: {self.max_write_bits}")
        lines.append(f"max write divisions: {self.max_write_divisions}")
        lines.append(f"violations: {len(self.violations)}")
        return "\n".join(lines)

    @property
    def ok(self) -> bool:
        return not self.violations


def _scan_trace(
    report: AuditReport | IntermediateSizeReport, label: str, trace: list[tuple[str, int, int, int]]
) -> None:
    for site, num_bits, den_bits, quo in trace:
        if site in ("read-main", "read-shift"):
            # The binary exponent is settled before dividing: the quotient
            # converts exactly, a rounding carry to exactly 2**53 included.
            ceiling = 1 << 53
        elif site == "read-subnormal":
            ceiling = 1 << 52  # at most the smallest normal
        elif site == "write":
            # |f| / 10**(point - 2) with one ulp at most 100 units of it.
            ceiling = 100 << 53
        else:
            ceiling = -1  # a division no rule checks is itself a violation
        if quo > ceiling:
            report.violations.append(
                f"{label} {site} quotient {quo.bit_length()} bits from {num_bits}/{den_bits}"
            )


def quotient_length_audit() -> AuditReport:
    """Write every all-ones value once, traced, and read its text back.

    An all-ones significand is the largest of its binade, so these values
    reach every write maximum.  A write violates a bound when it makes
    other than 1 division, when its quotient exceeds 100 * 2**53, when its
    significand reaches 10**17, or when its widest operand exceeds
    bits(100 * 5**323) + 53 = 810: at the finest scale, 10**-325, one ulp
    is 100 * 5**323 units and the significand is below 2**53.  A reread
    through either binding violates one when it returns another value or
    makes more than 1 division.  These reads never put num/den at or
    above 2**53, so a missing pre-compare before the read division goes
    unseen here (``intermediate_size_scan`` catches it).  Violations are
    collected, never asserted.  Expected: none.
    """
    report = AuditReport()
    width_ceiling = (100 * 5**323).bit_length() + 53
    for f in all_ones_mantissa_values():
        label = f"0x{float_to_bits(f):016X}"
        wstats = ConversionStats(trace=[])
        sd = shortest_digits(f, wstats)
        if wstats.divisions != 1:
            report.violations.append(f"{label} write made {wstats.divisions} divisions")
        if not sd.lquo < 10**17:
            report.violations.append(f"{label} write significand too long")
        bits = wstats.max_intermediate_bits
        if bits > width_ceiling:
            report.violations.append(f"{label} write operand bits {bits} over {width_ceiling}")
        _scan_trace(report, label, wstats.trace)
        report.max_write_bits = max(report.max_write_bits, bits)
        report.max_write_divisions = max(report.max_write_divisions, wstats.divisions)
        dec = parse_decimal(format_sci(False, *sd))
        assert isinstance(dec, DecimalSci)
        for reader in (mant_exp_to_double5, mant_exp_to_double10):
            stats = ConversionStats(trace=[])
            via = f"via {reader.__name__}"
            if reader(dec.mant, dec.point, stats) != f:
                report.violations.append(f"{label} reread mismatch {via}")
            if stats.divisions > 1:
                report.violations.append(f"{label} reread made {stats.divisions} divisions {via}")
            _scan_trace(report, label, stats.trace)
        report.values_tested += 1
    return report


class IntermediateSizeReport:
    """Peak operand widths, division counts and broken bounds over a read grid."""

    def __init__(self) -> None:
        self.max_pow5_bits = self.max_pow10_bits = self.max_read_divisions = 0
        self.violations: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.violations


def intermediate_size_scan(
    points: range,
    digit_counts: range,
    rng,
) -> IntermediateSizeReport:
    """Audit every read bound over a (digit count x point) grid.

    A cell is skipped exactly when ``read_double`` clamps it to infinity
    or zero without dividing: ``point + nd > 309`` or
    ``point + nd <= -324``.  Each other cell converts the extreme
    mantissas of its digit count plus two random fillers with both
    bindings, tracing every division.  A conversion is a violation when
    it makes more than one division, when a traced quotient exceeds its
    site's ceiling (as in ``quotient_length_audit``), when its widest
    operand exceeds ``bits(5**k) + 53`` resp. ``bits(10**k) + 53`` with
    ``k = max(-point, 323)``, or when the two bindings differ in value or
    division count.  Violations are collected, never asserted.
    """
    report = IntermediateSizeReport()
    for nd in digit_counts:
        lo = 10 ** (nd - 1)
        hi = 10**nd - 1
        for point in points:
            if point + nd > 309 or point + nd <= -324:
                continue
            ceilings = tuple((b ** max(-point, 323)).bit_length() + 53 for b in (5, 10))
            for mant in {lo, hi, rng.randint(lo, hi), rng.randint(lo, hi)}:
                label = f"{mant}E{point}"
                s5 = ConversionStats(trace=[])
                v5 = mant_exp_to_double5(mant, point, s5)
                s10 = ConversionStats(trace=[])
                v10 = mant_exp_to_double10(mant, point, s10)
                _scan_trace(report, f"{label} pow5", s5.trace)
                _scan_trace(report, f"{label} pow10", s10.trace)
                widths = (s5.max_intermediate_bits, s10.max_intermediate_bits)
                if widths[0] > ceilings[0] or widths[1] > ceilings[1]:
                    report.violations.append(f"{label} operand bits {widths} over {ceilings}")
                if s5.divisions > 1:
                    report.violations.append(f"{label} {s5.divisions} divisions")
                # The scaling choice alone differs: same value, same path.
                if float_to_bits(v5) != float_to_bits(v10) or s5.divisions != s10.divisions:
                    report.violations.append(f"{label} bindings differ")
                report.max_pow5_bits = max(report.max_pow5_bits, s5.max_intermediate_bits)
                report.max_pow10_bits = max(report.max_pow10_bits, s10.max_intermediate_bits)
                report.max_read_divisions = max(
                    report.max_read_divisions, s5.divisions, s10.divisions
                )
    return report
