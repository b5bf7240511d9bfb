"""Audits of every division bound the reader and the writer claim.

``quotient_length_audit`` writes every all-ones value once, traced, and
reads its text back; ``intermediate_size_scan`` reads a grid spanning the
whole read domain; ``halfway_audit`` reads halfway points at both ends of
every binade, exact and with a far tail, where a read cuts long digits.
All three collect violations, never assert.  They call the
code they check, which ``oracle`` may not import
(``tests/test_oracle.py::test_oracle_imports_nothing_it_checks``).
"""

from __future__ import annotations

import math

from ._bits import float_to_bits
from .bigmath import ConversionStats
from .reader import (
    DecimalSci,
    mant_exp_to_double5,
    mant_exp_to_double10,
    parse_decimal,
    read_double,
)
from .writer import format_sci, shortest_digits

__all__ = [
    "AuditReport",
    "HalfwayReport",
    "IntermediateSizeReport",
    "all_ones_mantissa_values",
    "halfway_audit",
    "intermediate_size_scan",
    "quotient_length_audit",
]


def all_ones_mantissa_values() -> list[float]:
    """Every positive finite double whose significand bits are all ones.

    52 subnormals (2**k - 1 at scale 2**-1074) plus the all-ones 53-bit
    significand in each of the 2046 normal binades: 2098 values, sorted.
    """
    full = float((1 << 53) - 1)
    return [math.ldexp((1 << k) - 1, -1074) for k in range(1, 53)] + [
        math.ldexp(full, biased - 1075) for biased in range(1, 2047)
    ]


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
    report: AuditReport | IntermediateSizeReport | HalfwayReport,
    label: str,
    trace: list[tuple[str, int, int, int]],
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

    def render(self) -> str:
        lines = [f"VIOLATION {v}" for v in self.violations]
        lines.append(f"max pow5 bits: {self.max_pow5_bits}, max pow10 bits: {self.max_pow10_bits}")
        lines.append(f"max read divisions: {self.max_read_divisions}")
        return "\n".join(lines)

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


class HalfwayReport:
    """Reads made, the widest operand and broken bounds of the halfway audit."""

    def __init__(self) -> None:
        self.reads = self.max_read_bits = 0
        self.violations: list[str] = []

    def render(self) -> str:
        lines = [f"VIOLATION {v}" for v in self.violations]
        lines.append(f"halfway reads: {self.reads}")
        lines.append(f"max halfway operand bits: {self.max_read_bits}")
        return "\n".join(lines)

    @property
    def ok(self) -> bool:
        return not self.violations


def halfway_audit() -> HalfwayReport:
    """Read the halfway points above the two lowest and the two highest
    significands of every binade through ``read_double``.

    Those are 2**52, 2**52 + 1, 2**53 - 2 and 2**53 - 1 at each biased
    exponent from 1 to 2046, and 0, 1, 2**52 - 2 and 2**52 - 1 among the
    subnormals; the halfway point above the largest double is the
    overflow threshold, whose upper neighbour is infinity.  Each is read
    in three forms: exact, which must give the even neighbour; followed
    by 60 zeros and a 1, which must give the upper neighbour; and one
    unit lower in its last digit followed by 60 nines, which must give
    the lower neighbour.  The tails make each read longer than the digits
    a read keeps in that decade, so a cut that keeps too few digits, or a
    sticky digit that does not stand above the cut, reads some wrongly.
    A read also violates a bound when it makes more than 1 division, when
    a traced quotient exceeds its site's ceiling, or when its widest
    operand exceeds bits(10**769 - 1) = 2555: a read keeps at most 769
    digits, the 768 of (2**53 - 1) * 2**-1075 and a sticky one.
    Violations are collected, never asserted.  Expected: none.
    """
    report = HalfwayReport()
    width_ceiling = (10**769 - 1).bit_length()
    for biased in range(2047):
        if biased:
            e2, sigs = biased - 1075, (1 << 52, (1 << 52) + 1, (1 << 53) - 2, (1 << 53) - 1)
        else:
            e2, sigs = -1074, (0, 1, (1 << 52) - 2, (1 << 52) - 1)
        for m in sigs:
            # (2m + 1) * 2**(e2 - 1) as the integer digits * 10**point.
            if e2 > 0:
                digits, point = str((2 * m + 1) << (e2 - 1)), 0
            else:
                digits, point = str((2 * m + 1) * 5 ** (1 - e2)), e2 - 1
            lower = float_to_bits(math.ldexp(m, e2))
            upper = lower + 1  # the successor's bits, infinity's above the top
            forms = (
                ("exact", f"{digits}e{point}", upper if m & 1 else lower),
                ("above", f"{digits}{'0' * 60}1e{point - 61}", upper),
                ("below", f"{int(digits) - 1}{'9' * 60}e{point - 60}", lower),
            )
            for form, text, want in forms:
                label = f"0x{lower:016X} halfway {form}"
                stats = ConversionStats(trace=[])
                got = float_to_bits(read_double(text, stats))
                if got != want:
                    report.violations.append(f"{label}: read 0x{got:016X}, want 0x{want:016X}")
                if stats.divisions > 1:
                    report.violations.append(f"{label} made {stats.divisions} divisions")
                bits = stats.max_intermediate_bits
                if bits > width_ceiling:
                    report.violations.append(f"{label} operand bits {bits} over {width_ceiling}")
                _scan_trace(report, label, stats.trace)
                report.max_read_bits = max(report.max_read_bits, bits)
                report.reads += 1
    return report
