"""Audits of the reader and the writer: every check ``ezfloat verify`` runs.

``oracle_audit``, ``minimality_audit`` and ``roundtrip_audit`` check seeded
draws against the oracle, for minimal output and for round trips.
``quotient_length_audit`` writes every all-ones value once and reads its
text back; ``intermediate_size_scan`` reads a grid spanning the whole read
domain; ``halfway_audit`` reads halfway points at both ends of every binade,
exact and with a far tail, where a read cuts long digits.  These three and
``roundtrip_audit`` pass every conversion they make through ``_check``,
which returns the bounds it breaks: only a violation formats a label.  No
point's read ceiling is below 803 bits, so ``roundtrip_audit`` parses a
text's point only for a wider read.  Each audit collects violations, never
asserts.  They call the code they check, which ``oracle`` may not import
(``tests/test_oracle.py::test_oracle_imports_nothing_it_checks``).
"""

from __future__ import annotations

import functools
import math
import random

from ._bits import bits_to_float, float_to_bits
from .bigmath import ConversionStats
from .oracle import minimality_check, nearest_double_exact
from .reader import DecimalSci, parse_decimal, read_double
from .reader import mant_exp_to_double5, mant_exp_to_double10
from .writer import double_to_string, format_sci, shortest_digits

__all__ = [
    "AuditReport",
    "HalfwayReport",
    "IntermediateSizeReport",
    "SeededReport",
    "all_ones_mantissa_values",
    "halfway_audit",
    "intermediate_size_scan",
    "minimality_audit",
    "oracle_audit",
    "quotient_length_audit",
    "roundtrip_audit",
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


class _Report:
    """The violations an audit collects, each rendered above its summary."""

    def __init__(self) -> None:
        self.violations: list[str] = []

    def _summary(self) -> list[str]:
        raise NotImplementedError

    def render(self) -> str:
        return "\n".join([f"VIOLATION {v}" for v in self.violations] + self._summary())

    @property
    def ok(self) -> bool:
        return not self.violations


class SeededReport(_Report):
    """The draws of a seeded audit, ``count``, and each one that failed."""

    count = 0

    def __init__(self, suite: str, unit: str, failure: str) -> None:
        super().__init__()
        self.suite, self.unit, self.failure = suite, unit, failure

    def _summary(self) -> list[str]:
        return [f"{self.suite}: {self.count} {self.unit}, {len(self.violations)} {self.failure}"]


class AuditReport(_Report):
    """Outcome of the quotient-length audit over the all-ones enumeration."""

    values_tested = max_write_bits = max_write_divisions = 0

    def _summary(self) -> list[str]:
        return [
            f"values tested: {self.values_tested}",
            f"max write operand bits: {self.max_write_bits}",
            f"max write divisions: {self.max_write_divisions}",
            f"violations: {len(self.violations)}",
        ]


class IntermediateSizeReport(_Report):
    """Peak operand widths, division counts and broken bounds over a read grid."""

    max_pow5_bits = max_pow10_bits = max_read_divisions = 0

    def _summary(self) -> list[str]:
        return [
            f"max pow5 bits: {self.max_pow5_bits}, max pow10 bits: {self.max_pow10_bits}",
            f"max read divisions: {self.max_read_divisions}",
        ]


class HalfwayReport(_Report):
    """Reads made, the widest operand and broken bounds of the halfway audit."""

    reads = max_read_bits = 0

    def _summary(self) -> list[str]:
        return [f"halfway reads: {self.reads}", f"max halfway operand bits: {self.max_read_bits}"]


# Each division site's quotient ceiling.  A read settles its binary exponent
# before dividing, so its quotient converts exactly, a carry to 2**53
# included, and a subnormal's is at most the smallest normal.  A write
# divides |f| by 10**(point - 2), where one ulp is at most 100 units.
_QUOTIENT_CEILINGS = {"read-main": 1 << 53, "read-shift": 1 << 53,
                      "read-subnormal": 1 << 52, "write": 100 << 53}


def _check(stats: ConversionStats, width_ceiling: int,
           divisions: tuple[int, ...] = (0, 1)) -> list[str]:
    """The bounds one traced conversion breaks, one text each; [] if none.

    A broken bound is a division count not in ``divisions`` (a write makes
    exactly 1, a read at most 1), an operand wider than ``width_ceiling``
    or a quotient over its site's ceiling, which a site must have.
    """
    broken = []
    if stats.divisions not in divisions:
        broken.append(f"made {stats.divisions} divisions")
    bits = stats.max_intermediate_bits
    if bits > width_ceiling:
        broken.append(f"operand bits {bits} over {width_ceiling}")
    for site, num_bits, den_bits, quo in stats.trace:
        if quo > _QUOTIENT_CEILINGS.get(site, -1):
            broken.append(f"{site} quotient {quo.bit_length()} bits from {num_bits}/{den_bits}")
    return broken


# A write's operand ceiling, bits(100 * 5**323) + 53 = 810: at the finest
# scale, 10**-325, one ulp is 100 * 5**323 units and the significand is
# below 2**53.
_WRITE_WIDTH_CEILING = (100 * 5**323).bit_length() + 53


@functools.cache
def _read_width_ceiling(base: int, point: int) -> int:
    # The operand ceiling of a read of at most 17 digits through base's binding.
    return (base ** max(-point, 323)).bit_length() + 53


def _emitted_digits(text: str) -> int:
    # A written value's significant digits: format_sci trims trailing
    # zeros and pads a single digit to "d.0", whose zero is not one.
    mant = text.partition("E")[0].lstrip("-").replace(".", "")
    return len(mant) - mant.endswith("0")


def oracle_audit(count: int, seed: int) -> SeededReport:
    """Read ``count`` random decimals, of 1 to 40 digits and either sign at
    a point in [-360, 330], through both bindings; each must give the
    double ``nearest_double_exact`` gives."""
    rng = random.Random(seed)
    report = SeededReport("oracle", "cases", "mismatches")
    for _ in range(count):
        lo = 10 ** rng.randint(0, 39)
        mant = rng.randint(lo, 10 * lo - 1)
        dec = DecimalSci(rng.random() < 0.5, mant, rng.randint(-360, 330))
        sign = -1.0 if dec.negative else 1.0
        v5 = float_to_bits(sign * mant_exp_to_double5(mant, dec.point))
        v10 = float_to_bits(sign * mant_exp_to_double10(mant, dec.point))
        exact = float_to_bits(nearest_double_exact(dec))
        if v5 != exact or v10 != exact:
            report.violations.append(f"{'-' * dec.negative}{mant}E{dec.point} pow5=0x{v5:016X} "
                                     f"pow10=0x{v10:016X} exact=0x{exact:016X}")
        report.count += 1
    return report


def minimality_audit(count: int, seed: int) -> SeededReport:
    """Write four curated doubles and ``count`` random finite nonzero
    ones; ``minimality_check`` must find no shorter form that reads back."""
    rng = random.Random(seed)
    values = [5e-324, 0.1, 0.3, 1.7976931348623157e308]
    while len(values) < count + 4:
        f = bits_to_float(rng.getrandbits(64))
        if 0.0 < abs(f) < math.inf:
            values.append(f)
    report = SeededReport("minimality", "values", "failures")
    for f in values:
        text = double_to_string(f)
        if not minimality_check(f, _emitted_digits(text)):
            report.violations.append(f"0x{float_to_bits(f):016X} wrote {text}, not minimal")
        report.count += 1
    return report


def roundtrip_audit(count: int, seed: int) -> SeededReport:
    """Write ``count`` random 64-bit patterns, NaNs skipped, and read each back.

    The read must give the pattern back.  A finite nonzero value's write
    must make exactly 1 division on operands within 810 bits, as in
    ``quotient_length_audit``, and its read at most 1 within the scan's
    ceiling for the text's point, as in ``intermediate_size_scan``.  That
    ceiling is 803 bits at every point from -323 up and wider below, so
    the point is parsed only for a read whose widest operand is wider.
    """
    rng = random.Random(seed)
    report = SeededReport("roundtrip", "values", "failures")
    add = report.violations.append
    least = _read_width_ceiling(5, 0)
    for _ in range(count):
        pattern = rng.getrandbits(64)
        f = bits_to_float(pattern)
        if f != f:
            continue
        wstats, rstats = ConversionStats(), ConversionStats()
        text = double_to_string(f, wstats)
        back = float_to_bits(read_double(text, rstats))
        if back != pattern:
            add(f"0x{pattern:016X} wrote {text} read 0x{back:016X}")
        if 0.0 < abs(f) < math.inf:
            for broken in _check(wstats, _WRITE_WIDTH_CEILING, divisions=(1,)):
                add(f"0x{pattern:016X} write {broken}")
            ceiling = least
            if rstats.max_intermediate_bits > ceiling:
                point = int(text.partition("E")[2]) + 1 - _emitted_digits(text)
                ceiling = _read_width_ceiling(5, point)
            for broken in _check(rstats, ceiling):
                add(f"0x{pattern:016X} read {broken}")
        report.count += 1
    return report


def quotient_length_audit() -> AuditReport:
    """Write every all-ones value once, traced, and read its text back.

    An all-ones significand is the largest of its binade, so these values
    reach every write maximum.  A write's significand must stay below
    10**17 and its operands within 810 bits (``_WRITE_WIDTH_CEILING``).
    A reread through either binding must give
    the value back within the scan's read bounds, but never puts num/den
    at or above 2**53: a missing pre-compare before the read division
    shows only in ``intermediate_size_scan``.  Expected: no violation.
    """
    report = AuditReport()
    add = report.violations.append
    for f in all_ones_mantissa_values():
        stats = ConversionStats()
        sd = shortest_digits(f, stats)
        for broken in _check(stats, _WRITE_WIDTH_CEILING, divisions=(1,)):
            add(f"0x{float_to_bits(f):016X} write {broken}")
        if not sd.lquo < 10**17:
            add(f"0x{float_to_bits(f):016X} write significand too long")
        report.max_write_bits = max(report.max_write_bits, stats.max_intermediate_bits)
        report.max_write_divisions = max(report.max_write_divisions, stats.divisions)
        dec = parse_decimal(format_sci(False, *sd))
        assert isinstance(dec, DecimalSci)
        for reader, base in ((mant_exp_to_double5, 5), (mant_exp_to_double10, 10)):
            stats = ConversionStats()
            if reader(dec.mant, dec.point, stats) != f:
                add(f"0x{float_to_bits(f):016X} reread via {reader.__name__} mismatch")
            for broken in _check(stats, _read_width_ceiling(base, dec.point)):
                add(f"0x{float_to_bits(f):016X} reread via {reader.__name__} {broken}")
        report.values_tested += 1
    return report


def intermediate_size_scan(points: range, digit_counts: range, rng) -> IntermediateSizeReport:
    """Audit every read bound over a (digit count x point) grid.

    A cell is skipped exactly when ``read_double`` clamps it to infinity
    or zero without dividing: ``point + nd > 309`` or ``point + nd <= -324``.
    Each other cell converts the extreme mantissas of its digit count plus
    two random fillers with both bindings, tracing every division.  A
    conversion's operand ceiling is ``bits(5**k) + 53`` resp.
    ``bits(10**k) + 53`` with ``k = max(-point, 323)``, and the two
    bindings must agree in value and in division count.
    """
    report = IntermediateSizeReport()
    add = report.violations.append
    for nd in digit_counts:
        lo, hi = 10 ** (nd - 1), 10**nd - 1
        for point in points:
            if point + nd > 309 or point + nd <= -324:
                continue
            ceiling5, ceiling10 = (_read_width_ceiling(base, point) for base in (5, 10))
            for mant in {lo, hi, rng.randint(lo, hi), rng.randint(lo, hi)}:
                s5, s10 = ConversionStats(), ConversionStats()
                v5 = mant_exp_to_double5(mant, point, s5)
                v10 = mant_exp_to_double10(mant, point, s10)
                for broken in _check(s5, ceiling5):
                    add(f"{mant}E{point} pow5 {broken}")
                for broken in _check(s10, ceiling10):
                    add(f"{mant}E{point} pow10 {broken}")
                # The scaling choice alone differs: same value, same path.
                if float_to_bits(v5) != float_to_bits(v10) or s5.divisions != s10.divisions:
                    add(f"{mant}E{point} bindings differ")
                report.max_pow5_bits = max(report.max_pow5_bits, s5.max_intermediate_bits)
                report.max_pow10_bits = max(report.max_pow10_bits, s10.max_intermediate_bits)
                report.max_read_divisions = max(
                    report.max_read_divisions, s5.divisions, s10.divisions
                )
    return report


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
    A read's operand ceiling is bits(10**769 - 1) = 2555: a read keeps at
    most 769 digits, the 768 of (2**53 - 1) * 2**-1075 and a sticky one.
    Expected: no violation.
    """
    report = HalfwayReport()
    add = report.violations.append
    ceiling = (10**769 - 1).bit_length()
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
                stats = ConversionStats()
                got = float_to_bits(read_double(text, stats))
                if got != want:
                    add(f"0x{lower:016X} halfway {form}: read 0x{got:016X}, want 0x{want:016X}")
                for broken in _check(stats, ceiling):
                    add(f"0x{lower:016X} halfway {form} {broken}")
                report.max_read_bits = max(report.max_read_bits, stats.max_intermediate_bits)
                report.reads += 1
    return report
