"""Audits of the reader and the writer: every check ``ezfloat verify`` runs.

``oracle_audit``, ``minimality_audit`` and ``roundtrip_audit`` check seeded
draws against the oracle, for minimal output and for round trips;
``stability_audit`` reads decimal texts and writes each value back.
``quotient_length_audit`` writes every all-ones value and every normal
power of two once, holds each power's output to ``minimality_check`` and
reads each text back; ``intermediate_size_scan`` reads a grid spanning the
whole read domain; ``halfway_audit`` reads halfway points at both ends of
every binade, exact and with a far tail, where a read cuts long digits.
These three, ``roundtrip_audit`` and ``stability_audit`` pass every
conversion they make through ``_check``, which returns the bounds it
breaks: only a violation formats a label.
A written text out of ``d.dddEn`` form also counts in ``form_faults``.  No
point's read ceiling is below 803 bits, so ``roundtrip_audit`` parses a
text's point only for a wider read.  Each audit collects violations, never
asserts.  They call the code they check, which ``oracle`` may not import
(``tests/test_oracle.py::test_oracle_imports_nothing_it_checks``).
"""

import functools
import math
import random
import re

from .bigmath import ConversionStats
from .oracle import minimality_check, nearest_double_exact
from .reader import DecimalSci, parse_decimal, read_double
from .reader import mant_exp_to_double5, mant_exp_to_double10
from .writer import bits_to_float, double_to_string, float_to_bits, format_sci, shortest_digits

__all__ = [
    "Report",
    "all_ones_mantissa_values",
    "halfway_audit",
    "intermediate_size_scan",
    "minimality_audit",
    "oracle_audit",
    "quotient_length_audit",
    "roundtrip_audit",
    "stability_audit",
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


class Report:
    """The violations an audit collects, each rendered above its summary.

    The summary lines are ``str.format`` templates over the audit's named
    integer figures, each kept as an attribute, and ``failures``, the
    number of violations.
    """

    def __init__(self, *templates: str, **figures: int) -> None:
        self.violations: list[str] = []
        self.templates = templates
        self.__dict__.update(figures)

    def render(self) -> str:
        fields = {**vars(self), "failures": len(self.violations)}
        return "\n".join([f"VIOLATION {v}" for v in self.violations]
                         + [template.format(**fields) for template in self.templates])

    @property
    def ok(self) -> bool:
        return not self.violations


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


# d.dddEn, the form of every finite nonzero written value.
_SCI_FORM = re.compile(r"-?[0-9]\.([0-9]+)E-?[0-9]+")


def _emitted_digits(text: str) -> int | None:
    # A written value's significant digits, None for a text not in d.dddEn
    # form: format_sci trims trailing zeros and pads a single digit to
    # "d.0", whose zero is not one.
    if m := _SCI_FORM.fullmatch(text):
        return 1 + len(m[1]) - m[1].endswith("0")
    return None


def _check_minimal(report: Report, f: float, text: str) -> None:
    # The written text of f breaks its form or holds more digits than f needs.
    digits = _emitted_digits(text)
    if digits is None:
        report.form_faults += 1
        report.violations.append(f"0x{float_to_bits(f):016X} wrote {text}, not d.dddEn")
    elif not minimality_check(f, digits):
        report.violations.append(f"0x{float_to_bits(f):016X} wrote {text}, not minimal")


def oracle_audit(count: int, seed: int) -> Report:
    """Read ``count`` random decimals, of 1 to 40 digits and either sign at
    a point in [-360, 330], through both bindings; each must give the
    double ``nearest_double_exact`` gives."""
    rng = random.Random(seed)
    report = Report("oracle: {count} cases, {failures} mismatches", count=0)
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


def minimality_audit(count: int, seed: int) -> Report:
    """Write four curated doubles and ``count`` random finite nonzero
    ones; each text must be in d.dddEn form, and ``minimality_check``
    must find no shorter form that reads back."""
    rng = random.Random(seed)
    values = [5e-324, 0.1, 0.3, 1.7976931348623157e308]
    while len(values) < count + 4:
        f = bits_to_float(rng.getrandbits(64))
        if 0.0 < abs(f) < math.inf:
            values.append(f)
    report = Report("minimality: {count} values, {failures} failures, {form_faults} not d.dddEn",
                    count=0, form_faults=0)
    for f in values:
        _check_minimal(report, f, double_to_string(f))
        report.count += 1
    return report


def roundtrip_audit(count: int, seed: int) -> Report:
    """Write ``count`` random 64-bit patterns, NaNs skipped, and read each back.

    The read must give the pattern back.  A finite nonzero value's write
    must make exactly 1 division on operands within 810 bits, as in
    ``quotient_length_audit``, and its read at most 1 within the scan's
    ceiling for the text's point, as in ``intermediate_size_scan``.  Every
    such text must be in ``d.dddEn`` form; one that is not is a violation,
    counted once, and has no point to bound its read by.  The ceiling is
    803 bits at every point from -323 up and wider below, so the point is
    parsed only for a read whose widest operand is wider.
    """
    rng = random.Random(seed)
    report = Report("roundtrip: {count} values, {failures} failures, {form_faults} not d.dddEn",
                    count=0, form_faults=0)
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
            digits = _emitted_digits(text)
            ceiling = least
            if digits is None:  # no point to bound the read by
                report.form_faults += 1
                add(f"0x{pattern:016X} wrote {text}, not d.dddEn")
                ceiling = rstats.max_intermediate_bits
            elif rstats.max_intermediate_bits > ceiling:
                ceiling = _read_width_ceiling(5, int(text.partition("E")[2]) + 1 - digits)
            for broken in _check(rstats, ceiling):
                add(f"0x{pattern:016X} read {broken}")
        report.count += 1
    return report


def stability_audit(count: int, seed: int) -> Report:
    """Read decimal texts ``d.dddEk``, written as the writer writes them,
    and write each value back.

    The 1- and 2-digit decimals at every k from -307 to 307 (55,350 texts)
    and ``count`` seeded ones of 3 to 15 digits there are normal doubles
    of at most 15 digits: each must write back as itself (Matula 1968;
    Goldberg 1991).  ``count`` seeded texts of 16 to 40 digits at k from
    -323 to 307, and ``count`` of 1 to 15 digits at k from -323 to -308,
    must write no more digits and read back to the same double.  Reads and
    writes have ``roundtrip_audit``'s bounds.  A text that breaks its rule
    is one violation.
    """
    rng = random.Random(seed)

    def drawn(low: int, high: int, exp_low: int, exp_high: int) -> list[tuple[int, int]]:
        return [(rng.randint(10 ** (n - 1), 10**n - 1), rng.randint(exp_low, exp_high))
                for n in [rng.randint(low, high) for _ in range(count)]]

    grid = [(mant, exp) for exp in range(-307, 308) for mant in range(10, 100)]
    report = Report("stable: {count} texts, {failures} failures", count=0)
    add = report.violations.append
    for exact, cases in ((True, grid + drawn(3, 15, -307, 307)),
                         (False, drawn(16, 40, -323, 307) + drawn(1, 15, -323, -308))):
        for mant, exp in cases:
            digits = str(mant).rstrip("0")
            text = f"{digits[0]}.{digits[1:] or '0'}E{exp}"
            rstats, wstats = ConversionStats(), ConversionStats()
            f = read_double(text, rstats)
            back = double_to_string(f, wstats)
            if back != text and (exact or (n := _emitted_digits(back)) is None
                                 or n > len(digits) or read_double(back) != f):
                add(f"{text} read 0x{float_to_bits(f):016X} wrote {back}")
            for broken in _check(rstats, _read_width_ceiling(5, exp + 1 - len(digits))):
                add(f"{text} read {broken}")
            for broken in _check(wstats, _WRITE_WIDTH_CEILING, divisions=(1,)):
                add(f"{text} write {broken}")
            report.count += 1
    return report


def quotient_length_audit() -> Report:
    """Write every all-ones value and every normal power of two once,
    traced, and read each text back.

    An all-ones significand is the largest of its binade, so these values
    reach every write maximum.  The least significands of the normal
    binades, 2**-1022 to 2**1023, are the 2045 writes that go round the
    writer's power-of-two loop and 2**-1022; each must be in d.dddEn form
    and minimal (``minimality_check``).  A write's significand must stay
    below 10**17 and its operands within 810 bits (``_WRITE_WIDTH_CEILING``).
    A reread of either kind of value through either binding must give the
    value back within the scan's read bounds, but never puts num/den at or
    above 2**53: a missing pre-compare before the read division shows only
    in ``intermediate_size_scan``.  Expected: no violation.
    """
    ones = all_ones_mantissa_values()
    powers = [math.ldexp(1.0, e) for e in range(-1022, 1024)]
    report = Report("values tested: {values_tested}", "powers of two: {powers}",
                    "max write operand bits: {max_write_bits}",
                    "max write divisions: {max_write_divisions}",
                    "texts not d.dddEn: {form_faults}", "violations: {failures}",
                    values_tested=len(ones), powers=len(powers),
                    max_write_bits=0, max_write_divisions=0, form_faults=0)
    add = report.violations.append
    for i, f in enumerate(ones + powers):
        stats = ConversionStats()
        sd = shortest_digits(f, stats)
        for broken in _check(stats, _WRITE_WIDTH_CEILING, divisions=(1,)):
            add(f"0x{float_to_bits(f):016X} write {broken}")
        if not sd.lquo < 10**17:
            add(f"0x{float_to_bits(f):016X} write significand too long")
        report.max_write_bits = max(report.max_write_bits, stats.max_intermediate_bits)
        report.max_write_divisions = max(report.max_write_divisions, stats.divisions)
        text = format_sci(False, *sd)
        if i >= len(ones):
            _check_minimal(report, f, text)
        dec = parse_decimal(text)
        assert isinstance(dec, DecimalSci)
        for reader, base in ((mant_exp_to_double5, 5), (mant_exp_to_double10, 10)):
            stats = ConversionStats()
            if reader(dec.mant, dec.point, stats) != f:
                add(f"0x{float_to_bits(f):016X} reread via {reader.__name__} mismatch")
            for broken in _check(stats, _read_width_ceiling(base, dec.point)):
                add(f"0x{float_to_bits(f):016X} reread via {reader.__name__} {broken}")
    return report


def intermediate_size_scan(points: range, digit_counts: range, rng) -> Report:
    """Audit every read bound over a (digit count x point) grid.

    Each cell converts the extreme mantissas of its digit count plus two
    random fillers with both bindings, tracing every division; a cell that
    ``read_double`` clamps to infinity or zero converts with none.  A
    conversion's operand ceiling is ``bits(5**k) + 53`` resp.
    ``bits(10**k) + 53`` with ``k = max(-point, 323)``, and the two
    bindings must agree in value and in division count.
    """
    report = Report("max pow5 bits: {max_pow5_bits}, max pow10 bits: {max_pow10_bits}",
                    "max read divisions: {max_read_divisions}",
                    max_pow5_bits=0, max_pow10_bits=0, max_read_divisions=0)
    add = report.violations.append
    for nd in digit_counts:
        lo, hi = 10 ** (nd - 1), 10**nd - 1
        for point in points:
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


def halfway_audit() -> Report:
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
    report = Report("halfway reads: {reads}", "max halfway operand bits: {max_read_bits}",
                    reads=0, max_read_bits=0)
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
