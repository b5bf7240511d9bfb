import ast
import functools
import inspect
import math
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ezfloat import (
    ConversionStats,
    DecimalSci,
    bits_to_float,
    double_to_string,
    float_to_bits,
    format_sci,
    mant_exp_to_double5,
    mant_exp_to_double10,
    minimality_check,
    nearest_double_exact,
    parse_decimal,
    read_double,
    shortest_digits,
    unpack_double,
)
from ezfloat import audit, oracle, reader, writer
from ezfloat.audit import (
    Report,
    _check,
    _read_width_ceiling,
    all_ones_mantissa_values,
    intermediate_size_scan,
    quotient_length_audit,
    roundtrip_audit,
    stability_audit,
)
from ezfloat.writer import FloatKind


def _nearest_by_long_division(dec: DecimalSci) -> float:
    """Second reference: binary digits extracted one at a time.

    Shares nothing with the production code or with nearest_double_exact:
    the value is an exact Fraction, the binade comes from a comparison
    loop, and the 53 significand bits are peeled off individually.
    """
    v = Fraction(dec.mant) * Fraction(10) ** dec.point
    if v == 0:
        return -0.0 if dec.negative else 0.0
    e = 0
    while Fraction(2) ** (e + 1) <= v:
        e += 1
    while Fraction(2) ** e > v:
        e -= 1
    # Significand scale: 53 bits for normals, fixed 2**-1074 below them.
    p = max(e - 52, -1074)
    q = 0
    r = v
    for i in range(e, p - 1, -1):
        q <<= 1
        step = Fraction(2) ** i
        if r >= step:
            q += 1
            r -= step
    half = Fraction(2) ** (p - 1)
    if r > half or (r == half and q % 2 == 1):
        q += 1  # a carry to q == 2**53 still converts exactly
    if p + q.bit_length() - 1 > 1023:
        value = math.inf
    else:
        value = math.ldexp(q, p)
    return -value if dec.negative else value


class TestNearestDoubleExact:
    def test_examples(self):
        assert nearest_double_exact(DecimalSci(False, 1, 0)) == 1.0
        assert float_to_bits(nearest_double_exact(DecimalSci(False, 5, -324))) == 1
        # 2**-1075 in exact decimal form: a tie whose floor mantissa is even.
        assert nearest_double_exact(DecimalSci(False, 5**1075, -1075)) == 0.0

    def test_signed_zero_and_sign(self):
        v = nearest_double_exact(DecimalSci(True, 0, 0))
        assert v == 0.0 and math.copysign(1.0, v) == -1.0
        assert nearest_double_exact(DecimalSci(True, 15, -1)) == -1.5

    def test_overflow_underflow_boundaries(self):
        mid = 2**1024 - 2**970  # midpoint between the largest finite and 2**1024
        assert nearest_double_exact(DecimalSci(False, mid, 0)) == math.inf
        assert nearest_double_exact(DecimalSci(True, mid, 0)) == -math.inf
        assert (
            float_to_bits(nearest_double_exact(DecimalSci(False, mid - 1, 0)))
            == 0x7FEFFFFFFFFFFFFF
        )
        assert nearest_double_exact(DecimalSci(False, 5**1075 - 1, -1075)) == 0.0
        assert float_to_bits(nearest_double_exact(DecimalSci(False, 5**1075 + 1, -1075))) == 1

    def test_huge_points_clamp_at_once(self):
        # 10**(10**12) has a trillion digits; these must never be built.
        for point, want in ((10**12, math.inf), (-(10**12), 0.0)):
            for negative in (False, True):
                started = time.perf_counter()
                got = nearest_double_exact(DecimalSci(negative, 1, point))
                assert time.perf_counter() - started < 0.05, point
                assert math.copysign(1.0, got) == (-1.0 if negative else 1.0)
                assert abs(got) == want

    def test_early_range_decision_at_its_edges(self):
        # The early returns bound 10**point by 8**point.  Near their edges
        # the value is close to 2**1024 only for small points; far below
        # the underflow edge every value is zero anyway.
        cases = []
        for point in (1, 2, 3):
            edge = 1025 - 3 * point  # the shortest significand returned early
            for n in range(edge - 2, edge + 3):
                cases += [(1 << (n - 1), point), ((1 << n) - 1, point)]
        for n in (1, 2, 60):
            edge = (-1075 - n) // 3  # the highest point returned early
            for point in range(edge - 2, edge + 3):
                cases += [(1 << (n - 1), point), ((1 << n) - 1, point)]
        for mant, point in cases:
            dec = DecimalSci(False, mant, point)
            assert float_to_bits(nearest_double_exact(dec)) == float_to_bits(
                _nearest_by_long_division(dec)
            ), (mant, point)

    def test_agreement_with_long_division_reference(self):
        rng = random.Random(97)
        for _ in range(1000):
            nd = rng.randint(1, 20)
            mant = rng.randint(10 ** (nd - 1), 10**nd - 1)
            point = rng.randint(-335, 315)
            neg = rng.random() < 0.5
            dec = DecimalSci(neg, mant, point)
            a = nearest_double_exact(dec)
            b = _nearest_by_long_division(dec)
            assert float_to_bits(a) == float_to_bits(b), dec

    def test_million_digit_significand_far_below(self):
        # No early return applies, so the exact rational of a 3.3-million
        # bit significand is built, over a power of ten of 3.3 million bits.
        dec = DecimalSci(False, (10**10**6 - 1) // 9, -1000300)
        want = float("1" * 10**6 + "e-1000300")
        assert float_to_bits(nearest_double_exact(dec)) == float_to_bits(want)

    def test_monotone_over_rational_order(self):
        rng = random.Random(101)
        for _ in range(500):
            point = rng.randint(-330, 300)
            mant = rng.randint(1, 10**18)
            lo = nearest_double_exact(DecimalSci(False, mant, point))
            hi = nearest_double_exact(DecimalSci(False, mant + 1, point))
            assert lo <= hi


class TestMinimalityCheck:
    def test_trivial_one_digit(self):
        assert minimality_check(1.0, 1)
        assert minimality_check(5e-324, 1)
        assert minimality_check(0.3, 1)

    def test_detects_shorter_form(self):
        # 0.1 prints with one digit; claiming two must be flagged non-minimal.
        assert not minimality_check(0.1, 2)
        assert not minimality_check(1.0, 5)

    def test_seventeen_digit_values(self):
        f = bits_to_float(0x3FF0000000000001)  # 1 + 2**-52 needs all 17 digits
        assert minimality_check(f, 17)
        assert not minimality_check(f, 18)

    def test_zero_raises_promptly(self):
        # Zero has no decimal exponent to search from; a subprocess with a
        # timeout turns a search that never ends into a failure.
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from ezfloat import minimality_check\n"
            "for f in (0.0, -0.0):\n"
            "    try:\n"
            "        minimality_check(f, 2)\n"
            "    except ValueError:\n"
            "        print('ValueError')\n"
        )
        root = os.path.dirname(os.path.dirname(oracle.__file__))
        done = subprocess.run(
            [sys.executable, "-c", probe, root],
            capture_output=True, text=True, check=True, timeout=30,
        )
        assert done.stdout.split() == ["ValueError", "ValueError"]

    @pytest.mark.parametrize("f", [math.inf, -math.inf, math.nan])
    def test_non_finite_raises(self, f):
        with pytest.raises(ValueError, match="finite nonzero"):
            minimality_check(f, 2)


class TestAllOnes:
    def test_enumeration(self):
        values = all_ones_mantissa_values()
        assert 2098 <= len(values) <= 2100
        assert len(values) == len(set(values))
        assert values == sorted(values)
        assert 9007199254740991.0 in values  # 2**53 - 1
        assert 1.7976931348623157e308 in values
        assert 5e-324 in values  # the one-bit subnormal

    def test_every_value_unpacks_to_all_ones(self):
        for f in all_ones_mantissa_values():
            u = unpack_double(f)
            assert u.kind in (FloatKind.NORMAL, FloatKind.SUBNORMAL)
            k = u.lmant.bit_length()
            assert u.lmant == (1 << k) - 1


# Every value the quotient-length audit writes: the all-ones values, then
# the least significand of each normal binade.
def _written_values():
    return all_ones_mantissa_values() + [math.ldexp(1.0, e) for e in range(-1022, 1024)]


class TestQuotientLengthAudit:
    def test_audit_is_clean(self):
        report = quotient_length_audit()
        assert report.ok
        assert report.violations == []
        assert report.values_tested >= 2098

    def test_write_check_fires(self):
        # The write trace as the writer records it, with its quotient
        # pushed just past the ceiling 100 * 2**53, must be flagged.
        f = float.fromhex("0x1.fffffffffffffp+0")
        stats = ConversionStats()
        shortest_digits(f, stats)
        [(site, num_bits, den_bits, quo)] = stats.trace
        assert _check(stats, 810, divisions=(1,)) == []
        stats.trace[0] = (site, num_bits, den_bits, 100 << 53)
        assert _check(stats, 810, divisions=(1,)) == []
        stats.trace[0] = (site, num_bits, den_bits, (100 << 53) + 1)
        assert _check(stats, 810, divisions=(1,)) == [
            f"write quotient 60 bits from {num_bits}/{den_bits}"
        ]

    def test_extra_write_division_is_a_violation(self, monkeypatch):
        real = audit.shortest_digits

        def twice(f, stats=None):
            sd = real(f, stats)
            stats.note_division("write", 1, 1, 1)
            return sd

        monkeypatch.setattr(audit, "shortest_digits", twice)
        report = quotient_length_audit()
        assert not report.ok
        assert report.max_write_divisions == 2
        assert report.violations == [
            f"0x{float_to_bits(f):016X} write made 2 divisions" for f in _written_values()
        ]

    def test_extra_reread_division_is_a_violation(self, monkeypatch):
        real = audit.mant_exp_to_double10

        @functools.wraps(real)
        def extra(mant, point, stats=None):
            value = real(mant, point, stats)
            stats.note_division("read-main", 1, 1, 1)
            return value

        expected = []
        for f in _written_values():
            dec = parse_decimal(format_sci(False, *shortest_digits(f)))
            stats = ConversionStats()
            real(dec.mant, dec.point, stats)
            if stats.divisions:
                label = f"0x{float_to_bits(f):016X}"
                expected.append(f"{label} reread via mant_exp_to_double10 made 2 divisions")
        # Clinger's path reads some of these texts without a division.
        assert 0 < len(expected) < len(_written_values())
        monkeypatch.setattr(audit, "mant_exp_to_double10", extra)
        report = quotient_length_audit()
        assert not report.ok
        assert report.violations == expected

    def test_wide_write_operand_is_a_violation(self, monkeypatch):
        # The widest write operand has 810 bits; one more breaks the bound.
        real = audit.shortest_digits

        def wide(f, stats=None):
            sd = real(f, stats)
            site, _, den_bits, quo = stats.trace[0]
            stats.trace[0] = (site, 811, den_bits, quo)
            return sd

        monkeypatch.setattr(audit, "shortest_digits", wide)
        report = quotient_length_audit()
        assert not report.ok
        assert report.max_write_bits == 811
        assert report.violations == [
            f"0x{float_to_bits(f):016X} write operand bits 811 over 810"
            for f in _written_values()
        ]

    def test_unknown_site_is_a_violation(self):
        # Sites match exactly: a stale route-specific name is unknown too.
        stats = ConversionStats()
        stats.trace += [("renamed", 60, 3, 1), ("read5-main", 60, 3, 1)]
        assert _check(stats, 60, divisions=(2,)) == [
            f"{site} quotient 1 bits from 60/3" for site in ("renamed", "read5-main")
        ]

    def test_render_format(self):
        report = quotient_length_audit()
        lines = report.render().splitlines()
        assert lines == [
            "values tested: 2098",
            "powers of two: 2046",
            "max write operand bits: 810",
            "max write divisions: 1",
            "texts not d.dddEn: 0",
            "violations: 0",
        ]


class TestIntermediateSizeScan:
    def test_binding_mismatch_is_a_violation(self, monkeypatch):
        real = audit.mant_exp_to_double10

        def wrong_on_one(mant, point, stats=None):
            value = real(mant, point, stats)
            return -value if mant == 10**16 else value

        monkeypatch.setattr(audit, "mant_exp_to_double10", wrong_on_one)
        scan = intermediate_size_scan(range(-30, 30), range(17, 18), random.Random(1))
        assert not scan.ok
        assert len(scan.violations) == 60
        assert all(v.startswith("10000000000000000E") for v in scan.violations)
        assert all(v.endswith("bindings differ") for v in scan.violations)

    def test_quotient_over_its_ceiling_is_a_violation(self, monkeypatch):
        real = audit.mant_exp_to_double5

        def traced(mant, point, stats=None):
            value = real(mant, point, stats)
            stats.trace[0] = ("read-main", 60, 3, (1 << 53) + 1)
            return value

        monkeypatch.setattr(audit, "mant_exp_to_double5", traced)
        # 24 digits: even the least significand, 10**23 = 2**23 * 5**23, is
        # no exact double (5**23 > 2**53), so every conversion divides.
        scan = intermediate_size_scan(range(-5, 5), range(24, 25), random.Random(1))
        assert len(scan.violations) == 40
        assert all(v.endswith(" pow5 read-main quotient 54 bits from 60/3") for v in scan.violations)

    def test_bindings_divide_exactly_when_read_double_does(self, kernel_calls):
        # Near both clamps, for 1 to 40 digits and for 1100 and 1500, the
        # least and the greatest significand of each length: read_double
        # and both bindings clamp by one rule, so all three make the same
        # division count, none exactly when top = point + nd is past a
        # clamp, and each counts every kernel call it makes.  The long ones
        # settle an edge with powers past 5**MAX_POW.
        for nd in [*range(1, 41), 1100, 1500]:
            lo, hi = 10 ** (nd - 1), 10**nd - 1
            for edge in (309 - nd, -324 - nd):
                for point in range(edge - 25, edge + 26):
                    divides = -324 < point + nd <= 309
                    for mant in (lo, hi):
                        counts = []
                        for convert in (
                            functools.partial(mant_exp_to_double5, mant, point),
                            functools.partial(mant_exp_to_double10, mant, point),
                            functools.partial(read_double, f"{mant}E{point}"),
                        ):
                            kernel_calls.count = 0
                            stats = ConversionStats()
                            convert(stats)
                            counts += [stats.divisions, kernel_calls.count]
                        assert counts == [int(divides)] * 6, (nd, mant == hi, point)

    def test_render_format(self):
        report = Report("max pow5 bits: {max_pow5_bits}, max pow10 bits: {max_pow10_bits}",
                        "max read divisions: {max_read_divisions}",
                        max_pow5_bits=810, max_pow10_bits=1072, max_read_divisions=1)
        report.violations += ["1E0 bindings differ", "2E0 2 divisions"]
        assert report.render().splitlines() == [
            "VIOLATION 1E0 bindings differ",
            "VIOLATION 2E0 2 divisions",
            "max pow5 bits: 810, max pow10 bits: 1072",
            "max read divisions: 1",
        ]


class TestHalfwayAudit:
    def test_render_format(self):
        report = Report("halfway reads: {reads}", "max halfway operand bits: {max_read_bits}",
                        reads=24564, max_read_bits=2555)
        report.violations.append("0x0000000000000000 halfway exact made 2 divisions")
        assert report.render().splitlines() == [
            "VIOLATION 0x0000000000000000 halfway exact made 2 divisions",
            "halfway reads: 24564",
            "max halfway operand bits: 2555",
        ]


class TestSeededAudits:
    # The ids keep the names the seeded audits' reports had as three classes.
    @pytest.mark.parametrize(
        "words",
        [
            ("oracle", "cases", "mismatches"),
            ("minimality", "values", "failures"),
            ("roundtrip", "values", "failures"),
        ],
        ids=["OracleReport", "MinimalityReport", "RoundtripReport"],
    )
    def test_render_format(self, words):
        suite, unit, failure = words
        template = f"{suite}: {{count}} {unit}, {{failures}} {failure}"
        report, other = Report(template, count=0), Report(template, count=0)
        assert report.render() == f"{suite}: 0 {unit}, 0 {failure}"
        report.count = 7
        report.violations.append("0x3FF0000000000000 read made 2 divisions")
        assert other.count == 0 and other.ok
        assert report.render().splitlines() == [
            "VIOLATION 0x3FF0000000000000 read made 2 divisions",
            f"{suite}: 7 {unit}, 1 {failure}",
        ]


class TestRoundtripAudit:
    def test_read_ceiling_at_each_point(self, monkeypatch):
        # Every read division on operands shifted left by 5: the same
        # quotients, 5 bits wider.  Each read is held to the ceiling of its
        # text's point, parsed from every text: 803 bits from point -323
        # up, wider below.  The writer's own binding is left alone.
        real = reader.round_quotient
        monkeypatch.setattr(reader, "round_quotient",
                            lambda num, den, stats, site: real(num << 5, den << 5, stats, site))
        expected = []
        rng = random.Random(5)
        for _ in range(20000):
            pattern = rng.getrandbits(64)
            f = bits_to_float(pattern)
            if not 0.0 < abs(f) < math.inf:
                continue
            text = double_to_string(f)
            stats = ConversionStats()
            read_double(text, stats)
            dec = parse_decimal(text)
            mant, point = dec.mant, dec.point
            while mant % 10 == 0:
                mant, point = mant // 10, point + 1
            ceiling = _read_width_ceiling(5, point)
            if stats.max_intermediate_bits > ceiling:
                expected.append(f"0x{pattern:016X} read operand bits "
                                f"{stats.max_intermediate_bits} over {ceiling}")
        report = roundtrip_audit(20000, 5)
        assert report.violations == expected
        assert sum(v.endswith(" over 803") for v in expected) == 100
        assert sum(v.endswith(" over 806") for v in expected) == 12
        assert report.render().splitlines()[-1] == "roundtrip: 19994 values, 112 failures, 0 not d.dddEn"


class TestStabilityAudit:
    def test_grid_alone(self):
        # 90 two-digit significands, 1.0 to 9.9, at each of 615 exponents.
        report = stability_audit(0, 1)
        assert report.count == 90 * 615 == 55350
        assert report.violations == []
        assert report.render() == "stable: 55350 texts, 0 failures"

    def test_seeded_texts(self):
        # count exact texts of 3-15 digits, count loose ones of 16-40 digits
        # and count in the subnormal range, after the grid.
        report = stability_audit(200, 7)
        assert report.count == 55350 + 3 * 200
        assert report.violations == []

    def test_write_over_its_bound_is_one_violation(self, monkeypatch):
        # No write fits in 0 bits: each text breaks its write bound once.
        monkeypatch.setattr(audit, "_WRITE_WIDTH_CEILING", 0)
        report = stability_audit(10, 1)
        assert report.count == len(report.violations) == 55350 + 30
        assert all(re.fullmatch(r"\S+ write operand bits [0-9]+ over 0", v)
                   for v in report.violations)

    def test_text_out_of_form_is_one_violation(self, monkeypatch):
        # A writer that marks its exponent with "e": no text writes back as
        # itself, and no loose one is in d.dddEn form to count digits in.
        real = audit.double_to_string
        monkeypatch.setattr(audit, "double_to_string",
                            lambda f, stats=None: real(f, stats).replace("E", "e"))
        report = stability_audit(100, 1)
        assert report.count == len(report.violations) == 55350 + 300
        form = re.compile(r"\S+E-?[0-9]+ read 0x[0-9A-F]{16} wrote \S+e-?[0-9]+")
        assert all(form.fullmatch(v) for v in report.violations)
        assert report.violations[0] == "1.0E-307 read 0x0031FA182C40C60D wrote 1.0e-307"

    def test_strict_fit_test_fails(self, monkeypatch):
        # The writer's fit test made strict: a shortest candidate at the edge
        # of the rounding interval is turned down for a longer text.
        source = inspect.getsource(writer._shortest)
        wrong = source.replace("<< 1 <= ulp - (lmant & 1)", "<< 1 < ulp - (lmant & 1)")
        assert wrong != source
        namespace = dict(vars(writer))
        exec(wrong, namespace)
        monkeypatch.setattr(writer, "_shortest", namespace["_shortest"])
        report = stability_audit(10000, 1)
        assert len(report.violations) == 50
        assert "7.676271E19 read 0x4410A52FB827A94E wrote 7.676271000000001E19" in report.violations


# (module, level, name) of every import the oracle may make: the kernel and
# the parsed-decimal record, nothing of the reader's or the writer's
# conversions.
_ORACLE_IMPORTS = {
    ("math", 0, None),
    ("bigmath", 1, "round_quotient"),
    ("reader", 1, "DecimalSci"),
}


def test_oracle_imports_nothing_it_checks():
    with open(oracle.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {(alias.name, 0, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            found |= {(node.module, node.level, alias.name) for alias in node.names}
    assert found
    assert found <= _ORACLE_IMPORTS, found - _ORACLE_IMPORTS


def test_oracle_agrees_with_writer_on_curated_values():
    for f in (1.0, 0.1, 0.3, 5e-324, 1.7976931348623157e308, 2.0**-1022):
        text = double_to_string(f)
        mant, _, exp = text.partition("E")
        digits = mant.replace(".", "").lstrip("-")
        point = int(exp) - (len(digits) - 1)
        dec = DecimalSci(False, int(digits), point)
        assert float_to_bits(nearest_double_exact(dec)) == float_to_bits(f)
