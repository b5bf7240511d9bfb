import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ezfloat import (
    ConversionStats,
    DecimalSci,
    FloatKind,
    ShortestDigits,
    bigmath,
    bits_to_float,
    double_to_string,
    float_to_bits,
    format_sci,
    minimality_check,
    parse_decimal,
    read_double,
    shortest_digits,
    unpack_double,
    writer,
)
from ezfloat.audit import minimality_audit, roundtrip_audit

MAX_FINITE = 1.7976931348623157e308
MIN_SUBNORMAL = 5e-324
ALL_ONES = (1 << 52) - 1
# Every power of two: 52 subnormals and one per normal binade.
POWERS_OF_TWO = [math.ldexp(1.0, k) for k in range(-1074, 1024)]


def _repack(negative: bool, lmant: int, e2: int) -> int:
    """Rebuild the bit pattern from an unpacked finite double."""
    if lmant >= 1 << 52:
        ue2 = e2 + 1075
        frac = lmant - (1 << 52)
    else:
        ue2 = 0
        frac = lmant
    return (int(negative) << 63) | (ue2 << 52) | frac


class TestUnpackDouble:
    def test_examples(self):
        u = unpack_double(1.0)
        assert u == unpack_double(1.0)
        assert (u.negative, u.lmant, u.e2, u.kind) == (
            False,
            1 << 52,
            -52,
            FloatKind.NORMAL,
        )
        u = unpack_double(MIN_SUBNORMAL)
        assert (u.negative, u.lmant, u.e2, u.kind) == (
            False,
            1,
            -1074,
            FloatKind.SUBNORMAL,
        )
        u = unpack_double(-0.0)
        assert (u.negative, u.lmant, u.e2, u.kind) == (True, 0, -1074, FloatKind.ZERO)

    def test_nonfinite(self):
        assert unpack_double(math.inf).kind == FloatKind.INFINITE
        assert unpack_double(-math.inf) == unpack_double(-math.inf)
        assert unpack_double(-math.inf).negative
        assert unpack_double(math.nan).kind == FloatKind.NAN

    def test_repack_roundtrip(self):
        rng = random.Random(23)
        for _ in range(5000):
            bits = rng.getrandbits(64)
            f = bits_to_float(bits)
            if f != f or f in (math.inf, -math.inf):
                continue
            u = unpack_double(f)
            assert _repack(u.negative, u.lmant, u.e2) == bits
            # value identity
            assert math.ldexp(u.lmant, u.e2) == abs(f)

    def test_invariants(self):
        u = unpack_double(2.2250738585072014e-308)  # smallest normal
        assert u.kind == FloatKind.NORMAL and u.lmant == 1 << 52 and u.e2 == -1074
        u = unpack_double(bits_to_float(0x000FFFFFFFFFFFFF))  # largest subnormal
        assert u.kind == FloatKind.SUBNORMAL and u.lmant == 2**52 - 1 and u.e2 == -1074


class TestScaleTable:
    def test_entries_over_every_exponent(self):
        assert len(writer._SCALES) == 0x7FF
        for ue2, entry in enumerate(writer._SCALES):
            e2 = ue2 - 1075 if ue2 else -1074
            # The unique point with 10**(point-1) < 2**e2 <= 10**point, by
            # counting digits: 10**(point-1) <= 2**e2 - 1 for e2 > 0, and
            # 10**-point <= 2**-e2 < 10**(1-point) otherwise.
            point = len(str((1 << e2) - 1)) if e2 > 0 else 1 - len(str(1 << -e2))
            if e2 > 0:
                ulp, den = 100 * 2 ** (e2 - point), 5**point
                assert 0 <= point <= 293
            else:
                ulp, den = 100 * 5**-point, 2 ** (point - e2)
                assert 0 <= -point <= 323
            # Half an ulp rounded down, in units of 10**(point - 2).
            cut = ulp // (2 * den)
            assert entry == (point, ulp, den, cut), ue2
            # One ulp is more than 10 and at most 100 units of 10**(point - 2).
            assert 10 * den < ulp <= 100 * den, ue2
            assert 5 <= cut <= 50, ue2

    def test_every_exponent_round_trips(self):
        for ue2 in range(0x7FF):
            for frac in (0, 1, ALL_ONES):
                bits = ue2 << 52 | frac
                assert float_to_bits(read_double(double_to_string(bits_to_float(bits)))) == bits


def _trimmed(lquo: int, point: int) -> tuple[int, int]:
    while lquo % 10 == 0:
        lquo //= 10
        point += 1
    return lquo, point


def _repr_digits(f: float) -> tuple[int, int]:
    """repr(|f|) as (lquo, point), trailing zeros dropped."""
    mant, _, exp = repr(abs(f)).partition("e")
    whole, _, frac = mant.partition(".")
    return _trimmed(int(whole + frac), int(exp or 0) - len(frac))


def _model(f: float) -> tuple[list[tuple[int, int | str, bool, str]], tuple[int, int]]:
    """The candidates the writer tries on |f|, and the (lquo, point) it returns.

    Computed from exact fractions: the candidate at point - less is |f|
    rounded half-even to a multiple of 10**(point - less), d its distance
    from q = |f| / 10**(point - 2) rounded half-even, and cut half an ulp
    rounded down, both in units of 10**(point - 2).  Each tried candidate
    is (less, d - cut, fits, tie).  Above a binade boundary d - cut reads
    "narrow", where the writer always measures exactly.  Outside it the
    writer accepts every candidate at point - 1 without the exact product,
    whatever d - cut reads.  ``tie`` names the rule that picks between two
    multiples when q lies halfway between them: "q<f" and "q>f" round
    towards |f|, "exact-odd" and "exact-even" (q == |f|) to the even one;
    it is "" when q is not halfway.  The first candidate that fits, or its
    upper neighbour below a binade boundary, is returned untrimmed; when
    none fits the writer returns q itself at point - 2.
    """
    bits = float_to_bits(abs(f))
    ue2, frac = bits >> 52, bits & ALL_ONES
    e2 = ue2 - 1075 if ue2 else -1074
    point = len(str((1 << e2) - 1)) if e2 > 0 else 1 - len(str(1 << -e2))
    unit = Fraction(10) ** (point - 2)
    exact, ulp = Fraction(abs(f)) / unit, Fraction(2) ** e2 / unit
    q, cut = round(exact), math.floor(ulp / 2)
    narrow = frac == 0 and ue2 > 1

    def fits(c):
        # Half an ulp each side, a quarter below a binade boundary; the
        # endpoints count for an even significand only.
        reach = ulp / 4 if narrow and c < exact else ulp / 2
        return abs(c - exact) < reach or abs(c - exact) == reach and frac % 2 == 0

    tried = []
    for less, scale in ((0, 100), (1, 10)):
        c = round(exact / scale) * scale
        tie = ""
        if q % scale == scale // 2:
            if q != exact:
                tie = "q<f" if q < exact else "q>f"
            else:
                tie = "exact-odd" if q // scale % 2 else "exact-even"
        upper = narrow and c < exact and not fits(c) and fits(c + scale)
        ok = fits(c) or upper
        tried.append((less, "narrow" if narrow else abs(c - q) - cut, ok, tie))
        if ok:
            return tried, (c // scale + upper, point - less)
    return tried, (q, point - 2)


# Bit patterns whose writes reach each branch of the candidate test, with
# the (less, d - cut, fits, tie) of the candidate that reaches it.  d < cut
# fits without the exact distance, d > cut + 1 is rejected without it.  At
# point - 1 (scale 10) d <= 5 <= cut, and d == 5 is a tie in q % 10 that
# rounds towards |f|, so d == cut there always fits and d > cut never
# occurs.  The "tie" rows reach each arm of the tie rule at each scale,
# in the straight-line code and in the narrow case's loop.  No double
# reaches an odd exact tie in the narrow case's loop.  At point an exact tie
# lies half of 10**point from |f|, more than half an ulp except where
# ulp == 100 * den (e2 == point == 0), where it is exactly half an ulp; no
# tie occurs there, since q % 100 == 0.  In the narrow case's loop no tie at
# point fits either.
CANDIDATE_BANDS = {
    "point-fast-accept": (0x1775EE82643E2EC8, (0, -1, True, "")),
    "point-exact-cut-fits": (0x757069601C339464, (0, 0, True, "")),
    "point-exact-cut-rejected": (0x4B0F31695CCAF1AD, (0, 0, False, "")),
    "point-exact-cut+1-fits": (0x3DEEA1A80EA5804E, (0, 1, True, "")),
    "point-exact-cut+1-rejected": (0x6DEAFB69F09529AF, (0, 1, False, "")),
    "point-fast-reject": (0x26D694C3CE834960, (0, 2, False, "")),
    "point-1-fast-accept": (0x579B8EC3D8A8F065, (1, -1, True, "q>f")),
    "point-1-fast-accept-at-cut": (0x4651D9C58947E38B, (1, 0, True, "q<f")),
    "narrow-point-fits": (0x0020000000000000, (0, "narrow", True, "")),
    "narrow-point-1-fits": (0x0030000000000000, (1, "narrow", True, "q<f")),
    "narrow-point-1-upper-neighbour": (0x0060000000000000, (1, "narrow", True, "")),
    "narrow-q-itself": (0x00C0000000000000, (1, "narrow", False, "")),
    "point-tie-q<f": (0x7FD9171ACACAB87B, (0, 1, True, "q<f")),
    "point-tie-q>f": (0x618DD682F6767BA0, (0, 1, True, "q>f")),
    "point-tie-exact-odd-rejected": (0x432BB68DDDB4ACD3, (0, 25, False, "exact-odd")),
    "point-1-tie-q<f": (0x48DBAC252265B1F5, (1, -1, True, "q<f")),
    "point-1-tie-q>f": (0x4BAAEA603A902931, (1, -16, True, "q>f")),
    "point-1-tie-exact-odd": (0x430D9AED1AFFCF86, (1, -1, True, "exact-odd")),
    "point-1-tie-exact-even": (0x4311E52F96E3BB71, (1, -7, True, "exact-even")),
    "narrow-point-tie-q<f": (0x2360000000000000, (0, "narrow", False, "q<f")),
    "narrow-point-tie-q>f": (0x0110000000000000, (0, "narrow", False, "q>f")),
    "narrow-point-1-tie-q>f": (0x0100000000000000, (1, "narrow", True, "q>f")),
    "narrow-point-1-tie-exact-even": (0x3E60000000000000, (1, "narrow", True, "exact-even")),
}


class TestCandidateBands:
    @pytest.mark.parametrize("name", CANDIDATE_BANDS)
    def test_named_input_reaches_its_band(self, name):
        bits, band = CANDIDATE_BANDS[name]
        f = bits_to_float(bits)
        tried, expected = _model(f)
        assert band in tried
        assert shortest_digits(f) == expected
        assert _trimmed(*expected) == _repr_digits(f)

    def test_every_exponent_and_random_patterns_match_repr(self):
        rng = random.Random(17)
        fracs = (0, 1, ALL_ONES - 1, ALL_ONES)
        patterns = [ue2 << 52 | frac for ue2 in range(0x7FF) for frac in fracs]
        patterns += [rng.getrandbits(63) for _ in range(20_000)]
        for bits in patterns:
            f = bits_to_float(bits)
            if 0.0 < f < math.inf:
                expected = _model(f)[1]
                assert shortest_digits(f) == expected, hex(bits)
                assert _trimmed(*expected) == _repr_digits(f), hex(bits)


class TestShortestDigits:
    def test_one(self):
        assert shortest_digits(1.0) == ShortestDigits(10**15, -15)

    def test_min_subnormal_needs_fallback(self):
        stats = ConversionStats()
        assert shortest_digits(MIN_SUBNORMAL, stats) == ShortestDigits(5, -324)
        # The coarsest candidate (0) is rejected by its distance; the next,
        # from the same quotient, fits.  One division.
        assert stats.divisions == 1

    def test_tenth(self):
        assert shortest_digits(0.1) == ShortestDigits(10**15, -16)

    def test_max_finite(self):
        assert shortest_digits(MAX_FINITE) == ShortestDigits(17976931348623157, 292)

    def test_sign_ignored(self):
        assert shortest_digits(-0.1) == shortest_digits(0.1)

    def test_rejects_nonfinite_and_zero(self):
        for bad in (0.0, -0.0, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                shortest_digits(bad)

    def test_digit_count_bound(self):
        rng = random.Random(31)
        for _ in range(4000):
            f = bits_to_float(rng.getrandbits(64))
            if f != f or f in (math.inf, -math.inf) or f == 0.0:
                continue
            sd = shortest_digits(f)
            assert 0 < sd.lquo < 10**17

    def test_every_write_makes_one_division(self):
        # Every candidate comes from one quotient at the finest scale; the
        # audit checks each finite nonzero write's division count.
        assert roundtrip_audit(4000, 13).violations == []

    def test_widest_write_quotient_is_60_bits(self):
        # An all-ones significand is the largest of its binade, so it
        # gives the widest quotient of its exponent's scale.
        stats = ConversionStats()
        for ue2 in range(0x7FF):
            shortest_digits(bits_to_float(ue2 << 52 | ALL_ONES), stats)
        assert len(stats.trace) == 0x7FF
        assert {site for site, *_ in stats.trace} == {"write"}
        widest = max(quo for *_, quo in stats.trace)
        assert widest.bit_length() == 60
        assert widest <= 100 << 53  # the write ceiling audit._check checks

    def test_stats_count_every_division(self, monkeypatch):
        # Count the kernel's calls wherever ezfloat holds it, so a division
        # that bypasses the stats hook shows as a mismatch.
        kernel = bigmath.round_quotient
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return kernel(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "ezfloat" or name.startswith("ezfloat."):
                for attr, value in list(vars(module).items()):
                    if value is kernel:
                        monkeypatch.setattr(module, attr, counted)
        rng = random.Random(19)
        values = [bits_to_float(rng.getrandbits(64)) for _ in range(3000)]
        for f in values + POWERS_OF_TWO:
            if f != f or f in (math.inf, -math.inf) or f == 0.0:
                continue
            calls = 0
            stats = ConversionStats()
            shortest_digits(f, stats)
            assert stats.divisions == calls == 1, hex(float_to_bits(f))
            # The hot path reaches the kernel without shortest_digits.
            for g in (f, -f):
                calls = 0
                stats = ConversionStats()
                double_to_string(g, stats=stats)
                assert stats.divisions == calls == 1, hex(float_to_bits(g))

    def test_powers_of_two_are_minimal(self):
        # Just above a binade boundary the rounding interval reaches only a
        # quarter ulp down; random patterns almost never land there.
        def significant(text):
            return len(text.lower().split("e")[0].replace(".", "").strip("0"))

        assert len(POWERS_OF_TWO) == 2098
        for f in POWERS_OF_TWO:
            text = double_to_string(f)
            assert minimality_check(f, significant(text)), text
            assert significant(text) == significant(repr(f)), text
            assert float_to_bits(read_double(text)) == float_to_bits(f), text


class TestFormatSci:
    @pytest.mark.parametrize(
        "negative,lquo,point,expected",
        [
            (False, 10**15, -15, "1.0E0"),
            (False, 5, -324, "5.0E-324"),
            (True, 17976931348623157, 292, "-1.7976931348623157E308"),
            (False, 3000000000000000, -16, "3.0E-1"),
            (False, 12340, 0, "1.234E4"),
            (True, 10**16, -16, "-1.0E0"),
        ],
    )
    def test_examples(self, negative, lquo, point, expected):
        assert format_sci(negative, lquo, point) == expected

    def test_exact_value_property(self):
        rng = random.Random(47)
        for i in range(3000):
            lquo = rng.randrange(1, 10**17)
            if i % 3 == 0:
                zeros = rng.randint(1, 16)
                lquo = max(lquo // 10**zeros, 1) * 10**zeros
            point = rng.randint(-340, 310)
            negative = rng.random() < 0.5
            mant, exact_point = lquo, point
            while mant % 10 == 0:
                mant //= 10
                exact_point += 1
            text = format_sci(negative, lquo, point)
            assert parse_decimal(text) == DecimalSci(negative, mant, exact_point), text
            head, exponent = text.lstrip("-").split("E")
            lead, frac = head.split(".")
            if mant < 10:
                assert frac == "0", text
            else:
                assert frac and not frac.endswith("0"), text
            assert lead == str(lquo)[0]
            assert int(exponent) == point + len(str(lquo)) - 1, text


class TestDoubleToString:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (math.nan, "NaN"),
            (math.inf, "Infinity"),
            (-math.inf, "-Infinity"),
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (MIN_SUBNORMAL, "5.0E-324"),
            (1.0, "1.0E0"),
            (-1.0, "-1.0E0"),
            (0.1, "1.0E-1"),
            (0.3, "3.0E-1"),
            (1500.0, "1.5E3"),
            (MAX_FINITE, "1.7976931348623157E308"),
            (2.2250738585072014e-308, "2.2250738585072014E-308"),
            (1e22, "1.0E22"),
            (9007199254740990.0, "9.00719925474099E15"),
        ],
    )
    def test_examples(self, value, expected):
        assert double_to_string(value) == expected

    def test_composes_shortest_digits_and_format_sci(self):
        # The public halves must give exactly what the hot path writes.
        rng = random.Random(53)
        values = []
        while len(values) < 2000:
            f = bits_to_float(rng.getrandbits(64))
            if math.isfinite(f) and f != 0.0:
                values.append(f)
        for f in POWERS_OF_TWO:
            values += [f, math.nextafter(f, 0.0), math.nextafter(f, math.inf)]
        values += [bits_to_float(b) for b in range(1, 1001)]
        values += [bits_to_float(0x000FFFFFFFFFFFFF - i) for i in range(1000)]
        for f in values:
            if not math.isfinite(f) or f == 0.0:
                continue
            sd = shortest_digits(f)
            expected = format_sci(f < 0, sd.lquo, sd.point)
            assert double_to_string(f) == expected, hex(float_to_bits(f))

    def test_exact_decimal_tie_rounds_to_even(self):
        # 2**50 + 0.25 lies exactly halfway between the 17-digit decimals
        # ...6242 and ...6243, both inside its rounding interval: the tie
        # goes to the even one, as repr's does.
        assert double_to_string(2.0**50 + 0.25) == "1.1258999068426242E15"

    def test_exact_decimal_ties_match_repr(self):
        # k + 0.25 and k + 0.125 are exact short decimals; where the
        # shortest candidates split them evenly, only the exact remainder
        # tells the tie, which must go to the even digit.
        def digits(text):
            return text.lower().split("e")[0].replace(".", "").strip("0")

        rng = random.Random(59)
        for _ in range(3000):
            k = rng.randrange(2**46, 2**51)
            for f in (k + 0.25, k + 0.125):
                assert digits(double_to_string(f)) == digits(repr(f)), repr(f)

    def test_no_trailing_zeros(self):
        rng = random.Random(37)
        for _ in range(3000):
            f = bits_to_float(rng.getrandbits(64))
            if f != f or f in (math.inf, -math.inf) or f == 0.0:
                continue
            mantissa = double_to_string(f).split("E")[0].lstrip("-")
            head, frac = mantissa.split(".")
            assert len(head) == 1 and head != "0"
            if frac != "0":
                assert not frac.endswith("0")
            assert len(head + frac) <= 17

    def test_roundtrip_random(self):
        report = roundtrip_audit(20000, 41)
        assert report.violations == [] and report.count == 19988  # 12 NaNs skipped

    def test_roundtrip_curated(self):
        curated = [
            0.0,
            -0.0,
            MIN_SUBNORMAL,
            -MIN_SUBNORMAL,
            bits_to_float(0x000FFFFFFFFFFFFF),
            2.2250738585072014e-308,
            MAX_FINITE,
            -MAX_FINITE,
            1.0,
            math.pi,
            math.e,
            2.0**-52,
            0.1 + 0.2,
        ]
        for f in curated:
            assert float_to_bits(read_double(double_to_string(f))) == float_to_bits(f)

    def test_minimality_spot_sample(self):
        report = minimality_audit(300, 43)
        assert report.violations == [] and report.count == 304

    @settings(max_examples=400)
    @given(st.floats(allow_nan=False))
    def test_roundtrip_property(self, f):
        assert float_to_bits(read_double(double_to_string(f))) == float_to_bits(f)
