import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ezfloat import (
    ConversionStats,
    FloatKind,
    ShortestDigits,
    bigmath,
    bits_to_float,
    double_to_string,
    double_to_string_fast,
    estimate_point,
    float_to_bits,
    format_sci,
    minimality_check,
    read_double,
    shortest_digits,
    unpack_double,
)

MAX_FINITE = 1.7976931348623157e308
MIN_SUBNORMAL = 5e-324
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


class TestEstimatePoint:
    @pytest.mark.parametrize("e2,expected", [(0, 0), (-52, -15), (-1074, -323)])
    def test_examples(self, e2, expected):
        assert estimate_point(e2) == expected

    def test_exact_characterization_over_double_range(self):
        # p = estimate_point(e2) must satisfy 10**(p-1) < 2**e2 <= 10**p.
        for e2 in range(-1074, 972):
            p = estimate_point(e2)
            if e2 >= 0:
                num, den = 1 << e2, 1
            else:
                num, den = 1, 1 << -e2
            if p - 1 >= 0:
                assert 10 ** (p - 1) * den < num
            else:
                assert den < num * 10 ** (1 - p)
            if p >= 0:
                assert num <= 10**p * den
            else:
                assert num * 10**-p <= den


class TestShortestDigits:
    def test_one(self):
        assert shortest_digits(1.0) == ShortestDigits(10**15, -15)

    def test_min_subnormal_needs_fallback(self):
        stats = ConversionStats()
        assert shortest_digits(MIN_SUBNORMAL, stats) == ShortestDigits(5, -324)
        # Starved first attempt (quotient 0) rejected by its remainder, one retry.
        assert stats.divisions == 2

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

    def test_division_bound_is_four_and_tight(self):
        rng = random.Random(13)
        worst = 0
        for _ in range(4000):
            f = bits_to_float(rng.getrandbits(64))
            if f != f or f in (math.inf, -math.inf) or f == 0.0:
                continue
            stats = ConversionStats()
            shortest_digits(f, stats)
            assert stats.divisions <= 4
            worst = max(worst, stats.divisions)
        # Random patterns all but never need the third division, which only
        # binade boundaries take (see test_powers_of_two_are_minimal).
        assert worst == 2

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
            assert stats.divisions == calls, hex(float_to_bits(f))

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

    def test_compat_drops_padded_zero(self):
        assert format_sci(False, 5, -324, compat=True) == "5.E-324"
        assert format_sci(False, 12340, 0, compat=True) == "1.234E4"


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

    def test_compat_flags(self):
        assert double_to_string(-0.0, compat=True) == "0.0"
        assert double_to_string(0.0, compat=True) == "0.0"
        assert double_to_string(MIN_SUBNORMAL, compat=True) == "5.E-324"
        assert double_to_string(math.nan, compat=True) == "NaN"

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
        rng = random.Random(41)
        for _ in range(20000):
            bits = rng.getrandbits(64)
            f = bits_to_float(bits)
            if f != f:
                continue
            assert float_to_bits(read_double(double_to_string(f))) == bits

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
        rng = random.Random(43)
        checked = 0
        while checked < 300:
            f = bits_to_float(rng.getrandbits(64))
            if f != f or f in (math.inf, -math.inf) or f == 0.0:
                continue
            text = double_to_string(f)
            digits = text.split("E")[0].lstrip("-").replace(".", "")
            if digits.endswith("0") and len(digits) > 1:
                digits = digits[:-1]
            assert minimality_check(f, len(digits)), text
            checked += 1

    @settings(max_examples=400)
    @given(st.floats(allow_nan=False))
    def test_roundtrip_property(self, f):
        assert float_to_bits(read_double(double_to_string(f))) == float_to_bits(f)


class TestFastPath:
    def test_examples(self):
        assert double_to_string_fast(1.0) == "1.0E0"
        assert double_to_string_fast(3.0e15) == double_to_string(3.0e15)
        assert double_to_string_fast(0.1) == "1.0E-1"

    def test_specials(self):
        assert double_to_string_fast(math.nan) == "NaN"
        assert double_to_string_fast(-math.inf) == "-Infinity"
        assert double_to_string_fast(-0.0) == "-0.0"

    def test_equivalence_random(self):
        rng = random.Random(47)
        for _ in range(6000):
            f = bits_to_float(rng.getrandbits(64))
            if f != f:
                continue
            assert double_to_string_fast(f) == double_to_string(f)

    def test_equivalence_in_fast_eligible_band(self):
        # Magnitudes around 10**10..10**19 are where the narrow path engages.
        rng = random.Random(53)
        for _ in range(4000):
            f = rng.uniform(1e9, 1e19)
            assert double_to_string_fast(f) == double_to_string(f)
            assert double_to_string_fast(-f) == double_to_string(-f)
