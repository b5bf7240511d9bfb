import copy
import functools
import itertools
import math
import pickle
import random
import re
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ezfloat import (
    ConversionStats,
    DecimalSci,
    ParseError,
    bigmath,
    bits_to_float,
    float_to_bits,
    mant_exp_to_double5,
    mant_exp_to_double10,
    nearest_double_exact,
    parse_decimal,
    read_double,
    read_double_with_stats,
)
from ezfloat.reader import _kept_digits


# README's input grammar as a state machine, written apart from reader.py:
# state -> character class -> next state.
_MOVES = {
    "start": {"sign": "sign", "digit": "int", ".": "dot"},
    "sign": {"digit": "int", ".": "dot"},
    "int": {"digit": "int", ".": "frac", "e": "exp"},
    "dot": {"digit": "frac"},
    "frac": {"digit": "frac", "e": "exp"},
    "exp": {"sign": "exp-sign", "digit": "exp-digits"},
    "exp-sign": {"digit": "exp-digits"},
    "exp-digits": {"digit": "exp-digits"},
}
_ACCEPTING = {"int", "frac", "exp-digits"}
_WORDS = ("NaN", "Infinity")


def _grammar_reference(text: str) -> tuple[bool, int]:
    """(accepted, rejection position): the position is the length of the
    longest prefix that some accepted text starts with, where a special
    word counts only when whole."""
    state, word, viable = "start", "", 0
    for i, c in enumerate(text):
        if state in ("start", "sign", "word") and any(w.startswith(word + c) for w in _WORDS):
            state, word = "word", word + c
        else:
            kind = "digit" if "0" <= c <= "9" else "sign" if c in "+-" else "e" if c in "eE" else c
            state = _MOVES.get(state, {}).get(kind)
            if state is None:
                break
        if state != "word" or word in _WORDS:
            viable = i + 1
    else:
        if state in _ACCEPTING or word in _WORDS:
            return True, len(text)
    return False, viable


class TestParseDecimal:
    @pytest.mark.parametrize(
        "text,negative,mant,point",
        [
            ("1.5E3", False, 15, 2),
            ("5E-324", False, 5, -324),
            ("-0.0", True, 0, 0),
            ("0", False, 0, 0),
            ("1500", False, 15, 2),
            ("0.25", False, 25, -2),
            (".5", False, 5, -1),
            ("5.", False, 5, 0),
            ("+1", False, 1, 0),
            ("-1", True, 1, 0),
            ("1e3", False, 1, 3),
            ("1E+3", False, 1, 3),
            ("1e03", False, 1, 3),
            ("00.100e1", False, 1, 0),
            ("123.456e-7", False, 123456, -10),
            ("0e99", False, 0, 0),
            ("9" * 40, False, int("9" * 40), 0),
        ],
    )
    def test_accepted(self, text, negative, mant, point):
        dec = parse_decimal(text)
        assert dec == DecimalSci(negative, mant, point)

    def test_canonical_form(self):
        dec = parse_decimal("123000.000e5")
        assert dec.mant % 10 != 0
        assert dec == DecimalSci(False, 123, 8)

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            (".", 1),
            ("+", 1),
            ("-", 1),
            ("1..2", 2),
            ("1e", 2),
            ("1e+", 3),
            ("abc", 0),
            ("1 ", 1),
            (" 1", 0),
            ("NaNx", 3),
            ("Infinityy", 8),
            ("nan", 0),
            ("inf", 0),
            ("INFINITY", 0),
            ("0x10", 1),
            ("1.5d3", 3),
            ("--1", 1),
            ("1e5.5", 3),
            ("\u0661", 0),  # ARABIC-INDIC DIGIT ONE
            ("\uff11", 0),  # FULLWIDTH DIGIT ONE
            ("1\u0663", 1),
            ("1_0", 1),
            ("1\n", 1),
            (".e5", 1),
            ("-Inf", 1),
            ("+NaNx", 4),
            ("1e+5x", 4),
            ("1e\u0660", 2),
        ],
    )
    def test_rejected_with_position(self, text, position):
        with pytest.raises(ParseError) as exc:
            parse_decimal(text)
        assert exc.value.position == position
        what = repr(text[position]) if position < len(text) else "end of input"
        assert str(exc.value) == f"unexpected {what} at position {position}"

    def test_matches_grammar_reference(self):
        # Every text of up to five characters over an alphabet that spells
        # each rule and NaN in part: 111,111 texts.
        for n in range(6):
            for chars in itertools.product("01.eE+-Nax", repeat=n):
                text = "".join(chars)
                accepted, position = _grammar_reference(text)
                try:
                    parse_decimal(text)
                except ParseError as exc:
                    assert (accepted, exc.position) == (False, position), text
                else:
                    assert accepted, text

    def test_error_survives_pickle_and_copy(self):
        # A read error raised in a worker process reaches the caller whole.
        exc = ParseError("unexpected 'x'", 3)
        for clone in (pickle.loads(pickle.dumps(exc)), copy.copy(exc), copy.deepcopy(exc)):
            assert type(clone) is ParseError
            assert str(clone) == str(exc) == "unexpected 'x' at position 3"
            assert clone.position == 3

    def test_special_tokens(self):
        assert math.isnan(parse_decimal("NaN"))
        assert float_to_bits(parse_decimal("NaN")) == 0x7FF8000000000000
        assert float_to_bits(parse_decimal("-NaN")) == 0x7FF8000000000000
        assert parse_decimal("Infinity") == math.inf
        assert parse_decimal("+Infinity") == math.inf
        assert parse_decimal("-Infinity") == -math.inf

    def test_huge_exponents_saturate(self):
        assert read_double("1e99999999999999999999") == math.inf
        assert read_double("-1e99999999999999999999") == -math.inf
        got = read_double("1e-99999999999999999999")
        assert got == 0.0 and math.copysign(1.0, got) == 1.0
        got = read_double("-1e-99999999999999999999")
        assert got == 0.0 and math.copysign(1.0, got) == -1.0
        assert read_double("0e999999999999999999") == 0.0

    def test_padded_exponents_do_not_saturate(self):
        assert read_double("1e00000000000000005") == 1e5
        assert read_double("1E-00000000000000005") == 1e-5
        assert read_double("1e+00000000000000000") == 1.0

    @pytest.mark.parametrize(
        "text,point,value",
        [
            # Ten characters are read as they are; longer exponents are
            # counted without their leading zeros.
            ("1e9999999999", 9999999999, math.inf),
            ("1e09999999999", 9999999999, math.inf),
            ("1e-09999999999", -9999999999, 0.0),
            ("1e10000000000", 10**12, math.inf),
            ("1e-10000000000", -(10**12), 0.0),
            ("1e-0000000001", -1, 0.1),
            ("1e+0000000000", 0, 1.0),
        ],
    )
    def test_exponent_length_switch(self, text, point, value):
        assert parse_decimal(text) == DecimalSci(False, 1, point)
        got = read_double(text)
        assert float_to_bits(got) == float_to_bits(value)
        assert float_to_bits(got) == float_to_bits(nearest_double_exact(parse_decimal(text)))

    def test_very_long_mantissa_is_exact(self):
        # All digits must participate in the single rounding.
        digits = str(5**1075)  # exact decimal expansion of 2**-1075 scaled
        text = f"0.{'0' * (1075 - len(digits))}{digits}"
        assert len(text) > 1000
        dec = parse_decimal(text)
        assert dec.mant == 5**1075 and dec.point == -1075

    def test_significand_longer_than_int_conversion_limit(self):
        # Over 4300 significant digits int() refuses the string, so the
        # digits are converted in chunks.  1 + 2**-53 is the halfway point
        # between 1.0 and its successor: exactly it rounds to the even 1.0,
        # and a far trailing 1 tips it up.
        halfway = "1." + str(5**53).rjust(53, "0")
        for text, bits in (
            (halfway + "0" * 9000 + "1", 0x3FF0000000000001),
            (halfway + "0" * 9000, 0x3FF0000000000000),
        ):
            assert float_to_bits(read_double(text)) == bits
            assert float_to_bits(float(text)) == bits
            assert float_to_bits(nearest_double_exact(parse_decimal(text))) == bits

    @pytest.mark.parametrize("ndigits", [800, 5000])
    def test_long_significand_keeps_every_digit(self, ndigits):
        # Reads bound the significand; parse_decimal must not, because it is
        # the exact reference for halfway strings.
        rng = random.Random(ndigits)
        digits = "".join(rng.choices("0123456789", k=ndigits - 2))
        digits = f"{rng.randint(1, 9)}{digits}{rng.randint(1, 9)}"
        dec = parse_decimal(f"{digits[0]}.{digits[1:]}e-7")
        # Each half stays under int()'s 4300-digit string limit.
        half = ndigits // 2
        assert divmod(dec.mant, 10**half) == (int(digits[:-half]), int(digits[-half:]))
        assert dec.point == -7 - (ndigits - 1)

    @pytest.mark.parametrize("ndigits", [4000, 4001, 8000, 8001, 12001, 40000, 40001])
    def test_long_significand_matches_horner(self, ndigits):
        # The divide-and-conquer conversion against a plain digit-group
        # Horner evaluation, at and around the 4000-digit chunk boundary.
        rng = random.Random(ndigits)
        digits = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=ndigits - 2)) + "7"
        want = 0
        for pos in range(0, ndigits, 1000):
            group = digits[pos : pos + 1000]
            want = want * 10 ** len(group) + int(group)
        assert parse_decimal(digits) == DecimalSci(False, want, 0)

    def test_long_significand_is_subquadratic(self):
        # 16x the digits: a quadratic conversion takes 256x the time (the
        # chunked one measured 190-290x), one built on CPython's Karatsuba
        # products about 16**1.585 ~= 81x (measured 65-110x).  CPU time,
        # which other processes do not inflate, min over interleaved runs.
        rng = random.Random(16)
        digits = "".join(rng.choices("123456789", k=400_000))

        def took(text):
            started = time.process_time()
            parse_decimal(text)
            return time.process_time() - started

        short = long = math.inf
        for _ in range(3):
            short = min(short, took(digits[:25_000]), took(digits[:25_000]))
            long = min(long, took(digits))
        assert long < 150 * short


class TestMantExpToDouble:
    def test_pow5_examples(self):
        assert mant_exp_to_double5(1, 0) == 1.0
        assert float_to_bits(mant_exp_to_double5(5, -324)) == 0x0000000000000001
        assert (
            float_to_bits(mant_exp_to_double5(17976931348623157, 292))
            == 0x7FEFFFFFFFFFFFFF
        )
        assert mant_exp_to_double5(1, 309) == math.inf

    def test_pow10_examples(self):
        assert mant_exp_to_double10(1, 0) == 1.0
        assert float_to_bits(mant_exp_to_double10(123456789, -2)) == float_to_bits(
            mant_exp_to_double5(123456789, -2)
        )
        assert float_to_bits(mant_exp_to_double10(5, -324)) == 0x0000000000000001

    # Points on Clinger's path, past overflow and far past both clamps: the
    # bindings check the sign first and zero second, before either clamp.
    _CHECKED_POINTS = (0, 400, -(10**6), 10**6)

    def test_zero_mantissa(self):
        assert mant_exp_to_double5(0, 100) == 0.0
        assert mant_exp_to_double10(0, -100) == 0.0
        for convert in (mant_exp_to_double5, mant_exp_to_double10):
            for point in self._CHECKED_POINTS:
                stats = ConversionStats()
                got = convert(0, point, stats)
                assert float_to_bits(got) == 0 and stats.divisions == 0, (convert, point)

    def test_negative_mantissa_rejected(self):
        for convert in (mant_exp_to_double5, mant_exp_to_double10):
            for point in self._CHECKED_POINTS:
                with pytest.raises(ValueError):
                    convert(-1, point)

    def test_point_past_the_power_table(self):
        # A significand long enough to stay above the underflow clamp at a
        # point below -MAX_POW, which no read reaches.
        mant, point = 10**1200 + 1, -1200
        assert -point > bigmath.MAX_POW
        want = nearest_double_exact(DecimalSci(False, mant, point))
        for convert in (mant_exp_to_double5, mant_exp_to_double10):
            stats = ConversionStats()
            got = convert(mant, point, stats)
            assert got == want == 1.0 and stats.divisions == 1, convert

    def test_non_canonical_mantissas(self):
        assert mant_exp_to_double5(1500, -3) == 1.5
        assert mant_exp_to_double10(50, -325) == 5e-324

    def test_exact_small_integers(self):
        for n in (1, 2, 3, 10, 12345, 2**53 - 1, 2**53):
            assert mant_exp_to_double5(n, 0) == float(n)
            assert mant_exp_to_double10(n, 0) == float(n)

    def test_subnormal_boundary(self):
        # Half the smallest subnormal is an exact tie: round to even zero.
        assert mant_exp_to_double5(5**1075, -1075) == 0.0
        assert mant_exp_to_double10(5**1075, -1075) == 0.0
        # One ulp of decimal above the tie rounds up to the smallest subnormal.
        assert float_to_bits(mant_exp_to_double5(5**1075 + 1, -1075)) == 1
        # Largest subnormal and smallest normal, exact decimal expansions.
        assert mant_exp_to_double5((2**52 - 1) * 5**1074, -1074) == math.ldexp(
            2**52 - 1, -1074
        )
        assert mant_exp_to_double5(2**52 * 5**1074, -1074) == math.ldexp(1, -1022)

    def test_normal_subnormal_crossover_single_rounding(self):
        # Values just below 2**-1022 must not be rounded twice.
        lo = 2**52 * 5**1074 - 5**1074 // 2  # halfway to the largest subnormal
        assert mant_exp_to_double5(lo, -1074) == math.ldexp(2**52, -1074)
        assert mant_exp_to_double5(lo - 1, -1074) == math.ldexp(2**52 - 1, -1074)

    def test_overflow_boundary(self):
        # Midpoint between the largest finite double and 2**1024, an exact
        # integer; the tie rounds up to the even candidate, overflowing.
        mid = 2**1024 - 2**970
        assert mant_exp_to_double5(mid, 0) == math.inf
        assert float_to_bits(mant_exp_to_double5(mid - 1, 0)) == 0x7FEFFFFFFFFFFFFF
        assert mant_exp_to_double10(mid, 0) == math.inf

    def test_huge_points_clamp_at_once(self):
        # Beyond range whatever the significand, so neither route builds a
        # power with |point| digits before returning.
        for convert in (mant_exp_to_double5, mant_exp_to_double10):
            for point in (10**6, 3 * 10**6):
                for p, want in ((point, math.inf), (-point, 0.0)):
                    started = time.perf_counter()
                    assert convert(1, p) == want
                    assert time.perf_counter() - started < 0.05, (convert, p)

    def test_clamps_agree_with_oracle_at_their_edges(self):
        # Around the underflow clamp's edge for significands of several
        # lengths, and around point 309: the clamps change no result.
        for nbits in (1, 60, 500, 2600):
            edge = -324 - nbits * 30103 // 100000
            for mant in (1 << (nbits - 1), (1 << nbits) - 1):
                for point in range(edge - 3, edge + 4):
                    want = float_to_bits(nearest_double_exact(DecimalSci(False, mant, point)))
                    assert float_to_bits(mant_exp_to_double5(mant, point)) == want
                    assert float_to_bits(mant_exp_to_double10(mant, point)) == want
        for point in range(305, 312):
            want = nearest_double_exact(DecimalSci(False, 1, point))
            assert mant_exp_to_double5(1, point) == mant_exp_to_double10(1, point) == want

    def test_variant_agreement_randomized(self):
        rng = random.Random(20150118)
        for _ in range(3000):
            nd = rng.randint(1, 25)
            mant = rng.randint(10 ** (nd - 1), 10**nd - 1)
            point = rng.randint(-345, 320)
            b5 = float_to_bits(mant_exp_to_double5(mant, point))
            b10 = float_to_bits(mant_exp_to_double10(mant, point))
            assert b5 == b10, (mant, point)

    def test_division_bound(self):
        rng = random.Random(7)
        achieved_one = False
        for _ in range(2000):
            mant = rng.randint(1, 10**17)
            point = rng.randint(-340, 308)
            stats = ConversionStats()
            mant_exp_to_double5(mant, point, stats)
            assert stats.divisions <= 1, (mant, point)
            achieved_one = achieved_one or stats.divisions == 1
        assert achieved_one  # the bound is tight

    def test_monotone_on_adjacent_decimals(self):
        rng = random.Random(11)
        for _ in range(2000):
            nd = rng.randint(1, 20)
            mant = rng.randint(10 ** (nd - 1), 10**nd - 2)
            point = rng.randint(-330, 300)
            assert mant_exp_to_double5(mant, point) <= mant_exp_to_double5(
                mant + 1, point
            )


class TestReadDouble:
    def test_examples(self):
        assert read_double("1.0E0") == 1.0
        assert float_to_bits(read_double("4.9406564584124654E-324")) == 1
        assert read_double("-Infinity") == -math.inf

    def test_signs(self):
        assert float_to_bits(read_double("-0.0")) == 0x8000000000000000
        assert float_to_bits(read_double("-5E-324")) == 0x8000000000000001
        assert read_double("-1.5") == -1.5

    def test_clamps(self):
        assert read_double("1E309") == math.inf
        assert read_double("-2E400") == -math.inf
        assert read_double("1E-324") == 0.0
        assert read_double("9E-400") == 0.0
        # Barely inside the clamp thresholds still converts correctly.
        assert float_to_bits(read_double("3E-324")) == 1
        assert read_double("1.7976931348623157E308") == 1.7976931348623157e308

    def test_known_hard_boundaries(self):
        # Near the smallest normal; historically mis-rounded by some parsers.
        for text in (
            "2.2250738585072011e-308",
            "2.2250738585072012e-308",
            "2.2250738585072013e-308",
            "2.2250738585072014e-308",
        ):
            assert float_to_bits(read_double(text)) == float_to_bits(float(text))

    def test_halfway_integer(self):
        # 2**53 + 1 is exactly between two doubles; even significand wins.
        assert read_double("9007199254740993") == 9007199254740992.0
        assert read_double("9007199254740995") == 9007199254740996.0

    def test_stats_outcome(self):
        outcome = read_double_with_stats("12345678901234567890E-30")
        assert outcome.value == read_double("12345678901234567890E-30")
        assert 1 <= outcome.stats.divisions <= 2
        assert outcome.stats.max_intermediate_bits > 0
        clamped = read_double_with_stats("1E-999")
        assert clamped.stats.divisions == 0

    def test_parse_error_propagates(self):
        with pytest.raises(ParseError):
            read_double("1..2")

    def test_against_platform_parser(self):
        rng = random.Random(3)
        for _ in range(3000):
            nd = rng.randint(1, 30)
            mant = rng.randint(10 ** (nd - 1), 10**nd - 1)
            point = rng.randint(-345, 310)
            text = f"{mant}E{point}"
            assert float_to_bits(read_double(text)) == float_to_bits(float(text)), text

    def test_against_oracle_randomized(self):
        rng = random.Random(5)
        for _ in range(1500):
            nd = rng.randint(1, 40)
            mant = rng.randint(10 ** (nd - 1), 10**nd - 1)
            point = rng.randint(-360, 330)
            neg = rng.random() < 0.5
            dec = DecimalSci(neg, mant, point)
            text = f"{'-' if neg else ''}{mant}E{point}"
            assert float_to_bits(read_double(text)) == float_to_bits(
                nearest_double_exact(dec)
            ), text

    @settings(max_examples=300)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_reads_back_python_repr(self, f):
        assert float_to_bits(read_double(repr(f))) == float_to_bits(f)

    def test_token_strings_against_oracle(self):
        # Random strings of grammar pieces and junk: each reads as the
        # exact nearest double of its parse, or both reject it alike.
        # Exponents of five or more digits are left out, because the
        # oracle builds 10**|point| exactly; test_huge_exponents_saturate
        # covers them.
        tokens = ["0", "1", "5", "9", "12", "305", "000", "8" * 20, ".", ".",
                  "e", "E", "+", "-", "NaN", "Infinity", "x", "\u0663", " "]
        rng = random.Random(5000)
        tested = accepted = 0
        while tested < 5000:
            text = "".join(rng.choice(tokens) for _ in range(rng.randint(0, 6)))
            if re.search(r"[eE][+-]?0*[1-9][0-9]{4}", text):
                continue
            tested += 1
            try:
                dec = parse_decimal(text)
            except ParseError as exc:
                with pytest.raises(ParseError) as got:
                    read_double(text)
                assert (got.value.position, str(got.value)) == (exc.position, str(exc))
                continue
            accepted += 1
            want = dec if isinstance(dec, float) else nearest_double_exact(dec)
            assert float_to_bits(read_double(text)) == float_to_bits(want), text
        assert accepted > 500


def _sci(digits: str, top: int, negative: bool = False) -> str:
    # int(digits) * 10**(top - len(digits)), with the point after the first digit.
    return f"{'-' if negative else ''}{digits[0]}.{digits[1:]}e{top - 1}"


def _assert_exact_read(text: str, want: int | None = None) -> None:
    got = float_to_bits(read_double(text))
    assert got == float_to_bits(nearest_double_exact(parse_decimal(text))), text[:60]
    assert got == float_to_bits(float(text)), text[:60]
    if want is not None:
        assert got == want, text[:60]


# The midpoint between the largest subnormal and the smallest normal,
# (2**53 - 1) * 2**-1075, written out: 768 significant digits, the most
# any binary64 halfway point has.
_MIDPOINT_768 = str((2**53 - 1) * 5**1075)
_MIDPOINT_TOP = len(_MIDPOINT_768) - 1075

# After the clamps a read keeps at most 769 digits, at top -307 alone,
# and its widest operand is such a significand.  Every operand built from
# it is narrower: a read's point is at least -1076, so the main dividend
# is at most 53 bits wider than 5**1076, and the subnormal divisor is at
# most 5**1076 << 2.
_READ_OPERAND_CEILING = (10**769 - 1).bit_length()


def _binade(x: Fraction) -> int:
    # floor(log2(x)) for x > 0.
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return e - 1 if Fraction(2) ** e > x else e


def _half_ulp(e: int) -> Fraction:
    # Half the spacing of the doubles in the binade [2**e, 2**(e+1)).
    return Fraction(2) ** (max(e - 52, -1074) - 1)


def _significant_digits(x: Fraction) -> int:
    # Of a dyadic rational, whose denominator is 2**j.
    j = x.denominator.bit_length() - 1
    return len(str(x.numerator * 5**j).rstrip("0"))


@functools.cache
def _halfway_digit_bound(top: int) -> int:
    """The most significant digits of the first two binary64 halfway points
    at or above 10**(top-1), odd multiples of a half ulp, counted with
    Fractions.  Two odd multiples in a row are not both multiples of 5,
    so one of them ends in a nonzero digit even where halfway points are
    integers (10**23 is one)."""
    low = Fraction(10) ** (top - 1)
    half = _half_ulp(_binade(low))
    n = math.ceil(low / half) | 1
    return max(_significant_digits(n * half), _significant_digits((n + 2) * half))


class TestBoundedRead:
    def test_midpoint_has_768_digits(self):
        assert len(_MIDPOINT_768) == 768

    @pytest.mark.parametrize(
        "digits,want",
        [
            # Exactly halfway: the tie goes to the even smallest normal.
            (_MIDPOINT_768, 0x0010000000000000),
            # A far trailing 1 past digit 768; keeping 767 digits and a
            # sticky digit misreads this one as the largest subnormal.
            (_MIDPOINT_768 + "0" * 50 + "1", 0x0010000000000000),
            # One unit below the midpoint in its 768th digit.
            (str(int(_MIDPOINT_768) - 1), 0x000FFFFFFFFFFFFF),
        ],
        ids=["exact", "far-trailing-1", "one-below"],
    )
    def test_subnormal_normal_midpoint(self, digits, want):
        _assert_exact_read(_sci(digits, _MIDPOINT_TOP), want)

    @pytest.mark.parametrize("ndigits", [10**3, 10**4, 10**5, 10**6])
    def test_operand_width_does_not_grow_with_length(self, ndigits):
        digits = "7" * ndigits
        widest = 0
        # Near overflow, normal, near the smallest normal, subnormal, and
        # the lowest decade that is not clamped to zero.
        for top in (309, 200, 0, -200, -307, -315, -323):
            text = _sci(digits, top)
            outcome = read_double_with_stats(text)
            assert float_to_bits(outcome.value) == float_to_bits(float(text))
            assert outcome.stats.divisions <= 2
            widest = max(widest, outcome.stats.max_intermediate_bits)
        assert widest == _READ_OPERAND_CEILING == 2555

    def test_random_long_significands(self):
        # Random 700-5000 digit significands and halfway points of random
        # doubles, with and without a trailing digit, cut near digit 769.
        rng = random.Random(769)
        for i in range(200):
            if i % 2:
                v = math.ldexp(rng.randrange(1, 2**53), rng.randint(-1074, -1000))
                mid = (Fraction(v) + Fraction(math.nextafter(v, math.inf))) / 2
                k = mid.denominator.bit_length() - 1  # denominator is 2**k
                scaled = str(mid.numerator * 5**k)
                digits = scaled.rstrip("0")
                top = len(scaled) - k
                n = rng.randint(max(len(digits) + 1, 766), 780)
                kind = i % 3
                if kind == 1:
                    digits += "0" * (n - len(digits) - 1) + "1"
                elif kind == 2:
                    digits = str(int(digits) - 1) + "9" * (n - len(digits))
            else:
                n = rng.randint(700, 5000)
                digits = "".join(rng.choices("0123456789", k=n - 2))
                cut = rng.randint(760, 775)
                fill = rng.choice("09")
                digits = f"{rng.randint(1, 9)}{digits[:cut]}{fill * (n - cut - 2)}"
                digits += str(rng.randint(1, 9))
                top = rng.randint(-330, 315)
            _assert_exact_read(_sci(digits, top, rng.random() < 0.5))


class TestKeptDigits:
    """A read keeps at most the significant digits of a halfway point in
    its decade: _kept_digits(top), against a count made with Fractions."""

    def test_bound_is_attained_where_the_decade_starts(self):
        # So a read keeps no digit fewer than some halfway point has.
        for top in range(-323, 310):
            assert _kept_digits(top) == _halfway_digit_bound(top), top

    def test_no_halfway_point_in_the_decade_has_more(self):
        two = Fraction(2)
        for top in range(-323, 310):
            kept = _kept_digits(top)
            low, high = Fraction(10) ** (top - 1), Fraction(10) ** top
            # The first halfway point of each higher binade in the decade;
            # below 2**-1074 the half ulp stays 2**-1075.
            e = _binade(low) + 1
            while two**e < high:
                half = _half_ulp(e)
                first = (math.ceil(two**e / half) | 1) * half
                if first < high:
                    assert _significant_digits(first) <= kept, (top, e)
                e += 1
            # The last halfway point below 10**top.
            e = _binade(high) - (two ** _binade(high) == high)
            half = _half_ulp(e)
            n = math.ceil(high / half) - 1
            last = (n if n % 2 else n - 1) * half
            assert low <= last < high, top
            assert _significant_digits(last) <= kept, top

    def test_extremes(self):
        kept = {top: _kept_digits(top) for top in range(-323, 310)}
        assert min(kept.values()) == kept[17] == 17
        assert max(kept.values()) == 768
        assert [top for top, k in kept.items() if k == 768] == [-307]

    def test_cached_once_per_decade(self):
        digits = "1234567890" * 3 + "1234567897"
        _kept_digits.cache_clear()
        for top in (-400, 400):  # clamped, so no count is made
            read_double(_sci(digits, top))
        assert _kept_digits.cache_info().currsize == 0
        for top in range(-323, 310):
            read_double(_sci(digits, top))
        assert _kept_digits.cache_info().currsize == 633
        for top in range(-323, 310):
            assert _kept_digits(top) == _halfway_digit_bound(top), top
        info = _kept_digits.cache_info()
        assert (info.currsize, info.hits) == (633, 633)


def _halfway_digits(odd: int, e2: int) -> tuple[str, int]:
    # odd * 2**e2 written out: its significant digits and its top.
    if e2 >= 0:
        digits = str(odd << e2)
        return digits, len(digits)
    scaled = str(odd * 5**-e2)
    return scaled, len(scaled) + e2


# Halfway points in the lowest and the highest decade a read does not
# clamp: 3 * 2**-1075 between the two smallest subnormals, and
# (2**54 - 3) * 2**970 between the two largest doubles.
_LOW_HALFWAY = _halfway_digits(3, -1075)
_HIGH_HALFWAY = _halfway_digits(2**54 - 3, 970)


class TestTableReach:
    """Reads of 800 or more digits at the table's two ends.

    A long significand keeps the digits of a halfway point in its decade
    and a sticky digit: 753 at top -323, so a read divides by 5**1076, the
    table's last entry, and 310 at top 309, so by 5**1.
    """

    @pytest.mark.parametrize(
        "halfway,power,below,above",
        [
            (_LOW_HALFWAY, 1076, 0x1, 0x2),
            (_HIGH_HALFWAY, 1, 0x7FEFFFFFFFFFFFFE, 0x7FEFFFFFFFFFFFFF),
        ],
        ids=["top-323", "top309"],
    )
    def test_long_reads_at_either_end(self, halfway, power, below, above):
        digits, top = halfway
        assert _halfway_digit_bound(top) + 1 - top == power <= bigmath.MAX_POW
        cases = [
            # A far trailing 1 puts the value just above the halfway point.
            (digits + "0" * (850 - len(digits)) + "1", above),
            # One unit below it in its last digit, then nines.
            (str(int(digits) - 1) + "9" * (850 - len(digits)), below),
            ("7" * 900, None),
            ("1" + "0" * 850 + "1", None),
        ]
        for long_digits, want in cases:
            text = _sci(long_digits, top)
            stats = ConversionStats()
            got = float_to_bits(read_double(text, stats))
            assert got == float_to_bits(nearest_double_exact(parse_decimal(text))), text[:60]
            if want is not None:
                assert got == want, text[:60]
            assert stats.divisions == 1
            assert stats.max_intermediate_bits <= _READ_OPERAND_CEILING == 2555


class TestClingerPath:
    @pytest.mark.parametrize("mant", [2**53 - 1, 2**53, 2**53 + 1])
    @pytest.mark.parametrize("point", [-23, -22, 22, 23])
    def test_boundaries(self, mant, point):
        got = mant_exp_to_double5(mant, point)
        assert float_to_bits(got) == float_to_bits(
            nearest_double_exact(DecimalSci(False, mant, point))
        )
        assert float_to_bits(got) == float_to_bits(mant_exp_to_double10(mant, point))

    @pytest.mark.parametrize("text", ["123456789e-22", "1.5", "9007199254740991e22"])
    def test_exact_operands_make_no_division(self, text):
        outcome = read_double_with_stats(text)
        assert outcome.stats.divisions == 0
        assert float_to_bits(outcome.value) == float_to_bits(float(text))
        dec = parse_decimal(text)
        stats = ConversionStats()
        assert mant_exp_to_double10(dec.mant, dec.point, stats) == outcome.value
        assert stats.divisions == 0

    @pytest.mark.parametrize(
        "text", [f"{2**53}e-1", "1e23", "9007199254740991e23", "12345e-23"]
    )
    def test_outside_the_path_divides(self, text):
        outcome = read_double_with_stats(text)
        assert outcome.stats.divisions >= 1
        assert float_to_bits(outcome.value) == float_to_bits(
            nearest_double_exact(parse_decimal(text))
        )


def _midpoint(v: float) -> tuple[str, int]:
    # The exact halfway point between v and its successor as (digits, top),
    # its value int(digits) * 10**(top - len(digits)), digits unpadded.
    mid = (Fraction(v) + Fraction(math.nextafter(v, math.inf))) / 2
    k = mid.denominator.bit_length() - 1  # denominator is 2**k
    scaled = str(mid.numerator * 5**k)
    return scaled.rstrip("0"), len(scaled) - k


class TestOneDivision:
    """A read settles its binary exponent by a shift and a compare, then
    makes at most one rounding division, at the subnormal scale when the
    value lies below 2**-1022."""

    def test_near_ties(self):
        # Paxson 1991: the halfway points of doubles, exact and cut to 17
        # digits, the cut also moved one unit either way.  Random normals,
        # random subnormals, and powers of two with their predecessors,
        # where the binade changes.
        rng = random.Random(1991)
        values = [bits_to_float(rng.getrandbits(63)) for _ in range(500)]
        values += [math.ldexp(rng.randrange(1, 2**52), -1074) for _ in range(150)]
        for k in range(-1074, 1024, 5):
            p = math.ldexp(1.0, k)
            values += [p, math.nextafter(p, 0.0)]
        for v in values:
            if not 0.0 < v < 1.7976931348623157e308:
                continue
            digits, top = _midpoint(v)
            _assert_exact_read(_sci(digits, top))
            cut = int(digits[:17].ljust(17, "0"))
            for mant in (cut - 1, cut, cut + 1):
                _assert_exact_read(f"{mant}e{top - 17}")

    @pytest.mark.parametrize(
        "target",
        [Fraction(1, 2**1022), Fraction(1, 2**1074), Fraction(1, 2**1075)],
        ids=["smallest-normal", "smallest-subnormal", "half-smallest-subnormal"],
    )
    def test_dense_sweep_across_boundary(self, target):
        # Decimals of 1 to 25 digits, one unit apart, around the target.
        for nd in range(1, 26):
            point = -400
            while target / Fraction(10) ** point >= 10**nd:
                point += 1
            center = int(target / Fraction(10) ** point)
            for mant in range(max(1, center - 60), center + 61):
                want = float_to_bits(nearest_double_exact(DecimalSci(False, mant, point)))
                text = f"{mant}e{point}"
                assert float_to_bits(float(text)) == want, text
                assert float_to_bits(read_double(text)) == want, text
                assert float_to_bits(mant_exp_to_double5(mant, point)) == want, text
                assert float_to_bits(mant_exp_to_double10(mant, point)) == want, text

    def test_reads_count_every_division(self, monkeypatch):
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
        rng = random.Random(23)
        values = [bits_to_float(rng.getrandbits(64)) for _ in range(3000)]
        values += [math.ldexp(rng.randrange(1, 2**52), -1074) for _ in range(500)]
        texts = [repr(v) for v in values if abs(v) < math.inf]
        texts += ["5e-324", "2.4703282292062328e-324", "1e-320",
                  "2.2250738585072011e-308", "2.2250738585072014e-308"]
        seen = set()
        for text in texts:
            calls = 0
            stats = ConversionStats()
            value = read_double(text, stats)
            assert stats.divisions == calls <= 1, text
            seen.add(calls)
            assert float_to_bits(value) == float_to_bits(float(text)), text
            assert read_double_with_stats(text).stats == stats, text
        assert seen == {0, 1}


def _direct_and_bound(text: str) -> ConversionStats:
    """Read text directly and through mant_exp_to_double5; both must agree.

    A significand longer than a halfway point of its decade by more than
    one digit is compared on the decimal that read_double converts: as
    many digits as that halfway point has, and a sticky 1.
    """
    direct = ConversionStats()
    got = read_double(text, direct)
    dec = parse_decimal(text)
    mant, point = dec.mant, dec.point
    digits = text.split("e")[0].replace("-", "").replace(".", "").rstrip("0")
    kept = _halfway_digit_bound(point + len(digits))
    if len(digits) > kept + 1:
        mant, point = int(digits[:kept] + "1"), point + len(digits) - kept - 1
    bound = ConversionStats()
    want = mant_exp_to_double5(mant, point, bound)
    assert float_to_bits(got) == float_to_bits(-want if dec.negative else want), text[:60]
    assert direct == bound, text[:60]
    return direct


class TestDirectCall:
    """read_double clamps zero, overflow and underflow itself and calls the
    unchecked conversion without mant_exp_to_double5's frame or checks;
    it must still agree with the binding in value, divisions and trace."""

    # (fewest and most significant digits, lowest and highest top) and the
    # sites a draw may divide at: none on Clinger's path or a clamp.
    _PATHS = [
        ((1, 15, -5, 20), ()),  # Clinger's path: point within +-22
        ((17, 17, 41, 300), ("read-shift",)),
        ((17, 17, -280, -8), ("read-main",)),
        ((17, 17, -323, -309), ("read-subnormal",)),
        # The clamps, at tops where the binding's own clamps apply too
        # (point >= 309 resp. top <= -324), so neither side divides.
        ((1, 20, 330, 400), ()),
        ((1, 20, -400, -324), ()),
        # Cut to a halfway point's digits and a sticky 1.
        ((770, 1500, -320, 300), ("read-shift", "read-main", "read-subnormal")),
    ]

    def test_agrees_with_the_binding(self):
        rng = random.Random(11)
        for (lo, hi, top_lo, top_hi), sites in self._PATHS:
            for _ in range(60):
                n = rng.randint(lo, hi)
                digits = str(rng.randint(1, 9)) + "".join(rng.choices("0123456789", k=n - 1))
                digits = digits[:-1] + str(rng.randint(1, 9))
                text = _sci(digits, rng.randint(top_lo, top_hi), rng.random() < 0.5)
                trace = _direct_and_bound(text).trace
                assert len(trace) == (1 if sites else 0), text[:60]
                assert all(t[0] in sites for t in trace), text[:60]

    @pytest.mark.parametrize(
        "text,site",
        [
            ("1.7976931348623159e308", "read-shift"),
            ("17976931348623159" + "1" * 400 + "e-108", "read-main"),
        ],
        ids=["read-shift", "read-main"],
    )
    def test_overflow_by_rounding(self, text, site):
        stats = _direct_and_bound(text)
        assert read_double(text) == math.inf
        assert stats.divisions == 1
        assert stats.trace[0][0] == site


class TestSharedTail:
    """Every read division is the one kernel call at the end of the
    conversion, whichever the site and the binding."""

    @pytest.mark.parametrize(
        "binding", [mant_exp_to_double5, mant_exp_to_double10], ids=["pow5", "pow10"]
    )
    def test_nonnegative_point_divides_once(self, binding):
        # Past Clinger's path mant >= 2**53 or point >= 23, and 5**23 > 2**53,
        # so mant * 10**point has at least 54 bits and is never exact as is.
        cases = [(m, p) for m in range(2**53 - 1, 2**53 + 2) for p in range(31)]
        cases += [(m, p) for m in range(1, 10) for p in range(23, 31)]
        for mant, point in cases:
            stats = ConversionStats()
            value = binding(mant, point, stats)
            want = nearest_double_exact(DecimalSci(False, mant, point))
            assert float_to_bits(value) == float_to_bits(want), (mant, point)
            if mant < 2**53 and point <= 22:
                assert stats.trace == [], (mant, point)  # Clinger's path
            else:
                assert [t[0] for t in stats.trace] == ["read-shift"], (mant, point)

    def test_subnormal_site_divides_by_a_power_of_5_in_both_bindings(self):
        # The subnormal rounding is at 2**-1074 by 5**-point whichever the
        # binding, so both record the same operand widths and quotient.
        rng = random.Random(1074)
        points = range(-340, -307)
        seen = set()
        for nd in range(1, 18):
            lo = 10 ** (nd - 1)
            for point in points:
                for mant in {lo, 10 * lo - 1, rng.randint(lo, 10 * lo - 1)}:
                    s5 = ConversionStats()
                    s10 = ConversionStats()
                    v5 = mant_exp_to_double5(mant, point, s5)
                    v10 = mant_exp_to_double10(mant, point, s10)
                    want = nearest_double_exact(DecimalSci(False, mant, point))
                    assert float_to_bits(v5) == float_to_bits(v10) == float_to_bits(want)
                    if mant * Fraction(10) ** point >= Fraction(1, 2**1022):
                        assert all(t[0] != "read-subnormal" for t in s5.trace + s10.trace)
                        continue
                    if not s5.trace:
                        assert v5 == 0.0 and s10.trace == []  # clamped
                        continue
                    assert s5.trace[0][0] == "read-subnormal", (mant, point)
                    assert s5.trace == s10.trace, (mant, point)
                    seen.add(point)
        assert seen == set(points)
