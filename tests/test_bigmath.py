import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ezfloat import (
    DBL_MANT_DIG,
    LLOG2,
    MAX_POW,
    power_of_5,
    power_of_10,
    round_quotient,
    round_quotient_big,
)
from ezfloat.bigmath import _POWS5, _POWS10


def test_constants():
    assert DBL_MANT_DIG == 53
    assert MAX_POW == 325
    assert LLOG2 == math.log10(2.0)


def test_llog2_is_nearest_double_to_log10_of_2():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    exact = mpmath.log10(2)
    up = math.nextafter(LLOG2, math.inf)
    down = math.nextafter(LLOG2, -math.inf)
    assert abs(exact - LLOG2) < abs(exact - up)
    assert abs(exact - LLOG2) < abs(exact - down)


def _cmp_pow10_pow2(p, e2):
    """Sign of 10**p - 2**e2 using only integers."""
    if p >= 0 and e2 >= 0:
        a, b = 10**p, 2**e2
    elif p >= 0:
        a, b = 10**p << -e2, 1
    elif e2 >= 0:
        a, b = 1, 2**e2 * 10**-p
    else:
        a, b = 1 << -e2, 10**-p
    return (a > b) - (a < b)


def test_llog2_ceiling_property_exact():
    # ceil(e2 * LLOG2) in binary64 must equal the exact integer p with
    # 10**(p-1) < 2**e2 <= 10**p, across a range wider than any caller uses.
    for e2 in range(-1100, 1101):
        p = math.ceil(e2 * LLOG2)
        assert _cmp_pow10_pow2(p - 1, e2) < 0
        assert _cmp_pow10_pow2(p, e2) >= 0


class TestRoundQuotient:
    @pytest.mark.parametrize(
        "num,den,expected",
        [
            (3, 2, 2),
            (10, 4, 2),  # 2.5 ties to even 2
            (7, 2, 4),  # 3.5 ties to even 4
            (100, 10, 10),
            (0, 7, 0),
            (1, 3, 0),
            (2, 3, 1),
        ],
    )
    def test_examples(self, num, den, expected):
        assert round_quotient(num, den) == expected
        assert round_quotient_big(num, den) == expected

    def test_big_variant_examples(self):
        assert round_quotient_big(3, 2) == 2
        assert round_quotient_big(0, 7) == 0
        assert round_quotient_big(2**200, 2**100) == 2**100

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            round_quotient(1, 0)
        with pytest.raises(ZeroDivisionError):
            round_quotient_big(1, 0)

    def test_negative_operands_rejected(self):
        with pytest.raises(ValueError):
            round_quotient(-1, 2)
        with pytest.raises(ValueError):
            round_quotient(1, -2)
        with pytest.raises(ValueError):
            round_quotient_big(-1, 2)

    def test_width_contract_asserted(self):
        with pytest.raises(AssertionError):
            round_quotient(1 << 100, 1)
        assert round_quotient_big(1 << 100, 1) == 1 << 100

    @given(st.integers(0, 1 << 200), st.integers(1, 1 << 200))
    def test_result_is_floor_or_floor_plus_one(self, num, den):
        quo = round_quotient_big(num, den)
        assert quo in (num // den, num // den + 1)

    @given(st.integers(0, 1 << 200), st.integers(1, 1 << 200))
    def test_nearest_with_even_ties(self, num, den):
        quo = round_quotient_big(num, den)
        err2 = abs(quo * den - num) * 2
        assert err2 <= den
        if err2 == den:
            assert quo % 2 == 0

    @given(st.integers(0, 1 << 200), st.integers(1, 1 << 140))
    def test_narrow_matches_big_when_in_contract(self, num, den):
        if (num // den).bit_length() <= 62:
            assert round_quotient(num, den) == round_quotient_big(num, den)

    @given(st.integers(0, 1 << 200), st.integers(1, 1 << 200), st.integers(1, 60))
    def test_scale_invariance(self, num, den, k):
        assert round_quotient_big(num << k, den << k) == round_quotient_big(num, den)

    @given(st.integers(0, 1 << 80), st.integers(1, 1 << 40))
    def test_exact_halfway_constructed(self, quo, half):
        # num/den = quo + 1/2 exactly; the result must be the even neighbour.
        den = 2 * half
        num = quo * den + half
        got = round_quotient_big(num, den)
        assert got == (quo if quo % 2 == 0 else quo + 1)


class TestPowerTables:
    def test_shape(self):
        assert MAX_POW == 325
        assert len(_POWS5) == 326
        assert len(_POWS10) == 326
        assert isinstance(_POWS5, tuple)
        assert isinstance(_POWS10, tuple)

    def test_recurrences(self):
        assert _POWS5[0] == 1
        assert _POWS10[0] == 1
        for k in range(1, 326):
            assert _POWS5[k] == 5 * _POWS5[k - 1]
            assert _POWS10[k] == 10 * _POWS10[k - 1]

    @pytest.mark.parametrize("k,expected", [(0, 1), (3, 125), (20, 5**20)])
    def test_power_of_5_small(self, k, expected):
        assert power_of_5(k) == expected

    @pytest.mark.parametrize("k,expected", [(0, 1), (5, 100000)])
    def test_power_of_10_small(self, k, expected):
        assert power_of_10(k) == expected

    def test_chaining_beyond_table(self):
        # Independent oracle: repeated multiplication.
        acc = 1
        for _ in range(650):
            acc *= 5
        assert power_of_5(650) == acc
        acc = 1
        for _ in range(400):
            acc *= 10
        assert power_of_10(400) == acc

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            power_of_5(-1)
        with pytest.raises(ValueError):
            power_of_10(-1)

    @settings(max_examples=40)
    @given(st.integers(0, 700), st.integers(0, 700))
    def test_power_product_law(self, a, b):
        assert power_of_5(a + b) == power_of_5(a) * power_of_5(b)
        assert power_of_10(a + b) == power_of_10(a) * power_of_10(b)
