import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ezfloat import (
    DBL_MANT_DIG,
    LLOG2,
    MAX_POW,
    power_of_5,
    round_quotient,
)
from ezfloat.bigmath import _POWS5
from ezfloat.reader import _kept_digits

# The most negative point a read reaches: a value at or above 10**-324
# (top >= -323) with the digits kept in its decade and the sticky digit.
READ_POW_REACH = max(_kept_digits(top) + 1 - top for top in range(-323, 310))


def test_constants():
    assert DBL_MANT_DIG == 53
    assert MAX_POW == READ_POW_REACH
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


@st.composite
def in_contract(draw):
    """(num, den) whose rounded quotient fits round_quotient's 63 bits."""
    den = draw(st.integers(1, 1 << 200))
    quo = draw(st.integers(0, (1 << 62) - 1))
    # Half the denominator is an exact tie whenever den is even.
    rem = draw(st.one_of(st.just(den // 2), st.integers(0, den - 1)))
    return quo * den + rem, den


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

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            round_quotient(1, 0)

    def test_negative_operands_rejected(self):
        with pytest.raises(ValueError):
            round_quotient(-1, 2)
        with pytest.raises(ValueError):
            round_quotient(1, -2)

    def test_width_contract_asserted(self):
        assert round_quotient((1 << 63) - 1, 1) == (1 << 63) - 1
        with pytest.raises(AssertionError):
            round_quotient(1 << 63, 1)
        # A tie that carries past 63 bits: (2**64 - 1) / 2 rounds to 2**63.
        with pytest.raises(AssertionError):
            round_quotient((1 << 64) - 1, 2)

    @given(in_contract())
    def test_matches_fraction_rounding(self, pair):
        # round() of a Fraction is itself round-half-to-even.
        num, den = pair
        assert round_quotient(num, den) == round(Fraction(num, den))

    @given(in_contract())
    def test_result_is_floor_or_floor_plus_one(self, pair):
        num, den = pair
        quo = round_quotient(num, den)
        assert quo in (num // den, num // den + 1)

    @given(in_contract())
    def test_nearest_with_even_ties(self, pair):
        num, den = pair
        quo = round_quotient(num, den)
        err2 = abs(quo * den - num) * 2
        assert err2 <= den
        if err2 == den:
            assert quo % 2 == 0

    @given(in_contract(), st.integers(1, 60))
    def test_scale_invariance(self, pair, k):
        num, den = pair
        assert round_quotient(num << k, den << k) == round_quotient(num, den)

    @given(st.integers(0, (1 << 62) - 1), st.integers(1, 1 << 40))
    def test_exact_halfway_constructed(self, quo, half):
        # num/den = quo + 1/2 exactly; the result must be the even neighbour.
        den = 2 * half
        num = quo * den + half
        got = round_quotient(num, den)
        assert got == (quo if quo % 2 == 0 else quo + 1)


class TestPowerTables:
    def test_shape(self):
        assert MAX_POW == READ_POW_REACH
        assert len(_POWS5) == MAX_POW + 1
        assert isinstance(_POWS5, tuple)

    def test_recurrences(self):
        assert _POWS5[0] == 1
        for k in range(1, MAX_POW + 1):
            assert _POWS5[k] == 5 * _POWS5[k - 1]

    @pytest.mark.parametrize("k,expected", [(0, 1), (3, 125), (20, 5**20)])
    def test_power_of_5_small(self, k, expected):
        assert power_of_5(k) == expected

    def test_chaining_beyond_table(self):
        # Independent oracle: repeated multiplication.
        k = MAX_POW + 325
        acc = 1
        for _ in range(k):
            acc *= 5
        assert power_of_5(k) == acc

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            power_of_5(-1)

    @settings(max_examples=40)
    @given(st.integers(0, MAX_POW), st.integers(0, MAX_POW))
    def test_power_product_law(self, a, b):
        assert power_of_5(a + b) == power_of_5(a) * power_of_5(b)
