"""Hostile text at 64 KiB and 1 MiB: every entry point keeps its result and
stays subquadratic.

The entry points are read_double, parse_decimal, the CLI ``read`` and, on
the parsed form, nearest_double_exact, which builds the power of ten of
the exact value, and minimality_check.  16x the input may take at most
150x the CPU time, the rule of test_reader's
test_long_significand_is_subquadratic: a quadratic step takes 256x,
CPython's Karatsuba products about 16**1.585 ~= 81x.
"""

import contextlib
import io
import math
import random
import time
import tracemalloc

import pytest

from ezfloat import (
    ConversionStats,
    DecimalSci,
    ParseError,
    double_to_string,
    float_to_bits,
    mant_exp_to_double5,
    mant_exp_to_double10,
    minimality_check,
    nearest_double_exact,
    parse_decimal,
    read_double,
    reader,
)
from ezfloat.cli import main

SMALL, LARGE = 64 * 1024, 1024 * 1024
DIGITS = "".join(random.Random(64).choices("123456789", k=LARGE))


def _text(kind: str, n: int) -> str:
    """The hostile input `kind`, n characters long."""
    if kind == "digits":
        return "0." + DIGITS[: n - 2]
    if kind == "zeros-before-a-digit":
        return "0." + "0" * (n - 3) + "1"
    if kind == "ten-digit-exponent":
        return "1" + "0" * (n - 12) + "e1234567890"
    if kind == "long-exponent":
        return "1e-" + "7" * (n - 3)
    if kind == "invalid-fraction-tail":
        return "." + DIGITS[: n - 2] + "x"
    if kind == "invalid-exponent-tail":
        return "1e" + DIGITS[: n - 3] + "x"
    assert kind == "invalid-tail"
    return DIGITS[: n - 1] + "x"


def _outcome(call, *args):
    """call's result, its ParseError position or its ValueError's type."""
    try:
        return call(*args)
    except ParseError as exc:
        return ("ParseError", exc.position)
    except ValueError:
        return ValueError


def _cli_read(text: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["read", text])
    return code, out.getvalue(), err.getvalue()


def _text_calls(text: str) -> dict:
    """Entry point name -> zero-argument call on the text."""
    return {
        "read_double": lambda: _outcome(read_double, text),
        "parse_decimal": lambda: _outcome(parse_decimal, text),
        "cli read": lambda: _cli_read(text),
    }


def _parsed_calls(dec: DecimalSci, value: float, n: int) -> dict:
    """Entry point name -> zero-argument call on the parsed text or its value."""
    return {
        "nearest_double_exact": lambda: _outcome(nearest_double_exact, dec),
        "minimality_check": lambda: _outcome(minimality_check, value, n),
    }


def _check_budget(calls: dict, outcomes: dict) -> None:
    """Time calls[SMALL] against calls[LARGE] per entry point, and keep
    each call's outcome in outcomes[size]."""
    for name in calls[LARGE]:
        short = math.inf
        for _ in range(3):
            took, outcomes[SMALL][name] = _took(calls[SMALL][name])
            short = min(short, took)
        # A second long run only when the first is over: the 1 MiB calls
        # on digits take most of a second.
        long, outcomes[LARGE][name] = _took(calls[LARGE][name])
        if long >= 150 * short:
            long = min(long, _took(calls[LARGE][name])[0])
        assert long < 150 * short, (name, long, short)


def _took(call) -> tuple[float, object]:
    """CPU seconds per call, repeated until a millisecond has passed, and
    the call's last outcome."""
    calls, started = 0, time.process_time()
    while True:
        result = call()
        calls += 1
        spent = time.process_time() - started
        if spent >= 1e-3:
            return spent / calls, result


def _expected(kind: str, n: int, name: str, got: dict):
    # Every result follows from the input's construction, except the value
    # of "digits", which the oracle's stands in for.
    zero, inf = (0, "0.0"), (0x7FF0000000000000, "Infinity")
    if kind in INVALID_KINDS:
        return {
            "read_double": ("ParseError", n - 1),
            "parse_decimal": ("ParseError", n - 1),
            "cli read": (2, "", f"error: unexpected 'x' at position {n - 1}\n"),
        }[name]
    if kind == "digits":
        dec = got["parse_decimal"]
        assert dec.point == -(n - 2) and dec.mant % 10 and not dec.negative
        value = got["nearest_double_exact"]
        assert 0.1 < value < 1.0
        return {
            "read_double": value,
            "parse_decimal": dec,
            "nearest_double_exact": value,
            "minimality_check": False,
            "cli read": (0, f"0x{float_to_bits(value):016X} {double_to_string(value)}\n", ""),
        }[name]
    bits, rendered = inf if kind == "ten-digit-exponent" else zero
    point = {
        "zeros-before-a-digit": -(n - 2),
        "ten-digit-exponent": 1234567890 + n - 12,
        "long-exponent": -(10**12),  # more than ten digits saturate
    }[kind]
    return {
        "read_double": math.inf if bits else 0.0,
        "parse_decimal": DecimalSci(False, 1, point),
        "nearest_double_exact": math.inf if bits else 0.0,
        "minimality_check": ValueError,  # not a finite nonzero value
        "cli read": (0, f"0x{bits:016X} {rendered}\n", ""),
    }[name]


INVALID_KINDS = ["invalid-tail", "invalid-fraction-tail", "invalid-exponent-tail"]
KINDS = ["digits", "zeros-before-a-digit", "ten-digit-exponent", "long-exponent", *INVALID_KINDS]


@pytest.mark.parametrize("kind", KINDS)
def test_hostile_input_is_subquadratic_and_unchanged(kind):
    sizes = (SMALL, LARGE)
    outcomes = {n: {} for n in sizes}
    _check_budget({n: _text_calls(_text(kind, n)) for n in sizes}, outcomes)
    if kind not in INVALID_KINDS:
        parsed = {n: (got["parse_decimal"], got["read_double"], n) for n, got in outcomes.items()}
        _check_budget({n: _parsed_calls(*parsed[n]) for n in sizes}, outcomes)
    for n, got in outcomes.items():
        for name, outcome in got.items():
            expected = _expected(kind, n, name, got)
            if isinstance(expected, float):
                assert float_to_bits(outcome) == float_to_bits(expected), (n, name)
            else:
                assert outcome == expected, (n, name)


@pytest.mark.parametrize("kind", INVALID_KINDS)
def test_rejection_costs_no_more_than_acceptance(kind):
    # A rejection is located by one _NUMBER match, after the split has
    # refused it, while an acceptance makes no match at all.  So the budget
    # is the match that accepts the same text with its last character a
    # digit.  4x leaves room for the split and for noise; a
    # scanner that backtracks through every digit on a failed match takes
    # 20-40x.
    invalid = _text(kind, LARGE)
    valid = invalid[:-1] + "7"
    rejected = matched = math.inf
    for _ in range(3):
        rejected = min(rejected, _took(lambda: _outcome(read_double, invalid))[0])
        matched = min(matched, _took(lambda: reader._NUMBER.match(valid))[0])
    assert rejected <= 4 * matched, (rejected, matched)


@pytest.mark.parametrize(
    "text",
    ["7." + "7" * 999999 + "e-1", "1" * 10**6 + "e-999999", "-7." + "7" * 999998,
     "+." + "7" * 999998],
    ids=["sevens", "ones", "minus-sevens", "plus-point-sevens"],
)
def test_long_plain_read_costs_less_than_its_match(text):
    # A plain number has its digits checked with bytes.isdigit, not with
    # the pattern, so the whole read, the conversion of its kept digits
    # included, costs less than the match alone (measured 0.3x; 1.1x when
    # every read ran the match).
    read = matched = math.inf
    for _ in range(5):
        read = min(read, _took(lambda: read_double(text))[0])
        matched = min(matched, _took(lambda: reader._NUMBER.match(text))[0])
    assert read <= 0.7 * matched, (read, matched)


@pytest.mark.parametrize(
    "text,copies",
    [
        ("7." + "7" * 999999 + "e-1", 2),
        ("1" * 10**6 + "e-999999", 2),
        ("0." + "0" * 999999 + "1", 2),
        ("1" + "0" * 999999, 1),
        ("-7." + "7" * 999998, 2),
        ("+." + "7" * 999998, 2),
    ],
    ids=["sevens", "ones", "fractional-zeros", "integer-zeros", "minus-sevens",
         "plus-point-sevens"],
)
def test_megabyte_read_holds_at_most_two_copies(text, copies):
    # _scan holds a digit run and one more copy of it at a time: its
    # bytes while they are checked, or the digits joined for stripping.
    # The integer zeros have no point, so their run is the text itself and
    # only its bytes are a copy.  Encoding the joined digits would hold
    # three copies.
    tracemalloc.start()
    try:
        read_double(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= copies * len(text) + 64 * 1024, peak / len(text)


def test_binding_past_the_power_table_keeps_nothing():
    # A point below -MAX_POW needs 5**-point, built for the call (29 KB
    # here); once the call returns nothing of it may stay behind.
    mant = 10**100000 - 1
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        value = mant_exp_to_double5(mant, -100100)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert value == nearest_double_exact(DecimalSci(False, mant, -100100))
    assert kept < 4096, kept


@pytest.mark.parametrize("convert", [mant_exp_to_double5, mant_exp_to_double10])
def test_binding_past_the_power_table_builds_at_most_two_powers(convert):
    # At an edge that the bracket of bits(mant) holds, a binding past the
    # power table builds 5**k to settle the clamp and, in range, 5**-point
    # to divide by: about two builds of 5**n (one when it clamps), so two
    # more powers or a quadratic step break the bound of four.
    n = 100000
    mant = 10**n - 1
    power = min(_took(lambda: 5**n)[0] for _ in range(5))
    for point in (-n + 309, -n + 310, -n - 323, -n - 324):
        want = float_to_bits(nearest_double_exact(DecimalSci(False, mant, point)))
        spent, value = min(_took(lambda: convert(mant, point)) for _ in range(5))
        assert float_to_bits(value) == want, point
        assert spent <= 4 * power, (point, spent / power)


@pytest.mark.parametrize("convert", [mant_exp_to_double5, mant_exp_to_double10])
def test_binding_settles_a_far_clamp_without_a_power(convert):
    # 10**n - 1 at point 310 - n is just under 10**310, past the overflow
    # clamp.  bits(mant) puts its digit count in a bracket of at most two
    # counts that holds no edge, so the binding returns infinity without a
    # division and without building 5**k, in far less time than one 5**n.
    n = 100000
    mant = 10**n - 1
    stats = ConversionStats()
    assert convert(mant, 310 - n, stats) == math.inf
    assert stats.divisions == 0
    power = min(_took(lambda: 5**n)[0] for _ in range(5))
    spent = min(_took(lambda: convert(mant, 310 - n))[0] for _ in range(5))
    assert spent < power / 10, spent / power
