"""Acceptance suite: one test per shipping criterion, one printed line each.

Every tolerance here is exact (bit identity or integer bounds); corpus
sizes and seeds are fixed so results are reproducible.
"""

import csv
import math
import random
import time

import pytest

from ezfloat import (
    ConversionStats,
    DecimalSci,
    bits_to_float,
    double_to_string,
    float_to_bits,
    mant_exp_to_double5,
    mant_exp_to_double10,
    minimality_check,
    nearest_double_exact,
    read_double,
    shortest_digits,
)
from ezfloat.audit import (
    all_ones_mantissa_values,
    intermediate_size_scan,
    quotient_length_audit,
)
from ezfloat.cli import main as cli_main

MAX_FINITE = 1.7976931348623157e308
MIN_NORMAL = 2.2250738585072014e-308
MAX_SUBNORMAL = bits_to_float(0x000FFFFFFFFFFFFF)
MIN_SUBNORMAL = 5e-324

RANDOM_COUNT = 10**6
ORACLE_COUNT = 10**5
MINIMALITY_COUNT = 10**4


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} {detail}".rstrip())


def _random_finite(rng):
    while True:
        bits = rng.getrandbits(64)
        if (bits >> 52) & 0x7FF != 0x7FF:
            return bits


def _curated_values():
    values = [
        0.0,
        -0.0,
        MIN_SUBNORMAL,
        -MIN_SUBNORMAL,
        MAX_SUBNORMAL,
        -MAX_SUBNORMAL,
        MIN_NORMAL,
        -MIN_NORMAL,
        MAX_FINITE,
        -MAX_FINITE,
        1.0,
        -1.0,
    ]
    for k in range(-1074, 1024):
        p = math.ldexp(1.0, k)
        for v in (p, math.nextafter(p, math.inf), math.nextafter(p, 0.0)):
            if v != 0.0 and v != math.inf:
                values.append(v)
                values.append(-v)
    return values


def _emitted_digits(text):
    digits = text.split("E")[0].lstrip("-").replace(".", "")
    if digits.endswith("0") and len(digits) > 1:
        digits = digits[:-1]
    return len(digits)


def test_criterion_1_roundtrip_identity():
    rng = random.Random(1)
    to_bits = float_to_bits
    from_bits = bits_to_float
    write = double_to_string
    read = read_double
    started = time.perf_counter()
    failures = 0
    for _ in range(RANDOM_COUNT):
        bits = _random_finite(rng)
        if to_bits(read(write(from_bits(bits)))) != bits:
            failures += 1
    extra = list(all_ones_mantissa_values())
    extra += [-v for v in extra]
    extra += _curated_values()
    for f in extra:
        if to_bits(read(write(f))) != to_bits(f):
            failures += 1
    elapsed = time.perf_counter() - started
    total = RANDOM_COUNT + len(extra)
    _report(
        1,
        "round-trip identity",
        failures == 0,
        f"{total} values, {failures} mismatches, {elapsed:.0f}s",
    )
    assert failures == 0


def test_criterion_2_oracle_equivalence():
    rng = random.Random(2)
    mismatches = 0
    for _ in range(ORACLE_COUNT):
        ndigits = rng.randint(1, 40)
        mant = rng.randint(10 ** (ndigits - 1), 10**ndigits - 1)
        point = rng.randint(-360, 330)
        negative = rng.random() < 0.5
        v5 = mant_exp_to_double5(mant, point)
        v10 = mant_exp_to_double10(mant, point)
        if negative:
            v5, v10 = -v5, -v10
        exact = nearest_double_exact(DecimalSci(negative, mant, point))
        if float_to_bits(v5) != float_to_bits(exact) or float_to_bits(
            v10
        ) != float_to_bits(exact):
            mismatches += 1
    _report(
        2,
        "oracle equivalence",
        mismatches == 0,
        f"{ORACLE_COUNT} decimals, {mismatches} mismatches",
    )
    assert mismatches == 0


def test_criterion_3_minimality():
    rng = random.Random(3)
    values = [MIN_SUBNORMAL, 0.1, 0.3, MAX_FINITE]
    while len(values) < MINIMALITY_COUNT + 4:
        f = bits_to_float(_random_finite(rng))
        if f != 0.0:
            values.append(f)
    failures = 0
    for f in values:
        if not minimality_check(f, _emitted_digits(double_to_string(f))):
            failures += 1
    min_sub_text = double_to_string(bits_to_float(0x0000000000000001))
    one_digit = min_sub_text == "5.0E-324" and _emitted_digits(min_sub_text) == 1
    _report(
        3,
        "minimality",
        failures == 0 and one_digit,
        f"{len(values)} values, {failures} non-minimal;"
        f" 0x0000000000000001 -> {min_sub_text}",
    )
    assert failures == 0
    assert one_digit


def test_criterion_4_division_count_bounds():
    # Same corpus as criterion 1 (same seed and draw sequence), instrumented.
    rng = random.Random(1)
    max_read = 0
    max_write = 0
    over_read = 0
    over_write = 0

    def observe(f):
        nonlocal max_read, max_write, over_read, over_write
        wstats = ConversionStats()
        sd = shortest_digits(f, wstats)
        rstats = ConversionStats()
        mant_exp_to_double5(sd.lquo, sd.point, rstats)
        if wstats.divisions > 4:
            over_write += 1
        if rstats.divisions > 2:
            over_read += 1
        max_read = max(max_read, rstats.divisions)
        max_write = max(max_write, wstats.divisions)

    for _ in range(RANDOM_COUNT):
        f = bits_to_float(_random_finite(rng))
        if f != 0.0:
            observe(f)
    for f in all_ones_mantissa_values():
        observe(f)
    for f in _curated_values():
        if f != 0.0:
            observe(abs(f))
    ok = over_read == 0 and over_write == 0 and max_read == 1 and max_write == 1
    _report(
        4,
        "division-count bounds",
        ok,
        f"reads <= 2 (max {max_read}), writes <= 4 (max {max_write}),"
        f" {over_read + over_write} over budget",
    )
    assert over_read == 0 and over_write == 0
    # Reads attain 1, one below their budget (the binary exponent is
    # settled before the one division); writes attain 1, three below
    # theirs (every candidate comes from one quotient at the finest scale).
    assert max_read == 1 and max_write == 1


def test_criterion_5_intermediate_size_bounds():
    # Full stress grid: every decimal exponent the read path accepts,
    # mantissas of 1..17 digits.  A read divides once by 5**(-point)
    # (resp. 10**(-point)) with a dividend built 53 bits longer, so the
    # widest operand is bits(5**-point) + 53.  For point >= -323 that is
    # the stated 803/1126-bit ceiling, attained exactly.  Legal reads go
    # down to point -340 (the writer itself emits point -324, as in
    # 5.0E-324), and there each point has its own, wider ceiling, which
    # the full scan checks for every conversion (see its violations).  Below
    # -324 every such read is subnormal and divides at the 2**-1074
    # scale with narrower operands, so the grid's widest are those of
    # point -324.  The ceilings use plain powers, not the library's table.
    def pow5_ceiling(point):
        return (5**-point).bit_length() + 53

    def pow10_ceiling(point):
        return (10**-point).bit_length() + 53

    rng = random.Random(5)
    full = intermediate_size_scan(range(-340, 309), range(1, 18), rng)
    band = intermediate_size_scan(range(-323, 309), range(1, 18), rng)
    band_ok = (band.max_pow5_bits, band.max_pow10_bits) == (803, 1126) == (
        pow5_ceiling(-323),
        pow10_ceiling(-323),
    )
    full_ok = (full.max_pow5_bits, full.max_pow10_bits) == (806, 1130) == (
        pow5_ceiling(-324),
        pow10_ceiling(-324),
    )
    ok = band_ok and full_ok and full.ok and full.max_read_divisions <= 2
    _report(
        5,
        "intermediate-size bounds",
        ok,
        f"point >= -323: pow5 {band.max_pow5_bits}, pow10 {band.max_pow10_bits}"
        f" (ceilings 803/1126); point >= -340: pow5 {full.max_pow5_bits},"
        f" pow10 {full.max_pow10_bits} (ceilings bits(5**-point)+53 resp."
        f" bits(10**-point)+53, {pow5_ceiling(-340)}/{pow10_ceiling(-340)} at -340);"
        f" max read divisions {full.max_read_divisions}, {len(full.violations)} violations",
    )
    assert full.violations == []
    assert full.max_read_divisions <= 2
    assert band_ok, (band, pow5_ceiling(-323), pow10_ceiling(-323))
    assert full_ok, (full, pow5_ceiling(-324), pow10_ceiling(-324))


def test_criterion_6_all_ones_quotient_audit():
    values = all_ones_mantissa_values()
    report = quotient_length_audit()
    # A reread making more than 1 division is one of the violations.
    ok = report.ok and 2098 <= len(values) <= 2100 and report.values_tested == len(values)
    _report(
        6,
        "all-ones quotient audit",
        ok,
        f"{report.values_tested} values, {len(report.violations)} violations",
    )
    assert report.violations == []
    assert 2098 <= len(values) <= 2100


def test_criterion_7_benchmark_harness(tmp_path):
    # Full default exponent grid; the batch size is reduced from the
    # default 100000 so the suite finishes in seconds.  Every row must
    # verify and the CSV must match the pinned header.
    path = tmp_path / "bench.csv"
    code = cli_main(
        [
            "bench",
            "--count", "50",
            "--seed", "7",
            "--csv", str(path),
        ]
    )
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header_ok = rows[0] == ["n", "engine", "write_ns", "read_ns", "values", "verified"]
    body = rows[1:]
    ours = [row for row in body if row[1] == "ezfloat"]
    native = [row for row in body if row[1] == "native"]
    grid_ok = (
        len(ours) == 630
        and len(native) == 630
        and [int(r[0]) for r in ours] == list(range(-322, 308))
    )
    verified_ok = all(row[5] == "true" for row in body)
    ok = code == 0 and header_ok and grid_ok and verified_ok
    _report(
        7,
        "benchmark harness",
        ok,
        f"{len(body)} rows, verified={verified_ok}, header={header_ok}",
    )
    assert code == 0
    assert header_ok and grid_ok and verified_ok


def test_criterion_8_grammar_goldens():
    from test_goldens import READ, WRITE

    read_bad = sum(
        1 for text, bits in READ if float_to_bits(read_double(text)) != bits
    )
    write_bad = sum(
        1
        for bits, text in WRITE
        if double_to_string(bits_to_float(bits)) != text
    )
    ok = read_bad == 0 and write_bad == 0 and len(READ) + len(WRITE) >= 50
    _report(
        8,
        "grammar goldens",
        ok,
        f"{len(READ)} read + {len(WRITE)} write pairs, {read_bad + write_bad} drift",
    )
    assert read_bad == 0 and write_bad == 0
    assert len(READ) + len(WRITE) >= 50
