"""Acceptance suite: one test per shipping criterion, one printed line each.

Every tolerance here is exact (bit identity or integer bounds); corpus
sizes and seeds are fixed so results are reproducible.
"""

import csv
import math
import random

import pytest

from ezfloat import ConversionStats, bits_to_float, double_to_string, float_to_bits, read_double
from ezfloat.audit import (
    _emitted_digits,
    all_ones_mantissa_values,
    intermediate_size_scan,
    minimality_audit,
    oracle_audit,
    quotient_length_audit,
    roundtrip_audit,
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


@pytest.fixture(scope="module")
def random_roundtrips():
    # Criteria 1 and 4 share one run: the audit writes and reads back 10**6
    # seeded patterns and checks each one's division counts and widths.
    return roundtrip_audit(RANDOM_COUNT, 1)


def test_criterion_1_roundtrip_identity(random_roundtrips):
    # The audit's identity failures; its broken bounds are criterion 4's.
    failures = sum(" wrote " in v for v in random_roundtrips.violations)
    extra = list(all_ones_mantissa_values())
    extra += [-v for v in extra]
    extra += _curated_values()
    max_read = max_write = 0
    for f in extra:
        wstats, rstats = ConversionStats(), ConversionStats()
        text = double_to_string(f, wstats)
        failures += float_to_bits(read_double(text, rstats)) != float_to_bits(f)
        max_read, max_write = max(max_read, rstats.divisions), max(max_write, wstats.divisions)
    _report(
        1,
        "round-trip identity",
        failures == 0 and max_read == 1 and max_write == 1,
        f"{random_roundtrips.values + len(extra)} values, {failures} mismatches;"
        f" extras' max divisions {max_read} per read, {max_write} per write",
    )
    assert failures == 0
    # Reads attain 1 division, one below their budget of 2 (the binary
    # exponent is settled before the one division); writes attain 1, three
    # below their budget of 4 (every candidate comes from one quotient at
    # the finest scale).  Criterion 4 bounds every random pattern's.
    assert max_read == 1 and max_write == 1


def test_criterion_2_oracle_equivalence():
    report = oracle_audit(ORACLE_COUNT, 2)
    _report(
        2,
        "oracle equivalence",
        report.ok,
        f"{report.cases} decimals, {len(report.violations)} mismatches",
    )
    assert report.cases == ORACLE_COUNT
    assert report.violations == []


def test_criterion_3_minimality():
    report = minimality_audit(MINIMALITY_COUNT, 3)
    min_sub_text = double_to_string(bits_to_float(0x0000000000000001))
    one_digit = min_sub_text == "5.0E-324" and _emitted_digits(min_sub_text) == 1
    _report(
        3,
        "minimality",
        report.ok and one_digit,
        f"{report.values} values, {len(report.violations)} non-minimal;"
        f" 0x0000000000000001 -> {min_sub_text}",
    )
    assert report.values == MINIMALITY_COUNT + 4
    assert report.violations == []
    assert one_digit


def test_criterion_4_division_count_bounds(random_roundtrips):
    # Every random write made exactly 1 division and every read at most 1,
    # within their operand ceilings; criterion 1 checks the extras' counts.
    broken = [v for v in random_roundtrips.violations if " wrote " not in v]
    _report(
        4,
        "division-count bounds",
        not broken,
        f"{random_roundtrips.values} values, each read at most 1 division (budget 2)"
        f" and each write exactly 1 (budget 4): {len(broken)} broken bounds",
    )
    assert broken == []


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
