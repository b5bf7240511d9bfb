"""Command line front end: convert, verify, fuzz and benchmark.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Set EZFLOAT_COMPAT=1 to render with the legacy quirks (negative zero as
"0.0", no padded fractional zero on single-digit significands).
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import random
import sys
import time

from ._bits import bits_to_float, float_to_bits
from .oracle import (
    all_ones_mantissa_values,
    intermediate_size_scan,
    minimality_check,
    nearest_double_exact,
    quotient_length_audit,
)
from .reader import DecimalSci, ParseError, mant_exp_to_double5, mant_exp_to_double10, read_double, read_double_with_stats
from .writer import double_to_string, double_to_string_fast, shortest_digits
from .bigmath import ConversionStats, power_of_5, power_of_10

__all__ = ["main"]

_CSV_HEADER = ["n", "engine", "write_ns", "read_ns", "values", "verified"]


def _compat_enabled() -> bool:
    return os.environ.get("EZFLOAT_COMPAT", "") not in ("", "0", "false", "no")


def _emitted_digits(text: str) -> int:
    mant = text.split("E")[0].lstrip("-").replace(".", "")
    if mant.endswith("0") and len(mant) > 1:
        mant = mant[:-1]  # the padded fractional zero is not significant
    return len(mant)


def cmd_read(args: argparse.Namespace) -> int:
    try:
        outcome = read_double_with_stats(args.text)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    value = outcome.value
    rendered = double_to_string(value, compat=_compat_enabled())
    print(f"0x{float_to_bits(value):016X} {rendered}")
    if args.stats:
        s = outcome.stats
        print(f"divisions={s.divisions} max_intermediate_bits={s.max_intermediate_bits}")
    return 0


def _parse_double_arg(text: str) -> float:
    if text.startswith(("0x", "0X")):
        body = text[2:]
        if len(body) != 16 or any(c not in "0123456789abcdefABCDEF" for c in body):
            raise ParseError("expected 16 hex digits after 0x", 2)
        return bits_to_float(int(body, 16))
    return read_double(text)


def cmd_write(args: argparse.Namespace) -> int:
    try:
        value = _parse_double_arg(args.value)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    writer = double_to_string_fast if args.fast else double_to_string
    print(writer(value, compat=_compat_enabled()))
    return 0


def cmd_roundtrip(args: argparse.Namespace) -> int:
    rng = random.Random(args.seed)
    tested = 0
    failures = 0
    for _ in range(args.count):
        pattern = rng.getrandbits(64)
        f = bits_to_float(pattern)
        if f != f:
            continue
        tested += 1
        text = double_to_string(f)
        back = read_double(text)
        back_bits = float_to_bits(back)
        if back_bits != pattern:
            failures += 1
            print(f"FAIL 0x{pattern:016X} wrote {text} read 0x{back_bits:016X}")
    print(f"roundtrip: {tested} values, {failures} failures")
    return 1 if failures else 0


def _random_decimal(rng: random.Random) -> DecimalSci:
    ndigits = rng.randint(1, 40)
    lo = 10 ** (ndigits - 1)
    mant = rng.randint(lo, 10 * lo - 1)
    return DecimalSci(rng.random() < 0.5, mant, rng.randint(-360, 330))


def _verify_oracle(count: int, seed: int) -> bool:
    rng = random.Random(seed)
    mismatches = 0
    for _ in range(count):
        dec = _random_decimal(rng)
        v5 = mant_exp_to_double5(dec.mant, dec.point)
        v10 = mant_exp_to_double10(dec.mant, dec.point)
        if dec.negative:
            v5, v10 = -v5, -v10
        exact = nearest_double_exact(dec)
        if float_to_bits(v5) != float_to_bits(exact) or float_to_bits(v10) != float_to_bits(exact):
            mismatches += 1
            print(f"MISMATCH mant={dec.mant} point={dec.point} "
                  f"pow5=0x{float_to_bits(v5):016X} pow10=0x{float_to_bits(v10):016X} "
                  f"exact=0x{float_to_bits(exact):016X}")
    print(f"oracle: {count} cases, {mismatches} mismatches")
    return mismatches == 0


def _verify_minimality(count: int, seed: int) -> bool:
    rng = random.Random(seed)
    curated = [5e-324, 0.1, 0.3, 1.7976931348623157e308]
    values = list(curated)
    while len(values) < count + len(curated):
        f = bits_to_float(rng.getrandbits(64))
        if f == f and f not in (float("inf"), float("-inf")) and f != 0.0:
            values.append(f)
    failures = 0
    for f in values:
        text = double_to_string(f)
        if not minimality_check(f, _emitted_digits(text)):
            failures += 1
            print(f"NOT MINIMAL 0x{float_to_bits(f):016X} -> {text}")
    print(f"minimality: {len(values)} values, {failures} failures")
    return failures == 0


def _verify_allones() -> bool:
    report = quotient_length_audit()
    print(report.render())
    return report.ok


def _verify_bounds(seed: int) -> bool:
    rng = random.Random(seed)
    max_pow5 = max_pow10 = max_read = 0
    widths_ok = True
    for point in range(-340, 309):
        scan = intermediate_size_scan(range(point, point + 1), range(1, 18), rng)
        # A read divides by 5**k (10**k) with a dividend 53 bits wider:
        # 803/1126 bits on point >= -323, wider at each point below it.
        k = -min(point, -323)
        pow5_ceiling = power_of_5(k).bit_length() + 53
        pow10_ceiling = power_of_10(k).bit_length() + 53
        if scan.max_pow5_bits > pow5_ceiling or scan.max_pow10_bits > pow10_ceiling:
            print(
                f"point {point}: pow5 bits {scan.max_pow5_bits} (ceiling {pow5_ceiling}),"
                f" pow10 bits {scan.max_pow10_bits} (ceiling {pow10_ceiling})"
            )
            widths_ok = False
        max_pow5 = max(max_pow5, scan.max_pow5_bits)
        max_pow10 = max(max_pow10, scan.max_pow10_bits)
        max_read = max(max_read, scan.max_read_divisions)
    print(f"max pow5 bits: {max_pow5}, max pow10 bits: {max_pow10}")
    print(f"max read divisions: {max_read}")
    # Random patterns all but never land on a binade boundary, where the
    # narrow rounding interval makes a write take its third division, so
    # every power of two is written as well.
    samples = [bits_to_float(rng.getrandbits(64)) for _ in range(2000)]
    samples += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    max_write = 0
    for f in samples:
        if f != f or f in (float("inf"), float("-inf")) or f == 0.0:
            continue
        stats = ConversionStats()
        shortest_digits(f, stats)
        max_write = max(max_write, stats.divisions)
    print(f"max write divisions: {max_write}")
    ok = widths_ok and max_read <= 2 and max_write <= 4
    print(f"bounds: {'ok' if ok else 'exceeded'}")
    return ok


def cmd_verify(args: argparse.Namespace) -> int:
    ok = True
    if args.suite in ("oracle", "all"):
        ok = _verify_oracle(args.count, args.seed) and ok
    if args.suite in ("minimality", "all"):
        ok = _verify_minimality(min(args.count, 2000), args.seed) and ok
    if args.suite in ("allones", "all"):
        ok = _verify_allones() and ok
    if args.suite in ("bounds", "all"):
        ok = _verify_bounds(args.seed) and ok
    return 0 if ok else 1


def _bench_engine_rows(name, vec, write_one, read_one, n, writer_rows):
    t0 = time.perf_counter_ns()
    texts = [write_one(v) for v in vec]
    t1 = time.perf_counter_ns()
    back = [read_one(s) for s in texts]
    t2 = time.perf_counter_ns()
    verified = all(
        float_to_bits(b) == float_to_bits(v) for b, v in zip(back, vec)
    )
    writer_rows.append([n, name, t1 - t0, t2 - t1, len(vec), "true" if verified else "false"])
    if not verified:
        for b, v, s in zip(back, vec, texts):
            if float_to_bits(b) != float_to_bits(v):
                print(
                    f"FAIL 0x{float_to_bits(v):016X} wrote {s} read 0x{float_to_bits(b):016X}",
                    file=sys.stderr,
                )
                break
    return verified


def cmd_bench(args: argparse.Namespace) -> int:
    if args.exp_low > args.exp_high or args.count < 1:
        print("error: need exp-low <= exp-high and count >= 1", file=sys.stderr)
        return 2
    compat = _compat_enabled()
    rng = random.Random(args.seed)
    base = [10.0 ** rng.gauss(0.0, 1.0) for _ in range(args.count)]
    decs = [shortest_digits(v) for v in base]
    if args.fast:
        ours_name = "ezfloat-fast"
        write_ours = lambda v: double_to_string_fast(v, compat)
    else:
        ours_name = "ezfloat"
        write_ours = lambda v: double_to_string(v, compat)
    rows_ours: list[list] = []
    rows_native: list[list] = []
    for n in range(args.exp_low, args.exp_high + 1):
        if args.scale_float:
            scale = read_double(f"1E{n}")
            vec = [v * scale for v in base]
        else:
            # Exact scaling: shift the decimal exponent, convert once.
            vec = [mant_exp_to_double5(sd.lquo, sd.point + n) for sd in decs]
        if not _bench_engine_rows(ours_name, vec, write_ours, read_double, n, rows_ours):
            return 1
        if not _bench_engine_rows("native", vec, repr, float, n, rows_native):
            return 1
    with open(args.csv, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        writer.writerows(rows_ours)
        writer.writerows(rows_native)
    print(f"bench: wrote {len(rows_ours) + len(rows_native)} rows to {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ezfloat",
        description="Correctly rounded binary64 <-> scientific notation conversions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("read", help="parse text, print bit pattern and rendering")
    p.add_argument("text")
    p.add_argument("--stats", action="store_true", help="print conversion statistics")
    p.set_defaults(func=cmd_read)

    p = sub.add_parser("write", help="print the shortest form of a double")
    p.add_argument("value", help="0x-prefixed 16-hex-digit pattern or decimal literal")
    p.add_argument("--fast", action="store_true", help="alias of the default writer, kept for old scripts")
    p.set_defaults(func=cmd_write)

    p = sub.add_parser("roundtrip", help="write/read random bit patterns")
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("verify", help="run correctness audits")
    p.add_argument("suite", choices=["oracle", "minimality", "allones", "bounds", "all"])
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="timed write/read over an exponent grid")
    p.add_argument("--count", type=int, default=100000, help="values per batch")
    p.add_argument("--exp-low", type=int, default=-322)
    p.add_argument("--exp-high", type=int, default=307)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--csv", default="bench.csv", help="output CSV path")
    p.add_argument("--scale-float", action="store_true",
                   help="scale by floating multiplication instead of exponent shifts")
    p.add_argument("--fast", action="store_true", help="same writer (an alias), labelled ezfloat-fast")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
