"""Command line front end: convert, verify and benchmark.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time

from ._bits import bits_to_float, float_to_bits
from .audit import halfway_audit, intermediate_size_scan, quotient_length_audit
from .bigmath import ConversionStats
from .oracle import minimality_check, nearest_double_exact
from .reader import DecimalSci, ParseError, mant_exp_to_double5, mant_exp_to_double10, read_double
from .writer import double_to_string, shortest_digits

__all__ = ["main"]

_CSV_HEADER = ["n", "engine", "write_ns", "read_ns", "values", "verified"]


def _emitted_digits(text: str) -> int:
    mant = text.split("E")[0].lstrip("-").replace(".", "")
    if mant.endswith("0") and len(mant) > 1:
        mant = mant[:-1]  # the padded fractional zero is not significant
    return len(mant)


def cmd_read(args: argparse.Namespace) -> int:
    stats = ConversionStats()
    value = read_double(args.text, stats)
    print(f"0x{float_to_bits(value):016X} {double_to_string(value)}")
    if args.stats:
        print(f"divisions={stats.divisions} max_intermediate_bits={stats.max_intermediate_bits}")
    return 0


def _count_arg(text: str) -> int:
    count = int(text)
    if count < 0:
        raise argparse.ArgumentTypeError(f"count must be >= 0, got {count}")
    return count


def _parse_double_arg(text: str) -> float:
    if text.startswith(("0x", "0X")):
        body = text[2:]
        # The first non-hex character, else the end of the text.
        bad = next((i for i, c in enumerate(body) if c not in "0123456789abcdefABCDEF"), len(body))
        if bad != 16 or len(body) != 16:
            # Past 16 digits the 17th is the offending character.
            raise ParseError("expected 16 hex digits after 0x", 2 + min(bad, 16))
        return bits_to_float(int(body, 16))
    return read_double(text)


def cmd_write(args: argparse.Namespace) -> int:
    print(double_to_string(_parse_double_arg(args.value)))
    return 0


def _verify_roundtrip(count: int, seed: int) -> bool:
    rng = random.Random(seed)
    tested = 0
    failures = 0
    for _ in range(count):
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
    return failures == 0


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


def _verify_bounds(seed: int) -> bool:
    # Three audits check every bound: one scan of the whole read domain
    # (intermediate_size_scan), reads of long texts at every binade's
    # edge halfway points (halfway_audit) and one traced write of every
    # all-ones value (quotient_length_audit); see each for its bounds.
    reports = (
        intermediate_size_scan(range(-340, 309), range(1, 18), random.Random(seed)),
        halfway_audit(),
        quotient_length_audit(),
    )
    for report in reports:
        print(report.render())
    # The design's bounds, not the paper's budgets of 2 and 4.
    ok = all(report.ok for report in reports)
    print(f"bounds: {'ok' if ok else 'exceeded'}")
    return ok


def cmd_verify(args: argparse.Namespace) -> int:
    ok = True
    if args.suite in ("oracle", "all"):
        ok = _verify_oracle(args.count, args.seed) and ok
    if args.suite in ("minimality", "all"):
        ok = _verify_minimality(args.count, args.seed) and ok
    if args.suite in ("roundtrip", "all"):
        ok = _verify_roundtrip(args.count, args.seed) and ok
    if args.suite in ("bounds", "all"):
        ok = _verify_bounds(args.seed) and ok
    return 0 if ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    if args.exp_low > args.exp_high or args.count < 1:
        print("error: need exp-low <= exp-high and count >= 1", file=sys.stderr)
        return 2
    # Opened before any timing, so an unwritable path fails at once.
    try:
        handle = open(args.csv, "w", newline="")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    decs = [shortest_digits(10.0 ** rng.gauss(0.0, 1.0)) for _ in range(args.count)]
    # Built per call, so the functions timed are the module's current bindings.
    engines = (("ezfloat", double_to_string, read_double), ("native", repr, float))
    with handle:
        writer = csv.writer(handle)
        writer.writerow(_CSV_HEADER)
        for n in range(args.exp_low, args.exp_high + 1):
            # Exact scaling: shift the decimal exponent, convert once.
            vec = [mant_exp_to_double5(sd.lquo, sd.point + n) for sd in decs]
            for name, write_one, read_one in engines:
                t0 = time.perf_counter_ns()
                texts = [write_one(v) for v in vec]
                t1 = time.perf_counter_ns()
                back = [read_one(s) for s in texts]
                t2 = time.perf_counter_ns()
                bad = next((i for i, v in enumerate(vec)
                            if float_to_bits(back[i]) != float_to_bits(v)), None)
                verified = "true" if bad is None else "false"
                writer.writerow([n, name, t1 - t0, t2 - t1, len(vec), verified])
                if bad is not None:
                    print(f"FAIL 0x{float_to_bits(vec[bad]):016X} wrote {texts[bad]} "
                          f"read 0x{float_to_bits(back[bad]):016X}", file=sys.stderr)
                    return 1
    rows = len(engines) * (args.exp_high - args.exp_low + 1)
    print(f"bench: wrote {rows} rows to {args.csv}")
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
    p.set_defaults(func=cmd_write)

    p = sub.add_parser("verify", help="run correctness checks")
    p.add_argument("suite", choices=["oracle", "minimality", "roundtrip", "bounds", "all"])
    p.add_argument("--count", type=_count_arg, default=10000,
                   help="cases for oracle, minimality and roundtrip; "
                        "bounds scans a fixed grid and ignores it")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="timed write/read over an exponent grid")
    p.add_argument("--count", type=int, default=100000, help="values per batch")
    p.add_argument("--exp-low", type=int, default=-322)
    p.add_argument("--exp-high", type=int, default=307)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--csv", default="bench.csv", help="output CSV path")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
