"""Command line front end: convert, verify and benchmark.

``verify`` runs the audits of ``ezfloat.audit``, one or more per suite,
and prints each report; it fails when any report holds a violation.

Exit codes: 0 success, 1 verification failure, 2 usage, input or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time

from . import audit
from ._bits import bits_to_float, float_to_bits
from .bigmath import ConversionStats
from .reader import ParseError, mant_exp_to_double5, read_double
from .writer import double_to_string, shortest_digits

__all__ = ["main"]

_CSV_HEADER = ["n", "engine", "write_ns", "read_ns", "values", "verified"]


def cmd_read(args: argparse.Namespace) -> int:
    stats = ConversionStats()
    value = read_double(args.text, stats)
    print(f"0x{float_to_bits(value):016X} {double_to_string(value)}")
    if args.stats:
        print(f"divisions={stats.divisions} max_intermediate_bits={stats.max_intermediate_bits}")
    return 0


def _count_arg(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"count must be an integer >= 0, got {text!r}") from None
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


# Each suite's reports, in the order ``verify all`` runs them.  Bounds has
# three: one scan of the whole read domain, reads of long texts at every
# binade's edge halfway points and one traced write of every all-ones
# value; see each audit for its bounds.
_SUITES = {
    "oracle": lambda count, seed: [audit.oracle_audit(count, seed)],
    "minimality": lambda count, seed: [audit.minimality_audit(count, seed)],
    "roundtrip": lambda count, seed: [audit.roundtrip_audit(count, seed)],
    "bounds": lambda count, seed: [
        audit.intermediate_size_scan(range(-340, 309), range(1, 18), random.Random(seed)),
        audit.halfway_audit(),
        audit.quotient_length_audit(),
    ],
}


def cmd_verify(args: argparse.Namespace) -> int:
    ok = True
    for suite, reports_of in _SUITES.items():
        if args.suite in (suite, "all"):
            reports = reports_of(args.count, args.seed)
            print("\n".join(report.render() for report in reports))
            suite_ok = all(report.ok for report in reports)
            if suite == "bounds":
                # The design's bounds, not the paper's budgets of 2 and 4.
                print(f"bounds: {'ok' if suite_ok else 'exceeded'}")
            ok = ok and suite_ok
    return 0 if ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    if args.exp_low > args.exp_high or args.count < 1:
        print("error: need exp-low <= exp-high and count >= 1", file=sys.stderr)
        return 2
    # Opened before any timing, so an unwritable path fails at once.
    handle = open(args.csv, "w", newline="")
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
    p.add_argument("suite", choices=[*_SUITES, "all"])
    p.add_argument("--count", type=_count_arg, default=10000,
                   help="cases for oracle, minimality and roundtrip; "
                        "bounds scans a fixed grid and ignores it")
    p.add_argument("--seed", type=int, default=1,
                   help="seeds the oracle, minimality and roundtrip draws "
                        "and the random fillers of the bounds scan")
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
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
