"""Digests of ezfloat's results and division traces on fixed inputs.

A change that must keep behaviour prints the same lines as its parent::

    PYTHONPATH=<tree>/src python tools/behaviour_digest.py > <tree>.txt

run once per tree, then ``diff`` the two files.  The output is committed
as ``tests/behaviour_digest.txt``, which ``tests/test_goldens.py`` compares
line for line; a change that means to alter behaviour regenerates it.
Each line names an input set, the number of results taken from it and a
SHA-256 over them.  Every text is read by ``read_double`` and, as parsed
by ``parse_decimal``, converted by both bindings, ``mant_exp_to_double5``
and ``mant_exp_to_double10``; a result is a conversion's bits and trace
(``ConversionStats.trace``).  A ``values/<set>`` line holds the same
conversions' bits alone, so a change that moves only traces, such as a
wider Clinger's path, leaves it as it is.  An ``oracle/<set>`` line holds
the bits of ``nearest_double_exact`` of each parsed text of the set.  The
sets:

- ``<workload>/<seed>``: the read texts of the perfbench corpora of all
  three workloads at seeds 1-3, built by ``perfbench/corpus.py``.  A long
  ``longdigits`` significand takes the bindings past the power table.
- ``clamp-edge probe``: the least and the greatest significand of 1 to 40,
  1100 and 1500 digits at 25 points either side of both clamp edges, the
  probe of ``test_bindings_divide_exactly_when_read_double_does``.
- ``clamp cases``: the cases of
  ``test_clamps_agree_with_oracle_at_their_edges``.
- ``typed literals``: shapes the corpora miss, for each check ``_scan``
  makes: leading and trailing zeros, signed and bare forms, exponent
  forms, long signed forms, Clinger's edges at 2**53, past it and at
  the widest exact significands, of 1024 bits, and plain decimals of 310
  to 352 characters near both clamp edges.

Three more kinds of line follow.  A ``write/<set>`` line holds the text
and trace of ``double_to_string`` of each value of the set: the writes of
the perfbench corpora at seeds 1-3 (``write/<workload>/<seed>``), the 2098
all-ones significands (``write/all-ones``), every power of two from
2**-1074 to 2**1023 of either sign (``write/powers-of-two``), and the
doubles of fraction field 1 and 2**51 at every biased exponent 0 to 2046
of either sign, then the negated all-ones values (``write/binade-edges``).
``minimality/<workload>/1`` holds ``minimality_check(f, n)`` and
``minimality_check(f, n + 1)`` for every finite nonzero write ``f`` of the
corpus at seed 1, where ``n`` is the digit count the writer emits.
``rejected texts`` holds the ``ParseError`` position and message that
``read_double`` and ``parse_decimal`` give for texts that ``_scan``
refuses and the ``_NUMBER`` match rejects, short and long.  ``exponent
spellings`` holds, for ``1e<s>``, the bits and trace of ``read_double``
and the result of ``parse_decimal``, or each one's ``ParseError``
position: ``s`` is every exponent spelling the writer and host repr
write (``k`` and ``+k`` for -324 <= k <= 308, and the padded ``0d``,
``+0d`` and ``-0d``) and every spelling of up to four characters over
``0159+-``, the near misses.
"""

import hashlib
import itertools
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus

from ezfloat import (
    ConversionStats,
    DecimalSci,
    ParseError,
    bits_to_float,
    double_to_string,
    float_to_bits,
    mant_exp_to_double5,
    mant_exp_to_double10,
    minimality_check,
    nearest_double_exact,
    parse_decimal,
    read_double,
    shortest_digits,
)
from ezfloat.audit import all_ones_mantissa_values


def _record(convert, *args) -> tuple[int, list]:
    stats = ConversionStats()
    return float_to_bits(convert(*args, stats)), stats.trace


def _reads(texts) -> list:
    records = []
    for text in texts:
        records.append(_record(read_double, text))
        dec = parse_decimal(text)
        if isinstance(dec, DecimalSci):
            records.append(_record(mant_exp_to_double5, dec.mant, dec.point))
            records.append(_record(mant_exp_to_double10, dec.mant, dec.point))
    return records


def _writes(values) -> list:
    records = []
    for f in values:
        stats = ConversionStats()
        records.append((double_to_string(f, stats), stats.trace))
    return records


def _oracle(texts) -> list:
    return [float_to_bits(nearest_double_exact(parse_decimal(text))) for text in texts]


def _minimality(writes) -> list:
    # Each finite nonzero write is minimal at its written digit count n, and
    # so not at n + 1.
    records = []
    for f in writes:
        if 0.0 < abs(f) < math.inf:
            n = len(str(shortest_digits(f).lquo).rstrip("0"))
            records.append((minimality_check(f, n), minimality_check(f, n + 1)))
    return records


def _rejections(texts) -> list:
    records = []
    for text in texts:
        for convert in (read_double, parse_decimal):
            try:
                convert(text)
            except ParseError as exc:
                records.append((exc.position, str(exc)))
            else:
                raise SystemExit(f"{convert.__name__} accepted {text!r}")
    return records


def _spelled(texts) -> list:
    records = []
    for text in texts:
        for convert in (lambda t: _record(read_double, t), parse_decimal):
            try:
                records.append(convert(text))
            except ParseError as exc:
                records.append(exc.position)
    return records


def _exponent_spellings() -> list[str]:
    spellings = {*map(str, range(-324, 309)), *map("+{}".format, range(309))}
    spellings.update(f"{sign}0{d}" for sign in ("", "+", "-") for d in range(10))
    for n in range(5):
        spellings.update(map("".join, itertools.product("0159+-", repeat=n)))
    return ["1e" + s for s in sorted(spellings)]


def _clamp_edge_probe() -> list[str]:
    texts = []
    for nd in [*range(1, 41), 1100, 1500]:
        for edge in (309 - nd, -324 - nd):
            for point in range(edge - 25, edge + 26):
                texts += [f"{mant}E{point}" for mant in (10 ** (nd - 1), 10**nd - 1)]
    return texts


def _clamp_cases() -> list[str]:
    cases = []
    for nbits in (1, 60, 500, 2600):
        edge = -324 - nbits * 30103 // 100000
        for mant in (1 << (nbits - 1), (1 << nbits) - 1):
            cases += [(mant, point) for point in range(edge - 3, edge + 4)]
    for k in (1, 17, 300, 1100):
        for mant in (10 ** (k - 1), 10**k - 1):
            for edge in (-324 - k, 309 - k):
                cases += [(mant, point) for point in range(edge - 3, edge + 4)]
    cases += [(1, point) for point in range(305, 312)]
    return [f"{mant}E{point}" for mant, point in cases]


_TYPED_LITERALS = [
    # leading and trailing zeros
    "00.500", "0.000", "0.0", "000.0001", "10.10", "007.700",
    # signed and bare forms
    "-0.5", "+2.5", "-0.0", "+0.0", ".5", "-.5", "5.", "+5.", "1200", "-7", "0",
    # exponent forms
    "1.5E0", "1.5e0", "2.5e-3", "-2.5E+3", "1e23", "7.e22", ".1E-5", "0e999",
    "1.7976931348623157e308", "4.9406564584124654E-324",
    # Clinger's edge: 2**53, and with the point a table power away; wider
    # significands, exact (2**53 + 2, 2**64 - 2**11, 2**55) or not; the
    # widest exact ones, of 1024 bits (the largest double's, 2**1023)
    "9007199254740992", "9007199254740992e-22",
    "9007199254740993e-22", "9007199254740994e-22",
    "18446744073709549568e-1", "18446744073709551615e-1", "36028797018963968e5",
    str(((1 << 53) - 1) << 971) + "e-1", str(2**1023),
    # long signed forms and signs on both parts
    "-" + "7" * 400 + ".5", "+." + "5" * 400, "-0e5", "+7E+0",
    # plain decimals of 310 to 352 characters near the clamp edges
    "0." + "0" * 323 + "247",
    "0." + "0" * 323 + "248",
    "1" + "0" * 308 + ".5",
    "9" * 308 + ".9",
    "9" * 309 + ".9",
    "0." + "0" * 347 + "1",
    "0." + "0" * 348 + "1",
    "1" * 175 + "." + "1" * 176,
]

_REJECTED_TEXTS = [
    "", ".", "+", "1e", "1e+", "e5", "1.2.3", "+-1", " 1", "1\n",
    "nan", "NaNx", "0x10", "1_0",
    # digits that are not ASCII
    "\u0661.\u0665", "1.\uff15",
    # each check _scan makes of a sign, a point and an exponent
    "-1.2x", "1e+-5", "1e5E5", "1E5e5", "1e5.0", "1.2.3e4",
    "1e\u0665", "1e\ud800", "-\ud800", "+.e1", "-+5", "--.5", "+e5",
    # long texts
    "1" * 400 + "x",
    "1." + "2" * 400 + "e",
    "-" + "1" * 400 + "e",
    "1" * 400 + "e+",
    "-" + "1" * 400 + "x",
]


def _line(name: str, records: list, unit: str = "conversions") -> str:
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    return f"{name}: {len(records)} {unit}, sha256 {digest}"


def main() -> None:
    sets = {}
    for workload in corpus.WORKLOADS:
        for seed in (1, 2, 3):
            sets[f"{workload}/{seed}"] = corpus.make_corpus(workload, seed).reads
    sets["clamp-edge probe"] = _clamp_edge_probe()
    sets["clamp cases"] = _clamp_cases()
    sets["typed literals"] = _TYPED_LITERALS
    reads = {name: _reads(texts) for name, texts in sets.items()}
    for name, records in reads.items():
        print(_line(name, records))
    for name, records in reads.items():
        print(_line(f"values/{name}", [bits for bits, _ in records]))
    for name, texts in sets.items():
        print(_line(f"oracle/{name}", _oracle(texts)))
    writes = {}
    for workload in corpus.WORKLOADS:
        for seed in (1, 2, 3):
            writes[f"{workload}/{seed}"] = corpus.make_corpus(workload, seed).writes
    writes["all-ones"] = all_ones_mantissa_values()
    writes["powers-of-two"] = [
        sign * math.ldexp(1.0, e) for e in range(-1074, 1024) for sign in (1.0, -1.0)
    ]
    writes["binade-edges"] = [
        sign * bits_to_float(ue2 << 52 | frac)
        for ue2 in range(2047) for frac in (1, 1 << 51) for sign in (1.0, -1.0)
    ] + [-f for f in writes["all-ones"]]
    for name, values in writes.items():
        print(_line(f"write/{name}", _writes(values), "writes"))
    for workload in corpus.WORKLOADS:
        writes = corpus.make_corpus(workload, 1).writes
        print(_line(f"minimality/{workload}/1", _minimality(writes), "checks"))
    print(_line("rejected texts", _rejections(_REJECTED_TEXTS), "rejections"))
    print(_line("exponent spellings", _spelled(_exponent_spellings()), "results"))


if __name__ == "__main__":
    main()
