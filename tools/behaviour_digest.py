"""Digests of ezfloat's results and division traces on fixed inputs.

A change that must keep behaviour prints the same lines as its parent::

    PYTHONPATH=<tree>/src python tools/behaviour_digest.py > <tree>.txt

run once per tree, then ``diff`` the two files.  Each line names an input
set, the number of conversions made on it and a SHA-256 over every
conversion's result bits and trace (``ConversionStats.trace``).  Every
text is read by ``read_double`` and, as parsed by ``parse_decimal``,
converted by both bindings, ``mant_exp_to_double5`` and
``mant_exp_to_double10``.  The sets:

- ``<workload>/<seed>``: the read texts of the perfbench corpora of all
  three workloads at seeds 1-3, built by ``perfbench/corpus.py``.  A long
  ``longdigits`` significand takes the bindings past the power table.
- ``clamp-edge probe``: the least and the greatest significand of 1 to 40,
  1100 and 1500 digits at 25 points either side of both clamp edges, the
  probe of ``test_bindings_divide_exactly_when_read_double_does``.
- ``clamp cases``: the cases of
  ``test_clamps_agree_with_oracle_at_their_edges``.
- ``typed literals``: shapes the corpora miss, for each way ``_scan``
  takes a text apart: leading and trailing zeros, signed and bare forms,
  exponent forms, and plain decimals of 310 to 352 characters near both
  clamp edges and either side of ``_LONG_TEXT``.
"""

import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import corpus

from ezfloat import (
    ConversionStats,
    DecimalSci,
    float_to_bits,
    mant_exp_to_double5,
    mant_exp_to_double10,
    parse_decimal,
    read_double,
)


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
    # long plain decimals near the clamp edges and the long-text crossover
    "0." + "0" * 323 + "247",
    "0." + "0" * 323 + "248",
    "1" + "0" * 308 + ".5",
    "9" * 308 + ".9",
    "9" * 309 + ".9",
    "0." + "0" * 347 + "1",
    "0." + "0" * 348 + "1",
    "1" * 175 + "." + "1" * 176,
]


def _line(name: str, records: list) -> str:
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    return f"{name}: {len(records)} conversions, sha256 {digest}"


def main() -> None:
    for workload in corpus.WORKLOADS:
        for seed in (1, 2, 3):
            texts = corpus.make_corpus(workload, seed).reads
            print(_line(f"{workload}/{seed}", _reads(texts)))
    print(_line("clamp-edge probe", _reads(_clamp_edge_probe())))
    print(_line("clamp cases", _reads(_clamp_cases())))
    print(_line("typed literals", _reads(_TYPED_LITERALS)))


if __name__ == "__main__":
    main()
