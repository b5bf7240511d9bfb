"""Correctness gate, run outside every timed loop.

Host ``float()`` rounds correctly in CPython, so it is the reference for
every read and for every write's read-back; a seeded sample of reads is
also checked against ezfloat's exact oracle.  Every failure is counted and
printed; none is filtered out.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field

from corpus import Corpus, bits_of, decimal_parts

ORACLE_SAMPLE = 200


@dataclass
class GateResult:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    read_bits: list[int] = field(default_factory=list)
    written: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
            print(f"perfbench: FAIL {message}", file=sys.stderr)


def _sig_digits(text: str) -> int:
    return len(decimal_parts(text)[0])


def run_gate(corpus: Corpus, ez) -> GateResult:
    gate = GateResult()
    for s in corpus.reads:
        got = bits_of(ez.read_double(s))
        gate.read_bits.append(got)
        want = bits_of(float(s))
        gate.check(got == want, f"read {s[:60]!r}: {got:016x} != float() {want:016x}")

    rng = random.Random(f"oracle/{corpus.workload}/{corpus.seed}")
    picked = set(rng.sample(range(len(corpus.reads)), min(ORACLE_SAMPLE, len(corpus.reads))))
    for i in sorted(picked | set(corpus.halfway_made)):
        want = bits_of(ez.nearest_double_exact(ez.parse_decimal(corpus.reads[i])))
        got = gate.read_bits[i]
        gate.check(got == want, f"read {corpus.reads[i][:60]!r}: {got:016x} != oracle {want:016x}")

    for v in corpus.writes:
        w = ez.double_to_string(v)
        gate.written.append(w)
        want = bits_of(v)
        host = bits_of(float(w))
        gate.check(host == want, f"write {want:016x} -> {w!r} reads back as {host:016x}")
        digits, host_digits = _sig_digits(w), _sig_digits(repr(v))
        gate.check(
            digits == host_digits,
            f"write {want:016x} -> {w!r}: {digits} digits, repr has {host_digits}",
        )
        ours = bits_of(ez.read_double(w))
        gate.check(ours == want, f"round trip {want:016x} -> {w!r} -> {ours:016x}")
    return gate
