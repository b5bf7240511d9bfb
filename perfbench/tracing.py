"""Traced run: spans around the public functions of reader, writer and bigmath.

The wrappers live here, not in ezfloat.  Each wrapped function is rebound,
by identity, at every ezfloat module that holds it, so calls between
modules are seen too: ``writer.mant_exp_to_double5`` (the writer's
read-back), ``writer.round_quotient`` (its boundary fallback) and
``bigmath.round_quotient`` (reached through ``round_quotient_counted``).
``_bits`` is reached only through ``writer.unpack_double`` and is part of
that span.

A span is (name, start, end, parent); spans are appended in call order, so
a span's operation is the last root span before it.  Self time is a span's
duration minus its direct children's.
"""

from __future__ import annotations

import csv
import gc
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from corpus import Corpus, decimal_parts
from timing import batch

_pc = time.perf_counter_ns

READ = "reader.read_double"
WRITE = "writer.double_to_string"
PARSE = "reader.parse_decimal"
CONVERT = "reader.mant_exp_to_double5"
DIGITS = "writer.shortest_digits"
UNPACK = "writer.unpack_double"
FORMAT = "writer.format_sci"
DIVISION = "bigmath.round_quotient"
TRACED = (READ, WRITE, PARSE, CONVERT, DIGITS, UNPACK, FORMAT, DIVISION)

# Histogram buckets of divisions per operation; the last is open-ended.
READ_BUCKETS = 3
WRITE_BUCKETS = 7


class Tracer:
    """In-memory span store; the wrappers append to its lists."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.operand_bits: dict[int, int] = {}
        self.current = -1

    def clear(self) -> None:
        # In place: the wrappers hold these very lists.
        for column in (self.names, self.parents, self.starts, self.ends):
            column.clear()
        self.operand_bits.clear()

    def wrap(self, label: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        operand_bits = self.operand_bits
        division = label == DIVISION
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(names)
            names.append(label)
            parents.append(parent)
            starts.append(0)
            ends.append(0)
            tracer.current = idx
            t0 = _pc()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = _pc()
                starts[idx] = t0
                tracer.current = parent
                if division:  # round_quotient(num, den)
                    operand_bits[idx] = max(args[0].bit_length(), args[1].bit_length())

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced function, wherever ezfloat holds it, to its wrapper."""
    wrappers = {}
    for label in TRACED:
        module, name = label.rsplit(".", 1)
        fn = getattr(sys.modules[f"ezfloat.{module}"], name)
        wrappers[id(fn)] = tracer.wrap(label, fn)
    patched = [
        (module, name, value)
        for modname, module in list(sys.modules.items())
        if modname == "ezfloat" or modname.startswith("ezfloat.")
        for name, value in vars(module).items()
        if id(value) in wrappers
    ]
    for module, name, value in patched:
        setattr(module, name, wrappers[id(value)])
    try:
        yield
    finally:
        for module, name, value in patched:
            setattr(module, name, value)


@dataclass
class SpanTable:
    """Derived columns of one batch of spans."""

    op: list[int]
    duration: list[int]
    self_time: list[int]

    @classmethod
    def of(cls, tr: Tracer) -> "SpanTable":
        n = len(tr.names)
        duration = [e - s for s, e in zip(tr.starts, tr.ends)]
        self_time = duration[:]
        op = [0] * n
        root = -1
        for i in range(n):
            p = tr.parents[i]
            if p < 0:
                root = i
            else:
                self_time[p] -= duration[i]
            op[i] = root
        return cls(op, duration, self_time)


@dataclass
class Times:
    """Traced time in ns summed over the timed rounds, by (kind, label)."""

    ops: Counter = field(default_factory=Counter)
    total: Counter = field(default_factory=Counter)
    self_time: Counter = field(default_factory=Counter)
    inclusive: Counter = field(default_factory=Counter)

    def add(self, tr: Tracer) -> None:
        table = SpanTable.of(tr)
        for i, label in enumerate(tr.names):
            kind = tr.names[table.op[i]]
            self.self_time[kind, label] += table.self_time[i]
            self.inclusive[kind, label] += table.duration[i]
            if table.op[i] == i:
                self.ops[kind] += 1
                self.total[kind] += table.duration[i]


@dataclass
class Counts:
    """Exact per-operation counts from one traced pass."""

    divisions: dict[str, list[int]]
    readbacks: list[int]
    operand_bits: dict[str, list[int]]

    @classmethod
    def of(cls, tr: Tracer) -> "Counts":
        table = SpanTable.of(tr)
        per_op: dict[int, list[int]] = {}
        divisions: dict[str, list[int]] = {READ: [], WRITE: []}
        operand_bits: dict[str, list[int]] = {READ: [], WRITE: []}
        for i, label in enumerate(tr.names):
            if table.op[i] == i:
                per_op[i] = [0, 0]
            kind = tr.names[table.op[i]]
            if label == DIVISION:
                per_op[table.op[i]][0] += 1
                operand_bits[kind].append(tr.operand_bits[i])
            elif label == CONVERT and kind == WRITE:
                per_op[table.op[i]][1] += 1
        readbacks = []
        for root, (divs, backs) in per_op.items():
            divisions[tr.names[root]].append(divs)
            if tr.names[root] == WRITE:
                readbacks.append(backs)
        return cls(divisions, readbacks, operand_bits)


def _traced_outputs(ez, corpus: Corpus, tracer: Tracer) -> tuple[list[float], list[str]]:
    with installed(tracer):
        rd, ws = _entry(ez, READ), _entry(ez, WRITE)
        reads = [rd(s) for s in corpus.reads]
        writes = [ws(v) for v in corpus.writes]
    return reads, writes


def _entry(ez, label: str):
    # The package-level name of a root operation, traced or not.
    return getattr(ez, label.rsplit(".", 1)[1])


def write_spans(path: str, tr: Tracer) -> None:
    table = SpanTable.of(tr)
    with open(path, "w", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(["span", "op", "parent", "name", "start_ns", "end_ns", "operand_bits"])
        for i, name in enumerate(tr.names):
            out.writerow(
                [i, table.op[i], tr.parents[i], name, tr.starts[i], tr.ends[i], tr.operand_bits.get(i, "")]
            )


@dataclass
class TraceResult:
    outputs: tuple[list[float], list[str]]
    counts: Counts
    reported_write_divisions: list[int]
    times: Times
    # Per-round batch times in ns, by root label.
    untraced: dict[str, list[int]]
    traced: dict[str, list[int]]
    first_pass: Tracer


def traced_run(ez, corpus: Corpus, seconds: float) -> TraceResult:
    """One traced pass for outputs and exact counts, then timed rounds.

    The timed rounds alternate a traced and an untraced batch of the same
    operations; their ratio is the tracing overhead.
    """
    first = Tracer()
    outputs = _traced_outputs(ez, corpus, first)
    counts = Counts.of(first)
    reported_reads = [ez.read_double_with_stats(s).stats.divisions for s in corpus.reads]
    if reported_reads != counts.divisions[READ]:
        raise RuntimeError("traced read divisions differ from ConversionStats; tracing misses a division")
    reported_writes = []
    for v in corpus.writes:
        stats = ez.ConversionStats()
        ez.double_to_string(v, stats=stats)
        reported_writes.append(stats.divisions)
    if any(r > t for r, t in zip(reported_writes, counts.divisions[WRITE])):
        raise RuntimeError("ConversionStats reports more write divisions than traced; tracing misses a division")

    tracer = Tracer()
    times = Times()
    inputs = {READ: corpus.reads, WRITE: corpus.writes}
    untraced: dict[str, list[int]] = {kind: [] for kind in inputs}
    traced: dict[str, list[int]] = {kind: [] for kind in inputs}
    gc.collect()
    gc.disable()
    try:
        deadline = _pc() + int(seconds * 1e9)
        swap = False
        while True:
            for kind, xs in inputs.items():
                for traced_now in (not swap, swap):
                    if traced_now:
                        with installed(tracer):
                            traced[kind].append(batch(_entry(ez, kind), xs))
                        times.add(tracer)
                        tracer.clear()
                    else:
                        untraced[kind].append(batch(_entry(ez, kind), xs))
            swap = not swap
            if _pc() >= deadline:
                break
    finally:
        gc.enable()
    return TraceResult(outputs, counts, reported_writes, times, untraced, traced, first)


def _mean(xs: list[int]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _hist(prefix: str, values: list[int], buckets: int) -> dict[str, tuple[float, str]]:
    n = len(values) or 1
    out = {f"{prefix}.hist.{k}": (sum(v == k for v in values) / n, "share") for k in range(buckets)}
    out[f"{prefix}.hist.{buckets}plus"] = (sum(v >= buckets for v in values) / n, "share")
    return out


def layer_metrics(result: TraceResult, corpus: Corpus) -> dict[str, tuple[float, str]]:
    t = result.times
    ops = {kind: t.ops[kind] or 1 for kind in (READ, WRITE)}
    total = {kind: t.total[kind] or 1 for kind in (READ, WRITE)}
    m: dict[str, tuple[float, str]] = {}

    def self_layer(kind: str, label: str, suffix: str = "") -> None:
        m[f"{label}.self_ns{suffix}"] = (t.self_time[kind, label] / ops[kind], "ns")
        m[f"{label}.self_share{suffix}"] = (t.self_time[kind, label] / total[kind], "share")

    m["reader.read_double.ns"] = (t.total[READ] / ops[READ], "ns")
    self_layer(READ, READ)
    self_layer(READ, PARSE)
    rounds = t.ops[READ] / max(len(corpus.reads), 1)
    digits = sum(len(decimal_parts(s)[0]) for s in corpus.reads) * rounds or 1
    m["reader.parse_decimal.ns_per_digit"] = (t.self_time[READ, PARSE] / digits, "ns/digit")
    self_layer(READ, CONVERT)

    m["writer.double_to_string.ns"] = (t.total[WRITE] / ops[WRITE], "ns")
    self_layer(WRITE, WRITE)
    self_layer(WRITE, DIGITS)
    m["writer.readback.ns"] = (t.inclusive[WRITE, CONVERT] / ops[WRITE], "ns")
    m["writer.readback.share"] = (t.inclusive[WRITE, CONVERT] / total[WRITE], "share")
    c = result.counts
    m["writer.readbacks_per_write.mean"] = (_mean(c.readbacks), "count")
    m["writer.readbacks_per_write.max"] = (max(c.readbacks, default=0), "count")
    self_layer(WRITE, UNPACK)
    self_layer(WRITE, FORMAT)

    for kind, tag in ((READ, "read"), (WRITE, "write")):
        self_layer(kind, DIVISION, suffix=f".{tag}")
        divs = c.divisions[kind]
        m[f"bigmath.divisions_per_{tag}.mean"] = (_mean(divs), "count")
        m[f"bigmath.divisions_per_{tag}.max"] = (max(divs, default=0), "count")
        m.update(_hist(f"bigmath.divisions_per_{tag}", divs, READ_BUCKETS if kind == READ else WRITE_BUCKETS))
        m[f"bigmath.operand_bits.{tag}.mean"] = (_mean(c.operand_bits[kind]), "bits")
        m[f"bigmath.operand_bits.{tag}.max"] = (max(c.operand_bits[kind], default=0), "bits")
        ratios = [on / off for on, off in zip(result.traced[kind], result.untraced[kind])]
        m[f"trace.overhead_share.{tag}"] = (statistics.median(ratios) - 1, "share")
    m["bigmath.reported_divisions_per_write.mean"] = (_mean(result.reported_write_divisions), "count")
    m["bigmath.reported_divisions_per_write.max"] = (max(result.reported_write_divisions, default=0), "count")
    return m
