"""Tests of the benchmark itself.  Run: python3 -m pytest perfbench -q"""

import json
import re

import pytest

import corpus
import run
import tracing
from gate import run_gate

ez = run.import_ezfloat()
SPEC = json.loads(run.SPEC.read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = 40


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_same_corpus_digest(workload):
    a, b = corpus.make_corpus(workload, 7), corpus.make_corpus(workload, 7)
    assert corpus.digest(a) == corpus.digest(b)
    assert corpus.digest(a) != corpus.digest(corpus.make_corpus(workload, 8))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_tiny_smoke_run_is_correct_and_names_are_valid(workload, trace):
    c = corpus.make_corpus(workload, 3, size=TINY)
    metrics, gate = run.measure(ez, c, 0.2, trace)
    assert gate.failures == []
    assert metrics["fail_ratio"] == (0.0, "share")
    for name in metrics:
        assert NAME.fullmatch(name), name
    for entry in SPEC["per_layer" if trace else "end_to_end"]:
        assert NAME.fullmatch(entry["name"])
        assert metrics[entry["name"]][1] == entry["unit"]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_traced_outputs_and_counts_match_untraced(workload):
    c = corpus.make_corpus(workload, 5, size=TINY)
    gate = run_gate(c, ez)
    first = tracing.traced_run(ez, c, 0.1)
    again = tracing.traced_run(ez, c, 0.1)
    reads, writes = first.outputs
    assert [corpus.bits_of(v) for v in reads] == gate.read_bits
    assert writes == gate.written
    assert first.counts == again.counts
    # Tracing is removed again afterwards.
    assert ez.read_double.__module__ == "ezfloat.reader"
    assert ez.writer.round_quotient is ez.bigmath.round_quotient


def test_longdigits_halfway_strings_are_exact_midpoints():
    c = corpus.make_corpus("longdigits", 11, size=TINY)
    d = corpus.descriptors(c)
    # Exact halfway points are a fixed share; tailed ones are not halfway.
    assert d["input.halfway_share"] == pytest.approx(len(range(0, TINY, 5)) / TINY)
    assert len(c.halfway_made) == len(range(0, TINY, 5)) + len(range(1, TINY, 5))
