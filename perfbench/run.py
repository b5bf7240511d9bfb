"""Benchmark of ezfloat's reader and writer against the host's float() and repr().

    python3 perfbench/run.py --workload bits --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  It builds the seeded corpus of the
workload, checks every output (see gate.py), then times for ``--seconds``:
with ``--trace 0`` the end-to-end ratios to the host (timing.py), with
``--trace 1`` the per-layer split from spans (tracing.py).  It prints every
metric it has as ``name value unit``, writes a full report under
``.perfbench/``, and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and the metrics BENCHMARK.json lists for the mode.
``--workload all`` runs every workload in both modes, each in its own
process.  See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import corpus as corpora
import tracing
from gate import run_gate
from timing import time_rounds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_REPEATS = 21
# setup_s is import time over the reference's time in the same interpreter,
# times this: the reference's typical time on a 2-vCPU x86-64 machine with
# CPython 3.11.  The machine's speed swings by 1.7x for minutes at a time,
# and import time swings with it; the ratio does not.
REFERENCE_S = 0.0025


def import_ezfloat():
    """Import ezfloat from this checkout's src/, or exit non-zero."""
    if not (SRC / "ezfloat" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ezfloat package at {SRC / 'ezfloat'}")
    sys.path.insert(0, str(SRC))
    import ezfloat

    return ezfloat


def _git_commit() -> str | None:
    # Read directly: a checkout that is not a git repository has no commit,
    # and running git there would search the parent directories.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end_metrics(ez, c: corpora.Corpus, seconds: float) -> dict[str, tuple[float, str]]:
    t = time_rounds(ez, c.reads, c.writes, seconds, str(SRC), SETUP_REPEATS)
    v = t.batches
    nr, nw = len(c.reads), len(c.writes)

    def ratio(ours: str, host: str) -> float:
        return statistics.median(o / h for o, h in zip(v[ours], v[host]))

    def ns(name: str, n: int) -> float:
        return statistics.median(v[name]) / n

    return {
        "read_x_float": (ratio("read", "float"), "x"),
        "write_x_repr": (ratio("write", "repr"), "x"),
        "roundtrip_x_host": (ratio("roundtrip", "host_roundtrip"), "x"),
        "read_p99_x_float": (t.read_p99_x_float, "x"),
        "write_p99_x_repr": (t.write_p99_x_repr, "x"),
        "read_ns": (ns("read", nr), "ns"),
        "write_ns": (ns("write", nw), "ns"),
        "roundtrip_ns": (ns("roundtrip", nw), "ns"),
        "host.float_ns": (ns("float", nr), "ns"),
        "host.repr_ns": (ns("repr", nw), "ns"),
        "host.roundtrip_ns": (ns("host_roundtrip", nw), "ns"),
        "rounds": (len(v["read"]), "count"),
        "setup_s": (REFERENCE_S * statistics.median(i / r for i, r in t.imports), "s"),
        "setup.import_s": (statistics.median(i for i, _ in t.imports), "s"),
        "setup.reference_s": (statistics.median(r for _, r in t.imports), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure(ez, c: corpora.Corpus, seconds: float, trace: bool, spans_path: str | None = None):
    """Gate, then time; returns (metrics, gate).  Every metric is (value, unit)."""
    gate = run_gate(c, ez)
    if not trace:
        metrics = end_to_end_metrics(ez, c, seconds)
    else:
        result = tracing.traced_run(ez, c, seconds)
        for i, (got, want) in enumerate(zip(result.outputs[0], gate.read_bits)):
            gate.check(corpora.bits_of(got) == want, f"traced read {c.reads[i][:60]!r} differs from untraced")
        for i, (got, want) in enumerate(zip(result.outputs[1], gate.written)):
            gate.check(got == want, f"traced write {c.writes[i]!r}: {got!r} != untraced {want!r}")
        metrics = tracing.layer_metrics(result, c)
        if spans_path:
            tracing.write_spans(spans_path, result.first_pass)
    metrics["fail_ratio"] = (len(gate.failures) / gate.attempted, "share")
    for name, value in corpora.descriptors(c).items():
        metrics[name] = (value, "digits" if name == "input.mean_digits" else "share")
    return metrics, gate


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = json.loads(SPEC.read_text())
    ez = import_ezfloat()
    c = corpora.make_corpus(workload, seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    metrics, gate = measure(ez, c, seconds, trace, f"{stem}-spans.csv")
    failed = len(gate.failures)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit}")
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "git_commit": _git_commit(),
            "corpus_digest": corpora.digest(c),
            "corpus_size": {"reads": len(c.reads), "writes": len(c.writes)},
        },
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "attempted": gate.attempted,
        "failed": failed,
        "failures": gate.failures,
    }
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    selected = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit!r}, BENCHMARK.json says {entry['unit']!r}")
        selected[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": gate.attempted, "failed": failed, "metrics": selected}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    status = 0
    for workload in corpora.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            print(f"== {workload} trace={trace}", flush=True)
            status |= subprocess.run(argv, timeout=900).returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*corpora.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
