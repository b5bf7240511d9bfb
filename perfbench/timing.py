"""Untraced timing: ezfloat and the host converters in interleaved rounds.

One caller makes back-to-back calls (a closed loop, one thread).  Each
round times, over the whole corpus, ezfloat's read, write and round trip
next to host ``float()``, ``repr()`` and ``float(repr())``, alternating
slice by slice which side goes first.  It then times every read and every
write once more call by call, for the per-input tail.  The cyclic garbage
collector is off while timing, as in ``timeit``.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass

_pc = time.perf_counter_ns

# Inputs per timed slice.  Ours and the host alternate slice by slice, so
# both sides of a ratio see the same machine state.
SLICE = 50

# Rounds of per-call times kept for the tail (the most recent ones).
RING = 25


def batch(fn, xs) -> int:
    t0 = _pc()
    for x in xs:
        fn(x)
    return _pc() - t0


def _batch2(outer, inner, xs) -> int:
    t0 = _pc()
    for x in xs:
        outer(inner(x))
    return _pc() - t0


def _interleaved(ours, host, slices, host_first: bool) -> tuple[int, int]:
    t_ours = t_host = 0
    for xs in slices:
        if host_first:
            t_host += host(xs)
            t_ours += ours(xs)
        else:
            t_ours += ours(xs)
            t_host += host(xs)
        host_first = not host_first
    return t_ours, t_host


def _per_call(fn, xs, host_per_op: float, ring, slot: int) -> None:
    # Each call's time over the round's mean host call, into the ring slot.
    base = slot * len(xs)
    for i, x in enumerate(xs):
        t0 = _pc()
        fn(x)
        ring[base + i] = (_pc() - t0) / host_per_op


def _p99_of_medians(ring, n: int, filled: int) -> float:
    medians = [statistics.median(ring[i : n * filled : n]) for i in range(n)]
    return statistics.quantiles(medians, n=100)[98]


@dataclass
class Timings:
    """``batches``: per-round sums in ns over the corpus, by name (``read``,
    ``float``, ``write``, ``repr``, ``roundtrip``, ``host_roundtrip``).
    The tails are the p99 over inputs of each input's median call time,
    every call taken over the mean host call of its own round.
    ``imports``: (import seconds, reference seconds) of each fresh
    interpreter, see ``import_once``."""

    batches: dict[str, list[int]]
    read_p99_x_float: float
    write_p99_x_repr: float
    imports: list[tuple[float, float]]


def time_rounds(
    ez, reads: list[str], writes: list[float], seconds: float, src: str, imports: int
) -> Timings:
    """Run whole rounds until ``seconds`` have passed (at least one round).

    Between rounds, ``imports`` fresh-interpreter imports of ezfloat from
    ``src`` are spread evenly over the run, so that a passing slow spell of
    the machine lands on few of them.
    """
    rd, ws = ez.read_double, ez.double_to_string
    read_slices = [reads[i : i + SLICE] for i in range(0, len(reads), SLICE)]
    write_slices = [writes[i : i + SLICE] for i in range(0, len(writes), SLICE)]
    pairs = {
        ("read", "float"): (lambda xs: batch(rd, xs), lambda xs: batch(float, xs), read_slices),
        ("write", "repr"): (lambda xs: batch(ws, xs), lambda xs: batch(repr, xs), write_slices),
        ("roundtrip", "host_roundtrip"): (
            lambda xs: _batch2(rd, ws, xs),
            lambda xs: _batch2(float, repr, xs),
            write_slices,
        ),
    }
    out: dict[str, list[int]] = {name: [] for pair in pairs for name in pair}
    # Preallocated, so memory does not depend on how many rounds fit.
    read_ring = array("d", bytes(8 * len(reads) * RING))
    write_ring = array("d", bytes(8 * len(writes) * RING))
    import_once(src)  # compiles the byte code, which is not timed
    imports_done: list[tuple[float, float]] = []
    gc.collect()
    gc.disable()
    try:
        start = _pc()
        deadline = start + int(seconds * 1e9)
        rounds = 0
        while True:
            for (ours, host), (f_ours, f_host, slices) in pairs.items():
                t_ours, t_host = _interleaved(f_ours, f_host, slices, bool(rounds & 1))
                out[ours].append(t_ours)
                out[host].append(t_host)
            slot = rounds % RING
            _per_call(rd, reads, out["float"][-1] / len(reads), read_ring, slot)
            _per_call(ws, writes, out["repr"][-1] / len(writes), write_ring, slot)
            rounds += 1
            if _pc() - start >= len(imports_done) * (deadline - start) / imports:
                imports_done.append(import_once(src))
            if _pc() >= deadline:
                break
    finally:
        gc.enable()
    while len(imports_done) < imports:
        imports_done.append(import_once(src))
    filled = min(rounds, RING)
    return Timings(
        out,
        _p99_of_medians(read_ring, len(reads), filled),
        _p99_of_medians(write_ring, len(writes), filled),
        imports_done,
    )


# Run in a fresh interpreter: the time of a fixed reference that does what
# an import does (unmarshal code, run class bodies) but touches no ezfloat
# code, then the time ``import ezfloat`` takes.
_IMPORT_PROBE = """
import marshal, sys, time
src = "".join(f"class C{i}:\\n    a = {i}\\n    def f(self, x):\\n        return x + {i}\\n" for i in range(300))
blob = marshal.dumps(compile(src, "<reference>", "exec"))
t = time.perf_counter()
exec(marshal.loads(blob), {"__name__": "reference"})
reference = time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import ezfloat
print(time.perf_counter() - t, reference)
"""


def import_once(src: str) -> tuple[float, float]:
    """Seconds ``import ezfloat`` takes in a fresh interpreter (its start
    excluded), and seconds the same interpreter takes for the reference."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_PROBE, src],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    took, reference = map(float, done.stdout.split())
    return took, reference
