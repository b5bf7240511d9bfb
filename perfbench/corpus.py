"""Seeded workload corpora and the exact input descriptors of each.

Every corpus is a pair of lists: strings to read and doubles to write.  The
read strings are host ``repr`` output (``bits``, ``gauss``) or generated
here (``longdigits``), never ezfloat's own writer output, so a change to
the writer cannot change what the reader is timed on.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

WORKLOADS = ("bits", "gauss", "longdigits")

# Sizes keep one timed round near 0.1-0.3 s and leave at least ten inputs
# beyond each workload's p99.
SIZES = {"bits": 2000, "gauss": 2000, "longdigits": 1000}

# longdigits significand lengths are log-uniform over this range.  The top
# stays below CPython's 4300-digit str/int conversion limit so that the
# host float() reference accepts every string.
_MIN_DIGITS = 18
_MAX_DIGITS = 4000

# Every fifth longdigits string is an exact binary64 halfway point, every
# fifth a halfway point followed by a far trailing nonzero digit, and the
# rest random digits.
_EXACT_HALFWAY, _HALFWAY_TAIL, _LONG = 0, 1, 2

_INF_BITS = 0x7FF << 52


@dataclass(frozen=True)
class Corpus:
    workload: str
    seed: int
    reads: list[str]
    writes: list[float]
    # Indices of longdigits strings generated from a halfway point.
    halfway_made: tuple[int, ...]


def bits_of(f: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", f))[0]


def _float_of(u: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", u))[0]


def _strata(rng: random.Random, n: int) -> list[float]:
    # One uniform draw from each of n equal strata of (0, 1), in random
    # order.  Each value is still uniform on (0, 1); pairing independently
    # shuffled strata across dimensions (a Latin hypercube) keeps the
    # corpus mix, and so the timings, nearly the same from seed to seed.
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return [min(max(x, 1e-12), 1 - 1e-12) for x in u]


def _finite(u: float, negative: bool) -> float:
    # A finite double whose bit pattern is uniform over the finite ones
    # when u is uniform on (0, 1).
    return _float_of(int(u * _INF_BITS) | negative << 63)


def _log_uniform(u: float, low: int) -> int:
    return round(math.exp(math.log(low) + u * math.log(_MAX_DIGITS / low)))


def _sci(negative: bool, digits: str, exp10: int) -> str:
    # digits[0] is the leading nonzero digit; exp10 is its decimal exponent.
    return f"{'-' if negative else ''}{digits[0]}.{digits[1:] or '0'}e{exp10}"


def _long(rng: random.Random, u_len: float, u_exp: float) -> str:
    n = _log_uniform(u_len, _MIN_DIGITS)
    digits = (
        str(rng.randint(1, 9))
        + "".join(rng.choices("0123456789", k=n - 2))
        + str(rng.randint(1, 9))
    )
    # Leading-digit exponents from the subnormal range to just below overflow.
    exp10 = -323 + min(int(u_exp * 631), 630)
    return _sci(rng.random() < 0.5, digits, exp10)


def _halfway(rng: random.Random, u_val: float, u_len: float, tail: bool) -> str:
    # Exact midpoint of a finite positive double and its successor.
    v = min(_finite(u_val, False), math.nextafter(sys.float_info.max, 0.0))
    mid = (Fraction(v) + Fraction(math.nextafter(v, math.inf))) / 2
    k = mid.denominator.bit_length() - 1  # denominator is 2**k
    scaled = str(mid.numerator * 5**k)
    digits = scaled.rstrip("0")
    if tail:
        # Pushes the value just above the midpoint, so it must round up.
        width = max(_log_uniform(u_len, len(digits) + 2), len(digits) + 2)
        digits = digits + "0" * (width - len(digits) - 1) + "1"
    return _sci(rng.random() < 0.5, digits, len(scaled) - 1 - k)


def make_corpus(workload: str, seed: int, size: int | None = None) -> Corpus:
    """The corpus of ``workload`` for ``seed``; the same seed, the same corpus."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    n = SIZES[workload] if size is None else size
    rng = random.Random(f"{workload}/{seed}")
    halfway_made: list[int] = []
    if workload == "bits":
        writes = [_finite(u, rng.random() < 0.5) for u in _strata(rng, n)]
        reads = [repr(v) for v in writes]
    elif workload == "gauss":
        normal = NormalDist()
        writes = [10.0 ** normal.inv_cdf(u) for u in _strata(rng, n)]
        reads = [repr(v) for v in writes]
    else:
        kinds = [min(i % 5, _LONG) for i in range(n)]
        # Each kind is stratified on its own: value (or exponent), and length.
        draws = {
            kind: iter(zip(_strata(rng, count), _strata(rng, count)))
            for kind, count in sorted(Counter(kinds).items())
        }
        reads = []
        for i, kind in enumerate(kinds):
            u_val, u_len = next(draws[kind])
            if kind == _LONG:
                reads.append(_long(rng, u_len, u_val))
            else:
                halfway_made.append(i)
                reads.append(_halfway(rng, u_val, u_len, kind == _HALFWAY_TAIL))
        # Reads only by design; the doubles the strings denote are written
        # because every metric must be reported on every workload.
        writes = [float(s) for s in reads]
    return Corpus(workload, seed, reads, writes, tuple(halfway_made))


def digest(corpus: Corpus) -> str:
    h = hashlib.sha256()
    for s in corpus.reads:
        h.update(s.encode() + b"\n")
    for v in corpus.writes:
        h.update(b"%016x\n" % bits_of(v))
    return h.hexdigest()[:16]


def decimal_parts(text: str) -> tuple[str, int]:
    """Significant digits and point of a decimal string: value = digits * 10**point.

    Leading and trailing zeros are stripped; zero gives ``("", 0)``.
    Independent of ezfloat's parser on purpose.
    """
    mantissa, _, exponent = text.lstrip("+-").lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    digits = (whole + frac).lstrip("0")
    stripped = digits.rstrip("0")
    if not stripped:
        return "", 0
    return stripped, int(exponent or 0) - len(frac) + len(digits) - len(stripped)


def _is_halfway(text: str, result: float) -> bool:
    a = abs(result)
    if a == 0.0 or math.isinf(a):
        return False
    x, fa = abs(Fraction(text)), Fraction(a)
    up = Fraction(math.ulp(a)) / 2
    down = (fa - Fraction(math.nextafter(a, 0.0))) / 2
    return x == fa + up or x == fa - down


def descriptors(corpus: Corpus) -> dict[str, float]:
    """Exact shares of the input properties later optimisations key on."""
    n = len(corpus.reads)
    clinger = over_770 = subnormal = pow2 = halfway = total_digits = 0
    for text in corpus.reads:
        digits, point = decimal_parts(text)
        result = float(text)
        total_digits += len(digits)
        if len(digits) <= 16 and int(digits or 0) < 2**53 and abs(point) <= 22:
            clinger += 1
        over_770 += len(digits) > 770
        subnormal += 0.0 < abs(result) < sys.float_info.min
        u = bits_of(result)
        pow2 += (u >> 52) & 0x7FF not in (0, 0x7FF) and u & ((1 << 52) - 1) == 0
        halfway += _is_halfway(text, result)
    return {
        "input.clinger_share": clinger / n,
        "input.over_770_digits_share": over_770 / n,
        "input.subnormal_share": subnormal / n,
        "input.pow2_significand_share": pow2 / n,
        "input.halfway_share": halfway / n,
        "input.mean_digits": total_digits / n,
    }
