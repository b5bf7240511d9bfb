"""Correctly rounded conversions between decimal text and IEEE-754 binary64.

Reading picks the nearest double with a single round-half-to-even integer
division; writing emits the minimal-digit scientific notation that reads
back bit-identically.  An independent exact oracle rounds out the library.
The audits of the division bounds (``ezfloat.audit``) and the command line
(``ezfloat.cli``) sit on top of it; ``import ezfloat`` loads neither.
"""

from ._bits import bits_to_float, float_to_bits
from .bigmath import DBL_MANT_DIG, LLOG2, MAX_POW, ConversionStats, round_quotient
from .oracle import ExactRational, minimality_check, nearest_double_exact
from .reader import (
    DecimalSci,
    ParseError,
    ReadOutcome,
    mant_exp_to_double5,
    mant_exp_to_double10,
    parse_decimal,
    read_double,
    read_double_with_stats,
)
from .writer import (
    FloatKind,
    ShortestDigits,
    UnpackedDouble,
    double_to_string,
    format_sci,
    shortest_digits,
    unpack_double,
)

__version__ = "0.1.0"

__all__ = [
    "ConversionStats",
    "DBL_MANT_DIG",
    "DecimalSci",
    "ExactRational",
    "FloatKind",
    "LLOG2",
    "MAX_POW",
    "ParseError",
    "ReadOutcome",
    "ShortestDigits",
    "UnpackedDouble",
    "bits_to_float",
    "double_to_string",
    "float_to_bits",
    "format_sci",
    "mant_exp_to_double5",
    "mant_exp_to_double10",
    "minimality_check",
    "nearest_double_exact",
    "parse_decimal",
    "read_double",
    "read_double_with_stats",
    "round_quotient",
    "shortest_digits",
    "unpack_double",
]
