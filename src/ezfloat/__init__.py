"""Correctly rounded conversions between decimal text and IEEE-754 binary64.

Reading picks the nearest double with a single round-half-to-even integer
division; writing emits the minimal-digit scientific notation that reads
back bit-identically.  An independent exact oracle rounds out the library.
The audits of the division bounds (``ezfloat.audit``) and the command line
(``ezfloat.cli``) sit on top of it; ``import ezfloat`` loads neither.
"""

from . import bigmath, oracle, reader, writer
from .bigmath import *
from .oracle import *
from .reader import *
from .writer import *

__version__ = "0.1.0"

__all__ = [*bigmath.__all__, *oracle.__all__, *reader.__all__, *writer.__all__]
