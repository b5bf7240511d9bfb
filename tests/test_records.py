"""The package's records and accumulators, and what ``import ezfloat`` loads."""

import json
import os
import subprocess
import sys
from functools import partial

import pytest

import ezfloat
from ezfloat import (
    ConversionStats,
    DecimalSci,
    ExactRational,
    FloatKind,
    ReadOutcome,
    ShortestDigits,
    UnpackedDouble,
    parse_decimal,
)
from ezfloat.audit import AuditReport, HalfwayReport, IntermediateSizeReport, SeededReport

# Each immutable record with one value per field, in field order.
RECORDS = [
    (DecimalSci, {"negative": True, "mant": 15, "point": 2}),
    (ReadOutcome, {"value": 1.5, "stats": ConversionStats()}),
    (ShortestDigits, {"lquo": 17976931348623157, "point": 292}),
    (UnpackedDouble, {"negative": False, "lmant": 1 << 52, "e2": -1074, "kind": FloatKind.NORMAL}),
    (ExactRational, {"num": 1, "den": 3, "negative": True}),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]

# Each audit report, made by a call without arguments, with the counters
# it starts at zero.  The seeded audits' reports are one class; their ids
# keep the names they had as three classes.
REPORTS = [
    (AuditReport, ("values_tested", "max_write_bits", "max_write_divisions")),
    (IntermediateSizeReport, ("max_pow5_bits", "max_pow10_bits", "max_read_divisions")),
    (HalfwayReport, ("reads", "max_read_bits")),
    (partial(SeededReport, "oracle", "cases", "mismatches"), ("count",)),
    (partial(SeededReport, "minimality", "values", "failures"), ("count",)),
    (partial(SeededReport, "roundtrip", "values", "failures"), ("count",)),
]
REPORT_IDS = ["AuditReport", "IntermediateSizeReport", "HalfwayReport",
              "OracleReport", "MinimalityReport", "RoundtripReport"]

# Loaded by ``import dataclasses`` or ``import typing``, not by the package.
HEAVY_MODULES = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")

_IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import ezfloat
mods = sys.modules
print(json.dumps({
    "new": sorted(set(mods) - before),
    "scales": len(mods["ezfloat.writer"]._SCALES),
    "tables": [hasattr(mods["ezfloat.bigmath"], "_POWS5"),
               hasattr(mods["ezfloat.reader"], "_NUMBER")],
}))
"""


def test_import_loads_no_heavy_module_and_defers_nothing():
    # A bare interpreter (-I -S) so that site does not preload anything.
    root = os.path.dirname(os.path.dirname(ezfloat.__file__))
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT_PROBE, root],
        capture_output=True, text=True, check=True, timeout=60,
    )
    got = json.loads(done.stdout)
    assert not set(HEAVY_MODULES) & set(got["new"])
    # Every import-time table is built by the import itself.
    assert "ezfloat.oracle" in got["new"]
    # The audits and the CLI sit on top of the library and load only when
    # imported themselves, so they cannot move import time.
    assert "ezfloat.audit" not in got["new"]
    assert "ezfloat.cli" not in got["new"]
    assert got["scales"] == 2047
    assert got["tables"] == [True] * 2


class TestRecords:
    @pytest.mark.parametrize("cls,fields", RECORDS, ids=RECORD_IDS)
    def test_construction(self, cls, fields):
        values = tuple(fields.values())
        by_position = cls(*values)
        assert by_position == cls(**fields)
        assert cls._fields == tuple(fields)
        for name, value in fields.items():
            assert getattr(by_position, name) is value
        # A named tuple: unpacks and compares equal to the plain tuple.
        assert tuple(by_position) == values
        assert by_position == values

    @pytest.mark.parametrize("cls,fields", RECORDS, ids=RECORD_IDS)
    def test_fieldwise_equality(self, cls, fields):
        record = cls(**fields)
        assert record == cls(**fields)
        for name in fields:
            assert record != cls(**{**fields, name: "other"}), name

    @pytest.mark.parametrize("cls,fields", RECORDS, ids=RECORD_IDS)
    def test_immutable(self, cls, fields):
        record = cls(**fields)
        for name in (*fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("cls,fields", RECORDS, ids=RECORD_IDS)
    def test_repr(self, cls, fields):
        shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({shown})"

    def test_repr_of_long_significands(self):
        # Past CPython's int-to-str limit (4300 digits by default) an int
        # field shows its digit count; at the limit it shows in full.
        dec = parse_decimal("1" * 5000)
        assert repr(dec) == "DecimalSci(negative=False, mant=<5000 digits>, point=0)"
        at_limit = 10**4299
        assert repr(DecimalSci(True, at_limit, -2)) == (
            f"DecimalSci(negative=True, mant={at_limit}, point=-2)"
        )
        assert repr(DecimalSci(False, -(10**4300), 10**5000)) == (
            "DecimalSci(negative=False, mant=<4301 digits>, point=<5001 digits>)"
        )
        rational = ExactRational.from_decimal(DecimalSci(False, 10**5000 - 1, -4400))
        assert repr(rational) == (
            "ExactRational(num=<5000 digits>, den=<4401 digits>, negative=False)"
        )

    def test_exact_rational_default_and_classmethods(self):
        assert ExactRational(1, 2).negative is False
        assert ExactRational.from_float(-0.5) == ExactRational(1 << 52, 1 << 53, True)
        assert ExactRational.from_decimal(DecimalSci(False, 25, -1)) == (25, 10, False)
        # Field-wise, not by value: 1/2 and 2/4 differ.
        assert ExactRational(1, 2) != ExactRational(2, 4)


class TestConversionStats:
    def test_defaults(self):
        stats = ConversionStats()
        assert (stats.divisions, stats.max_intermediate_bits, stats.trace) == (0, 0, [])

    def test_construction(self):
        # The trace is the one field; the counts are read from it.
        assert ConversionStats.__slots__ == ("trace",)
        with pytest.raises(TypeError):
            ConversionStats(1)
        with pytest.raises(TypeError):
            ConversionStats(trace=[])
        stats = ConversionStats()
        stats.trace += [("write", 60, 5, 9), ("read-main", 3, 70, 1)]
        assert (stats.divisions, stats.max_intermediate_bits) == (2, 70)

    def test_fieldwise_equality(self):
        first, second = ConversionStats(), ConversionStats()
        assert first == second
        first.note_division("read-main", 1 << 53, 1, 1 << 53)
        assert first != second
        second.note_division("read-main", 1 << 53, 1, 1 << 53)
        assert first == second
        second.trace[0] = ("read-shift", 54, 1, 1 << 53)
        assert first != second
        assert ConversionStats() != []

    def test_mutable_and_slotted(self):
        stats = ConversionStats()
        stats.note_division("read-main", 1 << 100, 1 << 46, 3)
        assert stats.trace == [("read-main", 101, 47, 3)]
        assert (stats.divisions, stats.max_intermediate_bits) == (1, 101)
        for counter in ("divisions", "max_intermediate_bits"):
            with pytest.raises(AttributeError):
                setattr(stats, counter, 5)
        with pytest.raises(AttributeError):
            stats.extra = 0
        with pytest.raises(TypeError):
            hash(stats)

    def test_repr(self):
        stats = ConversionStats()
        stats.note_division("write", 1 << 59, 1 << 4, 9)
        assert repr(stats) == "ConversionStats(trace=[('write', 60, 5, 9)])"


class TestReports:
    @pytest.mark.parametrize("cls,fields", REPORTS, ids=REPORT_IDS)
    def test_fresh_report(self, cls, fields):
        first, second = cls(), cls()
        assert [getattr(first, name) for name in fields] == [0] * len(fields)
        assert first.violations == [] and first.violations is not second.violations
        first.violations.append("x")
        assert second.ok and not first.ok
