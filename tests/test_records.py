"""The package's records and accumulators, and what ``import ezfloat`` loads."""

import json
import os
import subprocess
import sys

import pytest

import ezfloat
from ezfloat import (
    ConversionStats,
    DecimalSci,
    FloatKind,
    ReadOutcome,
    ShortestDigits,
    UnpackedDouble,
    parse_decimal,
)
from ezfloat.audit import Report

# Each immutable record with one value per field, in field order.
RECORDS = [
    (DecimalSci, {"negative": True, "mant": 15, "point": 2}),
    (ReadOutcome, {"value": 1.5, "stats": ConversionStats()}),
    (ShortestDigits, {"lquo": 17976931348623157, "point": 292}),
    (UnpackedDouble, {"negative": False, "lmant": 1 << 52, "e2": -1074, "kind": FloatKind.NORMAL}),
]
RECORD_IDS = [cls.__name__ for cls, _ in RECORDS]

# The figures each audit's report starts from.  Every audit builds one
# Report; the ids keep the names the reports had as classes.
REPORTS = {
    "AuditReport": {"values_tested": 2098, "powers": 2046,
                    "max_write_bits": 0, "max_write_divisions": 0},
    "IntermediateSizeReport": {"max_pow5_bits": 0, "max_pow10_bits": 0, "max_read_divisions": 0},
    "HalfwayReport": {"reads": 0, "max_read_bits": 0},
    "OracleReport": {"count": 0},
    "MinimalityReport": {"count": 0},
    "RoundtripReport": {"count": 0},
}

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
    # The import path is exactly the library's four modules under the
    # package, and no annotation needs __future__ to be deferred.
    assert [m for m in got["new"] if m.split(".")[0] == "ezfloat"] == [
        "ezfloat", "ezfloat.bigmath", "ezfloat.oracle", "ezfloat.reader", "ezfloat.writer",
    ]
    assert "__future__" not in got["new"]
    assert got["scales"] == 2047
    assert got["tables"] == [True] * 2


def test_public_api_is_each_modules_all():
    # The package lists no name itself: its API is the four library
    # modules' own __all__, joined.
    modules = (ezfloat.bigmath, ezfloat.oracle, ezfloat.reader, ezfloat.writer)
    joined = [name for module in modules for name in module.__all__]
    assert ezfloat.__all__ == joined
    assert len(set(joined)) == len(joined) == 24
    for name in joined:
        assert hasattr(ezfloat, name), name
    assert "ExactRational" not in joined
    namespace = {}
    exec("from ezfloat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(joined)


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
    @pytest.mark.parametrize("figures", REPORTS.values(), ids=list(REPORTS))
    def test_fresh_report(self, figures):
        first, second = Report(**figures), Report(**figures)
        assert {name: getattr(first, name) for name in figures} == figures
        assert first.violations == [] and first.violations is not second.violations
        first.violations.append("x")
        assert second.ok and not first.ok
