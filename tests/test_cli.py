import csv
import os
import random
import re
import subprocess
import sys

import pytest

import ezfloat
from ezfloat import audit, bits_to_float, cli, double_to_string, float_to_bits, nearest_double_exact
from ezfloat import writer
from ezfloat.cli import main

# Runs `ezfloat verify bounds` with the power-of-10 binding wrong in sign
# on one mantissa, 10**16, which the grid converts at every point.
_BROKEN_BINDING = """
import sys
sys.path.insert(0, sys.argv[1])
from ezfloat import audit
from ezfloat.cli import main
real = audit.mant_exp_to_double10
def wrong_on_one(mant, point, stats=None):
    value = real(mant, point, stats)
    return -value if mant == 10**16 else value
audit.mant_exp_to_double10 = wrong_on_one
sys.exit(main(["verify", "bounds"]))
"""


# Runs `ezfloat verify bounds` with every write division made on operands
# shifted left by 2: same quotients and outputs, 2 bits wider.
_SHIFTED_WRITE = """
import sys
sys.path.insert(0, sys.argv[1])
from ezfloat import writer
from ezfloat.cli import main
real = writer.round_quotient
def shifted(num, den, stats=None, site=""):
    return real(num << 2, den << 2, stats, site)
writer.round_quotient = shifted
sys.exit(main(["verify", "bounds"]))
"""


# Runs `ezfloat verify bounds` with each power of two written wrongly:
# sys.argv[2] names the wrong (lquo, point) made from the right one.
_WRONG_POWER_OF_TWO = """
import sys
sys.path.insert(0, sys.argv[1])
from ezfloat import writer
from ezfloat.cli import main
real = writer._shortest
wrong = eval("lambda lquo, point: " + sys.argv[2])
def shortest(m, e, stats):
    lquo, point = real(m, e, stats)
    return wrong(lquo, point) if m == 0.5 else (lquo, point)
writer._shortest = shortest
sys.exit(main(["verify", "bounds"]))
"""


# Runs `ezfloat verify bounds` with every read through the power-of-10
# binding noting one division more than it made.
_EXTRA_REREAD_DIVISION = """
import functools, sys
sys.path.insert(0, sys.argv[1])
from ezfloat import audit
from ezfloat.cli import main
real = audit.mant_exp_to_double10
@functools.wraps(real)
def extra(mant, point, stats=None):
    value = real(mant, point, stats)
    stats.note_division("read-main", 1, 1, 1)
    return value
audit.mant_exp_to_double10 = extra
sys.exit(main(["verify", "bounds"]))
"""


# Runs `ezfloat verify bounds` with the reader keeping one digit fewer
# than a halfway point in the decade can have.
_SHORT_CUT = """
import sys
sys.path.insert(0, sys.argv[1])
from ezfloat import reader
from ezfloat.cli import main
real = reader._kept_digits
reader._kept_digits = lambda top: real(top) - 1
sys.exit(main(["verify", "bounds"]))
"""


# Runs `ezfloat verify bounds` with the reader's sticky digit a 0, which
# puts a cut halfway point followed by a far 1 back on the tie.
_STICKY_ZERO = """
import inspect, sys
sys.path.insert(0, sys.argv[1])
from ezfloat import reader
source = inspect.getsource(reader.read_double)
wrong = source.replace('digits[:kept] + "1"', 'digits[:kept] + "0"')
if wrong == source:
    sys.exit(3)
exec(wrong, vars(reader))
from ezfloat.cli import main
sys.exit(main(["verify", "bounds"]))
"""


# Runs `ezfloat` on the arguments after the source root.
_MAIN = """
import sys
sys.path.insert(0, sys.argv[1])
from ezfloat.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _negated(fn):
    # Wrong in the sign bit alone, on every value, zeros and infinities too.
    return lambda *args: -fn(*args)


class TestRead:
    def test_min_subnormal(self, capsys):
        code, out, _ = run(capsys, "read", "5E-324")
        assert code == 0
        assert out.splitlines()[0] == "0x0000000000000001 5.0E-324"

    def test_nan(self, capsys):
        code, out, _ = run(capsys, "read", "NaN")
        assert code == 0
        assert out.splitlines()[0] == "0x7FF8000000000000 NaN"

    def test_parse_error_exits_nonzero(self, capsys):
        code, _, err = run(capsys, "read", "1..2")
        assert code == 2
        assert "position 2" in err

    def test_stats_flag(self, capsys):
        # One text per read path: Clinger's, each division site, and a
        # 20-digit significand that is no exact double.  A gauss read's even
        # 54-bit significand is an exact double and takes Clinger's path.
        cases = {
            "1.5": ("0x3FF8000000000000 1.5E0", 0, 0),
            "1.1953208491780494": ("0x3FF32008C1372590 1.1953208491780494E0", 0, 0),
            "2.5E-100": ("0x2B417F7D4ED8C33E 2.5E-100", 1, 288),  # read-main
            "5E-324": ("0x0000000000000001 5.0E-324", 1, 753),  # read-subnormal
            "1e300": ("0x7E37E43C8800759C 1.0E300", 1, 697),  # read-shift
            "12345678901234567890": ("0x43E56A95319D63E1 1.2345678901234567E19", 1, 63),
        }
        for text, (value, divisions, bits) in cases.items():
            code, out, _ = run(capsys, "read", "--stats", text)
            assert code == 0
            assert out == f"{value}\ndivisions={divisions} max_intermediate_bits={bits}\n", text

    def test_stats_of_a_long_read(self, capsys):
        # Near 0.78 a halfway point has at most 57 digits, so a read keeps
        # 57 and a sticky digit of the 1000: under 200 bits, not 2555.
        code, out, _ = run(capsys, "read", "--stats", "0." + "7" * 1000)
        assert code == 0
        stats = dict(field.split("=") for field in out.splitlines()[1].split())
        assert stats["divisions"] == "1"
        assert int(stats["max_intermediate_bits"]) < 300

    def test_negative_literal(self, capsys):
        code, out, _ = run(capsys, "read", "--", "-0.0")
        assert code == 0
        assert out.splitlines()[0] == "0x8000000000000000 -0.0"


class TestWrite:
    @pytest.mark.parametrize(
        "arg,expected",
        [
            ("0x0000000000000001", "5.0E-324"),
            ("0x3FF0000000000000", "1.0E0"),
            ("0x7FF0000000000000", "Infinity"),
            ("0xFFF0000000000000", "-Infinity"),
            ("0x8000000000000000", "-0.0"),
            ("1500", "1.5E3"),
        ],
    )
    def test_patterns_and_literals(self, capsys, arg, expected):
        code, out, _ = run(capsys, "write", arg)
        assert code == 0
        assert out.strip() == expected

    def test_bad_hex(self, capsys):
        code, _, err = run(capsys, "write", "0x123")
        assert code == 2
        assert "hex" in err

    @pytest.mark.parametrize(
        "arg,position",
        [
            ("0x123", 5),  # ends early: the text's length
            ("0x12G4000000000000", 4),  # the first non-hex character
            ("0x" + "1" * 17, 18),  # the 17th digit
        ],
    )
    def test_bad_hex_position(self, capsys, arg, position):
        code, _, err = run(capsys, "write", arg)
        assert code == 2
        assert err.strip() == f"error: expected 16 hex digits after 0x at position {position}"

    def test_environment_does_not_change_the_rendering(self, capsys, monkeypatch):
        monkeypatch.setenv("EZFLOAT_COMPAT", "1")
        code, out, _ = run(capsys, "write", "0x8000000000000000")
        assert code == 0 and out.strip() == "-0.0"
        code, out, _ = run(capsys, "write", "0x0000000000000001")
        assert code == 0 and out.strip() == "5.0E-324"


class TestRoundtrip:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "roundtrip", "--count", "1000", "--seed", "42")
        assert code == 0
        assert "0 failures" in out

    def test_zero_count(self, capsys):
        code, out, _ = run(capsys, "verify", "roundtrip", "--count", "0")
        assert code == 0
        assert "0 values" in out

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "verify", "roundtrip", "--count", "500", "--seed", "9")
        _, out2, _ = run(capsys, "verify", "roundtrip", "--count", "500", "--seed", "9")
        assert out1 == out2

    def test_wrong_read_reports_each_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(audit, "read_double", _negated(audit.read_double))
        code, out, _ = run(capsys, "verify", "roundtrip", "--count", "2", "--seed", "42")
        assert code == 1
        pattern = random.Random(42).getrandbits(64)
        text = double_to_string(bits_to_float(pattern))
        lines = out.splitlines()
        assert lines[0] == (
            f"VIOLATION 0x{pattern:016X} wrote {text} read 0x{pattern ^ 1 << 63:016X}"
        )
        assert lines[-1] == "roundtrip: 2 values, 2 failures, 0 not d.dddEn"
        assert len(lines) == 3

    def test_text_without_its_point_is_a_violation(self, capsys, monkeypatch):
        # A writer that marks its exponent with "e": every text reads back,
        # but none is in d.dddEn form, and the one read wider than 803 bits
        # has no point to bound it by.  Every finite nonzero write is checked
        # for its form, so each text counts once: as many as were written.
        real = audit.double_to_string
        monkeypatch.setattr(audit, "double_to_string",
                            lambda f, stats=None: real(f, stats).replace("E", "e"))
        code, out, _ = run(capsys, "verify", "roundtrip", "--count", "2000", "--seed", "4")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 2000
        assert all(line.endswith(", not d.dddEn") for line in lines[:-1])
        assert "VIOLATION 0x8013643970BDA26C wrote -2.6967201874994467e-308, not d.dddEn" in lines
        assert lines[-1] == "roundtrip: 1999 values, 1999 failures, 1999 not d.dddEn"

    def test_wider_write_operand_fails(self, capsys, monkeypatch):
        # Every write division on operands shifted left by 2: same outputs,
        # 2 bits wider, over 810 bits for the smallest binades.
        real = writer.round_quotient
        monkeypatch.setattr(writer, "round_quotient",
                            lambda num, den, stats, site: real(num << 2, den << 2, stats, site))
        code, out, _ = run(capsys, "verify", "roundtrip", "--count", "3000", "--seed", "3")
        assert code == 1
        # The three patterns drawn in the lowest three binades, of either sign.
        assert out.splitlines() == [
            "VIOLATION 0x000DF9079D5BBAA7 write operand bits 811 over 810",
            "VIOLATION 0x8029C804D1453186 write operand bits 812 over 810",
            "VIOLATION 0x0013CB01438F7195 write operand bits 811 over 810",
            "roundtrip: 2999 values, 3 failures, 0 not d.dddEn",
        ]

    def test_extra_read_division_fails(self, capsys, monkeypatch):
        real = audit.read_double

        def extra(text, stats):
            value = real(text, stats)
            stats.note_division("read-main", 1, 1, 1)
            return value

        monkeypatch.setattr(audit, "read_double", extra)
        code, out, _ = run(capsys, "verify", "roundtrip", "--count", "20", "--seed", "1")
        assert code == 1
        lines = out.splitlines()
        # -6.692647873169096E13 reads on Clinger's path, without a division.
        assert len(lines) == 20 and "VIOLATION 0xC2CE6F447ED4D57B" not in out
        assert all(line.endswith(" read made 2 divisions") for line in lines[:-1])
        assert lines[-1] == "roundtrip: 20 values, 19 failures, 0 not d.dddEn"


class TestVerify:
    def test_oracle_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--count", "300", "--seed", "5")
        assert code == 0
        assert "0 mismatches" in out

    def test_minimality_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "minimality", "--count", "50", "--seed", "5")
        assert code == 0
        assert "0 failures" in out

    def test_wrong_oracle_reports_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(audit, "nearest_double_exact", _negated(nearest_double_exact))
        code, out, _ = run(capsys, "verify", "oracle", "--count", "2", "--seed", "5")
        assert code == 1
        lines = out.splitlines()
        # The first decimal drawn at seed 5 overflows; the oracle says -inf.
        assert lines[0] == (
            "VIOLATION 8756802421011805068781820987516765132857E307 "
            "pow5=0x7FF0000000000000 pow10=0x7FF0000000000000 exact=0xFFF0000000000000"
        )
        assert lines[-1] == "oracle: 2 cases, 2 mismatches"

    def test_wrong_check_reports_not_minimal(self, capsys, monkeypatch):
        real = audit.minimality_check
        monkeypatch.setattr(audit, "minimality_check", lambda f, n: f != 0.1 and real(f, n))
        code, out, _ = run(capsys, "verify", "minimality", "--count", "1")
        assert code == 1
        lines = out.splitlines()
        assert lines == [
            "VIOLATION 0x3FB999999999999A wrote 1.0E-1, not minimal",
            "minimality: 5 values, 1 failures, 0 not d.dddEn",
        ]

    def test_text_out_of_form_is_not_a_minimality_fault(self, capsys, monkeypatch):
        # A writer that marks its exponent with "e" writes minimal digits in
        # the wrong form: each text is a form violation, none a minimal one.
        real = audit.double_to_string
        monkeypatch.setattr(audit, "double_to_string",
                            lambda f, stats=None: real(f, stats).replace("E", "e"))
        code, out, _ = run(capsys, "verify", "minimality", "--count", "1")
        assert code == 1
        lines = out.splitlines()
        assert lines[:4] == [
            "VIOLATION 0x0000000000000001 wrote 5.0e-324, not d.dddEn",
            "VIOLATION 0x3FB999999999999A wrote 1.0e-1, not d.dddEn",
            "VIOLATION 0x3FD3333333333333 wrote 3.0e-1, not d.dddEn",
            "VIOLATION 0x7FEFFFFFFFFFFFFF wrote 1.7976931348623157e308, not d.dddEn",
        ]
        assert re.fullmatch(r"VIOLATION 0x[0-9A-F]{16} wrote \S+e-?[0-9]+, not d\.dddEn", lines[4])
        assert lines[5:] == ["minimality: 5 values, 5 failures, 5 not d.dddEn"]

    def test_minimality_count_is_not_capped(self, capsys):
        code, out, _ = run(capsys, "verify", "minimality", "--count", "2001")
        assert code == 0
        assert "minimality: 2005 values, 0 failures, 0 not d.dddEn" in out.splitlines()

    def test_bad_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_negative_count_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "oracle", "--count", "-3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "count must be >= 0" in captured.err
        assert "oracle:" not in captured.out

    def test_non_integer_count_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "oracle", "--count", "abc"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --count: count must be an integer >= 0, got 'abc'" in captured.err
        assert "_count_arg" not in captured.err
        assert "oracle:" not in captured.out

    def test_bounds_reports_measured_maxima(self, capsys):
        code, out, _ = run(capsys, "verify", "bounds")
        assert code == 0
        assert out.splitlines() == [
            # Read operands stay within 803/1126 bits for decimal exponents
            # >= -323 and within bits(5**-point)+53 resp. bits(10**-point)+53
            # below that; over the full input domain, down to point -340,
            # the maxima are 806/1130 bits, attained at point -324.
            "max pow5 bits: 806, max pow10 bits: 1130",
            "max read divisions: 1",
            "halfway reads: 24564",
            "max halfway operand bits: 2555",
            "values tested: 2098",
            "powers of two: 2046",
            # An all-ones significand at e2 = -1074 times 100 * 5**323.
            "max write operand bits: 810",
            "max write divisions: 1",
            "texts not d.dddEn: 0",
            "violations: 0",
            "bounds: ok",
        ]

    def test_bounds_reads_every_halfway_point(self, capsys):
        # Four halfway points in each of the 2047 binades, read in three
        # forms; a 769-digit read at top -307 reaches the 2555-bit ceiling.
        code, out, _ = run(capsys, "verify", "bounds")
        assert code == 0
        lines = out.splitlines()
        assert "halfway reads: 24564" in lines
        assert "max halfway operand bits: 2555" in lines

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
    @pytest.mark.parametrize(
        "script,wrong",
        [
            # The 768-digit midpoint above the largest subnormal, cut to
            # 767 digits and a sticky 1, reads below the midpoint.
            (_SHORT_CUT, "VIOLATION 0x000FFFFFFFFFFFFF halfway above: "
             "read 0x000FFFFFFFFFFFFF, want 0x0010000000000000"),
            # Cut to its own digits and a sticky 0, a halfway point with a
            # far 1 is the tie again, which goes to the even lower neighbour.
            (_STICKY_ZERO, "VIOLATION 0x000FFFFFFFFFFFFE halfway above: "
             "read 0x000FFFFFFFFFFFFE, want 0x000FFFFFFFFFFFFF"),
        ],
        ids=["short-cut", "sticky-zero"],
    )
    def test_bounds_fails_on_a_wrong_cut(self, flags, script, wrong):
        root = os.path.dirname(os.path.dirname(ezfloat.__file__))
        done = subprocess.run(
            [sys.executable, *flags, "-c", script, root],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        lines = done.stdout.splitlines()
        assert lines[-1] == "bounds: exceeded"
        assert wrong in lines
        # Only the halfway audit reads through read_double.
        violations = [line for line in lines if line.startswith("VIOLATION")]
        assert all(" halfway " in line for line in violations)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
    def test_bounds_fails_on_a_broken_binding(self, flags):
        # The scan reports violations rather than asserting, so the
        # failure stands when assertions are compiled out.
        root = os.path.dirname(os.path.dirname(ezfloat.__file__))
        done = subprocess.run(
            [sys.executable, *flags, "-c", _BROKEN_BINDING, root],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        lines = done.stdout.splitlines()
        assert lines[-1] == "bounds: exceeded"
        assert "VIOLATION 10000000000000000E-100 bindings differ" in lines

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
    def test_bounds_fails_on_a_wider_write_operand(self, flags):
        root = os.path.dirname(os.path.dirname(ezfloat.__file__))
        done = subprocess.run(
            [sys.executable, *flags, "-c", _SHIFTED_WRITE, root],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        lines = done.stdout.splitlines()
        assert lines[-1] == "bounds: exceeded"
        assert "max write operand bits: 812" in lines
        # The three all-ones values whose operands reach 809 and 810 bits,
        # then the two powers of two whose operands reach 809 bits.
        assert [line for line in lines if line.startswith("VIOLATION")] == [
            "VIOLATION 0x000FFFFFFFFFFFFF write operand bits 811 over 810",
            "VIOLATION 0x001FFFFFFFFFFFFF write operand bits 812 over 810",
            "VIOLATION 0x002FFFFFFFFFFFFF write operand bits 812 over 810",
            "VIOLATION 0x0010000000000000 write operand bits 811 over 810",
            "VIOLATION 0x0020000000000000 write operand bits 811 over 810",
        ]

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
    @pytest.mark.parametrize(
        "wrong,suffix",
        [
            # A needless last digit, 1 (format_sci would trim a 0): the
            # shorter right output reads back, whether or not this one does.
            ("(lquo * 10 + 1, point - 1)", ", not minimal"),
            # One unit down: below the narrow interval under a power of two.
            ("(lquo - 1, point)", " reread via mant_exp_to_double5 mismatch"),
        ],
        ids=["needless-digit", "one-unit-down"],
    )
    def test_bounds_fails_on_a_wrong_power_of_two(self, flags, wrong, suffix):
        root = os.path.dirname(os.path.dirname(ezfloat.__file__))
        done = subprocess.run(
            [sys.executable, *flags, "-c", _WRONG_POWER_OF_TWO, root, wrong],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        lines = done.stdout.splitlines()
        assert lines[-1] == "bounds: exceeded"
        violations = [line for line in lines if line.startswith("VIOLATION")]
        assert any(line.endswith(suffix) for line in violations)
        # Each names a normal power of two: its fraction field is zero.
        assert all(int(line.split()[1], 16) & (1 << 52) - 1 == 0 for line in violations)

    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["asserts", "optimized"])
    def test_allones_fails_on_an_extra_reread_division(self, flags):
        root = os.path.dirname(os.path.dirname(ezfloat.__file__))
        done = subprocess.run(
            [sys.executable, *flags, "-c", _EXTRA_REREAD_DIVISION, root],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1, done.stderr
        lines = done.stdout.splitlines()
        assert lines[-1] == "bounds: exceeded"
        # The scan reports its own violations; the all-ones report
        # follows the scan's last line.
        scan_end = next(i for i, s in enumerate(lines) if s.startswith("max read divisions:"))
        report = lines[scan_end + 1:-1]
        violations = [line for line in report if line.startswith("VIOLATION")]
        assert violations
        suffix = " reread via mant_exp_to_double10 made 2 divisions"
        assert all(line.endswith(suffix) for line in violations)
        assert report[-1] == f"violations: {len(violations)}"

    def test_all_runs_every_suite(self, capsys):
        # At the default counts the output is the committed golden, line for
        # line: every suite's summary once, in suite order.
        code, out, _ = run(capsys, "verify", "all")
        assert code == 0
        golden = os.path.join(os.path.dirname(__file__), "verify_all.txt")
        with open(golden, encoding="utf-8") as handle:
            assert out.splitlines() == handle.read().splitlines()


class TestBench:
    def test_small_grid_csv(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, out, _ = run(
            capsys,
            "bench",
            "--count", "25",
            "--exp-low", "-3",
            "--exp-high", "3",
            "--seed", "11",
            "--csv", str(path),
        )
        assert code == 0
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "engine", "write_ns", "read_ns", "values", "verified"]
        body = rows[1:]
        assert len(body) == 14  # 7 exponents x 2 engines
        engines = {row[1] for row in body}
        assert engines == {"ezfloat", "native"}
        assert all(row[5] == "true" for row in body)
        assert all(row[4] == "25" for row in body)
        ns = sorted(int(row[0]) for row in body if row[1] == "ezfloat")
        assert ns == list(range(-3, 4))

    def test_wrong_read_fails_the_bench(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "read_double", _negated(cli.read_double))
        code, out, err = run(
            capsys,
            "bench", "--count", "3", "--exp-low", "0", "--exp-high", "0",
            "--seed", "11", "--csv", str(tmp_path / "bench.csv"),
        )
        assert code == 1
        # At n = 0 the exactly scaled vector is the base vector itself.
        value = 10.0 ** random.Random(11).gauss(0.0, 1.0)
        bits = float_to_bits(value)
        assert err.splitlines()[0] == (
            f"FAIL 0x{bits:016X} wrote {double_to_string(value)} read 0x{bits ^ 1 << 63:016X}"
        )
        assert out == ""
        # The header and the failing row, written before the bench stops.
        with open(tmp_path / "bench.csv", newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["n", "engine", "write_ns", "read_ns", "values", "verified"]
        [row] = rows
        assert row[:2] == ["0", "ezfloat"] and row[4:] == ["3", "false"]
        assert all(field.isdigit() for field in row[2:4])

    def test_csv_deterministic_apart_from_timings(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run(
                capsys,
                "bench", "--count", "20", "--exp-low", "-2", "--exp-high", "2",
                "--seed", "77", "--csv", str(path),
            )
        def stable(path):
            with open(path, newline="") as handle:
                return [
                    (row[0], row[1], row[4], row[5])
                    for row in csv.reader(handle)
                ]
        assert stable(paths[0]) == stable(paths[1])

    def test_unwritable_csv_usage_error(self, capsys, tmp_path):
        path = tmp_path / "missing" / "bench.csv"
        code, out, err = run(
            capsys,
            "bench", "--count", "5", "--exp-low", "0", "--exp-high", "0",
            "--csv", str(path),
        )
        assert code == 2
        assert err.startswith("error: ") and "bench.csv" in err
        assert out == ""
        assert not path.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_csv_write_error_is_an_io_error(self):
        # /dev/full opens but fails every write with ENOSPC.
        root = os.path.dirname(os.path.dirname(ezfloat.__file__))
        done = subprocess.run(
            [sys.executable, "-c", _MAIN, root,
             "bench", "--count", "5", "--exp-low", "0", "--exp-high", "1", "--csv", "/dev/full"],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr

    def test_bad_range_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "bench", "--count", "5", "--exp-low", "5", "--exp-high", "0",
            "--csv", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "exp-low" in err
