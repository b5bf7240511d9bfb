import csv

import pytest

from ezfloat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, out, _ = run(capsys, "read", "--stats", "2.5E-100")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("divisions=")
        assert "max_intermediate_bits=" in lines[1]

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

    def test_fast_flag_matches(self, capsys):
        code, out, _ = run(capsys, "write", "--fast", "0x3FF0000000000000")
        assert code == 0 and out.strip() == "1.0E0"

    def test_compat_env(self, capsys, monkeypatch):
        monkeypatch.setenv("EZFLOAT_COMPAT", "1")
        code, out, _ = run(capsys, "write", "0x8000000000000000")
        assert code == 0 and out.strip() == "0.0"
        code, out, _ = run(capsys, "write", "0x0000000000000001")
        assert code == 0 and out.strip() == "5.E-324"


class TestRoundtrip:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--count", "1000", "--seed", "42")
        assert code == 0
        assert "0 failures" in out

    def test_zero_count(self, capsys):
        code, out, _ = run(capsys, "roundtrip", "--count", "0")
        assert code == 0
        assert "0 values" in out

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "roundtrip", "--count", "500", "--seed", "9")
        _, out2, _ = run(capsys, "roundtrip", "--count", "500", "--seed", "9")
        assert out1 == out2


class TestVerify:
    def test_allones(self, capsys):
        code, out, _ = run(capsys, "verify", "allones")
        assert code == 0
        assert "violations: 0" in out

    def test_oracle_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "oracle", "--count", "300", "--seed", "5")
        assert code == 0
        assert "0 mismatches" in out

    def test_minimality_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "minimality", "--count", "50", "--seed", "5")
        assert code == 0
        assert "0 failures" in out

    def test_bad_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nonsense"])
        assert exc.value.code == 2

    def test_bounds_reports_measured_maxima(self, capsys):
        # Read operands stay within 803/1126 bits for decimal exponents
        # >= -323 and within bits(5**-point)+53 resp. bits(10**-point)+53
        # below that; the full input domain reaches point -340, where the
        # maxima are 843/1183 bits.
        code, out, _ = run(capsys, "verify", "bounds")
        assert code == 0
        assert "max pow5 bits: 843" in out
        assert "max pow10 bits: 1183" in out
        assert "max read divisions: 2" in out
        assert "max write divisions: 3" in out
        assert "bounds: ok" in out


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

    def test_scale_float_mode(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys,
            "bench", "--count", "10", "--exp-low", "0", "--exp-high", "1",
            "--seed", "3", "--csv", str(path), "--scale-float",
        )
        assert code == 0
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert all(row[5] == "true" for row in rows[1:])

    def test_fast_engine_label(self, capsys, tmp_path):
        path = tmp_path / "bench.csv"
        code, _, _ = run(
            capsys,
            "bench", "--count", "5", "--exp-low", "0", "--exp-high", "0",
            "--seed", "3", "--csv", str(path), "--fast",
        )
        assert code == 0
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert {row[1] for row in rows[1:]} == {"ezfloat-fast", "native"}

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

    def test_bad_range_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            "bench", "--count", "5", "--exp-low", "5", "--exp-high", "0",
            "--csv", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "exp-low" in err
