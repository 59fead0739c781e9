"""Command-line interface: formats, exit codes, determinism."""

import inspect
import json
import math
import sys
import textwrap
from fractions import Fraction

import pytest

from hexcount import factorcheck, formulas
from hexcount.cli import main
from hexcount.formulas import macmahon_total
from hexcount.geometry import HexDims, RhombusPos
from hexcount.pathcount import heatmap


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mutant(module, name, old, new):
    """``module.name`` recompiled from its source with the one occurrence of ``old`` replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[name]


class TestTotal:
    def test_smallest_hexagon(self, capsys):
        code, out, err = run(capsys, "total", "-a", "1", "-b", "1", "-c", "1")
        assert (code, out, err) == (0, "2\n", "")

    def test_plain_decimal_no_separators(self, capsys):
        code, out, _ = run(capsys, "total", "-a", "8", "-b", "8", "-c", "8")
        assert code == 0
        assert out.strip() == str(macmahon_total(HexDims(8, 8, 8)))
        assert "," not in out and "_" not in out

    def test_prints_past_the_int_to_str_digit_limit(self, capsys):
        # 4909 digits, over CPython's default limit of 4300; the limit is back in force afterwards
        f = math.factorial
        reference = math.prod(Fraction(f(i + 239) * f(i - 1), f(i + 119) ** 2) for i in range(1, 121))
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "total", "-a", "120", "-b", "120", "-c", "120")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        assert len(out.strip()) == 4909
        sys.set_int_max_str_digits(0)
        try:
            assert int(out) == reference
        finally:
            sys.set_int_max_str_digits(limit)

    def test_argument_parsing_keeps_the_digit_limit(self, capsys):
        code, out, err = run(capsys, "total", "-a", "1" * 5000, "-b", "1", "-c", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCount:
    def test_report_line(self, capsys):
        code, out, _ = run(capsys, "count", "-a", "2", "-b", "2", "-c", "2", "-x", "2", "-y", "2")
        assert code == 0
        assert out == "count=6 total=20 probability=3/10 (0.3) method=lgv\n"

    @pytest.mark.parametrize("method", ["lgv", "triple", "oracle"])
    def test_method_never_changes_the_numbers(self, capsys, method):
        code, out, _ = run(
            capsys,
            "count", "-a", "2", "-b", "1", "-c", "3", "-x", "1", "-y", "2",
            "--method", method,
        )
        assert code == 0
        prefix, _, tail = out.rpartition(" method=")
        assert tail.strip() == method
        assert prefix == "count=2 total=10 probability=1/5 (0.2)"

    def test_out_of_box_position_fails(self, capsys):
        code, out, err = run(capsys, "count", "-a", "1", "-b", "1", "-c", "1", "-x", "5", "-y", "0")
        assert code == 1
        assert out == ""
        assert "outside the admissible box" in err


class TestDistinguished:
    def test_central_spot(self, capsys):
        code, out, _ = run(capsys, "central", "-a", "1", "-b", "1", "-c", "2", "--method", "closed")
        assert code == 0
        assert out == "count=1 total=3 probability=1/3 (0.333333333333) method=closed\n"

    def test_almost_central_spot(self, capsys):
        code, out, _ = run(capsys, "almost-central", "-a", "2", "-b", "2", "-c", "2")
        assert code == 0
        assert out.startswith("count=6 total=20 probability=3/10")

    def test_wrong_parity_is_usage_error(self, capsys):
        code, out, err = run(capsys, "central", "-a", "2", "-b", "2", "-c", "2")
        assert code == 1
        assert out == ""
        assert "no central rhombus" in err


class TestHeatmap:
    def test_csv_golden(self, capsys):
        code, out, _ = run(capsys, "heatmap", "-a", "1", "-b", "2", "-c", "1")
        assert code == 0
        assert out == (
            "x,y,count,total,probability\n"
            "0,0,0,3,0/1\n"
            "1,0,1,3,1/3\n"
            "2,0,2,3,2/3\n"
            "0,1,0,3,0/1\n"
            "1,1,2,3,2/3\n"
            "2,1,1,3,1/3\n"
        )

    def test_csv_round_trips(self, capsys):
        dims = HexDims(2, 2, 2)
        code, out, _ = run(capsys, "heatmap", "-a", "2", "-b", "2", "-c", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,y,count,total,probability"
        grid = heatmap(dims)
        parsed = {}
        for line in lines[1:]:
            x, y, count, total, probability = line.split(",")
            pos = RhombusPos(int(x), int(y))
            parsed[pos] = int(count)
            assert int(total) == grid.total
            assert Fraction(probability) == Fraction(grid.counts[pos], grid.total)
        assert parsed == grid.counts

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "heatmap", "-a", "1", "-b", "1", "-c", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["a"] == 1 and payload["b"] == 1 and payload["c"] == 1
        assert payload["total"] == "2"
        assert isinstance(payload["total"], str)
        assert {"x": 1, "y": 1, "count": "1"} in payload["cells"]
        assert len(payload["cells"]) == 4

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "grid.csv"
        code, out, _ = run(capsys, "heatmap", "-a", "1", "-b", "1", "-c", "1", "-o", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x,y,count,total,probability\n")

    def test_byte_identical_reruns(self, capsys):
        first = run(capsys, "heatmap", "-a", "2", "-b", "3", "-c", "1")
        second = run(capsys, "heatmap", "-a", "2", "-b", "3", "-c", "1")
        assert first == second

    def test_unwritable_output_is_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "heatmap", "-a", "1", "-b", "1", "-c", "1", "-o", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err


class TestAsympt:
    def test_symmetric_value(self, capsys):
        code, out, _ = run(capsys, "asympt", "--alpha", "1", "--beta", "1", "--gamma", "1")
        assert code == 0
        assert out == "0.333333333333\n"

    @pytest.mark.parametrize("scale", ["1e308", "1e-200"])
    def test_extreme_common_scale(self, capsys, scale):
        code, out, err = run(capsys, "asympt", "--alpha", scale, "--beta", scale, "--gamma", scale)
        assert (code, out, err) == (0, "0.333333333333\n", "")

    def test_degenerate_rejected(self, capsys):
        code, _, err = run(capsys, "asympt", "--alpha", "1", "--beta", "0", "--gamma", "0")
        assert code == 1
        assert "degenerate" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_rejected(self, capsys, value):
        code, out, err = run(capsys, "asympt", f"--alpha={value}", "--beta", "1", "--gamma", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    def test_negative_zero_proportion_prints_zero(self, capsys):
        code, out, err = run(capsys, "asympt", "--alpha", "-0.0", "--beta", "1", "--gamma", "1")
        assert (code, out, err) == (0, "0\n", "")


class TestConverge:
    def test_table_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "converge", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--case", "almost-central", "--sizes", "1,2",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,a,b,c,exact,exact_decimal,asymptotic,deviation"
        assert lines[1].startswith("1,1,1,1,1/2,0.5,")
        assert lines[2].startswith("2,2,2,2,3/10,0.3,")

    @pytest.mark.parametrize("sizes", ["3,-1", "1,,3", "5,"])
    def test_bad_sizes_rejected(self, capsys, sizes):
        code, out, err = run(
            capsys,
            "converge", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--case", "central", "--sizes", sizes,
        )
        assert (code, out) == (1, "")
        assert "sizes" in err

    def test_negative_zero_proportion_gives_zero_limit(self, capsys):
        code, out, err = run(
            capsys,
            "converge", "--alpha", "-0.0", "--beta", "1", "--gamma", "1",
            "--case", "central", "--sizes", "3",
        )
        assert (code, err) == (0, "")
        assert out == "N,a,b,c,exact,exact_decimal,asymptotic,deviation\n3,1,3,2,2/5,0.4,0,0.4\n"

    def test_overflowing_proportion_rejected(self, capsys):
        code, out, err = run(
            capsys,
            "converge", "--alpha", "1e308", "--beta", "1", "--gamma", "1",
            "--case", "central", "--sizes", "10",
        )
        assert (code, out) == (1, "")
        assert err == "error: proportion alpha=1e+308 times size 10 overflows a float\n"

    def test_size_past_the_float_range_rejected(self, capsys):
        size = "1" + "0" * 400
        code, out, err = run(
            capsys,
            "converge", "--alpha", "1", "--beta", "1", "--gamma", "1",
            "--case", "central", "--sizes", size,
        )
        assert (code, out) == (1, "")
        assert err == f"error: size {size} overflows a float\n"


class TestVerify:
    def test_core_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "core", "--max-a", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert all(" PASS " in line or line.startswith("SUMMARY") for line in lines)
        assert lines[-1].startswith("SUMMARY suite=core")
        assert "failures=0" in lines[-1]

    def test_detfactor_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "detfactor", "--max-a", "3")
        assert code == 0
        assert "DET_FACTOR_CENTRAL a=2" in out
        assert "C_FACTOR " in out

    def test_json_records(self, capsys, tmp_path):
        target = tmp_path / "records.json"
        code, _, _ = run(
            capsys, "verify", "--suite", "detfactor", "--max-a", "2", "--json", str(target)
        )
        assert code == 0
        records = json.loads(target.read_text())
        assert records
        assert set(records[0]) == {"identity", "params", "pass", "residual"}
        assert all(r["pass"] for r in records)

    def test_unwritable_json_is_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "v.json"
        code, _, err = run(
            capsys, "verify", "--suite", "detfactor", "--max-a", "2", "--json", str(target)
        )
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err

    def test_max_a_below_two_rejected(self, capsys):
        code, _, err = run(capsys, "verify", "--max-a", "1")
        assert code == 1
        assert "--max-a" in err

    def test_any_failure_exits_two(self, capsys, monkeypatch):
        from hexcount import formulas

        closed_central = formulas.closed_central
        monkeypatch.setattr(formulas, "closed_central", lambda dims: closed_central(dims) + 1)
        code, out, _ = run(capsys, "verify", "--suite", "core", "--max-a", "3")
        assert code == 2
        failing = [line for line in out.splitlines() if " FAIL " in line]
        assert [line.split()[0] for line in failing] == ["ROUTES_CENTRAL"] * 6 + ["SPOT_CENTRAL"]
        assert failing[0] == "ROUTES_CENTRAL a=1 b=1 c=2 FAIL residual=(1,0)"
        assert out.splitlines()[-1] == "SUMMARY suite=core checks=103 failures=7"

    def test_broken_factorization_exits_two(self, capsys, monkeypatch):
        from hexcount import factorcheck

        factored = factorcheck.factored_det_central
        monkeypatch.setattr(factorcheck, "factored_det_central", lambda a, b, c: factored(a, b, c) + 1)
        code, out, _ = run(capsys, "verify", "--suite", "detfactor", "--max-a", "2")
        assert code == 2
        assert "DET_FACTOR_CENTRAL a=2 grid=-6..6 point=(-6,-6) FAIL residual=-1" in out
        assert "DET_FACTOR_ALMOST_CENTRAL a=2 grid=-6..6 PASS" in out
        assert out.splitlines()[-1] == "SUMMARY suite=detfactor checks=5 failures=1"

    def test_broken_triple_sum_weight_exits_two(self, capsys, monkeypatch):
        # (b+c+s)_{a-s} one factor too long in every weight of the integer triple sum
        broken = mutant(formulas, "triple_sum_count", "range(b + c + s, b + c + a)", "range(b + c + s, b + c + a + 1)")
        monkeypatch.setattr(formulas, "triple_sum_count", broken)
        code, out, _ = run(capsys, "verify", "--suite", "core", "--max-a", "3")
        assert code == 2
        failing = [line for line in out.splitlines() if " FAIL " in line]
        assert failing[0] == "ORACLE_BOX a=1 b=1 c=1 FAIL residual=2"
        assert {line.split()[0] for line in failing} == {"ORACLE_BOX", "ROUTES_CENTRAL", "ROUTES_ALMOST_CENTRAL"}

    def test_integrality_error_is_one_fail_record(self, capsys, monkeypatch, tmp_path):
        # C(m, s-1) for C(m-1, s-1) makes the triple sum's final division inexact
        broken = mutant(formulas, "triple_sum_count", "binomial(m - 1, s - 1)", "binomial(m, s - 1)")
        monkeypatch.setattr(formulas, "triple_sum_count", broken)
        target = tmp_path / "records.json"
        code, out, err = run(capsys, "verify", "--suite", "core", "--max-a", "3", "--json", str(target))
        assert (code, err) == (2, "")
        lines = out.splitlines()
        assert [line for line in lines if " FAIL " in line] == [
            "ORACLE_BOX max_a=3 FAIL residual=triple_sum_count at (1, 0): expected an integer",
            "ROUTES max_a=3 FAIL residual=triple_sum_count at (2, 2): expected an integer",
        ]
        # the checks that never call the triple sum still run and pass
        names = [line.split()[0] for line in lines]
        assert (names.count("ORACLE_TOTAL"), names.count("SUM_RULE"), names.count("ARCSIN_SYMMETRIC")) == (31, 27, 1)
        assert lines[-1] == "SUMMARY suite=core checks=63 failures=2"
        records = json.loads(target.read_text())
        assert [r["identity"] for r in records if not r["pass"]] == ["ORACLE_BOX", "ROUTES"]

    def test_domain_error_is_one_fail_record(self, capsys, monkeypatch):
        # p_poly one step too low reaches n = 0, which p_poly rejects with a ValueError
        broken = mutant(factorcheck, "_b_factor_coeffs", "p_poly(i - k - 2,", "p_poly(i - k - 3,")
        monkeypatch.setattr(factorcheck, "_b_factor_coeffs", broken)
        code, out, err = run(capsys, "verify", "--suite", "detfactor", "--max-a", "5")
        assert (code, err) == (2, "")
        lines = out.splitlines()
        assert len(lines) == 10
        assert all(line.startswith("DET_FACTOR_") and " PASS " in line for line in lines[:8])
        assert lines[8:] == [
            "ROW_IDENTITIES max_a=5 FAIL residual=p_poly is defined for n >= 1, got 0",
            "SUMMARY suite=detfactor checks=9 failures=1",
        ]

    def test_broken_4h_term_exits_two(self, capsys, monkeypatch):
        # the sign of the second of the four terms of 4H flipped
        broken = mutant(factorcheck, "_h4", "        - (c - i + j)", "        + (c - i + j)")
        monkeypatch.setattr(factorcheck, "_h4", broken)
        code, out, _ = run(capsys, "verify", "--suite", "detfactor", "--max-a", "2")
        assert code == 2
        assert "DET_FACTOR_CENTRAL a=2 grid=-6..6 point=(-6,-6) FAIL residual=540" in out
        assert "DET_FACTOR_ALMOST_CENTRAL a=2 grid=-6..6 point=(-6,-6) FAIL residual=540" in out


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "count", "-a", "1", "-b", "1", "-c", "1")
        assert code == 1
        assert err != ""

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "total", "-a", "1", "-b", "1", "-c", "1", "--frob")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "hexcount" in out

    def test_nonpositive_side(self, capsys):
        code, _, err = run(capsys, "total", "-a", "0", "-b", "1", "-c", "1")
        assert code == 1
        assert "side a" in err
