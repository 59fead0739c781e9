"""The check registry: suite layout and checks that read the layers at call time."""

import inspect
from pathlib import Path

from hexcount import checks, pathcount
from hexcount.checks import SUITES, CheckRecord

GOLDEN = Path(__file__).parent / "golden"


class TestSuites:
    def test_every_check_in_exactly_one_suite(self):
        listed = [check for suite in SUITES.values() for check in suite]
        public = [
            fn for name, fn in inspect.getmembers(checks, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == checks.__name__
        ]
        assert list(SUITES) == ["core", "detfactor"]
        assert len(listed) == len(set(listed))
        assert set(listed) == set(public)

    def test_detfactor_suite_all_pass(self):
        records = [record for check in SUITES["detfactor"] for record in check(4)]
        assert records
        assert all(r.passed for r in records)
        names = {r.identity for r in records}
        assert "DET_FACTOR_CENTRAL" in names
        assert "C_FACTOR" in names

    def test_row_identities_match_golden(self):
        # Every identity, both B_FACTOR_2 families and a skipped singular point.
        text = "".join(record.line() + "\n" for record in checks.row_identities(8))
        assert text == (GOLDEN / "row_identities_max8.txt").read_text(encoding="utf-8")


class TestFailures:
    def test_checks_read_layer_functions_at_call_time(self, monkeypatch):
        heatmap = pathcount.heatmap

        def shifted(dims):
            grid = heatmap(dims)
            first = next(iter(grid.counts))
            grid.counts[first] += 1
            return grid

        monkeypatch.setattr(pathcount, "heatmap", shifted)
        records = checks.sum_rule(2)
        assert records and not any(r.passed for r in records)
        assert {r.residual for r in records} == {"1"}


class TestCheckRecord:
    def test_line_format(self):
        record = CheckRecord("C_FACTOR", {"a": "3", "k": "2"}, True, "0")
        assert record.line() == "C_FACTOR a=3 k=2 PASS residual=0"
        failing = CheckRecord("X", {"a": "2"}, False, "1/2")
        assert failing.line() == "X a=2 FAIL residual=1/2"

    def test_json_shape(self):
        record = CheckRecord("C_FACTOR", {"a": "3"}, True, "0")
        assert record.to_json() == {
            "identity": "C_FACTOR",
            "params": {"a": "3"},
            "pass": True,
            "residual": "0",
        }
