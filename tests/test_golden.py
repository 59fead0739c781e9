"""Golden outputs: the standard output of every subcommand, held byte for byte.

Each file under ``tests/golden/`` is the standard output of
``python -m hexcount`` with the argument vector of the same name below.
The files record the program's output once; a change that alters any of
them changes what the tool prints.
"""

from pathlib import Path

import pytest

from hexcount.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "total": ["total", "-a", "3", "-b", "4", "-c", "5"],
    "count_lgv": ["count", "-a", "2", "-b", "3", "-c", "3", "-x", "2", "-y", "2", "--method", "lgv"],
    "count_triple": ["count", "-a", "2", "-b", "3", "-c", "3", "-x", "2", "-y", "2", "--method", "triple"],
    "count_oracle": ["count", "-a", "2", "-b", "3", "-c", "3", "-x", "2", "-y", "2", "--method", "oracle"],
    "central_closed": ["central", "-a", "3", "-b", "3", "-c", "2", "--method", "closed"],
    "central_lgv": ["central", "-a", "3", "-b", "3", "-c", "2", "--method", "lgv"],
    "central_triple": ["central", "-a", "3", "-b", "3", "-c", "2", "--method", "triple"],
    "central_oracle": ["central", "-a", "3", "-b", "3", "-c", "2", "--method", "oracle"],
    "central_even_a": ["central", "-a", "4", "-b", "6", "-c", "5"],
    "almost_central": ["almost-central", "-a", "3", "-b", "5", "-c", "3"],
    "almost_central_even_a": ["almost-central", "-a", "4", "-b", "2", "-c", "6"],
    "heatmap_csv": ["heatmap", "-a", "3", "-b", "2", "-c", "3", "--format", "csv"],
    "heatmap_json": ["heatmap", "-a", "3", "-b", "2", "-c", "3", "--format", "json"],
    "heatmap_skew_csv": ["heatmap", "-a", "5", "-b", "3", "-c", "7", "--format", "csv"],
    "asympt": ["asympt", "--alpha", "1", "--beta", "2", "--gamma", "3"],
    "converge_central": [
        "converge", "--alpha", "1", "--beta", "1", "--gamma", "1",
        "--case", "central", "--sizes", "3,5,9,15",
    ],
    "converge_almost_central": [
        "converge", "--alpha", "1", "--beta", "2", "--gamma", "1",
        "--case", "almost-central", "--sizes", "3,5,9,15",
    ],
    "verify_all": ["verify", "--suite", "all", "--max-a", "4"],
    "verify_core_max6": ["verify", "--suite", "core", "--max-a", "6"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    code = main(CASES[name])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
