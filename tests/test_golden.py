"""Golden outputs: the standard output of every subcommand, held byte for byte.

Each file under ``tests/golden/`` is the standard output of
``python -m hexcount`` with the argument vector of the same name below.
The files record the program's output once; a change that alters any of
them changes what the tool prints.  ``row_identities_max8.txt`` is the one
golden read elsewhere, by ``test_checks``; no other file may sit unread.
"""

from pathlib import Path

import pytest

from hexcount.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "total": ["total", "-a", "3", "-b", "4", "-c", "5"],
    "total_large": ["total", "-a", "41", "-b", "20", "-c", "10"],
    "count_lgv": ["count", "-a", "2", "-b", "3", "-c", "3", "-x", "2", "-y", "2", "--method", "lgv"],
    "count_triple": ["count", "-a", "2", "-b", "3", "-c", "3", "-x", "2", "-y", "2", "--method", "triple"],
    "count_triple_large": [
        "count", "-a", "14", "-b", "14", "-c", "15", "-x", "14", "-y", "14", "--method", "triple",
    ],
    "count_oracle": ["count", "-a", "2", "-b", "3", "-c", "3", "-x", "2", "-y", "2", "--method", "oracle"],
    "count_oracle_large": ["count", "-a", "3", "-b", "3", "-c", "3", "-x", "3", "-y", "3", "--method", "oracle"],
    "central_closed": ["central", "-a", "3", "-b", "3", "-c", "2", "--method", "closed"],
    "central_closed_large": ["central", "-a", "13", "-b", "13", "-c", "14", "--method", "closed"],
    "central_closed_even_large": ["central", "-a", "14", "-b", "14", "-c", "13", "--method", "closed"],
    "central_lgv": ["central", "-a", "3", "-b", "3", "-c", "2", "--method", "lgv"],
    "central_triple": ["central", "-a", "3", "-b", "3", "-c", "2", "--method", "triple"],
    "central_oracle": ["central", "-a", "3", "-b", "3", "-c", "2", "--method", "oracle"],
    "central_even_a": ["central", "-a", "4", "-b", "6", "-c", "5"],
    "almost_central": ["almost-central", "-a", "3", "-b", "5", "-c", "3"],
    "almost_central_even_a": ["almost-central", "-a", "4", "-b", "2", "-c", "6"],
    "almost_central_odd_large": ["almost-central", "-a", "13", "-b", "15", "-c", "11", "--method", "closed"],
    "almost_central_even_large": ["almost-central", "-a", "14", "-b", "16", "-c", "12", "--method", "closed"],
    "heatmap_csv": ["heatmap", "-a", "3", "-b", "2", "-c", "3", "--format", "csv"],
    "heatmap_json": ["heatmap", "-a", "3", "-b", "2", "-c", "3", "--format", "json"],
    "heatmap_skew_csv": ["heatmap", "-a", "5", "-b", "3", "-c", "7", "--format", "csv"],
    "asympt": ["asympt", "--alpha", "1", "--beta", "2", "--gamma", "3"],
    "converge_central": [
        "converge", "--alpha", "1", "--beta", "1", "--gamma", "1",
        "--case", "central", "--sizes", "3,5,9,15",
    ],
    "converge_central_large": [
        "converge", "--alpha", "1", "--beta", "0.5", "--gamma", "0.5",
        "--case", "central", "--sizes", "5,11,21,31,41",
    ],
    "converge_almost_central": [
        "converge", "--alpha", "1", "--beta", "2", "--gamma", "1",
        "--case", "almost-central", "--sizes", "3,5,9,15",
    ],
    "converge_almost_central_large": [
        "converge", "--alpha", "1", "--beta", "0.5", "--gamma", "0.5",
        "--case", "almost-central", "--sizes", "5,11,21,31,41",
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


def test_every_golden_is_read():
    # a golden dropped from CASES would otherwise stop being compared without notice
    others = {"row_identities_max8.txt": Path(__file__).with_name("test_checks.py")}
    for name, reader in others.items():
        assert name in reader.read_text(encoding="utf-8")
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted([f"{name}.txt" for name in CASES] + list(others))
