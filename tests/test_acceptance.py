"""Acceptance gate: the ten headline claims, each printing one PASS/FAIL line.

Criteria 1-8 and the symmetric point of criterion 9 run the named checks
of ``hexcount.checks``, the registry ``hexcount verify`` prints, at the
sizes stated on each line; a criterion passes when every record it gets
back passes.  Every criterion is exact arithmetic unless a tolerance is
stated on the line itself.  Lines are written through pytest's capture
so they appear in the live test output.
"""

import random
import time

import pytest

from hexcount import checks
from hexcount.formulas import AsymptoticInput, convergence_experiment
from hexcount.geometry import ParityClass
from hexcount.pathcount import det_fraction_free


@pytest.fixture
def report(capsys):
    """Print one '[PRIMARY n] PASS|FAIL ...' line straight to the terminal."""

    def _report(number: int, passed: bool, description: str, started: float) -> None:
        verdict = "PASS" if passed else "FAIL"
        elapsed = time.perf_counter() - started
        with capsys.disabled():
            print(f"\n[PRIMARY {number}] {verdict} {description} ({elapsed:.2f}s)", flush=True)

    return _report


@pytest.fixture
def gate(report):
    """Report a criterion from its check records and fail on any failing record."""

    def _gate(number: int, records, description: str, started: float) -> None:
        failures = [record.line() for record in records if not record.passed]
        report(number, not failures, description, started)
        assert records and not failures, "\n".join(failures)

    return _gate


def box_cells(record) -> int:
    a, b, c = (int(record.params[side]) for side in "abc")
    return (a + b) * (a + c)


def test_criterion_01_macmahon_agreement(gate):
    started = time.perf_counter()
    records = checks.oracle_total(3)
    gate(1, records, f"oracle equals box-product total on {len(records)} hexagons, exact", started)


def test_criterion_02_four_route_agreement(gate):
    started = time.perf_counter()
    records = checks.oracle_box(3)
    cells = sum(box_cells(record) for record in records)
    gate(2, records, f"oracle, heatmap, determinant, and triple sum agree at {cells} positions, exact", started)


def test_criterion_03_closed_form_central(gate):
    started = time.perf_counter()
    records = [record for record in checks.routes(8) if record.identity == "ROUTES_CENTRAL"]
    gate(3, records, f"central closed form equals both routes on {len(records)} hexagons, exact", started)


def test_criterion_04_closed_form_almost_central(gate):
    started = time.perf_counter()
    records = [record for record in checks.routes(8) if record.identity == "ROUTES_ALMOST_CENTRAL"]
    gate(4, records, f"almost-central closed form equals both routes on {len(records)} hexagons, exact", started)


def test_criterion_05_spot_values(gate):
    started = time.perf_counter()
    gate(5, checks.spots(2), "spot probabilities 1/3 and 3/10, oracle-confirmed, exact", started)


def test_criterion_06_sum_rule(gate):
    started = time.perf_counter()
    records = checks.sum_rule(5)
    gate(6, records, f"box occupation mass equals a*b*total on {len(records)} hexagons, exact", started)


def test_criterion_07_determinant_factorizations(gate):
    started = time.perf_counter()
    records = checks.det_factorizations(6)
    gate(7, records, "determinant factorizations certified on full integer grids for orders 2..6, exact", started)


def test_criterion_08_row_combination_identities(gate):
    started = time.perf_counter()
    records = checks.row_identities(8)
    gate(8, records, f"{len(records)} row-combination identities hold at 3 evaluation points each, exact", started)


def test_criterion_09_asymptotic_law(report):
    started = time.perf_counter()
    ok = all(record.passed for record in checks.arcsin_symmetric(2))
    for case in (ParityClass.CENTRAL, ParityClass.ALMOST_CENTRAL):
        records = convergence_experiment(AsymptoticInput(1, 1, 1), case, [5, 11, 21, 41])
        deviations = [r.deviation for r in records]
        ok = (
            ok
            and all(x > y for x, y in zip(deviations, deviations[1:]))
            and deviations[-1] <= 0.05
        )
    report(
        9,
        ok,
        "arcsine law: symmetric point within 1e-12 of 1/3; deviations strictly decrease, final <= 0.05",
        started,
    )
    assert ok


def cofactor_det(matrix):
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * cofactor_det(minor)
    return total


def test_criterion_10_determinant_engine(report):
    started = time.perf_counter()
    rng = random.Random(271828)
    bad = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        matrix = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        if det_fraction_free(matrix) != cofactor_det(matrix):
            bad += 1
    report(10, bad == 0, "fraction-free determinant matches cofactor expansion on 200 random matrices, exact", started)
    assert bad == 0
