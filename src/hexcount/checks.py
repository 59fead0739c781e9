"""The registry of invariant checks behind ``hexcount verify`` and the acceptance tests.

Each check is one function of ``max_a`` that returns its ``CheckRecord``s
in a fixed order; ``SUITES`` names the checks each suite runs, in order.
To add a check, write one function here and list it in one ``SUITES``
entry: ``verify`` prints it and the acceptance tests can call it.

Checks reach the layers through module attributes (``pathcount.heatmap``,
``formulas.closed_central``, ``factorcheck.check_identity``), looked up at
call time, so a rebound layer function is what the check exercises.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from . import bruteforce, factorcheck, formulas, pathcount
from .factorcheck import CheckRecord, RowIdentity
from .formulas import AsymptoticInput, Method
from .geometry import HexDims, ParityClass, almost_central_pos, central_pos


def _cube(n: int) -> List[HexDims]:
    return [HexDims(a, b, c) for a in range(1, n + 1) for b in range(1, n + 1) for c in range(1, n + 1)]


def _sides(dims: HexDims) -> Dict[str, str]:
    return {"a": str(dims.a), "b": str(dims.b), "c": str(dims.c)}


def oracle_total(max_a: int) -> List[CheckRecord]:
    """Enumerated path families equal the box-product total (sides <= 3, plus four skew boxes)."""
    extra = [HexDims(1, 2, 3), HexDims(2, 1, 4), HexDims(1, 4, 2), HexDims(4, 1, 1)]
    records = []
    for dims in _cube(min(3, max_a)) + extra:
        enumerated, total = bruteforce.enumerate_families(dims), formulas.macmahon_total(dims)
        records.append(CheckRecord("ORACLE_TOTAL", _sides(dims), enumerated == total, str(enumerated - total)))
    return records


def oracle_box(max_a: int) -> List[CheckRecord]:
    """Oracle, heatmap, per-cell determinant and triple sum agree on every cell (sides <= 3)."""
    records = []
    for dims in _cube(min(3, max_a)):
        grid = pathcount.heatmap(dims)
        bad = sum(
            not expected == grid.counts[pos] == pathcount.count_fixed(dims, pos) == formulas.triple_sum_count(dims, pos)
            for pos, expected in bruteforce.oracle_occupation(dims).items()
        )
        records.append(CheckRecord("ORACLE_BOX", _sides(dims), bad == 0, str(bad)))
    return records


def sum_rule(max_a: int) -> List[CheckRecord]:
    """The heatmap sums to a*b*total (sides <= 5)."""
    records = []
    for dims in _cube(min(5, max_a)):
        lhs = sum(pathcount.heatmap(dims).counts.values())
        rhs = dims.a * dims.b * formulas.macmahon_total(dims)
        records.append(CheckRecord("SUM_RULE", _sides(dims), lhs == rhs, str(lhs - rhs)))
    return records


def routes(max_a: int) -> List[CheckRecord]:
    """Closed form, determinant and triple sum agree at the distinguished position (sides <= max_a)."""
    records = []
    for dims in _cube(max_a):
        if dims.parity_class is ParityClass.CENTRAL:
            name, pos, closed = "ROUTES_CENTRAL", central_pos(dims), formulas.closed_central(dims)
        elif dims.parity_class is ParityClass.ALMOST_CENTRAL:
            name, pos = "ROUTES_ALMOST_CENTRAL", almost_central_pos(dims)
            closed = formulas.closed_almost_central(dims)
        else:
            continue
        det = pathcount.count_fixed(dims, pos)
        triple = formulas.triple_sum_count(dims, pos)
        records.append(CheckRecord(name, _sides(dims), closed == det == triple, f"({closed - det},{triple - det})"))
    return records


def spots(max_a: int) -> List[CheckRecord]:
    """Closed-form probabilities 1/3 (1,1,2 central) and 3/10 (2,2,2 almost central), oracle-confirmed."""
    records = []
    for name, dims, locate, expected in (
        ("SPOT_CENTRAL", HexDims(1, 1, 2), central_pos, Fraction(1, 3)),
        ("SPOT_ALMOST_CENTRAL", HexDims(2, 2, 2), almost_central_pos, Fraction(3, 10)),
    ):
        pos = locate(dims)
        report = formulas.probability_report(dims, pos, Method.CLOSED_FORM)
        ok = report.probability == expected and bruteforce.oracle_count_fixed(dims, pos) == report.count
        records.append(CheckRecord(name, _sides(dims), ok, "0" if ok else "1"))
    return records


def arcsin_symmetric(max_a: int) -> List[CheckRecord]:
    """The arcsine law gives 1/3 at the symmetric point, within 1e-12."""
    deviation = abs(formulas.arcsin_probability(AsymptoticInput(1, 1, 1)) - 1 / 3)
    return [CheckRecord("ARCSIN_SYMMETRIC", {"point": "(1,1,1)"}, deviation <= 1e-12, f"{deviation:.3e}")]


def det_factorizations(max_a: int) -> List[CheckRecord]:
    """Both reduced determinants equal their factored forms on full integer grids (orders 2..max_a)."""
    return [
        factorcheck.check_factorization(a, variant)
        for a in range(2, max_a + 1)
        for variant in (ParityClass.CENTRAL, ParityClass.ALMOST_CENTRAL)
    ]


def row_identities(max_a: int) -> List[CheckRecord]:
    """Every row-combination identity at every admissible k holds at three points (a = 2..max_a)."""
    return [
        factorcheck.check_identity(identity, a, k)
        for identity in RowIdentity
        for a in range(2, max_a + 1)
        for k in factorcheck.admissible_k(identity, a)
    ]


SUITES: Dict[str, Tuple[Callable[[int], List[CheckRecord]], ...]] = {
    "core": (oracle_total, oracle_box, sum_rule, routes, spots, arcsin_symmetric),
    "detfactor": (det_factorizations, row_identities),
}
