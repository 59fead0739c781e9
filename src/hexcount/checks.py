"""The registry of invariant checks behind ``hexcount verify`` and the acceptance tests.

Each check is one function of ``max_a`` that returns its ``CheckRecord``s
in a fixed order; ``SUITES`` names the checks each suite runs, in order.
To add a check, write one function here and list it in one ``SUITES``
entry: ``verify`` prints it and the acceptance tests can call it.  This
is the one module that builds records, and every public function in it is
a check; the helpers are private.

Checks reach the layers through module attributes (``pathcount.heatmap``,
``formulas.closed_central``, ``factorcheck.check_row_combination``), looked
up at call time, so a rebound layer function is what the check exercises.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from . import bruteforce, factorcheck, formulas, pathcount
from .factorcheck import RowIdentity
from .formulas import AsymptoticInput, Method
from .geometry import HexDims, ParityClass, almost_central_pos, central_pos


@dataclass(frozen=True)
class CheckRecord:
    """One verified claim: an identity name, its parameters, and the defect."""

    identity: str
    params: Dict[str, str]
    passed: bool
    residual: str

    def line(self) -> str:
        parts = [self.identity]
        parts.extend(f"{key}={value}" for key, value in self.params.items())
        parts.append("PASS" if self.passed else "FAIL")
        parts.append(f"residual={self.residual}")
        return " ".join(parts)

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "params": dict(self.params),
            "pass": self.passed,
            "residual": self.residual,
        }


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


def _degree_bound(a: int) -> int:
    """Upper bound for the determinant's degree in b (equally in c); the factored side's is not argued yet."""
    return (a + 2) * (a - 1) // 2


def _grid_values(a: int) -> range:
    """Integer evaluation grid per axis: covers -6..6 and exceeds the degree bound."""
    return range(-6, -6 + max(13, _degree_bound(a) + 2))


def _check_factorization(a: int, variant: ParityClass) -> CheckRecord:
    """Compare det with its factored closed form on the full integer grid for one a.

    4M is integral on the grid, since 4H is an integer polynomial, and det M = det(4M) / 4^(a-1).
    """
    rhs = factorcheck.factored_det_central if variant is ParityClass.CENTRAL else factorcheck.factored_det_almost_central
    values = _grid_values(a)
    name = f"DET_FACTOR_{variant.name}"
    params = {"a": str(a), "grid": f"{values.start}..{values[-1]}"}
    for b in values:
        for c in values:
            quadrupled = [[4 * v for v in row] for row in factorcheck.build_poly_matrix(a, variant, b, c)]
            defect = Fraction(pathcount.det_fraction_free(quadrupled), 4 ** (a - 1)) - rhs(a, b, c)
            if defect != 0:
                return CheckRecord(name, {**params, "point": f"({b},{c})"}, False, str(defect))
    return CheckRecord(name, params, True, "0")


def det_factorizations(max_a: int) -> List[CheckRecord]:
    """Both reduced determinants equal their factored forms on full integer grids (orders 2..max_a)."""
    return [
        _check_factorization(a, variant)
        for a in range(2, max_a + 1)
        for variant in (ParityClass.CENTRAL, ParityClass.ALMOST_CENTRAL)
    ]


# Non-integer points never make a coefficient denominator vanish (the poles
# sit at integers), so IDENTITY_POINTS_NEEDED of these always evaluate.
IDENTITY_POINTS: Tuple[Fraction, ...] = (
    Fraction(5),
    Fraction(13, 2),
    Fraction(23, 3),
    Fraction(9),
    Fraction(7, 2),
)
IDENTITY_POINTS_NEEDED = 3


def _check_identity(identity: RowIdentity, a: int, k: int) -> CheckRecord:
    """Evaluate one row combination at the first IDENTITY_POINTS_NEEDED non-singular IDENTITY_POINTS."""
    evaluated = []
    defect = None
    for point in IDENTITY_POINTS:
        if len(evaluated) == IDENTITY_POINTS_NEEDED:
            break
        try:
            residual = factorcheck.check_row_combination(identity, a, k, point)
        except factorcheck.SingularPoint:
            continue
        evaluated.append(point)
        if defect is None:
            defect = next((value for value in residual if value != 0), None)
    params = {
        "a": str(a),
        "k": str(k),
        "point": "(" + ",".join(str(p) for p in evaluated) + ")",
    }
    if len(evaluated) < IDENTITY_POINTS_NEEDED:
        return CheckRecord(identity.name, params, False, "insufficient evaluation points")
    if defect is not None:
        return CheckRecord(identity.name, params, False, str(defect))
    return CheckRecord(identity.name, params, True, "0")


def row_identities(max_a: int) -> List[CheckRecord]:
    """Every row-combination identity at every admissible k holds at three points (a = 2..max_a)."""
    return [
        _check_identity(identity, a, k)
        for identity in RowIdentity
        for a in range(2, max_a + 1)
        for k in factorcheck.admissible_k(identity, a)
    ]


SUITES: Dict[str, Tuple[Callable[[int], List[CheckRecord]], ...]] = {
    "core": (oracle_total, oracle_box, sum_rule, routes, spots, arcsin_symmetric),
    "detfactor": (det_factorizations, row_identities),
}


def _run_suites(names: Sequence[str], max_a: int) -> List[CheckRecord]:
    """The records of every check of the named suites, in order.

    A check whose layer trips its own integrality or domain test is one FAIL record: its inputs are
    internal and the caller has validated ``max_a``, so the error is the layer's defect, not the run's.
    """
    records = []
    for name in names:
        for check in SUITES[name]:
            try:
                records.extend(check(max_a))
            except (ArithmeticError, ValueError) as err:
                records.append(CheckRecord(check.__name__.upper(), {"max_a": str(max_a)}, False, str(err)))
    return records
