"""Counting formulas: totals, triple sum, closed forms, asymptotics."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcount.arith import half, pochhammer
from hexcount.bruteforce import oracle_count_fixed
from hexcount.formulas import (
    AsymptoticInput,
    Method,
    almost_central_sum,
    arcsin_probability,
    central_sum,
    closed_almost_central,
    closed_central,
    convergence_experiment,
    macmahon_total,
    nearest_dims,
    probability_report,
    triple_sum_count,
)
from hexcount.geometry import (
    HexDims,
    ParityClass,
    RhombusPos,
    almost_central_pos,
    central_pos,
)
from hexcount.pathcount import count_fixed, heatmap

dims_strategy = st.builds(
    HexDims, st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)
)


def box_product(a, b, c):
    """MacMahon's product of (i+j+k-1)/(i+j+k-2) over the a x b x c box, factor by factor."""
    cells = [(i, j, k) for i in range(1, a + 1) for j in range(1, b + 1) for k in range(1, c + 1)]
    return Fraction(math.prod(i + j + k - 1 for i, j, k in cells), math.prod(i + j + k - 2 for i, j, k in cells))


def factorial_form(a, b, c):
    """The product over i = 1..a of (i+b+c-1)!(i-1)! / ((i+c-1)!(i+b-1)!), as one fraction."""
    f = math.factorial
    numerator = math.prod(f(i + b + c - 1) * f(i - 1) for i in range(1, a + 1))
    return Fraction(numerator, math.prod(f(i + c - 1) * f(i + b - 1) for i in range(1, a + 1)))


def central_sum_reference(a, b, c):
    """The central closed form's sum as half-integer rising factorials, a Fraction chain; s = a % 2 shifts c."""
    n, shift = (a - 1) // 2, a % 2
    acc = Fraction(0)
    for k in range(n + 1):
        acc += (
            pochhammer(half(c + 2 - shift), k)
            * pochhammer(half(1 + b + c), k)
            * pochhammer(half(c + 2 * k + 3 - shift), n - k)
            * pochhammer(half(b + c + 2 * k + 3), n - k)
            * pochhammer(half(1), n - k)
            / math.factorial(n - k)
        )
    return acc


def almost_central_sum_reference(a, b, c):
    """The almost-central closed form's sum as half-integer rising factorials, one arm per parity of a."""
    if a % 2 == 1:
        head = (a - 1) // 2
        acc = (
            pochhammer(half(c + 1), head)
            * pochhammer(half(b + c + 2), head)
            * pochhammer(half(1), head)
            / pochhammer(1, head)
        )
        for k in range(1, (a - 1) // 2 + 1):
            tail = (a - 2 * k - 1) // 2
            acc += (
                pochhammer(half(c + 2), k - 1)
                * pochhammer(half(b + c), k)
                * pochhammer(half(c + 2 * k + 1), (a - 2 * k + 1) // 2)
                * pochhammer(half(b + c + 2 * k + 2), tail)
                * pochhammer(half(1), tail)
                / pochhammer(1, tail)
            )
    else:
        acc = (
            pochhammer(half(c + 2), (a - 2) // 2)
            * pochhammer(half(b + c + 2), a // 2)
            * pochhammer(half(1), a // 2)
            / pochhammer(1, (a - 2) // 2)
        )
        for k in range(1, a // 2 + 1):
            tail = (a - 2 * k) // 2
            acc += (
                pochhammer(half(c + 1), k)
                * pochhammer(half(b + c), k)
                * pochhammer(half(c + 2 * k + 2), tail)
                * pochhammer(half(b + c + 2 * k + 2), tail)
                * pochhammer(half(1), tail)
                / pochhammer(1, tail)
            )
    return acc


class TestClosedFormSums:
    @pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
    def test_match_the_half_integer_references(self, rational):
        # every a <= 25, so both parities; integer points include the negative b, c of factorcheck's grid
        rng = random.Random(20261018 + rational)
        for a in range(1, 26):
            for _ in range(4):
                if rational:
                    b, c = (Fraction(rng.randint(-60, 60), rng.randint(2, 9)) for _ in range(2))
                else:
                    b, c = rng.randint(-20, 60), rng.randint(-20, 60)
                assert central_sum(a, b, c) == central_sum_reference(a, b, c), (a, b, c)
                assert almost_central_sum(a, b, c) == almost_central_sum_reference(a, b, c), (a, b, c)


class TestMacmahonTotal:
    @pytest.mark.parametrize(
        "sides,expected",
        [
            ((1, 1, 1), 2),
            ((2, 2, 2), 20),
            ((3, 3, 3), 980),
            ((2, 2, 1), 6),
            ((1, 2, 3), 10),
        ],
    )
    def test_known_values(self, sides, expected):
        assert macmahon_total(HexDims(*sides)) == expected

    @given(dims_strategy)
    def test_symmetric_in_all_sides(self, dims):
        reference = macmahon_total(dims)
        assert macmahon_total(HexDims(dims.b, dims.a, dims.c)) == reference
        assert macmahon_total(HexDims(dims.c, dims.b, dims.a)) == reference
        assert macmahon_total(HexDims(dims.a, dims.c, dims.b)) == reference

    @given(dims_strategy)
    def test_flat_box_is_binomial(self, dims):
        # one side of length 1 degenerates to a lattice-path count
        flat = HexDims(1, dims.b, dims.c)
        assert macmahon_total(flat) == math.comb(dims.b + dims.c, dims.b)

    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    def test_factorial_product(self, a, b, c):
        assert macmahon_total(HexDims(a, b, c)) == factorial_form(a, b, c)

    def test_box_product_on_every_permutation(self):
        # every ordering of every side triple <= 6, so each choice of smallest side is covered
        for sides in itertools.product(range(1, 7), repeat=3):
            assert macmahon_total(HexDims(*sides)) == box_product(*sides), sides

    @pytest.mark.parametrize("sides", [(3, 3, 3000), (3000, 3, 3), (100, 100, 100)])
    def test_large_sides_match_factorial_form(self, sides):
        # the reference loops over its first side, so it gets the shortest
        assert macmahon_total(HexDims(*sides)) == factorial_form(*sorted(sides))


class TestTripleSum:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 20),
        st.integers(0, 20),
    )
    def test_agrees_with_determinant_route(self, a, b, c, xseed, yseed):
        dims = HexDims(a, b, c)
        pos = RhombusPos(xseed % (a + b), yseed % (a + c))
        assert triple_sum_count(dims, pos) == count_fixed(dims, pos)

    def test_matches_heatmap_on_every_cell(self):
        for sides in [*itertools.product(range(1, 6), repeat=3), (9, 4, 13)]:
            dims = HexDims(*sides)
            counts = {pos: triple_sum_count(dims, pos) for pos in dims.positions()}
            assert counts == heatmap(dims).counts, sides

    def test_rejects_outside_box(self):
        with pytest.raises(ValueError, match="outside the admissible box"):
            triple_sum_count(HexDims(1, 1, 1), RhombusPos(0, 3))

    def test_bottom_row_counts(self):
        # y = 0 addresses the lowest row of the box; (1, 0) is reachable
        dims = HexDims(1, 2, 1)
        assert triple_sum_count(dims, RhombusPos(1, 0)) == 1
        assert triple_sum_count(dims, RhombusPos(0, 0)) == 0


class TestClosedForms:
    def test_central_spot(self):
        assert closed_central(HexDims(1, 1, 2)) == 1

    def test_almost_central_spot(self):
        assert closed_almost_central(HexDims(2, 2, 2)) == 6

    def test_wrong_parity_rejected(self):
        with pytest.raises(ValueError):
            closed_central(HexDims(1, 1, 1))
        with pytest.raises(ValueError):
            closed_almost_central(HexDims(1, 1, 2))

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
    def test_central_matches_determinant(self, a):
        for b in range(1, 7):
            for c in range(1, 7):
                dims = HexDims(a, b, c)
                if dims.parity_class is ParityClass.CENTRAL:
                    assert closed_central(dims) == count_fixed(dims, central_pos(dims))

    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5, 6])
    def test_almost_central_matches_determinant(self, a):
        for b in range(1, 7):
            for c in range(1, 7):
                dims = HexDims(a, b, c)
                if dims.parity_class is ParityClass.ALMOST_CENTRAL:
                    assert closed_almost_central(dims) == count_fixed(
                        dims, almost_central_pos(dims)
                    )


class TestProbabilityReport:
    def test_central_spot_value(self):
        dims = HexDims(1, 1, 2)
        report = probability_report(dims, central_pos(dims), Method.CLOSED_FORM)
        assert (report.count, report.total) == (1, 3)
        assert report.probability == Fraction(1, 3)
        assert report.method is Method.CLOSED_FORM

    def test_almost_central_spot_value(self):
        dims = HexDims(2, 2, 2)
        report = probability_report(dims, almost_central_pos(dims), Method.CLOSED_FORM)
        assert (report.count, report.total) == (6, 20)
        assert report.probability == Fraction(3, 10)

    @pytest.mark.parametrize("method", list(Method))
    def test_method_changes_provenance_only(self, method):
        dims = HexDims(2, 2, 2)
        report = probability_report(dims, almost_central_pos(dims), method)
        assert (report.count, report.total) == (6, 20)
        assert report.method is method

    def test_closed_form_off_center_rejected(self):
        with pytest.raises(ValueError, match="closed form only covers"):
            probability_report(HexDims(1, 1, 2), RhombusPos(0, 0), Method.CLOSED_FORM)

    def test_oracle_route_agrees(self):
        dims = HexDims(2, 1, 2)
        for pos in dims.positions():
            report = probability_report(dims, pos, Method.ORACLE)
            assert report.count == oracle_count_fixed(dims, pos)


class TestSumRule:
    @given(dims_strategy)
    @settings(max_examples=20, deadline=None)
    def test_occupation_mass(self, dims):
        lhs = sum(count_fixed(dims, pos) for pos in dims.positions())
        assert lhs == dims.a * dims.b * macmahon_total(dims)


class TestArcsinProbability:
    def test_symmetric_point(self):
        assert abs(arcsin_probability(AsymptoticInput(1, 1, 1)) - Fraction(1, 3)) <= 1e-12

    def test_extremes(self):
        # gamma -> 0 with alpha = beta pushes the probability to 1
        assert arcsin_probability(AsymptoticInput(1, 1, 0)) == 1.0
        # alpha -> 0 starves the central rhombus entirely
        assert arcsin_probability(AsymptoticInput(0, 1, 1)) == 0.0

    def test_scale_invariance(self):
        a = arcsin_probability(AsymptoticInput(1.0, 2.0, 3.0))
        b = arcsin_probability(AsymptoticInput(10.0, 20.0, 30.0))
        assert abs(a - b) <= 1e-15

    @pytest.mark.parametrize("scale", [1e308, 1e-200, 5e-324])
    def test_extreme_common_scale(self, scale):
        # the ratio ignores a common factor; neither overflow nor underflow may show
        assert abs(arcsin_probability(AsymptoticInput(scale, scale, scale)) - 1 / 3) <= 1e-15

    def test_wide_range_matches_exact_ratio(self):
        # the direct quotient overflows or underflows on each of these
        for values in [(1e-94, 3e229, 2e112), (1.6e-157, 2.7e-188, 1.4e-39), (1e308, 1e308, 1.5e308)]:
            alpha, beta, gamma = (Fraction(v) for v in values)
            ratio = float(alpha * beta / ((beta + gamma) * (alpha + gamma)))
            expected = (2 / math.pi) * math.asin(math.sqrt(ratio))
            assert math.isclose(arcsin_probability(AsymptoticInput(*values)), expected, rel_tol=1e-14)

    def test_ordinary_inputs_unchanged(self):
        # where the direct quotient stays in range it is the value returned, bit for bit
        rng = random.Random(314)
        for _ in range(1000):
            alpha, beta, gamma = (rng.uniform(0, 10) for _ in range(3))
            ratio = (alpha * beta) / ((beta + gamma) * (alpha + gamma))
            expected = (2 / math.pi) * math.asin(math.sqrt(ratio))
            assert arcsin_probability(AsymptoticInput(alpha, beta, gamma)) == expected

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            AsymptoticInput(-1, 1, 1)
        with pytest.raises(ValueError):
            AsymptoticInput(0, 0, 0)
        with pytest.raises(ValueError, match="degenerate"):
            arcsin_probability(AsymptoticInput(1, 0, 0))

    @pytest.mark.parametrize(
        "values", [(math.nan, 1, 1), (1, math.inf, 1), (1, 1, -math.inf), (math.inf, math.inf, math.inf)]
    )
    def test_non_finite_inputs_rejected(self, values):
        with pytest.raises(ValueError, match="finite"):
            AsymptoticInput(*values)


class TestNearestDims:
    def test_rounds_and_repairs_parity(self):
        inp = AsymptoticInput(1, 1, 1)
        assert nearest_dims(inp, 11, ParityClass.ALMOST_CENTRAL) == HexDims(11, 11, 11)
        # (11,11,11) is all-odd; the central class repairs c first
        assert nearest_dims(inp, 11, ParityClass.CENTRAL) == HexDims(11, 11, 10)

    def test_minimum_side_is_one(self):
        dims = nearest_dims(AsymptoticInput(0.01, 1, 1), 5, ParityClass.ALMOST_CENTRAL)
        assert dims == HexDims(1, 5, 5)

    def test_other_class_rejected(self):
        with pytest.raises(ValueError):
            nearest_dims(AsymptoticInput(1, 1, 1), 5, ParityClass.OTHER)

    def test_overflowing_proportion_rejected(self):
        with pytest.raises(ValueError, match=r"proportion alpha=1e\+308 times size 10 overflows"):
            nearest_dims(AsymptoticInput(1e308, 1, 1), 10, ParityClass.CENTRAL)

    def test_size_past_the_float_range_rejected(self):
        # a float times an int too large for a float raises OverflowError instead of giving inf
        with pytest.raises(ValueError, match=r"size 10{400} overflows a float"):
            nearest_dims(AsymptoticInput(1, 1, 1), 10**400, ParityClass.CENTRAL)


class TestConvergence:
    def test_deviation_shrinks_symmetric_central(self):
        records = convergence_experiment(
            AsymptoticInput(1, 1, 1), ParityClass.CENTRAL, [5, 11, 21]
        )
        assert [r.size for r in records] == [5, 11, 21]
        devs = [r.deviation for r in records]
        assert devs[0] > devs[1] > devs[2]
        for r in records:
            assert r.deviation == abs(float(r.exact) - r.asymptotic)

    def test_almost_central_case_uses_own_parity(self):
        records = convergence_experiment(
            AsymptoticInput(1, 1, 1), ParityClass.ALMOST_CENTRAL, [4, 8]
        )
        for r in records:
            assert r.dims.parity_class is ParityClass.ALMOST_CENTRAL

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError, match="sizes must be positive"):
            convergence_experiment(
                AsymptoticInput(1, 1, 1), ParityClass.CENTRAL, [0]
            )
