"""Polynomial matrices, factored determinants, and row-combination identities."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcount import checks, factorcheck
from hexcount.factorcheck import (
    IDENTITY_POINTS,
    CheckRecord,
    RowIdentity,
    SingularPoint,
    admissible_k,
    build_poly_matrix,
    check_factorization,
    check_identity,
    check_row_combination,
    degree_bound,
    det_rational,
    factored_det_almost_central,
    factored_det_central,
    grid_values,
    h_poly,
    p_poly,
)
from hexcount.geometry import ParityClass


def leibniz_det(matrix):
    """Reference determinant: the signed sum over all permutations."""
    n = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(matrix[i][perm[i]] for i in range(n))
    return total


class TestHPoly:
    def test_all_zero_parameters(self):
        assert h_poly(0, 0, 0, 0, 2, 2) == 1

    def test_reduction_to_quarter_product(self):
        # at a=2 center values the quartic collapses to b(c+1)(1+b+c)/4
        assert h_poly(2, 1, 2, 1, 2, 2) == 4
        b, c = Fraction(7, 2), Fraction(3)
        x, y = (2 + b) / 2, (2 + c - 1) / 2
        assert h_poly(b, c, x, y, 2, 2) == b * (c + 1) * (1 + b + c) / 4

    def test_forced_zero_pattern(self):
        # (b+i-j+1) = 0, (c-i+j) = 0, (y-i+2) = 0 kills every term
        assert h_poly(-1, 0, 5, 0, 2, 2) == 0

    def test_rational_arguments(self):
        value = h_poly(Fraction(1, 2), Fraction(1, 3), 1, 1, 2, 3)
        assert isinstance(value, Fraction)


class TestBuildPolyMatrix:
    def test_one_by_one_center(self):
        assert build_poly_matrix(2, ParityClass.CENTRAL, 2, 1) == [[Fraction(4)]]

    def test_factor_b_vanishes(self):
        assert build_poly_matrix(2, ParityClass.CENTRAL, 0, 1) == [[Fraction(0)]]

    def test_order_is_a_minus_one(self):
        matrix = build_poly_matrix(5, ParityClass.ALMOST_CENTRAL, 2, 3)
        assert len(matrix) == 4
        assert all(len(row) == 4 for row in matrix)

    def test_a_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_poly_matrix(1, ParityClass.CENTRAL, 1, 1)

    def test_other_parity_class_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            build_poly_matrix(3, ParityClass.OTHER, 1, 1)

    def test_hat_variant_det_matches_factored_form(self):
        matrix = build_poly_matrix(3, ParityClass.ALMOST_CENTRAL, 1, 1)
        assert det_rational(matrix) == factored_det_almost_central(3, 1, 1)


class TestDetRational:
    def test_known_values(self):
        assert det_rational([[Fraction(3)]]) == 3
        assert det_rational([[1, 2], [3, 4]]) == -2
        assert det_rational([]) == 1

    def test_pivot_swap(self):
        assert det_rational([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        assert det_rational([[1, 2], [2, 4]]) == 0

    def test_rational_entries(self):
        m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]]
        assert det_rational(m) == Fraction(1, 2) * Fraction(1, 5) - Fraction(1, 3) * Fraction(1, 4)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            det_rational([[Fraction(1, 2), 1], [3, 4, 5]])

    def test_against_leibniz_formula(self):
        rng = random.Random(20261017)
        for _ in range(200):
            n = rng.randint(1, 5)
            matrix = [
                [Fraction(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)
            ]
            assert det_rational(matrix) == leibniz_det(matrix)


class TestFactoredDeterminants:
    def test_even_small_values(self):
        assert factored_det_central(2, 2, 1) == 4
        assert factored_det_central(2, 0, 5) == 0

    def test_hat_vanishes_at_b_zero(self):
        # the (b/2)_{a/2} factor vanishes at b = 0
        assert factored_det_almost_central(2, 0, 2) == 0

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_matches_determinant_on_spots(self, a):
        for b, c in [(1, 2), (2, 2), (-3, 4), (Fraction(5, 2), 1)]:
            central = build_poly_matrix(a, ParityClass.CENTRAL, b, c)
            assert factored_det_central(a, b, c) == det_rational(central)
            hat = build_poly_matrix(a, ParityClass.ALMOST_CENTRAL, b, c)
            assert factored_det_almost_central(a, b, c) == det_rational(hat)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 4), st.integers(-6, 6), st.integers(-6, 6))
    def test_matches_determinant_on_random_grid_points(self, a, b, c):
        matrix = build_poly_matrix(a, ParityClass.CENTRAL, b, c)
        assert factored_det_central(a, b, c) == det_rational(matrix)


class TestPPoly:
    def test_base_case_is_one(self):
        assert p_poly(1, 0) == 1
        assert p_poly(1, Fraction(99, 7)) == 1

    def test_degree_one_values(self):
        assert p_poly(2, 3) == 3
        assert p_poly(2, 0) == 0

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            p_poly(0, 1)

    @given(st.integers(1, 6), st.fractions(max_denominator=8))
    def test_always_defined(self, n, c):
        p_poly(n, c)  # total on its domain: no exceptions


class TestRowCombinations:
    def test_c_factor_zero_vector(self):
        assert check_row_combination(RowIdentity.C_FACTOR, 3, 2, 5) == [Fraction(0)] * 2

    def test_b_factor_1_zero_vector(self):
        assert check_row_combination(RowIdentity.B_FACTOR_1, 4, 2, 3) == [Fraction(0)] * 3

    def test_b_factor_2_negated_row(self):
        # The combination includes row k+1 with weight 1, and that row is not
        # zero, so the identity says the other rows sum to its negative.
        assert check_row_combination(RowIdentity.B_FACTOR_2, 5, 1, 4) == [Fraction(0)] * 4
        matrix = build_poly_matrix(5, ParityClass.CENTRAL, b=-1, c=4)
        assert any(entry != 0 for entry in matrix[0])  # row k+1 = 2 is index 0

    def test_parity_violation_rejected(self):
        with pytest.raises(ValueError, match="C_FACTOR needs"):
            check_row_combination(RowIdentity.C_FACTOR, 3, 1, 5)
        with pytest.raises(ValueError, match="B_FACTOR_2 needs"):
            check_row_combination(RowIdentity.B_FACTOR_2, 4, 1, 3)

    def test_singular_point_reported(self):
        # B-type coefficient denominators vanish at special integer c
        with pytest.raises(SingularPoint):
            for c in range(-12, 0):
                check_row_combination(RowIdentity.B_FACTOR_1, 4, 0, c)

    def test_all_identities_at_all_admissible_k(self):
        free = Fraction(13, 2)
        for a in range(2, 7):
            for identity in RowIdentity:
                for k in admissible_k(identity, a):
                    zero = [Fraction(0)] * (a - 1)
                    assert check_row_combination(identity, a, k, free) == zero, (identity, a, k)


class TestAdmissibleK:
    def test_windows(self):
        assert admissible_k(RowIdentity.C_FACTOR, 4) == [1, 3]
        assert admissible_k(RowIdentity.C_FACTOR_HAT, 4) == [2]
        assert admissible_k(RowIdentity.B_FACTOR_1, 4) == [0, 2]
        assert admissible_k(RowIdentity.B_FACTOR_2, 5) == [1]
        assert admissible_k(RowIdentity.B_FACTOR_2, 4) == []

    def test_every_listed_k_is_accepted(self):
        for identity in RowIdentity:
            for a in range(2, 9):
                for k in admissible_k(identity, a):
                    check_row_combination(identity, a, k, Fraction(23, 3))


class TestSuite:
    def test_grid_exceeds_degree_bound(self):
        assert degree_bound(2) == 2
        assert degree_bound(6) == 20
        for a in range(2, 9):
            assert len(grid_values(a)) > degree_bound(a)

    def test_factorization_records_pass(self):
        for variant in (ParityClass.CENTRAL, ParityClass.ALMOST_CENTRAL):
            record = check_factorization(3, variant)
            assert record.passed
            assert record.params["a"] == "3"

    def test_identity_check_uses_enough_points(self):
        record = check_identity(RowIdentity.C_FACTOR, 3, 2)
        assert record.passed
        assert len(record.params["point"].strip("()").split(",")) >= 3

    def test_identity_check_insufficient_points(self, monkeypatch):
        monkeypatch.setattr(factorcheck, "IDENTITY_POINTS", (Fraction(5), Fraction(9)))
        record = check_identity(RowIdentity.C_FACTOR, 3, 2)
        assert not record.passed
        assert record.residual == "insufficient evaluation points"

    def test_identity_check_skips_singular_points(self, monkeypatch):
        # a singular leading point must be skipped, not crash the check
        monkeypatch.setattr(factorcheck, "IDENTITY_POINTS", (Fraction(-1),) + IDENTITY_POINTS)
        record = check_identity(RowIdentity.B_FACTOR_1, 4, 0)
        assert record.passed
        assert "-1" not in record.params["point"]

    def test_identity_check_rejects_inadmissible_k(self):
        with pytest.raises(ValueError, match="B_FACTOR_2 needs"):
            check_identity(RowIdentity.B_FACTOR_2, 4, 1)

    def test_broken_coefficients_fail(self, monkeypatch):
        # p_poly enters only the B-type coefficients: every B record fails
        # with the first nonzero residual entry, every C record still passes.
        p_poly_ = factorcheck.p_poly
        monkeypatch.setattr(factorcheck, "p_poly", lambda n, c: p_poly_(n, c) + 1)
        records = checks.row_identities(6)
        assert [r.line() for r in records if not r.passed] == [
            "B_FACTOR_1 a=4 k=0 point=(5,13/2,23/3) FAIL residual=2016",
            "B_FACTOR_1 a=5 k=1 point=(5,13/2,23/3) FAIL residual=8400",
            "B_FACTOR_1 a=6 k=0 point=(5,13/2,23/3) FAIL residual=672840",
            "B_FACTOR_1 a=6 k=2 point=(5,13/2,23/3) FAIL residual=26880",
            "B_FACTOR_2 a=5 k=1 point=(5,13/2,23/3) FAIL residual=-30240",
            "B_FACTOR_2 a=6 k=2 point=(5,13/2,23/3) FAIL residual=-120960",
            "B_FACTOR_1_HAT a=4 k=0 point=(5,13/2,23/3) FAIL residual=211680",
            "B_FACTOR_1_HAT a=5 k=1 point=(5,13/2,23/3) FAIL residual=907200",
            "B_FACTOR_1_HAT a=6 k=0 point=(5,13/2,23/3) FAIL residual=97968640",
            "B_FACTOR_1_HAT a=6 k=2 point=(5,13/2,23/3) FAIL residual=3024000",
            "B_FACTOR_2_HAT a=5 k=1 point=(5,13/2,23/3) FAIL residual=-30240",
            "B_FACTOR_2_HAT a=6 k=2 point=(5,13/2,23/3) FAIL residual=-120960",
        ]
        assert all(r.passed for r in records if r.identity.startswith("C_FACTOR"))


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
