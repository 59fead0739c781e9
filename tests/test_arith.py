"""Exact integer/rational arithmetic primitives."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexcount.arith import (
    as_integer,
    binomial,
    factorial,
    half,
    pochhammer,
)


class TestFactorial:
    def test_small_values(self):
        assert factorial(0) == 1
        assert factorial(1) == 1
        assert factorial(5) == 120

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            factorial(-1)

    def test_exact_at_large_argument(self):
        assert factorial(52) == math.factorial(52)
        assert factorial(52) % 10**12 != factorial(52)  # exceeds fixed width


class TestBinomial:
    def test_nonnegative_top(self):
        assert binomial(5, 2) == 10
        assert binomial(4, 0) == 1
        assert binomial(3, 5) == 0

    def test_negative_top_reflection(self):
        # (-n choose k) = (-1)^k * (n+k-1 choose k)
        assert binomial(-3, 2) == 6
        assert binomial(-1, 5) == -1
        assert binomial(-2, 3) == -4

    def test_negative_k_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(-5, -2) == 0

    @given(st.integers(-30, 30), st.integers(-5, 30))
    def test_pascal_rule(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_matches_math_comb(self, n, k):
        assert binomial(n, k) == math.comb(n, k)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(7, 0) == 1
        assert pochhammer(Fraction(-3, 2), 0) == 1

    def test_integer_rising(self):
        assert pochhammer(3, 4) == 3 * 4 * 5 * 6
        assert pochhammer(1, 5) == factorial(5)

    def test_rational_rising(self):
        assert pochhammer(Fraction(1, 2), 3) == Fraction(1 * 3 * 5, 8)

    def test_zero_factor(self):
        assert pochhammer(-2, 4) == 0
        assert pochhammer(0, 1) == 0

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(3, -1)

    @given(st.fractions(max_denominator=20), st.integers(0, 12))
    def test_recurrence(self, q, k):
        assert pochhammer(q, k + 1) == pochhammer(q, k) * (q + k)

    @given(st.integers(1, 30), st.integers(0, 10))
    def test_factorial_quotient(self, n, k):
        assert pochhammer(n, k) == Fraction(factorial(n + k - 1), factorial(n - 1))


class TestHalf:
    def test_integer_and_rational_arguments(self):
        assert half(3) == Fraction(3, 2)
        assert half(-4) == -2
        assert half(Fraction(1, 3)) == Fraction(1, 6)


class TestAsInteger:
    def test_passes_integers_through(self):
        assert as_integer(Fraction(12, 4), "test") == 3
        assert as_integer(7, "test") == 7

    def test_rejects_proper_fraction(self):
        with pytest.raises(ArithmeticError):
            as_integer(Fraction(1, 2), "test quantity")
