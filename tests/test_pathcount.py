"""Determinant counting route: matrix construction, Bareiss, heatmaps."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexcount.bruteforce import oracle_count_fixed, oracle_occupation
from hexcount.formulas import macmahon_total
from hexcount.geometry import HexDims, RhombusPos
from hexcount.pathcount import (
    adjugate,
    build_lgv_matrix,
    count_fixed,
    det_fraction_free,
    heatmap,
)


def cofactor_det(matrix):
    """Reference determinant by first-row cofactor expansion."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * matrix[0][j] * cofactor_det(minor)
    return total


class TestBuildMatrix:
    def test_smallest_case(self):
        matrix = build_lgv_matrix(HexDims(1, 1, 1), RhombusPos(1, 1))
        assert matrix == [[2, 1], [1, 0]]

    def test_entries_are_path_counts_not_formal_binomials(self):
        # at (3, 1), position (3, 1): the appended start (3, 1) cannot reach
        # the first end (1, 0) by RIGHT/DOWN steps, so that entry must be 0
        matrix = build_lgv_matrix(HexDims(3, 1, 1), RhombusPos(3, 1))
        assert matrix[0][3] == 0
        assert -det_fraction_free(matrix) == 0
        assert oracle_count_fixed(HexDims(3, 1, 1), RhombusPos(3, 1)) == 0

    def test_order_is_a_plus_one(self):
        matrix = build_lgv_matrix(HexDims(3, 2, 2), RhombusPos(2, 2))
        assert len(matrix) == 4
        assert all(len(row) == 4 for row in matrix)

    def test_position_outside_box_rejected(self):
        with pytest.raises(ValueError, match="outside the admissible box"):
            build_lgv_matrix(HexDims(1, 1, 1), RhombusPos(0, 3))


class TestDetFractionFree:
    def test_known_values(self):
        assert det_fraction_free([[5]]) == 5
        assert det_fraction_free([[1, 2], [3, 4]]) == -2
        assert det_fraction_free([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24

    def test_singular(self):
        assert det_fraction_free([[1, 2], [2, 4]]) == 0
        assert det_fraction_free([[0, 0], [0, 0]]) == 0

    def test_pivoting_with_zero_leading_entry(self):
        assert det_fraction_free([[0, 1], [1, 0]]) == -1
        assert det_fraction_free([[0, 2, 1], [1, 0, 0], [0, 0, 3]]) == -6

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            det_fraction_free([[1, 2, 3], [4, 5, 6]])

    def test_non_integral_entry_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            det_fraction_free([[Fraction(1, 2)]])
        with pytest.raises(ValueError, match="integral"):
            det_fraction_free([[1, 2], [3, Fraction(7, 3)]])
        assert det_fraction_free([[Fraction(4, 2), 1], (0, 3)]) == 6

    def test_against_cofactor_expansion(self):
        rng = random.Random(20260819)
        for _ in range(60):
            n = rng.randint(1, 5)
            matrix = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
            assert det_fraction_free(matrix) == cofactor_det(matrix)

    @given(st.integers(1, 4), st.integers(0, 10**6))
    def test_transpose_invariance(self, n, seed):
        rng = random.Random(seed)
        matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        transpose = [list(row) for row in zip(*matrix)]
        assert det_fraction_free(matrix) == det_fraction_free(transpose)


def mat_mul(left, right):
    return [[sum(l * r for l, r in zip(row, col)) for col in zip(*right)] for row in left]


class TestAdjugate:
    def test_known_values(self):
        assert adjugate([[5]]) == (5, [[1]])
        assert adjugate([[1, 2], [3, 4]]) == (-2, [[4, -2], [-3, 1]])
        assert adjugate([[0, 1], [1, 0]]) == (-1, [[0, -1], [-1, 0]])

    def test_random_matrices_against_bareiss(self):
        rng = random.Random(20261018)
        checked = 0
        while checked < 100:
            n = rng.randint(1, 6)
            matrix = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n)]
            if checked % 3 == 0:
                matrix[0][0] = 0  # forces a row swap at the first pivot
            det = det_fraction_free(matrix)
            if det == 0:
                continue
            got_det, adj = adjugate(matrix)
            assert got_det == det
            identity = [[det * (i == j) for j in range(n)] for i in range(n)]
            assert mat_mul(matrix, adj) == identity
            assert mat_mul(adj, matrix) == identity
            checked += 1

    def test_input_is_not_modified(self):
        matrix = [[0, 2, 1], [1, 0, 0], [0, 0, 3]]
        adjugate(matrix)
        assert matrix == [[0, 2, 1], [1, 0, 0], [0, 0, 3]]

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="nonsingular"):
            adjugate([[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="nonsingular"):
            adjugate([[0, 0], [0, 0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            adjugate([[1, 2, 3], [4, 5, 6]])

    def test_non_integral_entry_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            adjugate([[1, 2], [3, Fraction(7, 3)]])


class TestCountFixed:
    @pytest.mark.parametrize(
        "sides,pos,expected",
        [
            ((1, 1, 1), (1, 1), 1),
            ((1, 1, 2), (1, 1), 1),
            ((2, 2, 2), (2, 2), 6),
            ((1, 1, 1), (0, 0), 0),
        ],
    )
    def test_known_values(self, sides, pos, expected):
        assert count_fixed(HexDims(*sides), RhombusPos(*pos)) == expected

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 2),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 4),
        st.integers(0, 4),
    )
    def test_matches_oracle(self, a, b, c, x, y):
        dims = HexDims(a, b, c)
        pos = RhombusPos(x % (a + b), y % (a + c))
        assert count_fixed(dims, pos) == oracle_count_fixed(dims, pos)

    def test_count_never_exceeds_total(self):
        dims = HexDims(3, 3, 3)
        total = macmahon_total(dims)
        for pos in dims.positions():
            assert 0 <= count_fixed(dims, pos) <= total


class TestHeatmap:
    def test_values_and_total(self):
        dims = HexDims(2, 2, 2)
        grid = heatmap(dims)
        assert grid.total == 20
        assert grid.counts[RhombusPos(2, 2)] == 6
        assert sum(grid.counts.values()) == dims.a * dims.b * grid.total

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    def test_central_symmetry(self, a, b, c):
        # The half-turn of the hexagon maps the step ending at (x, y) to the
        # one ending at (a+b-x, a+c-1-y); no step ends in column x = 0.
        counts = heatmap(HexDims(a, b, c)).counts
        for pos, count in counts.items():
            mirror = RhombusPos(a + b - pos.x, a + c - 1 - pos.y)
            assert count == (0 if pos.x == 0 else counts[mirror])

    def test_probability_is_exact(self):
        grid = heatmap(HexDims(2, 2, 2))
        assert Fraction(grid.counts[RhombusPos(2, 2)], grid.total) == Fraction(3, 10)

    @pytest.mark.parametrize(
        "sides",
        [(a, b, c) for a in range(1, 6) for b in range(1, 6) for c in range(1, 6)] + [(9, 4, 13), (6, 10, 10)],
    )
    def test_matches_count_fixed_and_macmahon_total(self, sides):
        dims = HexDims(*sides)
        grid = heatmap(dims)
        assert grid.total == macmahon_total(dims)
        assert list(grid.counts) == list(dims.positions())
        assert grid.counts == {pos: count_fixed(dims, pos) for pos in dims.positions()}

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
    def test_matches_count_fixed_and_oracle(self, a, b, c):
        dims = HexDims(a, b, c)
        counts = heatmap(dims).counts
        assert counts == {pos: count_fixed(dims, pos) for pos in dims.positions()} == oracle_occupation(dims)
