"""Brute-force oracle: exhaustive path-family enumeration."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexcount import bruteforce
from hexcount.bruteforce import (
    enumerate_families,
    families,
    family_is_disjoint,
    oracle_count_fixed,
    oracle_occupation,
    paths_between,
)
from hexcount.geometry import HexDims, PathPoint, RhombusPos, endpoints


class TestPathsBetween:
    @given(st.integers(0, 5), st.integers(0, 5))
    def test_count_is_binomial(self, dx, dy):
        paths = paths_between(PathPoint(0, dy), PathPoint(dx, 0))
        assert len(paths) == math.comb(dx + dy, dx)
        assert len(set(paths)) == len(paths)

    def test_paths_are_monotone_point_sequences(self):
        for path in paths_between(PathPoint(1, 3), PathPoint(3, 1)):
            assert path[0] == PathPoint(1, 3)
            assert path[-1] == PathPoint(3, 1)
            for before, after in zip(path, path[1:]):
                step = (after.col - before.col, after.row - before.row)
                assert step in ((1, 0), (0, -1))

    def test_unreachable_is_empty(self):
        assert paths_between(PathPoint(2, 0), PathPoint(0, 0)) == []
        assert paths_between(PathPoint(0, 0), PathPoint(1, 2)) == []


class TestDisjointness:
    def test_detects_shared_vertex(self):
        p1 = (PathPoint(0, 1), PathPoint(1, 1))
        p2 = (PathPoint(1, 1), PathPoint(1, 0))
        assert not family_is_disjoint((p1, p2))

    def test_accepts_disjoint(self):
        p1 = (PathPoint(0, 1), PathPoint(1, 1))
        p2 = (PathPoint(2, 2), PathPoint(2, 1))
        assert family_is_disjoint((p1, p2))
        assert family_is_disjoint(())

    def test_order_never_matters(self):
        rng = random.Random(7)
        paths = [
            tuple(paths_between(s, e)[0])
            for s, e in zip(*endpoints(HexDims(3, 2, 2)))
        ]
        verdict = family_is_disjoint(tuple(paths))
        for _ in range(10):
            rng.shuffle(paths)
            assert family_is_disjoint(tuple(paths)) == verdict


class TestEnumerateFamilies:
    @pytest.mark.parametrize(
        "sides,expected", [((1, 1, 1), 2), ((2, 2, 2), 20), ((3, 3, 3), 980)]
    )
    def test_known_totals(self, sides, expected):
        assert enumerate_families(HexDims(*sides)) == expected

    def test_families_are_disjoint(self):
        seen = list(families(HexDims(2, 2, 1)))
        assert len(seen) == enumerate_families(HexDims(2, 2, 1)) == 6
        assert len(set(seen)) == 6
        assert all(family_is_disjoint(f) for f in seen)
        assert all(len(f) == 2 for f in seen)

    def test_budget_exceeded_names_budget(self, monkeypatch):
        monkeypatch.setattr(bruteforce, "BUDGET", 100)
        with pytest.raises(ValueError, match="budget of 100"):
            enumerate_families(HexDims(3, 3, 3))

    def test_budget_is_static_precheck(self, monkeypatch):
        # the guard fires before any work, based on the candidate count
        candidates = 3 * math.comb(6, 3) ** 3
        monkeypatch.setattr(bruteforce, "BUDGET", candidates - 1)
        with pytest.raises(ValueError, match=str(candidates)):
            next(families(HexDims(3, 3, 3)))
        with pytest.raises(ValueError, match=str(candidates)):
            oracle_occupation(HexDims(3, 3, 3))
        monkeypatch.setattr(bruteforce, "BUDGET", candidates)
        assert enumerate_families(HexDims(3, 3, 3)) == 980


class TestOracleCounts:
    @pytest.mark.parametrize(
        "sides,pos,expected",
        [
            ((1, 1, 1), (1, 1), 1),
            ((1, 1, 2), (1, 1), 1),
            ((1, 1, 1), (0, 1), 0),
        ],
    )
    def test_known_fixed_counts(self, sides, pos, expected):
        assert oracle_count_fixed(HexDims(*sides), RhombusPos(*pos)) == expected

    def test_position_outside_box_rejected(self):
        with pytest.raises(ValueError, match="outside the admissible box"):
            oracle_count_fixed(HexDims(1, 1, 1), RhombusPos(3, 0))

    def test_occupation_matches_pointwise_counts(self):
        dims = HexDims(2, 2, 2)
        occupation = oracle_occupation(dims)
        assert set(occupation) == set(dims.positions())
        for pos in dims.positions():
            assert occupation[pos] == oracle_count_fixed(dims, pos)

    def test_occupation_total_is_right_step_mass(self):
        # every family contributes exactly a*b RIGHT steps
        dims = HexDims(2, 3, 1)
        total = enumerate_families(dims)
        assert sum(oracle_occupation(dims).values()) == dims.a * dims.b * total

    def test_mirror_symmetry_of_occupation(self):
        # reflecting the box through its center preserves occupation counts
        dims = HexDims(2, 2, 2)
        occupation = oracle_occupation(dims)
        for pos in dims.positions():
            mirrored = RhombusPos(dims.a + dims.b - 1 - pos.x + 1, dims.a + dims.c - 1 - pos.y)
            if dims.contains(mirrored):
                assert occupation[pos] == occupation[mirrored]
