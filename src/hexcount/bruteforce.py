"""Brute-force oracle: enumerate every non-intersecting path family.

This module is the trust anchor for the formula routes.  It knows nothing
about determinants or summation identities: it generates each path's
RIGHT/DOWN step sequences independently, keeps a family only if the
paths are pairwise vertex-disjoint, and counts.  Exhaustive enumeration
explodes quickly, so one constant, ``BUDGET``, caps the candidate-family
count a * binomial(b+c, b)**a; ``families`` refuses a hexagon past it
before any work.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Tuple

from .arith import binomial
from .geometry import HexDims, PathPoint, RhombusPos, check_position, endpoints

BUDGET = 10**8

Path = Tuple[PathPoint, ...]
Family = Tuple[Path, ...]


def paths_between(start: PathPoint, end: PathPoint) -> List[Path]:
    """All monotone RIGHT/DOWN paths from start to end, as visited-point tuples."""
    dx = end.col - start.col
    dy = start.row - end.row
    if dx < 0 or dy < 0:
        return []
    paths: List[Path] = []
    # Choose which of the dx+dy steps are RIGHT; the rest are DOWN.
    for right_slots in combinations(range(dx + dy), dx):
        right_set = set(right_slots)
        col, row = start.col, start.row
        points = [PathPoint(col, row)]
        for step in range(dx + dy):
            if step in right_set:
                col += 1
            else:
                row -= 1
            points.append(PathPoint(col, row))
        paths.append(tuple(points))
    return paths


def family_is_disjoint(paths: Family) -> bool:
    """True when the paths are pairwise vertex-disjoint (order never matters)."""
    seen: set = set()
    for path in paths:
        points = set(path)
        if seen & points:
            return False
        seen |= points
    return True


def families(dims: HexDims) -> Iterator[Family]:
    """Every non-intersecting path family, one tuple of paths in start order at a time."""
    candidates = dims.a * binomial(dims.b + dims.c, dims.b) ** dims.a
    if candidates > BUDGET:
        raise ValueError(
            f"brute-force enumeration needs {candidates} candidate families for sides "
            f"({dims.a}, {dims.b}, {dims.c}), over the budget of {BUDGET}"
        )
    starts, ends = endpoints(dims)
    options = [[(path, frozenset(path)) for path in paths_between(s, e)] for s, e in zip(starts, ends)]

    def extend(index: int, used: FrozenSet[PathPoint], chosen: Family) -> Iterator[Family]:
        if index == dims.a:
            yield chosen
            return
        for path, points in options[index]:
            if not used & points:
                yield from extend(index + 1, used | points, chosen + (path,))

    yield from extend(0, frozenset(), ())


def enumerate_families(dims: HexDims) -> int:
    """Number of non-intersecting path families."""
    return sum(1 for _ in families(dims))


def oracle_count_fixed(dims: HexDims, pos: RhombusPos) -> int:
    """Families in which some path takes the RIGHT step (x-1, y) -> (x, y)."""
    check_position(dims, pos)
    return oracle_occupation(dims)[pos]


def oracle_occupation(dims: HexDims) -> Dict[RhombusPos, int]:
    """Occupation count of every box position (a RIGHT step's end point) from one enumeration pass."""
    counts: Dict[RhombusPos, int] = {pos: 0 for pos in dims.positions()}
    for family in families(dims):
        for path in family:
            for before, after in zip(path, path[1:]):
                if after.col == before.col + 1:
                    counts[RhombusPos(after.col, after.row)] += 1
    return counts
