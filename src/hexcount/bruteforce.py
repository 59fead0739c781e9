"""Brute-force oracle: enumerate every non-intersecting path family.

This module is the trust anchor for the formula routes.  It knows nothing
about determinants or summation identities: it generates each path's
RIGHT/DOWN step sequences independently, keeps a family only if the
paths are pairwise vertex-disjoint, and counts.  Exhaustive enumeration
explodes quickly, so a static budget on the candidate-family count
a * binomial(b+c, b)**a guards every call.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .arith import binomial
from .geometry import HexDims, PathPoint, RhombusPos, check_position, endpoints

DEFAULT_BUDGET = 10**8

Path = Tuple[PathPoint, ...]
Family = Tuple[Path, ...]


def _check_budget(dims: HexDims, budget: int) -> None:
    candidates = dims.a * binomial(dims.b + dims.c, dims.b) ** dims.a
    if candidates > budget:
        raise ValueError(
            f"brute-force enumeration needs {candidates} candidate families for sides "
            f"({dims.a}, {dims.b}, {dims.c}), over the budget of {budget}"
        )


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


def enumerate_families(
    dims: HexDims,
    visitor: Optional[Callable[[Family], None]] = None,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Count non-intersecting families; optionally stream each one to a visitor."""
    _check_budget(dims, budget)
    starts, ends = endpoints(dims)
    options = [paths_between(starts[i], ends[i]) for i in range(dims.a)]
    point_sets = [[frozenset(p) for p in paths] for paths in options]

    count = 0
    chosen: List[Path] = []

    def extend(index: int, used: FrozenSet[PathPoint]) -> None:
        nonlocal count
        if index == dims.a:
            count += 1
            if visitor is not None:
                visitor(tuple(chosen))
            return
        for path, points in zip(options[index], point_sets[index]):
            if used & points:
                continue
            chosen.append(path)
            extend(index + 1, used | points)
            chosen.pop()

    extend(0, frozenset())
    return count


def _crossing_steps(family: Family) -> List[RhombusPos]:
    """Addresses (end points) of every RIGHT step in the family."""
    addresses = []
    for path in family:
        for before, after in zip(path, path[1:]):
            if after.col == before.col + 1:
                addresses.append(RhombusPos(after.col, after.row))
    return addresses


def oracle_count_fixed(dims: HexDims, pos: RhombusPos, budget: int = DEFAULT_BUDGET) -> int:
    """Families in which some path takes the RIGHT step (x-1, y) -> (x, y)."""
    check_position(dims, pos)
    return oracle_occupation(dims, budget)[pos]


def oracle_occupation(dims: HexDims, budget: int = DEFAULT_BUDGET) -> Dict[RhombusPos, int]:
    """Occupation count of every box position from one enumeration pass."""
    counts: Dict[RhombusPos, int] = {pos: 0 for pos in dims.positions()}

    def visit(family: Family) -> None:
        for address in _crossing_steps(family):
            counts[address] += 1

    enumerate_families(dims, visitor=visit, budget=budget)
    return counts
