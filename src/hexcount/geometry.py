"""Hexagon geometry, parity classes, and the lattice-path model.

A hexagon with side lengths a, b, c, a, b, c (all >= 1) drawn on the
triangular lattice is described in an oblique integer frame whose origin
sits where the first b-side and c-side meet.  Rhombus tilings of the
hexagon biject with families of a non-intersecting lattice paths; path i
runs from A_i = (i-1, c+i-1) down-right to E_i = (b+i-1, i-1) using unit
steps RIGHT (+1, 0) and DOWN (0, -1), so every path takes exactly b RIGHT
and c DOWN steps.

Horizontal rhombi of a tiling correspond one-to-one with the RIGHT steps
of the path family.  A horizontal rhombus is addressed by the lattice
point (x, y) its crossing RIGHT step ends at, i.e. the step
(x-1, y) -> (x, y).  Over all tilings these addresses range over the box

    0 <= x <= a+b-1,    0 <= y <= a+c-1,

and positions outside the box are rejected rather than counted as zero.
Fixing the rhombus at (x, y) is modelled by appending the start point
A = (x, y) and end point E = (x-1, y): the appended pair forces some path
of the family through the marked step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Tuple

from .arith import binomial


class ParityClass(enum.Enum):
    """Parity type of (a, b, c), deciding which distinguished position exists."""

    CENTRAL = "central"
    ALMOST_CENTRAL = "almost_central"
    OTHER = "other"


class PathPoint(NamedTuple):
    col: int
    row: int


@dataclass(frozen=True)
class HexDims:
    """Side lengths of an a,b,c,a,b,c hexagon; each an int >= 1 (bool is refused)."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            side = getattr(self, name)
            if type(side) is not int or side < 1:
                raise ValueError(f"side {name} must be an integer >= 1, got {side!r}")

    @property
    def parity_class(self) -> ParityClass:
        a, b, c = self.a, self.b, self.c
        if a % 2 == b % 2 and a % 2 != c % 2:
            return ParityClass.CENTRAL
        if a % 2 == b % 2 == c % 2:
            return ParityClass.ALMOST_CENTRAL
        return ParityClass.OTHER

    def contains(self, pos: "RhombusPos") -> bool:
        return 0 <= pos.x <= self.a + self.b - 1 and 0 <= pos.y <= self.a + self.c - 1

    def positions(self) -> Iterator["RhombusPos"]:
        """All admissible rhombus addresses, row-major: y outer, x inner, ascending."""
        for y in range(self.a + self.c):
            for x in range(self.a + self.b):
                yield RhombusPos(x, y)


@dataclass(frozen=True)
class RhombusPos:
    """Address of a horizontal rhombus: the end point (x, y) of its RIGHT step.

    Both coordinates must be ints; bool is refused.
    """

    x: int
    y: int

    def __post_init__(self) -> None:
        if type(self.x) is not int or type(self.y) is not int:
            raise ValueError(f"rhombus position must be integral, got ({self.x!r}, {self.y!r})")


def check_position(dims: HexDims, pos: RhombusPos) -> None:
    """Reject positions outside the admissible box."""
    if not dims.contains(pos):
        raise ValueError(
            f"position ({pos.x}, {pos.y}) outside the admissible box "
            f"0..{dims.a + dims.b - 1} x 0..{dims.a + dims.c - 1} for sides "
            f"({dims.a}, {dims.b}, {dims.c})"
        )


def endpoints(dims: HexDims) -> Tuple[List[PathPoint], List[PathPoint]]:
    """Start points A_i = (i-1, c+i-1) and end points E_i = (b+i-1, i-1), i = 1..a."""
    starts = [PathPoint(i - 1, dims.c + i - 1) for i in range(1, dims.a + 1)]
    ends = [PathPoint(dims.b + i - 1, i - 1) for i in range(1, dims.a + 1)]
    return starts, ends


def extra_pair(pos: RhombusPos) -> Tuple[PathPoint, PathPoint]:
    """Appended (start, end) pair forcing the RIGHT step (x-1, y) -> (x, y)."""
    return PathPoint(pos.x, pos.y), PathPoint(pos.x - 1, pos.y)


def path_count(start: PathPoint, end: PathPoint) -> int:
    """Number of RIGHT/DOWN lattice paths from start to end.

    Zero unless the end lies weakly south-east of the start; otherwise the
    usual binomial on the displacement.
    """
    dx = end.col - start.col
    dy = start.row - end.row
    if dx < 0 or dy < 0:
        return 0
    return binomial(dx + dy, dx)


def central_pos(dims: HexDims) -> RhombusPos:
    """The rhombus covering the hexagon center; exists only for the CENTRAL class."""
    if dims.parity_class is not ParityClass.CENTRAL:
        raise ValueError(
            f"no central rhombus exists for sides ({dims.a}, {dims.b}, {dims.c}): "
            "requires a == b and a != c (mod 2)"
        )
    return RhombusPos((dims.a + dims.b) // 2, (dims.a + dims.c - 1) // 2)


def almost_central_pos(dims: HexDims) -> RhombusPos:
    """The rhombus just above the center; exists only for the ALMOST_CENTRAL class."""
    if dims.parity_class is not ParityClass.ALMOST_CENTRAL:
        raise ValueError(
            f"no almost-central rhombus exists for sides ({dims.a}, {dims.b}, {dims.c}): "
            "requires a == b == c (mod 2)"
        )
    return RhombusPos((dims.a + dims.b) // 2, (dims.a + dims.c) // 2)
