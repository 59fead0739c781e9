"""Determinant route: count tilings through a fixed rhombus exactly.

The number of non-intersecting path families that use the marked RIGHT
step (x-1, y) -> (x, y) is, up to sign, the determinant of the
(a+1) x (a+1) matrix of point-to-point path counts between the extended
start/end sets: entry (i, j) counts paths from the j-th start to the i-th
end, where index a+1 addresses the appended pair A = (x, y), E = (x-1, y).
Only the identity-with-one-transposition permutations survive the
signed-family cancellation, and each of those carries sign -1, so the
fixed-rhombus count equals -det.

For 1 <= i, j <= a the entry is binomial(b+c, c-i+j); the border entries
are binomial(b-x+y, y-i+1) and binomial(c+x-y-1, x-j).  Those closed
forms are used with path-feasibility semantics (an infeasible
displacement counts 0 even where the falling-factorial binomial would
not vanish), which is exactly what building them as path counts gives.

Determinants are computed fraction-free (Bareiss): all intermediates are
integers, every division is exact, and a row swap negates the row it
brings up, so pivoting leaves the determinant as it is.

The heatmap needs the count at every box position at once.  Write the
bordered matrix as [[M, u], [v^T, 0]], where M is the a x a block (the same
for every position), u_i counts paths (x, y) -> E_i, v_j counts paths
A_j -> (x-1, y), and the corner is 0 because (x-1, y) lies west of
(x, y).  The Schur complement of M gives det = -v^T adj(M) u, so

    count(x, y) = v(x-1, y)^T z(x, y),    z(x, y) = adj(M) u(x, y).

Splitting a path by its first step gives u(x, y) = u(x+1, y) + u(x, y-1)
plus the unit vector e_i when (x, y) = E_i, and since adj(M) is linear the
same holds for z, with column i of adj(M) in place of e_i.  z vanishes
right of the box and below it, so one adjugate and a sweep of the box
(y ascending, x descending) give every count; det M, the total, comes
with the adjugate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .geometry import HexDims, PathPoint, RhombusPos, check_position, endpoints, extra_pair, path_count

IntMatrix = List[List[int]]


def build_lgv_matrix(dims: HexDims, pos: RhombusPos) -> IntMatrix:
    """Path-count matrix of order a+1 for the marked position."""
    check_position(dims, pos)
    starts, ends = endpoints(dims)
    extra_start, extra_end = extra_pair(pos)
    starts = starts + [extra_start]
    ends = ends + [extra_end]
    return [[path_count(starts[j], ends[i]) for j in range(dims.a + 1)] for i in range(dims.a + 1)]


def _integer_copy(matrix: IntMatrix, what: str) -> IntMatrix:
    """Row-by-row int copy of a square matrix with integral entries."""
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError(f"{what} requires a square matrix")
    m = [list(map(int, row)) for row in matrix]
    if m != [list(row) for row in matrix]:
        raise ValueError(f"{what} requires integral entries")
    return m


def _eliminate(m: IntMatrix, jordan: bool) -> int:
    """Fraction-free (Bareiss) elimination of the rows of m, in place: the determinant of its leading square.

    Step k pivots on column k.  A zero pivot is swapped for the first row
    below with a nonzero entry there, negated so the determinant keeps its
    sign; with no such row the square is singular and 0 comes back at once.
    The step updates the rows below the pivot (every other row if
    ``jordan``), and only in the columns right of it, since no later step
    reads a column at or left of its own pivot.  The last pivot is the
    determinant.
    """
    n = len(m)
    prev_pivot = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = [-e for e in m[pivot_row]], m[k]
        pivot = m[k]
        p = pivot[k]
        for i in range(n) if jordan else range(k + 1, n):
            if i != k:
                row = m[i]
                f = row[k]
                for j in range(k + 1, len(row)):
                    # Bareiss guarantees this division is exact.
                    row[j] = (row[j] * p - f * pivot[j]) // prev_pivot
        prev_pivot = p
    return prev_pivot


def det_fraction_free(matrix: IntMatrix) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination.

    A singular matrix gives 0, and the empty matrix 1.  Entries must be
    integral (int, or a Fraction with denominator 1).
    """
    return _eliminate(_integer_copy(matrix, "determinant"), jordan=False)


def adjugate(matrix: IntMatrix) -> Tuple[int, IntMatrix]:
    """Exact determinant and adjugate of a nonsingular integer matrix.

    Fraction-free Gauss-Jordan elimination on [M | I]: the negated row swaps
    keep the determinant, so the right block ends as det(M) M^-1 = adj(M).
    Raises ``ValueError`` on a singular matrix and on the inputs
    ``det_fraction_free`` refuses.
    """
    n = len(matrix)
    m = _integer_copy(matrix, "adjugate")
    for i, row in enumerate(m):
        row.extend(int(i == j) for j in range(n))
    det = _eliminate(m, jordan=True)
    if det == 0:
        raise ValueError("adjugate requires a nonsingular matrix")
    return det, [row[n:] for row in m]


def count_fixed(dims: HexDims, pos: RhombusPos) -> int:
    """Number of tilings whose horizontal rhombus at (x, y) is present."""
    count = -det_fraction_free(build_lgv_matrix(dims, pos))
    # The surviving permutations all carry the same sign, so -det counts families.
    if count < 0:
        raise ArithmeticError(f"negative count {count} at ({pos.x}, {pos.y}): implementation bug")
    return count


@dataclass(frozen=True)
class HeatmapGrid:
    """Exact occupation counts for every admissible position of one hexagon."""

    dims: HexDims
    total: int
    counts: Dict[RhombusPos, int]


def heatmap(dims: HexDims) -> HeatmapGrid:
    """Occupation count for every box position, plus the tiling total.

    Cells come in row-major order.  One adjugate of the a x a path matrix,
    then one sweep of the box that keeps z = adj(M) u (module docstring)
    for the current row and the row below it only.
    """
    width, height = dims.a + dims.b, dims.a + dims.c
    starts, ends = endpoints(dims)
    total, adj = adjugate([[path_count(start, end) for start in starts] for end in ends])
    sources = dict(zip(ends, zip(*adj)))  # column i of adj(M) enters at E_i
    zero = [0] * dims.a
    below = [zero] * width
    counts: Dict[RhombusPos, int] = {}
    for y in range(height):
        row = [zero] * width
        right = zero
        for x in range(width - 1, -1, -1):
            z = [r + d for r, d in zip(right, below[x])]
            source = sources.get((x, y))
            if source is not None:
                z = [t + s for t, s in zip(z, source)]
            row[x] = right = z
        for x in range(width):
            left = PathPoint(x - 1, y)
            counts[RhombusPos(x, y)] = sum(path_count(start, left) * t for start, t in zip(starts, row[x]))
        below = row
    return HeatmapGrid(dims=dims, total=total, counts=counts)
