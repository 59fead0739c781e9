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
integers, every division is exact, and row pivoting only flips the sign.

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


def det_fraction_free(matrix: IntMatrix) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination.

    Swaps rows to find pivots (each swap flips the sign); a fully zero
    pivot column means the matrix is singular and the determinant is 0.
    Entries must be integral (int, or a Fraction with denominator 1).
    """
    n = len(matrix)
    if n == 0:
        return 1
    m = _integer_copy(matrix, "determinant")
    sign = 1
    prev_pivot = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss guarantees this division is exact.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev_pivot
            m[i][k] = 0
        prev_pivot = m[k][k]
    return sign * m[n - 1][n - 1]


def adjugate(matrix: IntMatrix) -> Tuple[int, IntMatrix]:
    """Exact determinant and adjugate of a nonsingular integer matrix.

    Fraction-free Gauss-Jordan elimination on [M | I]: every step updates
    all rows but the pivot row, and each division by the previous pivot is
    exact.  With the row swaps collected in P, the end state is
    [det(PM) I | det(PM) M^-1]; a swap flips the sign, as in
    ``det_fraction_free``.  Raises ``ValueError`` on a singular matrix and
    on the inputs ``det_fraction_free`` refuses.
    """
    n = len(matrix)
    m = _integer_copy(matrix, "adjugate")
    for i, row in enumerate(m):
        row.extend(int(i == j) for j in range(n))
    sign = 1
    prev_pivot = 1
    for k in range(n):
        if m[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot_row is None:
                raise ValueError("adjugate requires a nonsingular matrix")
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k]
        p = pivot[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                # Bareiss guarantees this division is exact.
                m[i] = [(e * p - f * q) // prev_pivot for e, q in zip(m[i], pivot)]
        prev_pivot = p
    det = sign * prev_pivot
    return det, [[sign * e for e in row[n:]] for row in m]


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
