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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

from .geometry import HexDims, RhombusPos, check_position, endpoints, extra_pair, path_count

IntMatrix = List[List[int]]


def build_lgv_matrix(dims: HexDims, pos: RhombusPos) -> IntMatrix:
    """Path-count matrix of order a+1 for the marked position."""
    check_position(dims, pos)
    starts, ends = endpoints(dims)
    extra_start, extra_end = extra_pair(pos)
    starts = starts + [extra_start]
    ends = ends + [extra_end]
    return [[path_count(starts[j], ends[i]) for j in range(dims.a + 1)] for i in range(dims.a + 1)]


def det_fraction_free(matrix: IntMatrix) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination.

    Swaps rows to find pivots (each swap flips the sign); a fully zero
    pivot column means the matrix is singular and the determinant is 0.
    Entries must be integral (int, or a Fraction with denominator 1).
    """
    n = len(matrix)
    if n == 0:
        return 1
    for row in matrix:
        if len(row) != n:
            raise ValueError("determinant requires a square matrix")
    m = [list(map(int, row)) for row in matrix]
    if m != [list(row) for row in matrix]:
        raise ValueError("determinant requires integral entries")
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

    def probability(self, pos: RhombusPos) -> Fraction:
        return Fraction(self.counts[pos], self.total)

    def rows(self) -> List[RhombusPos]:
        """Positions in row-major order: y outer ascending, x inner ascending."""
        return list(self.dims.positions())


def heatmap(dims: HexDims) -> HeatmapGrid:
    """Occupation count for every box position, plus the tiling total.

    Cells come in row-major order; unreachable positions go through the
    same determinant (yielding 0).
    """
    from .formulas import macmahon_total  # local import to avoid a cycle

    counts = {pos: count_fixed(dims, pos) for pos in dims.positions()}
    return HeatmapGrid(dims=dims, total=macmahon_total(dims), counts=counts)
