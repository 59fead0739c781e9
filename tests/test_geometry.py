"""Hexagon dimensions, parity classes, endpoints, and path counting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexcount.geometry import (
    HexDims,
    ParityClass,
    PathPoint,
    RhombusPos,
    almost_central_pos,
    central_pos,
    check_position,
    endpoints,
    extra_pair,
    path_count,
)

dims_strategy = st.builds(
    HexDims, st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)
)


class TestHexDims:
    @pytest.mark.parametrize("bad", [(0, 1, 1), (1, -2, 1), (1, 1, 0)])
    def test_nonpositive_side_rejected(self, bad):
        with pytest.raises(ValueError):
            HexDims(*bad)

    def test_non_integer_side_rejected(self):
        with pytest.raises(ValueError):
            HexDims(1.5, 1, 1)

    @pytest.mark.parametrize("sides", [(True, 2, 2), (2, True, 2), (2, 2, True)])
    def test_bool_side_rejected(self, sides):
        with pytest.raises(ValueError):
            HexDims(*sides)

    @pytest.mark.parametrize(
        "sides,expected",
        [
            ((1, 1, 2), ParityClass.CENTRAL),
            ((2, 2, 1), ParityClass.CENTRAL),
            ((1, 1, 1), ParityClass.ALMOST_CENTRAL),
            ((2, 2, 2), ParityClass.ALMOST_CENTRAL),
            ((1, 2, 1), ParityClass.OTHER),
            ((2, 1, 1), ParityClass.OTHER),
            ((1, 2, 2), ParityClass.OTHER),
        ],
    )
    def test_parity_class(self, sides, expected):
        assert HexDims(*sides).parity_class is expected

    @given(dims_strategy)
    def test_positions_cover_box_in_row_major_order(self, dims):
        listed = list(dims.positions())
        assert len(listed) == (dims.a + dims.b) * (dims.a + dims.c)
        assert listed[0] == RhombusPos(0, 0)
        assert listed[-1] == RhombusPos(dims.a + dims.b - 1, dims.a + dims.c - 1)
        # y outer ascending, x inner ascending
        assert listed == sorted(listed, key=lambda p: (p.y, p.x))
        assert all(dims.contains(p) for p in listed)

    def test_contains_boundary(self):
        dims = HexDims(2, 3, 4)
        assert dims.contains(RhombusPos(0, 0))
        assert dims.contains(RhombusPos(4, 5))
        assert not dims.contains(RhombusPos(5, 0))
        assert not dims.contains(RhombusPos(0, 6))
        assert not dims.contains(RhombusPos(-1, 0))


class TestCheckPosition:
    def test_inside_passes(self):
        check_position(HexDims(1, 1, 1), RhombusPos(1, 1))

    def test_outside_raises_with_bounds(self):
        with pytest.raises(ValueError, match="outside the admissible box"):
            check_position(HexDims(1, 1, 1), RhombusPos(2, 0))

    def test_position_must_be_integral(self):
        with pytest.raises(ValueError):
            RhombusPos(1.5, 0)

    @pytest.mark.parametrize("pos", [(True, 0), (0, False)])
    def test_bool_position_rejected(self, pos):
        with pytest.raises(ValueError):
            RhombusPos(*pos)


class TestEndpoints:
    def test_small_case(self):
        starts, ends = endpoints(HexDims(2, 3, 4))
        assert starts == [PathPoint(0, 4), PathPoint(1, 5)]
        assert ends == [PathPoint(3, 0), PathPoint(4, 1)]

    @given(dims_strategy)
    def test_every_pair_is_reachable(self, dims):
        starts, ends = endpoints(dims)
        assert len(starts) == len(ends) == dims.a
        # path i uses exactly b RIGHT and c DOWN steps
        for start, end in zip(starts, ends):
            assert end.col - start.col == dims.b
            assert start.row - end.row == dims.c

    def test_extra_pair_forces_one_right_step(self):
        start, end = extra_pair(RhombusPos(3, 2))
        assert start == PathPoint(3, 2)
        assert end == PathPoint(2, 2)
        # the appended pair admits no path on its own (end is west of start)
        assert path_count(start, end) == 0


class TestPathCount:
    def test_known_values(self):
        assert path_count(PathPoint(0, 2), PathPoint(2, 0)) == 6
        assert path_count(PathPoint(0, 0), PathPoint(0, 0)) == 1
        assert path_count(PathPoint(0, 0), PathPoint(3, 0)) == 1

    def test_unreachable_is_zero(self):
        assert path_count(PathPoint(1, 0), PathPoint(0, 0)) == 0
        assert path_count(PathPoint(0, 0), PathPoint(0, 1)) == 0

    @given(st.integers(0, 8), st.integers(0, 8))
    def test_first_step_decomposition(self, dx, dy):
        # paths(start -> end) splits by whether the first step is RIGHT or DOWN
        start, end = PathPoint(0, dy), PathPoint(dx, 0)
        total = path_count(start, end)
        via_right = path_count(PathPoint(1, dy), end) if dx > 0 else 0
        via_down = path_count(PathPoint(0, dy - 1), end) if dy > 0 else 0
        if dx == 0 and dy == 0:
            assert total == 1
        else:
            assert total == via_right + via_down


class TestDistinguishedPositions:
    def test_central_values(self):
        assert central_pos(HexDims(1, 1, 2)) == RhombusPos(1, 1)
        assert central_pos(HexDims(2, 2, 1)) == RhombusPos(2, 1)
        assert central_pos(HexDims(3, 3, 2)) == RhombusPos(3, 2)

    def test_almost_central_values(self):
        assert almost_central_pos(HexDims(1, 1, 1)) == RhombusPos(1, 1)
        assert almost_central_pos(HexDims(2, 2, 2)) == RhombusPos(2, 2)
        assert almost_central_pos(HexDims(3, 3, 1)) == RhombusPos(3, 2)

    def test_wrong_parity_rejected(self):
        with pytest.raises(ValueError, match="no central rhombus"):
            central_pos(HexDims(2, 2, 2))
        with pytest.raises(ValueError, match="no almost-central rhombus"):
            almost_central_pos(HexDims(1, 1, 2))

    @given(dims_strategy)
    def test_distinguished_position_is_admissible(self, dims):
        parity = dims.parity_class
        if parity is ParityClass.CENTRAL:
            assert dims.contains(central_pos(dims))
        elif parity is ParityClass.ALMOST_CENTRAL:
            assert dims.contains(almost_central_pos(dims))
