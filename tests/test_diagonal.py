"""Diagonal pairing: hand values, bijection, neighbor index arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tile_strategy
from quadcolor import diagonal, tile_at, tile_index, triangular
from quadcolor.diagonal import MAX_COORD_SUM

# the 15 tiles of the worked counting figure, bottom-left corner of the grid
FIGURE = {
    (0, 0): 0, (1, 0): 2, (2, 0): 5, (3, 0): 9, (4, 0): 14,
    (0, 1): 1, (1, 1): 4, (2, 1): 8, (3, 1): 13,
    (0, 2): 3, (1, 2): 7, (2, 2): 12,
    (0, 3): 6, (1, 3): 11,
    (0, 4): 10,
}


def test_figure_values():
    for tile, index in FIGURE.items():
        assert tile_index(*tile) == index, tile
        assert tile_at(index) == tile, index


def test_first_diagonals_walk_down_right():
    # each anti-diagonal starts at (0, s) and steps toward (s, 0)
    assert [tile_at(k) for k in range(10)] == [
        (0, 0),
        (0, 1), (1, 0),
        (0, 2), (1, 1), (2, 0),
        (0, 3), (1, 2), (2, 1), (3, 0),
    ]


def test_triangular_prefix_sums():
    assert [triangular(m) for m in range(7)] == [0, 1, 3, 6, 10, 15, 21]


@given(tile_strategy())
@settings(max_examples=300)
def test_roundtrip_from_tile(tile):
    assert tile_at(tile_index(*tile)) == tile


@given(st.integers(0, 10**9))
@settings(max_examples=300)
def test_roundtrip_from_index(k):
    x, y = tile_at(k)
    assert tile_index(x, y) == k


@given(st.integers(1, 10**9))
def test_neighbor_offsets(k):
    """The left and below neighbors of index k sit at k-s-1 and k-s: the
    incremental checker leans on both being < k."""
    x, y = tile_at(k)
    s = x + y
    if x > 0:
        assert tile_index(x - 1, y) == k - s - 1 < k
    if y > 0:
        assert tile_index(x, y - 1) == k - s < k


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        tile_index(-1, 0)
    with pytest.raises(ValueError):
        tile_index(0, -1)
    with pytest.raises(ValueError):
        tile_at(-1)
    with pytest.raises(ValueError):
        tile_index(MAX_COORD_SUM, MAX_COORD_SUM)
    # ints only: a float is neither coerced nor passed through as a float,
    # on the table paths and past them
    for call, args in (
        (tile_index, (1.0, 0)), (tile_index, (0, 2.5)), (tile_index, (5000.0, 1)),
        (triangular, (2.5,)), (triangular, (2.0,)),
        (tile_at, (2.0,)), (tile_at, (float(1 << 30),)),
        # values that do not compare with 0 reach the same error
        (tile_at, ("3",)), (tile_at, (None,)), (tile_index, ("a", 0)),
        (tile_index, (0, None)),
    ):
        with pytest.raises(ValueError, match=r"\bints?\b"):
            call(*args)


def test_large_indices_stay_exact():
    # isqrt keeps the inverse exact far beyond float precision
    for k in (2**52, 2**53 + 1, 2**60, 2**61 - 3):
        x, y = tile_at(k)
        assert tile_index(x, y) == k


def test_table_agrees_with_isqrt_and_stops_at_the_cap(monkeypatch):
    # a fresh shared table and a small cap, both restored afterwards, so
    # other tests' growth does not move the sizes checked here
    cap = 1 << 12
    monkeypatch.setattr(diagonal, "_GEOMETRY", ([0], [0]))
    monkeypatch.setattr(diagonal, "TABLE_CAP", cap)
    # the table ends on a whole anti-diagonal and decodes exactly as the
    # arithmetic path, which the checker uses
    xs, ss = diagonal._geometry(1 << 10)
    assert xs[-1] == ss[-1]
    assert list(zip(xs, [s - x for x, s in zip(xs, ss)])) == [
        diagonal._tile_by_isqrt(k) for k in range(len(xs))
    ]
    # tile_at grows the table on demand below the cap, on both sides of
    # each power of two, and decodes by arithmetic above it
    for k in [k for e in range(14) for k in (2**e - 1, 2**e, 2**e + 1)]:
        assert tile_at(k) == diagonal._tile_by_isqrt(k), k
    size = len(diagonal._GEOMETRY[0])
    assert cap <= size <= cap + diagonal.isqrt(2 * cap) + 1
    assert tile_at(2 * cap) == diagonal._tile_by_isqrt(2 * cap)
    assert len(diagonal._GEOMETRY[0]) == size
    # the searches' _geometry still at least doubles the table past the cap
    xs, ss = diagonal._geometry(size + 1)
    assert len(xs) >= 2 * size and xs[-1] == ss[-1]
    assert tile_at(len(xs) - 1) == diagonal._tile_by_isqrt(len(xs) - 1)
