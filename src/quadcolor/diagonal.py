"""Diagonal enumeration of quadrant tiles.

Tiles are (x, y) pairs of non-negative ints.  ``tile_index`` walks the
quadrant anti-diagonal by anti-diagonal, starting at the origin::

    10
     6 11
     3  7 12
     1  4  8 13
     0  2  5  9 14

so ``tile_index(0, 0) == 0``, ``tile_index(0, 1) == 1``,
``tile_index(1, 0) == 2`` and so on.  ``tile_at`` is the exact inverse.
Everything here is integer arithmetic; no floating point is involved, so
the maps are exact over the whole supported range.

``_geometry`` is the package's one tile table: the column and anti-diagonal
of each index, read off ``tile_at`` once and shared by the searches, the
triangle rows and witness unrolling.  The checker decodes with ``tile_at``
alone, so it shares no table with what it judges.
"""

from __future__ import annotations

from math import isqrt

# Coordinates are capped so that tile_index fits comfortably in 64 bits
# (the index grows like (x+y)^2 / 2).
MAX_COORD_SUM = 1 << 31
MAX_INDEX = (MAX_COORD_SUM * (MAX_COORD_SUM + 1)) // 2 + MAX_COORD_SUM


def triangular(m: int) -> int:
    """m-th triangular number: 0, 1, 3, 6, 10, ..."""
    if m < 0 or m > MAX_COORD_SUM:
        raise ValueError(f"triangular argument {m} outside supported range [0, {MAX_COORD_SUM}]")
    return m * (m + 1) // 2


def tile_index(x: int, y: int) -> int:
    """Diagonal index of tile (x, y): triangular(x+y) + x."""
    if x < 0 or y < 0:
        raise ValueError(f"tile coordinates must be non-negative, got ({x}, {y})")
    s = x + y
    if s > MAX_COORD_SUM:
        raise ValueError(f"tile ({x}, {y}) outside supported range (x+y <= {MAX_COORD_SUM})")
    return s * (s + 1) // 2 + x


def diagonal_of(k: int) -> int:
    """Largest m with triangular(m) <= k, i.e. the anti-diagonal holding index k."""
    x, y = tile_at(k)
    return x + y


def tile_at(k: int) -> tuple[int, int]:
    """Inverse of tile_index: the tile carrying diagonal index k."""
    if k < 0:
        raise ValueError(f"tile index must be non-negative, got {k}")
    if k > MAX_INDEX:
        raise ValueError(f"tile index {k} outside supported range [0, {MAX_INDEX}]")
    # isqrt is exact, so no off-by-one correction.  No table: the checker
    # decodes each tile it judges here, and the codec test times 10^6 calls.
    m = (isqrt(8 * k + 1) - 1) // 2
    x = k - m * (m + 1) // 2
    return x, m - x


# _GEOMETRY[0][k], _GEOMETRY[1][k]: column and anti-diagonal of tile index k,
# shared by every walk over the tiles and read off tile_at.  It grows by
# rebinding a longer table, never in place, so a search in another thread
# never sees a half-grown one.
_GEOMETRY: tuple[list, list] = ([0], [0])


def _geometry(upto: int) -> tuple[list, list]:
    """The shared (columns, anti-diagonals) table, at least upto long."""
    global _GEOMETRY
    xs, ss = _GEOMETRY
    if len(xs) < upto:
        tiles = [tile_at(k) for k in range(max(upto, 2 * len(xs)))]
        xs, ss = [x for x, _ in tiles], [x + y for x, y in tiles]
        _GEOMETRY = (xs, ss)
    return xs, ss
