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
the maps are exact over the whole supported range.  A float raises
ValueError; a bool passes as 0 or 1, as the table reads that serve most
calls take it, since rejecting it there would cost every call a check.

``_geometry`` is the package's one tile table: the column and anti-diagonal
of each index, grown by whole anti-diagonals and shared by ``tile_at``
(below ``TABLE_CAP``), the searches, the triangle rows and witness
unrolling.  The checker decodes with ``_tile_by_isqrt`` alone, so it shares
no table with what it judges.
"""

from __future__ import annotations

from math import isqrt

# Coordinates are capped so that tile_index fits comfortably in 64 bits
# (the index grows like (x+y)^2 / 2).
MAX_COORD_SUM = 1 << 31
MAX_INDEX = (MAX_COORD_SUM * (MAX_COORD_SUM + 1)) // 2 + MAX_COORD_SUM


def triangular(m: int) -> int:
    """m-th triangular number: 0, 1, 3, 6, 10, ..."""
    if not isinstance(m, int) or m < 0 or m > MAX_COORD_SUM:
        raise ValueError(f"triangular argument {m!r} is not an int in [0, {MAX_COORD_SUM}]")
    return m * (m + 1) // 2


def tile_index(x: int, y: int) -> int:
    """Diagonal index of tile (x, y): triangular(x+y) + x."""
    try:
        if x >= 0 <= y:
            return _STARTS[x + y] + x
    except (IndexError, TypeError):
        pass
    return _index_by_formula(x, y)


def _index_by_formula(x: int, y: int) -> int:
    if not (isinstance(x, int) and isinstance(y, int)) or x < 0 or y < 0:
        raise ValueError(f"tile coordinates must be non-negative ints, got ({x!r}, {y!r})")
    s = x + y
    if s > MAX_COORD_SUM:
        raise ValueError(f"tile ({x}, {y}) outside supported range (x+y <= {MAX_COORD_SUM})")
    return s * (s + 1) // 2 + x


def tile_at(k: int) -> tuple[int, int]:
    """Inverse of tile_index: the tile carrying diagonal index k."""
    xs, ss = _GEOMETRY
    try:
        if k < 0:
            return _tile_by_isqrt(k)
        x = xs[k]
    except (IndexError, TypeError):
        if not isinstance(k, int):
            raise ValueError(f"tile index must be an int, got {k!r}") from None
        if k >= TABLE_CAP:
            return _tile_by_isqrt(k)
        # doubling, as _geometry grows it, but never past the cap
        xs, ss = _grown(min(max(k + 1, 2 * len(xs)), TABLE_CAP))
        x = xs[k]
    return x, ss[k] - x


def _tile_by_isqrt(k: int) -> tuple[int, int]:
    """tile_at by arithmetic alone, with no table."""
    if k < 0:
        raise ValueError(f"tile index must be non-negative, got {k}")
    if k > MAX_INDEX:
        raise ValueError(f"tile index {k} outside supported range [0, {MAX_INDEX}]")
    # isqrt is exact, so no off-by-one correction
    m = (isqrt(8 * k + 1) - 1) // 2
    x = k - m * (m + 1) // 2
    return x, m - x


# _STARTS[s]: the index of tile (0, s), the first on anti-diagonal s.
_STARTS = [s * (s + 1) // 2 for s in range(1 << 12)]

# tile_at grows the shared table only for indices below this; larger ones
# are decoded by arithmetic.  The table costs two list slots per index: its
# ints are shared, one object per column and per anti-diagonal.
TABLE_CAP = 1 << 20

# _GEOMETRY[0][k], _GEOMETRY[1][k]: column and anti-diagonal of tile index k.
# It always ends on a whole anti-diagonal, and grows by rebinding a longer
# table, never in place, so a search in another thread never sees a
# half-grown one.
_GEOMETRY: tuple[list, list] = ([0], [0])


def _geometry(upto: int) -> tuple[list, list]:
    """The shared (columns, anti-diagonals) table, at least upto long.  It
    at least doubles when it grows, so growth costs O(1) per entry."""
    xs, ss = _GEOMETRY
    if len(xs) < upto:
        xs, ss = _grown(max(upto, 2 * len(xs)))
    return xs, ss


def _grown(target: int) -> tuple[list, list]:
    """Grow the shared table by whole anti-diagonals to at least target."""
    global _GEOMETRY
    xs, ss = _GEOMETRY
    s = ss[-1]
    columns = xs[-s - 1:]
    xs, ss = xs[:], ss[:]
    while len(xs) < target:
        s += 1
        columns.append(s)
        xs += columns
        ss += [s] * (s + 1)
    _GEOMETRY = (xs, ss)
    return xs, ss
