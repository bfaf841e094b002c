"""Membership checks for finite colorings.

A sequence of colors induces a partial coloring of the staircase triangle
via the diagonal order; it is accepted when the origin tile carries the
origin color and every adjacent pair of tiles *both inside the domain*
satisfies H (horizontal) or V (vertical).  Pairs with one endpoint outside
the domain are unconstrained -- the boundary of a growing triangle always
has such neighbors, and prefix closure depends on leaving them free.

Rejections are reported deterministically: the first failure in diagonal
index order, horizontal before vertical at equal index.  A periodic witness
is checked the same way, through the triangle its torus unrolls onto.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .diagonal import tile_at
from .systems import (
    ColoringSystem,
    InputError,
    PeriodicWitness,
    TriangleColoring,
    domain_problems,
    require_valid,
)


@dataclass(frozen=True)
class Violation:
    """First constraint failure of a rejected coloring.

    kind is "origin", "horizontal" or "vertical"; index is the diagonal
    index of the tile where the failure was detected.  For pair failures
    ``other`` is the earlier (left or below) tile and ``colors`` holds
    (earlier color, later color); for origin failures ``colors`` holds the
    offending color only.
    """

    kind: str
    index: int
    tile: tuple[int, int]
    other: Optional[tuple[int, int]]
    colors: tuple[int, ...]

    def message(self) -> str:
        if self.kind == "origin":
            return f"tile (0, 0) is colored {self.colors[0]}, not the origin color"
        rel = "H" if self.kind == "horizontal" else "V"
        return (
            f"{self.kind} pair {self.colors} at tiles {self.other} -> {self.tile} "
            f"(diagonal index {self.index}) not in {rel}"
        )


def _check_elements(sys: ColoringSystem, elems: Sequence[int], what: str) -> None:
    for k, c in enumerate(elems):
        if not isinstance(c, int) or not 0 <= c < sys.n:
            raise InputError(f"{what} element {c!r} at diagonal index {k} out of range [0, {sys.n})")


def check_sequence(sys: ColoringSystem, seq: Sequence[int]) -> Optional[Violation]:
    """None when the sequence is accepted, else the first violation.

    Raises InputError for malformed input (empty sequence, colors out of
    range) -- distinct from a mathematical rejection.
    """
    require_valid(sys)
    if len(seq) == 0:
        raise InputError("the empty sequence is not a candidate coloring")
    _check_elements(sys, seq, "sequence")
    if seq[0] != sys.origin:
        return Violation("origin", 0, (0, 0), None, (seq[0],))
    for k in range(1, len(seq)):
        x, y = tile_at(k)
        s = x + y
        # left neighbor has index k-s-1, below neighbor k-s; both precede k.
        if x > 0:
            left = seq[k - s - 1]
            if not sys.h_allows(left, seq[k]):
                return Violation("horizontal", k, (x, y), (x - 1, y), (left, seq[k]))
        if y > 0:
            below = seq[k - s]
            if not sys.v_allows(below, seq[k]):
                return Violation("vertical", k, (x, y), (x, y - 1), (below, seq[k]))
    return None


_MISSING = object()  # stands in for a tile absent from a triangle's domain


def check_triangle(sys: ColoringSystem, tri: TriangleColoring) -> Optional[Violation]:
    """check_sequence on the diagonal-order serialization of the grid form,
    read off in one pass; a domain that is not the depth-prefix staircase
    raises InputError with domain_problems' message."""
    require_valid(sys)
    cells = tri.cells
    seq = [cells.get(tile_at(k), _MISSING) for k in range(len(cells))]
    if not seq or len(seq) != tri.depth + 1 or _MISSING in seq:
        raise InputError("; ".join(domain_problems(tri)))
    return check_sequence(sys, seq)


def check_witness(sys: ColoringSystem, w: PeriodicWitness) -> Optional[Violation]:
    """None when the torus w colors the whole quadrant, else the first
    violation of its unrolling in diagonal order.

    The tiles with x + y <= p + q - 1 hold every horizontal and vertical
    pair of the torus, wrap pairs included, and every adjacent pair of the
    unrolled quadrant is a torus pair, so checking that triangle decides
    the quadrant.  Raises InputError when the cells are not a p-by-q grid
    or hold a color out of range."""
    if w.p < 1 or w.q < 1 or len(w.rows) != w.q or any(len(row) != w.p for row in w.rows):
        raise InputError(f"witness cells are not a {w.p}x{w.q} grid")
    return check_triangle(sys, w.expand(w.p + w.q - 1))


def is_prefix(p: Sequence[int], s: Sequence[int]) -> bool:
    """True iff s starts with p (every sequence is a prefix of itself)."""
    return len(s) >= len(p) and all(s[k] == p[k] for k in range(len(p)))
