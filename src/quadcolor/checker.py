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

from .diagonal import _tile_by_isqrt
from .systems import ColoringSystem, InputError, PeriodicWitness, TriangleColoring, _in_order, _is_int


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


def _check_elements(sys: ColoringSystem, elems: Sequence[int]) -> None:
    for k, c in enumerate(elems):
        if not _is_int(c) or not 0 <= c < sys.n:
            raise InputError(f"sequence element {c!r} at diagonal index {k} out of range [0, {sys.n})")


def check_sequence(sys: ColoringSystem, seq: Sequence[int]) -> Optional[Violation]:
    """None when the sequence is accepted, else the first violation.

    Raises InputError for malformed input (a set, mapping or other
    unordered value, an empty sequence, colors out of range) -- distinct
    from a mathematical rejection.
    """
    if type(seq) not in (tuple, list):
        try:
            seq = _in_order(seq)
        except TypeError:
            raise InputError(f"coloring sequence {seq!r} is not an ordered iterable") from None
    if len(seq) == 0:
        raise InputError("the empty sequence is not a candidate coloring")
    _check_elements(sys, seq)
    return _first_violation(sys, seq)


def _first_violation(sys: ColoringSystem, seq: Sequence[int]) -> Optional[Violation]:
    if seq[0] != sys.origin:
        return Violation("origin", 0, (0, 0), None, (seq[0],))
    for k in range(1, len(seq)):
        x, y = _tile_by_isqrt(k)
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


def check_triangle(sys: ColoringSystem, tri: TriangleColoring) -> Optional[Violation]:
    """check_sequence on the triangle's diagonal-order sequence, which is
    what a TriangleColoring stores.  Its domain is a staircase and its
    colors are ints by construction, so only their range is left to
    check, and min and max do that without a pass per tile."""
    seq = tri.seq
    if min(seq) < 0 or max(seq) >= sys.n:
        _check_elements(sys, seq)
    return _first_violation(sys, seq)


def check_witness(sys: ColoringSystem, w: PeriodicWitness) -> Optional[Violation]:
    """None when the torus w colors the whole quadrant, else the first
    violation of its unrolling in diagonal order.

    The tiles with x + y <= p + q - 1 hold every horizontal and vertical
    pair of the torus, wrap pairs included, and every adjacent pair of the
    unrolled quadrant is a torus pair, so checking that triangle decides
    the quadrant.  Raises InputError for a cell color out of range."""
    return check_triangle(sys, w.expand(w.p + w.q - 1))
