"""Core domain types: coloring systems, finite colorings, verdicts.

A coloring system over ``n`` colors (0..n-1) is an origin color plus two
relations over ordered color pairs: ``H`` constrains horizontally adjacent
tiles (left, right) and ``V`` vertically adjacent tiles (below, above).
Relations are stored as n*n-bit masks, row-major by first component, so
membership tests and whole-system comparisons are single int operations.
That matters: the census sweeps all ``n * 2^(n^2) * 2^(n^2)`` systems.

All types here are immutable values after construction and safe to share
across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterable, Iterator, Optional, Union

from .diagonal import tile_at, tile_index, triangular

MAX_COLORS = 64       # relation masks stay desk-sized
MAX_CANON_COLORS = 8  # canonicalization sweeps all n! bijections


class InputError(ValueError):
    """Malformed input, as opposed to input that is checked and rejected."""


def _pair_bit(n: int, first: int, second: int) -> int:
    return 1 << (first * n + second)


@dataclass(frozen=True)
class ColoringSystem:
    """A coloring system: color count, origin color, and the H/V relations."""

    n: int
    origin: int
    h_mask: int
    v_mask: int

    @classmethod
    def from_pairs(
        cls,
        n: int,
        origin: int,
        horizontal: Iterable[tuple[int, int]],
        vertical: Iterable[tuple[int, int]],
    ) -> "ColoringSystem":
        """Build from explicit pair sets, rejecting anything out of range."""
        problems = []
        if not isinstance(n, int) or n < 1 or n > MAX_COLORS:
            raise InputError(f"color count must be an int in [1, {MAX_COLORS}], got {n!r}")
        if not isinstance(origin, int) or not 0 <= origin < n:
            problems.append(f"origin color {origin!r} out of range [0, {n})")
        h_mask = 0
        v_mask = 0
        for label, pairs in (("horizontal", horizontal), ("vertical", vertical)):
            for pair in pairs:
                c, d = pair
                if not (isinstance(c, int) and isinstance(d, int) and 0 <= c < n and 0 <= d < n):
                    problems.append(f"{label} pair {pair!r} out of range [0, {n})^2")
                elif label == "horizontal":
                    h_mask |= _pair_bit(n, c, d)
                else:
                    v_mask |= _pair_bit(n, c, d)
        if problems:
            raise InputError("; ".join(problems))
        return cls(n=n, origin=origin, h_mask=h_mask, v_mask=v_mask)

    def h_allows(self, c: int, d: int) -> bool:
        return bool(self.h_mask >> (c * self.n + d) & 1)

    def v_allows(self, c: int, d: int) -> bool:
        return bool(self.v_mask >> (c * self.n + d) & 1)

    def h_successors(self, c: int) -> int:
        """Bitmask of colors d with (c, d) in H."""
        return (self.h_mask >> (c * self.n)) & ((1 << self.n) - 1)

    def v_successors(self, c: int) -> int:
        return (self.v_mask >> (c * self.n)) & ((1 << self.n) - 1)

    def h_pairs(self) -> list[tuple[int, int]]:
        """H as a sorted pair list (the interchange representation)."""
        return _mask_to_pairs(self.h_mask, self.n)

    def v_pairs(self) -> list[tuple[int, int]]:
        return _mask_to_pairs(self.v_mask, self.n)


def _mask_to_pairs(mask: int, n: int) -> list[tuple[int, int]]:
    pairs = []
    while mask:
        low = mask & -mask
        b = low.bit_length() - 1
        mask ^= low
        pairs.append((b // n, b % n))
    pairs.sort()
    return pairs


def validate_system(sys: ColoringSystem) -> list[str]:
    """All invariant violations of a system; an empty list means valid."""
    problems = []
    if not isinstance(sys.n, int) or sys.n < 1 or sys.n > MAX_COLORS:
        problems.append(f"color count {sys.n!r} out of range [1, {MAX_COLORS}]")
        return problems
    if not isinstance(sys.origin, int) or not 0 <= sys.origin < sys.n:
        problems.append(f"origin color {sys.origin!r} out of range [0, {sys.n})")
    limit = 1 << (sys.n * sys.n)
    for label, mask in (("horizontal", sys.h_mask), ("vertical", sys.v_mask)):
        if not isinstance(mask, int) or mask < 0 or mask >= limit:
            problems.append(f"{label} mask {mask!r} has bits outside the {sys.n}x{sys.n} pair grid")
    return problems


def require_valid(sys: ColoringSystem) -> None:
    problems = validate_system(sys)
    if problems:
        raise InputError("; ".join(problems))


# ---------------------------------------------------------------------------
# Isomorphism and canonical forms.
#
# Two systems are isomorphic when some color bijection maps origin to origin
# and both relations onto each other.  The canonical form of a system is the
# member of its isomorphism class with the smallest (origin, h_mask, v_mask)
# tuple; systems are isomorphic iff their canonical forms are equal.
# ---------------------------------------------------------------------------


def apply_bijection(sys: ColoringSystem, perm: tuple[int, ...]) -> ColoringSystem:
    """Rename colors: color c becomes perm[c]."""
    n = sys.n
    return ColoringSystem(
        n=n,
        origin=perm[sys.origin],
        h_mask=_permute_mask(sys.h_mask, perm, n),
        v_mask=_permute_mask(sys.v_mask, perm, n),
    )


def _permute_mask(mask: int, perm: tuple[int, ...], n: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        b = low.bit_length() - 1
        mask ^= low
        out |= 1 << (perm[b // n] * n + perm[b % n])
    return out


def canonicalize(sys: ColoringSystem) -> tuple[ColoringSystem, tuple[int, ...]]:
    """Canonical form plus the first bijection (in lexicographic order)
    that produces it.  Deterministic, so parallel callers agree."""
    require_valid(sys)
    if sys.n > MAX_CANON_COLORS:
        raise InputError(f"canonicalization sweeps n! bijections; capped at n <= {MAX_CANON_COLORS}")
    best: Optional[tuple[int, int, int]] = None
    best_perm: tuple[int, ...] = ()
    for perm in permutations(range(sys.n)):
        if perm[sys.origin] != 0:
            continue  # the minimum key has origin 0, always achievable
        key = (
            0,
            _permute_mask(sys.h_mask, perm, sys.n),
            _permute_mask(sys.v_mask, perm, sys.n),
        )
        if best is None or key < best:
            best = key
            best_perm = perm
    assert best is not None
    return ColoringSystem(sys.n, *best), best_perm


def canonical_form(sys: ColoringSystem) -> ColoringSystem:
    return canonicalize(sys)[0]


def canonical_id(sys: ColoringSystem) -> str:
    """Compact stable encoding of the canonical form, used as a class key."""
    canon = canonical_form(sys)
    return _class_id(canon.n, canon.origin, canon.h_mask, canon.v_mask)


def _class_id(n: int, origin: int, h_mask: int, v_mask: int) -> str:
    """canonical_id of the system with these fields, already in canonical form."""
    return f"{n}.{origin}.{h_mask:x}.{v_mask:x}"


def is_isomorphic(s1: ColoringSystem, s2: ColoringSystem) -> bool:
    """Canonical-form equality; mismatched color counts compare unequal.

    Systems with equal color counts above MAX_CANON_COLORS raise InputError,
    because their canonical forms are not computed."""
    require_valid(s1)
    require_valid(s2)
    return s1.n == s2.n and canonical_form(s1) == canonical_form(s2)


# ---------------------------------------------------------------------------
# Finite colorings.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleColoring:
    """A coloring of the first depth+1 tiles in diagonal order.

    The domain is exactly {(x, y) : tile_index(x, y) <= depth} -- a staircase
    triangle whose last anti-diagonal may be partial.  Interchangeable with a
    color sequence of length depth+1.
    """

    depth: int
    cells: dict[tuple[int, int], int] = field(compare=True)

    @classmethod
    def from_sequence(cls, seq: Iterable[int]) -> "TriangleColoring":
        elems = list(seq)
        if not elems:
            raise InputError("a coloring sequence must have at least one element")
        cells = {tile_at(k): c for k, c in enumerate(elems)}
        return cls(depth=len(elems) - 1, cells=cells)

    @classmethod
    def from_rows(cls, depth: int, rows: list[list[int]]) -> "TriangleColoring":
        """Build from bottom-up rows; the domain must match ``depth`` exactly."""
        if depth < 0:
            raise InputError(f"depth must be >= 0, got {depth}")
        cells = {}
        for y, row in enumerate(rows):
            for x, color in enumerate(row):
                cells[(x, y)] = color
        built = cls(depth=depth, cells=cells)
        problems = domain_problems(built)
        if problems:
            raise InputError("; ".join(problems))
        return built

    def to_sequence(self) -> tuple[int, ...]:
        return tuple(self.cells[tile_at(k)] for k in range(self.depth + 1))

    def rows(self) -> list[list[int]]:
        """Bottom-up rows, row y listing g(0,y) .. g(x_max,y)."""
        out: list[list[int]] = []
        for y in range(self.max_y() + 1):
            row = []
            x = 0
            while (x, y) in self.cells:
                row.append(self.cells[(x, y)])
                x += 1
            out.append(row)
        return out

    def max_y(self) -> int:
        return max(y for _, y in self.cells)

    def max_x(self) -> int:
        return max(x for x, _ in self.cells)


def domain_problems(tri: TriangleColoring) -> list[str]:
    """Check that the cell domain is exactly the depth-prefix staircase."""
    if tri.depth < 0:
        return [f"depth {tri.depth} is negative"]
    expected = tri.depth + 1
    if len(tri.cells) != expected:
        return [f"domain has {len(tri.cells)} tiles, expected {expected}"]
    for k in range(expected):
        if tile_at(k) not in tri.cells:
            return [f"tile {tile_at(k)} (diagonal index {k}) missing from domain"]
    return []


def full_triangle_depth(diagonals: int) -> int:
    """Diagonal index of the last tile on anti-diagonal ``diagonals``."""
    return triangular(diagonals + 1) - 1


# ---------------------------------------------------------------------------
# Periodic witnesses and verdicts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicWitness:
    """A p-by-q torus coloring whose periodic unrolling colors the whole
    quadrant acceptably; a finite certificate that a coloring exists."""

    p: int
    q: int
    rows: tuple[tuple[int, ...], ...]  # rows[y][x] for 0 <= y < q, 0 <= x < p

    def color_at(self, x: int, y: int) -> int:
        return self.rows[y % self.q][x % self.p]

    def problems(self, sys: ColoringSystem) -> list[str]:
        out = []
        if self.p < 1 or self.q < 1:
            return [f"periods must be >= 1, got p={self.p}, q={self.q}"]
        if len(self.rows) != self.q or any(len(row) != self.p for row in self.rows):
            return [f"cell grid is not {self.p}x{self.q}"]
        if any(not 0 <= c < sys.n for row in self.rows for c in row):
            out.append(f"cell color out of range [0, {sys.n})")
            return out
        if self.rows[0][0] != sys.origin:
            out.append(f"cell (0,0) is {self.rows[0][0]}, origin color is {sys.origin}")
        for y in range(self.q):
            for x in range(self.p):
                c = self.rows[y][x]
                right = self.rows[y][(x + 1) % self.p]
                if not sys.h_allows(c, right):
                    out.append(f"horizontal wrap pair ({c}, {right}) at cell ({x}, {y}) not in H")
                above = self.rows[(y + 1) % self.q][x]
                if not sys.v_allows(c, above):
                    out.append(f"vertical wrap pair ({c}, {above}) at cell ({x}, {y}) not in V")
        return out

    def expand(self, diagonals: int) -> TriangleColoring:
        """Unroll onto the full triangle of tiles with x + y <= diagonals."""
        depth = full_triangle_depth(diagonals)
        cells = {}
        for k in range(depth + 1):
            x, y = tile_at(k)
            cells[(x, y)] = self.color_at(x, y)
        return TriangleColoring(depth=depth, cells=cells)


@dataclass(frozen=True)
class Bounded:
    """No acceptable sequence of length max_len + 1 exists (search exhausted)."""

    max_len: int


@dataclass(frozen=True)
class HasColoring:
    """An acceptable coloring exists; the witness is its periodic certificate."""

    witness: PeriodicWitness


@dataclass(frozen=True)
class Unknown:
    """Budgets exhausted without a certificate either way."""

    depth_reached: int
    period_cap_reached: int


Verdict = Union[Bounded, HasColoring, Unknown]


def verdict_kind(v: Verdict) -> str:
    if isinstance(v, Bounded):
        return "bounded"
    if isinstance(v, HasColoring):
        return "has_coloring"
    if isinstance(v, Unknown):
        return "unknown"
    raise TypeError(f"not a verdict: {v!r}")
