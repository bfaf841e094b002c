"""Core domain types: coloring systems, finite colorings, verdicts.

A coloring system over ``n`` colors (0..n-1) is an origin color plus two
relations over ordered color pairs: ``H`` constrains horizontally adjacent
tiles (left, right) and ``V`` vertically adjacent tiles (below, above).
Relations are stored as n*n-bit masks, row-major by first component, so
membership tests and whole-system comparisons are single int operations.
That matters: the census sweeps all ``n * 2^(n^2) * 2^(n^2)`` systems.

All types here are immutable values, valid once built: a constructor that
is handed a bad color count, origin, mask or coloring domain raises
InputError, so nothing downstream re-checks them.  They are safe to share
across threads or processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Union

from .diagonal import tile_at, triangular

MAX_COLORS = 64       # relation masks stay desk-sized
MAX_CANON_COLORS = 8  # canonicalization sweeps all n! bijections


class InputError(ValueError):
    """Malformed input, as opposed to input that is checked and rejected."""


def _pair_bit(n: int, first: int, second: int) -> int:
    return 1 << (first * n + second)


def _origin_problems(n: int, origin: int) -> list[str]:
    """Raise InputError on a bad color count; otherwise list what is wrong
    with the origin (nothing, or one problem)."""
    if not isinstance(n, int) or n < 1 or n > MAX_COLORS:
        raise InputError(f"color count {n!r} out of range [1, {MAX_COLORS}]")
    if not isinstance(origin, int) or not 0 <= origin < n:
        return [f"origin color {origin!r} out of range [0, {n})"]
    return []


@dataclass(frozen=True)
class ColoringSystem:
    """A coloring system: color count, origin color, and the H/V relations."""

    n: int
    origin: int
    h_mask: int
    v_mask: int

    def __post_init__(self):
        n = self.n
        problems = _origin_problems(n, self.origin)
        limit = 1 << (n * n)
        for label, mask in (("horizontal", self.h_mask), ("vertical", self.v_mask)):
            if not isinstance(mask, int) or mask < 0 or mask >= limit:
                problems.append(f"{label} mask {mask!r} has bits outside the {n}x{n} pair grid")
        if problems:
            raise InputError("; ".join(problems))

    @classmethod
    def from_pairs(
        cls,
        n: int,
        origin: int,
        horizontal: Iterable[tuple[int, int]],
        vertical: Iterable[tuple[int, int]],
    ) -> "ColoringSystem":
        """Build from explicit pair sets, rejecting anything that is not a
        pair of colors in range."""
        problems = _origin_problems(n, origin)
        h_mask = 0
        v_mask = 0
        for label, pairs in (("horizontal", horizontal), ("vertical", vertical)):
            for pair in pairs:
                try:
                    c, d = pair
                except (TypeError, ValueError):
                    problems.append(f"{label} pair {pair!r} is not two colors")
                    continue
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


# ---------------------------------------------------------------------------
# Isomorphism and canonical forms.
#
# Two systems are isomorphic when some color bijection maps origin to origin
# and both relations onto each other.  The canonical form of a system is the
# member of its isomorphism class with the smallest (origin, h_mask, v_mask)
# tuple; systems are isomorphic iff their canonical forms are equal.  That
# member is the least (0, perm(H), perm(V)) over the bijections with
# perm[origin] == 0, the first of equal keys in permutations order winning.
# _least_h holds the H half of that rule; canonicalize and the census (one
# call per run of equal origin and H) finish it with the least perm(V).
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


def _least_h(n: int, origin: int, h_mask: int) -> tuple[int, list]:
    """The least renamed H over the bijections with perm[origin] == 0, and
    the bijections that reach it, in permutations order."""
    renamed = [(_permute_mask(h_mask, p, n), p) for p in permutations(range(n)) if p[origin] == 0]
    canon_h = min(renamed)[0]
    return canon_h, [p for mask, p in renamed if mask == canon_h]


def canonicalize(sys: ColoringSystem) -> tuple[ColoringSystem, tuple[int, ...]]:
    """Canonical form plus the first bijection (in lexicographic order)
    that produces it.  Deterministic, so parallel callers agree."""
    if sys.n > MAX_CANON_COLORS:
        raise InputError(f"canonicalization sweeps n! bijections; capped at n <= {MAX_CANON_COLORS}")
    canon_h, ties = _least_h(sys.n, sys.origin, sys.h_mask)
    canon_v, perm = min((_permute_mask(sys.v_mask, p, sys.n), p) for p in ties)
    return ColoringSystem(sys.n, 0, canon_h, canon_v), perm


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
    return s1.n == s2.n and canonical_form(s1) == canonical_form(s2)


# ---------------------------------------------------------------------------
# Finite colorings.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleColoring:
    """A coloring of the first len(seq) tiles in diagonal order, stored as
    that color sequence.

    The domain is {(x, y) : tile_index(x, y) < len(seq)} -- a staircase
    triangle whose last anti-diagonal may be partial -- so every value
    describes a staircase.  The grid forms (cells, rows) are views computed
    from the sequence; read them once per pass.
    """

    seq: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "seq", tuple(self.seq))
        if not self.seq:
            raise InputError("a coloring sequence must have at least one element")

    @classmethod
    def from_rows(cls, depth: int, rows: list[list[int]]) -> "TriangleColoring":
        """Build from bottom-up rows; the domain must match ``depth`` exactly."""
        if depth < 0:
            raise InputError(f"depth {depth} is negative")
        size = sum(len(row) for row in rows)
        if size != depth + 1:
            raise InputError(f"domain has {size} tiles, expected {depth + 1}")
        seq = []
        for k in range(depth + 1):
            x, y = tile_at(k)
            # depth + 1 cells and every staircase tile present: no strays
            if y >= len(rows) or x >= len(rows[y]):
                raise InputError(f"tile {(x, y)} (diagonal index {k}) missing from domain")
            seq.append(rows[y][x])
        return cls(seq)

    @property
    def depth(self) -> int:
        """Diagonal index of the last tile."""
        return len(self.seq) - 1

    @property
    def cells(self) -> dict[tuple[int, int], int]:
        """{(x, y): color} over the domain."""
        return {tile_at(k): c for k, c in enumerate(self.seq)}

    def rows(self) -> list[list[int]]:
        """Bottom-up rows, row y listing g(0,y) .. g(x_max,y)."""
        out: list[list[int]] = []
        for k, c in enumerate(self.seq):
            # diagonal order meets (0, y) first in row y, then ascending x
            _, y = tile_at(k)
            if y == len(out):
                out.append([])
            out[y].append(c)
        return out

    def max_y(self) -> int:
        x, y = tile_at(self.depth)
        return x + y

    def max_x(self) -> int:
        # the last tile's diagonal is the top one; below it every diagonal is full
        x, y = tile_at(self.depth)
        return x + y if y == 0 else x + y - 1


def full_triangle_depth(diagonals: int) -> int:
    """Diagonal index of the last tile on anti-diagonal ``diagonals``."""
    return triangular(diagonals + 1) - 1


# ---------------------------------------------------------------------------
# Periodic witnesses and verdicts.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeriodicWitness:
    """A p-by-q torus coloring whose periodic unrolling colors the whole
    quadrant acceptably; a finite certificate that a coloring exists,
    accepted by checker.check_witness."""

    p: int
    q: int
    rows: tuple[tuple[int, ...], ...]  # rows[y][x] for 0 <= y < q, 0 <= x < p

    def color_at(self, x: int, y: int) -> int:
        return self.rows[y % self.q][x % self.p]

    def expand(self, diagonals: int) -> TriangleColoring:
        """Unroll onto the full triangle of tiles with x + y <= diagonals."""
        # color_at, inlined: every witness check unrolls its torus here
        rows, p, q = self.rows, self.p, self.q
        tiles = map(tile_at, range(full_triangle_depth(diagonals) + 1))
        return TriangleColoring(tuple(rows[y % q][x % p] for x, y in tiles))


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
