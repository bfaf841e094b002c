"""Core domain types: coloring systems, finite colorings, verdicts.

A coloring system over ``n`` colors (0..n-1) is an origin color plus two
relations over ordered color pairs: ``H`` constrains horizontally adjacent
tiles (left, right) and ``V`` vertically adjacent tiles (below, above).
Relations are stored as n*n-bit masks, row-major by first component, so
membership tests and whole-system comparisons are single int operations.
That matters: the census sweeps all ``n * 2^(n^2) * 2^(n^2)`` systems.

All types here are immutable values, valid once built: a constructor that
is handed a bad color count, origin, mask, coloring domain, witness shape
or verdict field raises InputError, so nothing downstream re-checks them.
They are safe to share across threads or processes.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Union

from .diagonal import _geometry, triangular

MAX_COLORS = 64       # relation masks stay desk-sized
MAX_CANON_COLORS = 8  # canonicalization sweeps all n! bijections


class InputError(ValueError):
    """Malformed input, as opposed to input that is checked and rejected."""


def _pair_bit(n: int, first: int, second: int) -> int:
    return 1 << (first * n + second)


def _int_type(t: type) -> bool:
    """Whether t is int or an int subclass other than bool: True is no
    color, count or cap, and the file formats reject it."""
    return issubclass(t, int) and not issubclass(t, bool)


def _is_int(value) -> bool:
    return _int_type(type(value))


def _in_order(items) -> list:
    """items as a list.  A set or a mapping raises TypeError: the order it
    iterates in is not one its caller gave, so it is no pair or row."""
    if isinstance(items, (Set, Mapping)):
        raise TypeError(f"a {type(items).__name__} has no order")
    return list(items)


def _origin_problems(n: int, origin: int) -> list[str]:
    """Raise InputError on a bad color count; otherwise list what is wrong
    with the origin (nothing, or one problem)."""
    if not _is_int(n) or n < 1 or n > MAX_COLORS:
        raise InputError(f"color count {n!r} out of range [1, {MAX_COLORS}]")
    if not _is_int(origin) or not 0 <= origin < n:
        return [f"origin color {origin!r} out of range [0, {n})"]
    return []


@lru_cache(maxsize=4096)
def _successors(n: int, mask: int) -> tuple:
    """succ[c], the bitmask of the d with (c, d) in an n*n-bit relation
    mask, cached so that every system with the mask shares one tuple."""
    row = (1 << n) - 1
    return tuple([mask >> i & row for i in range(0, n * n, n)])


@lru_cache(maxsize=4096)
def _relation(n: int, mask: int) -> tuple[int, int]:
    """(transpose, loops) of an n*n-bit relation mask, the facts the shadow
    test reads besides the mask: transpose holds (d, c) for each (c, d) in
    the relation, and loops is the bitmask of the c with (c, c) in it.
    They are derived once per (n, mask) and shared; the shadow test builds
    the masks of its graphs from them and reads each graph's infinite-walk
    nodes from search._walkers, a cache of its own.  A system's
    construction derives its successors alone, so a mask that misses these
    caches, as most do at n >= 4, costs it no transpose.  Both caches hold
    all 512 masks at n = 3, so a census derives each table once per
    process."""
    transpose = loops = 0
    while mask:
        low = mask & -mask
        mask ^= low
        c, d = divmod(low.bit_length() - 1, n)
        transpose |= 1 << (d * n + c)
        if c == d:
            loops |= 1 << c
    return transpose, loops


@dataclass(frozen=True, init=False)
class ColoringSystem:
    """A coloring system: color count, origin color, and the H/V relations."""

    n: int
    origin: int
    h_mask: int
    v_mask: int
    # the searches' successor tables (_successors), ignored by ==, hash and
    # repr: h_next[c] is the bitmask of the d with (c, d) in H; v_next for V
    h_next: tuple = field(init=False, repr=False, compare=False)
    v_next: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, n: int, origin: int, h_mask: int, v_mask: int):
        # exact ints pass one test; int subclasses and problems take the checks
        if not (type(n) is type(origin) is type(h_mask) is type(v_mask) is int
                and 0 <= origin < n <= MAX_COLORS and (h_mask | v_mask) >> n * n == 0):
            problems = _origin_problems(n, origin)
            limit = 1 << (n * n)
            for label, mask in (("horizontal", h_mask), ("vertical", v_mask)):
                if not _is_int(mask) or mask < 0 or mask >= limit:
                    problems.append(f"{label} mask {mask!r} has bits outside the {n}x{n} pair grid")
            if problems:
                raise InputError("; ".join(problems))
        # one update of the instance dict, not six frozen-dataclass setattrs:
        # a census builds one system per class
        self.__dict__.update(
            n=n, origin=origin, h_mask=h_mask, v_mask=v_mask,
            h_next=_successors(n, h_mask), v_next=_successors(n, v_mask),
        )

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
            try:
                pairs = list(pairs)
            except TypeError:
                problems.append(f"{label} relation {pairs!r} is not a collection of pairs")
                continue
            for pair in pairs:
                try:
                    c, d = _in_order(pair)
                except (TypeError, ValueError):
                    problems.append(f"{label} pair {pair!r} is not two colors in order")
                    continue
                if not (_is_int(c) and _is_int(d) and 0 <= c < n and 0 <= d < n):
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
    describes a staircase.  Its bottom-up rows are a view computed from
    the sequence; read them once per pass.
    """

    seq: tuple[int, ...]

    def __post_init__(self):
        seq = self.seq
        # a tuple is taken as it is: every witness check builds one
        if type(seq) is not tuple:
            try:
                seq = tuple(_in_order(seq))
            except TypeError:
                raise InputError(f"coloring sequence {self.seq!r} is not an ordered iterable") from None
            object.__setattr__(self, "seq", seq)
        if not seq:
            raise InputError("a coloring sequence must have at least one element")
        # one test per element type, not per element: every witness check
        # builds one of these
        if not all(map(_int_type, set(map(type, seq)))):
            bad = next(c for c in seq if not _is_int(c))
            raise InputError(f"coloring element {bad!r} is not an integer color")

    @classmethod
    def from_rows(cls, depth: int, rows: list[list[int]]) -> "TriangleColoring":
        """Build from bottom-up rows; the domain must match ``depth`` exactly."""
        if not _is_int(depth):
            raise InputError(f"depth {depth!r} is not an int")
        if depth < 0:
            raise InputError(f"depth {depth} is negative")
        try:
            rows = [_in_order(row) for row in _in_order(rows)]
        except TypeError:
            raise InputError(f"rows {rows!r} are not a list of ordered rows") from None
        size = sum(map(len, rows))
        if size != depth + 1:
            raise InputError(f"domain has {size} tiles, expected {depth + 1}")
        xs, ss = _geometry(depth + 1)
        seq = []
        for k in range(depth + 1):
            x = xs[k]
            y = ss[k] - x
            # depth + 1 cells and every staircase tile present: no strays
            if y >= len(rows) or x >= len(rows[y]):
                raise InputError(f"tile {(x, y)} (diagonal index {k}) missing from domain")
            seq.append(rows[y][x])
        return cls(seq)

    @property
    def depth(self) -> int:
        """Diagonal index of the last tile."""
        return len(self.seq) - 1

    def rows(self) -> list[list[int]]:
        """Bottom-up rows, row y listing g(0,y) .. g(x_max,y)."""
        out: list[list[int]] = []
        for c, x, s in zip(self.seq, *_geometry(len(self.seq))):
            # diagonal order meets (0, y) first in row y, then ascending x
            y = s - x
            if y == len(out):
                out.append([])
            out[y].append(c)
        return out


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

    def __post_init__(self):
        p, q, rows = self.p, self.q, self.rows
        if not (_is_int(p) and _is_int(q) and p >= 1 <= q
                and isinstance(rows, tuple) and len(rows) == q
                and all(isinstance(row, tuple) and len(row) == p for row in rows)):
            raise InputError(f"witness is not q tuples of p cells for ints p={p!r}, q={q!r} >= 1")
        for row in rows:
            for c in row:
                # an exact int takes one type test: the searches build these
                if not (type(c) is int or _is_int(c)) or c < 0:
                    raise InputError(f"witness cell {c!r} is not a color (an int >= 0)")

    def expand(self, diagonals: int) -> TriangleColoring:
        """Unroll onto the full triangle of tiles with x + y <= diagonals:
        tile (x, y) takes the color of cell (x mod p, y mod q)."""
        if not _is_int(diagonals) or diagonals < 0:
            raise InputError(f"diagonal count {diagonals!r} is not an int >= 0")
        rows, p, q = self.rows, self.p, self.q
        size = full_triangle_depth(diagonals) + 1
        xs, ss = _geometry(size)
        tiles = zip(xs[:size], ss[:size])
        return TriangleColoring(tuple(rows[(s - x) % q][x % p] for x, s in tiles))


@dataclass(frozen=True)
class Bounded:
    """No acceptable sequence of length max_len + 1 exists (search exhausted)."""

    max_len: int

    def __post_init__(self):
        if not (_is_int(self.max_len) and self.max_len >= 1):
            raise InputError(f"max_len must be an int >= 1, got {self.max_len!r}")


@dataclass(frozen=True)
class HasColoring:
    """An acceptable coloring exists; the witness is its periodic certificate."""

    witness: PeriodicWitness


@dataclass(frozen=True)
class Unknown:
    """Budgets exhausted without a certificate either way."""

    depth_reached: int
    period_cap_reached: int

    def __post_init__(self):
        if not (_is_int(self.depth_reached) and self.depth_reached >= 0):
            raise InputError(f"depth_reached must be an int >= 0, got {self.depth_reached!r}")
        if not (_is_int(self.period_cap_reached) and self.period_cap_reached >= 1):
            raise InputError(
                f"period_cap_reached must be an int >= 1, got {self.period_cap_reached!r}"
            )


Verdict = Union[Bounded, HasColoring, Unknown]


def verdict_kind(v: Verdict) -> str:
    if isinstance(v, Bounded):
        return "bounded"
    if isinstance(v, HasColoring):
        return "has_coloring"
    if isinstance(v, Unknown):
        return "unknown"
    raise TypeError(f"not a verdict: {v!r}")
