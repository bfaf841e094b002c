"""Shared fixtures, strategies, and brute-force oracles.

The oracles here deliberately avoid the search engine and the incremental
checker: acceptance is re-derived from the pair relations over the tile
grid, so a bug in the product code cannot hide behind itself.
"""

from itertools import permutations, product

import pytest
from hypothesis import strategies as st

import quadcolor as qc
from quadcolor import fixtures as fx
from quadcolor.fileio import dump_pretty


@pytest.fixture(scope="session")
def example_system():
    return fx.example_system()


@pytest.fixture(scope="session")
def example_triangle():
    return fx.example_triangle()


@pytest.fixture(scope="session")
def example_sequence():
    return fx.example_triangle().seq


def write_json(path, value) -> str:
    """Write a system, triangle, witness or color sequence to path in the
    layout the command line reads, and return the path as a string."""
    if isinstance(value, qc.ColoringSystem):
        obj = qc.system_to_json(value)
    elif isinstance(value, qc.TriangleColoring):
        obj = {"depth": value.depth, "rows": value.rows()}
    elif isinstance(value, qc.PeriodicWitness):
        obj = qc.witness_to_json(value)
    else:
        obj = list(value)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_pretty(obj))
    return str(path)


# -- oracles ------------------------------------------------------------------


def brute_accepted(sys, seq) -> bool:
    """Acceptance straight from the definitions: lay the sequence out on the
    grid and test every horizontally and vertically adjacent pair."""
    seq = tuple(seq)
    if not seq or seq[0] != sys.origin:
        return False
    if any(not 0 <= c < sys.n for c in seq):
        return False
    cells = {qc.tile_at(k): c for k, c in enumerate(seq)}
    for (x, y), c in cells.items():
        right = cells.get((x + 1, y))
        if right is not None and not sys.h_allows(c, right):
            return False
        above = cells.get((x, y + 1))
        if above is not None and not sys.v_allows(c, above):
            return False
    return True


def brute_sequences(sys, length):
    """All accepted sequences of exactly ``length`` by filtering the full
    n^length product."""
    return [seq for seq in product(range(sys.n), repeat=length) if brute_accepted(sys, seq)]


def brute_levels(sys, cap):
    """levels[L-1] = all accepted sequences of length L, L <= cap, grown by
    one-color extension and re-checked from scratch each time."""
    levels = []
    level = [seq for seq in product(range(sys.n), repeat=1) if brute_accepted(sys, seq)]
    for _ in range(cap):
        levels.append(level)
        level = [
            seq + (c,)
            for seq in level
            for c in range(sys.n)
            if brute_accepted(sys, seq + (c,))
        ]
        if not level:
            break
    while len(levels) < cap:
        levels.append([])
    return levels


def brute_max_length(sys, cap):
    """Longest accepted length up to cap, or 0; None-safe independent oracle."""
    longest = 0
    for length, level in enumerate(brute_levels(sys, cap), start=1):
        if level:
            longest = length
    return longest


def brute_torus_colorings(sys, p, q):
    """All p x q torus colorings with cell (0,0) = origin that wrap-satisfy
    both relations, as row tuples."""
    out = []
    for flat in product(range(sys.n), repeat=p * q):
        if flat[0] != sys.origin:
            continue
        rows = tuple(tuple(flat[y * p : (y + 1) * p]) for y in range(q))
        ok = True
        for y in range(q):
            for x in range(p):
                c = rows[y][x]
                if not sys.h_allows(c, rows[y][(x + 1) % p]):
                    ok = False
                    break
                if not sys.v_allows(c, rows[(y + 1) % q][x]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(rows)
    return out


def brute_extendable(sys, prefix, horizon):
    """The colors c such that prefix + (c,) is accepted and grows, one color
    at a time, to an accepted sequence of length max(horizon, len(prefix) + 1),
    each step re-checked from scratch: the per-step oracle for chains."""
    target = max(horizon, len(prefix) + 1)

    def reaches(seq):
        return brute_accepted(sys, seq) and (
            len(seq) >= target or any(reaches(seq + (d,)) for d in range(sys.n))
        )

    return frozenset(c for c in range(sys.n) if reaches(tuple(prefix) + (c,)))


def brute_rename(sys, perm):
    """Color c becomes perm[c].  The renamed masks are built pair by pair
    from h_allows / v_allows, so no renaming code is shared with the engine:
    pair (c, d) of a relation is bit c * n + d of its mask."""
    n = sys.n

    def renamed(allows):
        return sum(1 << (perm[c] * n + perm[d]) for c in range(n) for d in range(n) if allows(c, d))

    return qc.ColoringSystem(n, perm[sys.origin], renamed(sys.h_allows), renamed(sys.v_allows))


def brute_canonicalize(sys):
    """canonicalize from its definition: the least renamed system over the
    bijections that take the origin to 0, the first in permutations order
    winning a tie, and that bijection, renamed by brute_rename."""
    renamings = [
        (brute_rename(sys, perm), perm)
        for perm in permutations(range(sys.n))
        if perm[sys.origin] == 0
    ]
    return min(renamings, key=lambda pair: (pair[0].h_mask, pair[0].v_mask))


def random_system(rng, n) -> qc.ColoringSystem:
    return qc.ColoringSystem(
        n=n,
        origin=rng.randrange(n),
        h_mask=rng.getrandbits(n * n),
        v_mask=rng.getrandbits(n * n),
    )


def random_accepted_sequence(rng, sys, max_len):
    """Random walk through the colors the pair relations allow next (read
    off the masks with h_allows / v_allows, not the search's successor
    tables); stops at a dead end."""
    seq = [sys.origin]
    while len(seq) < max_len:
        k = len(seq)
        x, y = qc.tile_at(k)
        choices = [
            c for c in range(sys.n)
            if (x == 0 or sys.h_allows(seq[qc.tile_index(x - 1, y)], c))
            and (y == 0 or sys.v_allows(seq[qc.tile_index(x, y - 1)], c))
        ]
        if not choices:
            break
        seq.append(rng.choice(choices))
    return tuple(seq)


# -- hypothesis strategies ------------------------------------------------------


def system_strategy(max_colors=4):
    def build(n):
        bits = n * n
        return st.builds(
            qc.ColoringSystem,
            n=st.just(n),
            origin=st.integers(0, n - 1),
            h_mask=st.integers(0, (1 << bits) - 1),
            v_mask=st.integers(0, (1 << bits) - 1),
        )

    return st.integers(1, max_colors).flatmap(build)


def tile_strategy(max_sum=2000):
    return st.tuples(st.integers(0, max_sum), st.integers(0, max_sum))
