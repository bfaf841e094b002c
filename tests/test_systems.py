"""System values, bijections, canonical forms, triangles, witnesses."""

import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcolor as qc
from conftest import (
    brute_canonicalize,
    brute_rename,
    brute_torus_colorings,
    random_system,
    system_strategy,
)


def test_from_pairs_builds_masks():
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 1), (1, 0)], [(0, 0), (1, 1)])
    assert s.h_allows(0, 1) and s.h_allows(1, 0)
    assert not s.h_allows(0, 0) and not s.h_allows(1, 1)
    assert s.v_allows(0, 0) and s.v_allows(1, 1)
    assert s.h_pairs() == [(0, 1), (1, 0)]
    assert s.v_pairs() == [(0, 0), (1, 1)]


def test_from_pairs_collects_all_problems():
    with pytest.raises(qc.InputError) as err:
        qc.ColoringSystem.from_pairs(2, 5, [(0, 9)], [(3, 0)])
    msg = str(err.value)
    assert "origin" in msg and "(0, 9)" in msg and "(3, 0)" in msg
    # a pair that is not two colors is listed the same way
    with pytest.raises(qc.InputError) as err:
        qc.ColoringSystem.from_pairs(2, 0, [(0, 1, 1), (0, 9)], [5, (1, 0)])
    msg = str(err.value)
    assert "(0, 1, 1)" in msg and "(0, 9)" in msg and "pair 5 " in msg
    # so is a relation that is no collection at all
    for horizontal, vertical in ((None, []), ([], 7)):
        with pytest.raises(qc.InputError, match="relation"):
            qc.ColoringSystem.from_pairs(2, 0, horizontal, vertical)


def test_bools_are_not_colors():
    # bool is an int subclass, but a system with origin True would be
    # written as "origin": true, which its own file format rejects
    with pytest.raises(qc.InputError):
        qc.ColoringSystem.from_pairs(2, True, [(0, 1)], [])
    with pytest.raises(qc.InputError) as err:
        qc.ColoringSystem.from_pairs(2, 0, [(0, True)], [(False, 1), (1, 1)])
    assert str(err.value) == (
        "horizontal pair (0, True) out of range [0, 2)^2; "
        "vertical pair (False, 1) out of range [0, 2)^2"
    )
    with pytest.raises(qc.InputError) as err:
        qc.TriangleColoring((0, 1, True, 1))
    assert str(err.value) == "coloring element True is not an integer color"
    with pytest.raises(qc.InputError):
        qc.TriangleColoring((0, "1"))


def test_successor_masks_match_pairs():
    s = qc.ColoringSystem.from_pairs(3, 1, [(0, 2), (2, 1), (2, 2)], [(1, 0)])
    assert s.h_next == (0b100, 0, 0b110)
    assert s.v_next == (0, 0b001, 0)
    # the tables against the mask bits on every pair: every system with
    # n <= 2 and a seeded sample at n = 3..5
    rng = random.Random(16)
    systems = [qc.system_at(n, i) for n in (1, 2) for i in range(qc.total_systems(n))]
    systems += [random_system(rng, n) for n in (3, 4, 5) for _ in range(40)]
    for t in systems:
        for c, d in product(range(t.n), repeat=2):
            assert (t.h_next[c] >> d & 1) == t.h_allows(c, d), (t, c, d)
            assert (t.v_next[c] >> d & 1) == t.v_allows(c, d), (t, c, d)
    # derived, not compared: replace recomputes them, == and hash ignore them
    t = dataclasses.replace(s, h_mask=0b001_000_000)
    assert t.h_next == (0, 0, 0b001) and t.v_next == s.v_next
    twin = qc.ColoringSystem(3, 1, s.h_mask, s.v_mask)
    object.__setattr__(twin, "h_next", ())
    assert twin == s and hash(twin) == hash(s)
    assert "h_next" not in repr(s)
    # an int subclass other than bool is an int: accepted as each field and
    # as all of them, with the same tables
    class Int(int):
        pass

    for fields in ("n",), ("origin",), ("h_mask",), ("v_mask",), ("n", "origin", "h_mask", "v_mask"):
        sub = dataclasses.replace(s, **{name: Int(getattr(s, name)) for name in fields})
        assert sub == s and (sub.h_next, sub.v_next) == (s.h_next, s.v_next), fields


def test_validate_catches_stray_mask_bits():
    with pytest.raises(qc.InputError) as err:
        qc.ColoringSystem(n=2, origin=0, h_mask=1 << 4, v_mask=0)
    assert str(err.value) == "horizontal mask 16 has bits outside the 2x2 pair grid"


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n": 0}, "color count 0 out of range [1, 64]"),
        ({"n": 65}, "color count 65 out of range [1, 64]"),
        ({"origin": -1}, "origin color -1 out of range [0, 3)"),
        ({"origin": 3}, "origin color 3 out of range [0, 3)"),
        ({"origin": True}, "origin color True out of range [0, 3)"),
        ({"n": True}, "color count True out of range [1, 64]"),
        ({"h_mask": -1}, "horizontal mask -1 has bits outside the 3x3 pair grid"),
        ({"v_mask": 1 << 9}, "vertical mask 512 has bits outside the 3x3 pair grid"),
        ({"h_mask": True}, "horizontal mask True has bits outside the 3x3 pair grid"),
    ],
    ids=[
        "n=0", "n=65", "origin=-1", "origin=n", "origin=True", "n=True", "negative-mask",
        "stray-bit", "mask=True",
    ],
)
def test_invalid_system_raises_at_construction(fields, message):
    valid = qc.ColoringSystem(n=3, origin=1, h_mask=0b101, v_mask=0b110)
    init = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid) if f.init}
    bad = {**init, **fields}
    with pytest.raises(qc.InputError) as err:
        qc.ColoringSystem(**bad)
    assert str(err.value) == message
    with pytest.raises(qc.InputError):
        dataclasses.replace(valid, **fields)
    if "n" in fields or "origin" in fields:
        # from_pairs shares the constructor's color-count and origin checks
        with pytest.raises(qc.InputError) as err:
            qc.ColoringSystem.from_pairs(bad["n"], bad["origin"], valid.h_pairs(), valid.v_pairs())
        assert str(err.value) == message


@given(system_strategy())
@settings(max_examples=150)
def test_pairs_mask_roundtrip(s):
    rebuilt = qc.ColoringSystem.from_pairs(s.n, s.origin, s.h_pairs(), s.v_pairs())
    assert rebuilt == s


# -- bijections and canonical forms ------------------------------------------


def test_swap_example_canonicalizes_to_zero_origin():
    s = qc.ColoringSystem.from_pairs(2, 1, [(1, 1)], [(1, 1)])
    canon, perm = qc.canonicalize(s)
    assert canon == qc.ColoringSystem.from_pairs(2, 0, [(0, 0)], [(0, 0)])
    assert perm == (1, 0)
    assert qc.is_isomorphic(s, canon)


@given(system_strategy(max_colors=4), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_canonical_form_invariant_under_renaming(s, rng):
    perm = list(range(s.n))
    rng.shuffle(perm)
    renamed = brute_rename(s, perm)
    assert qc.canonical_form(renamed) == qc.canonical_form(s)
    assert qc.canonical_id(renamed) == qc.canonical_id(s)
    assert qc.is_isomorphic(s, renamed)


@given(system_strategy(max_colors=4))
@settings(max_examples=150)
def test_canonicalize_returns_achieving_bijection(s):
    canon, perm = qc.canonicalize(s)
    assert (canon, perm) == brute_canonicalize(s)
    assert brute_rename(s, perm) == canon
    assert qc.canonical_form(canon) == canon


def test_isomorphic_needs_matching_origin_orbit():
    a = qc.ColoringSystem.from_pairs(2, 0, [(0, 0)], [])
    b = qc.ColoringSystem.from_pairs(2, 1, [(0, 0)], [])
    # relations match under identity but the origin cannot be mapped
    assert not qc.is_isomorphic(a, b)
    c = qc.ColoringSystem.from_pairs(2, 1, [(1, 1)], [])
    assert qc.is_isomorphic(a, c)


def test_isomorphic_color_count_mismatch():
    a = qc.ColoringSystem.from_pairs(2, 0, [], [])
    b = qc.ColoringSystem.from_pairs(3, 0, [], [])
    assert not qc.is_isomorphic(a, b)


def test_canonicalize_color_cap():
    big = qc.ColoringSystem.from_pairs(9, 0, [], [])
    with pytest.raises(qc.InputError):
        qc.canonicalize(big)


# -- triangles ------------------------------------------------------------------


def test_sequence_rows_roundtrip(example_triangle, example_sequence):
    assert example_triangle.seq == example_sequence
    assert qc.TriangleColoring(example_sequence) == example_triangle
    rows = example_triangle.rows()
    assert qc.TriangleColoring.from_rows(example_triangle.depth, rows) == example_triangle


def test_partial_last_diagonal_rows():
    tri = qc.TriangleColoring((5, 6, 7, 8))
    # tiles 0..3 are (0,0), (0,1), (1,0), (0,2)
    assert tri.rows() == [[5, 7], [6], [8]]


@given(st.lists(st.integers(0, 9), min_size=1, max_size=60))
@settings(max_examples=200)
def test_triangle_roundtrip_any_length(seq):
    tri = qc.TriangleColoring(seq)
    assert tri.seq == tuple(seq)
    rows = tri.rows()
    assert qc.TriangleColoring.from_rows(tri.depth, rows) == tri
    # the renderers' height and width: the last tile opens the top row,
    # and the bottom row is the widest, ending on the last full diagonal
    x, y = qc.tile_at(tri.depth)
    assert len(rows) == x + y + 1
    assert len(rows[0]) == (x + y + 1 if y == 0 else x + y) == max(map(len, rows))


def test_from_rows_rejects_wrong_domains():
    # depth 2 covers (0,0), (0,1), (1,0); a cell at (1,1) is off the staircase
    with pytest.raises(qc.InputError):
        qc.TriangleColoring.from_rows(2, [[1], [2, 3]])
    with pytest.raises(qc.InputError):
        qc.TriangleColoring.from_rows(1, [[1], [2], [3]])
    with pytest.raises(qc.InputError):
        qc.TriangleColoring(())
    # input that is no sequence, or no list of rows, is an input error too
    for bad in (5, None):
        with pytest.raises(qc.InputError):
            qc.TriangleColoring(bad)
        with pytest.raises(qc.InputError):
            qc.TriangleColoring.from_rows(0, bad)
        with pytest.raises(qc.InputError):
            qc.TriangleColoring.from_rows(0, [bad])
    # any iterable of iterables is rows, read once
    rows = iter([iter([0, 2]), iter([1])])
    assert qc.TriangleColoring.from_rows(2, rows) == qc.TriangleColoring((0, 1, 2))


def test_unordered_pairs_and_rows_are_refused():
    # a set or a mapping iterates in an order its caller never gave: a dict
    # pair would be read by its keys, a set pair or row in hash order
    for pair in ({1, 0}, frozenset({1, 0}), {0: 1, 1: 0}):
        for horizontal, vertical in (([pair], []), ([], [pair])):
            with pytest.raises(qc.InputError, match="is not two colors in order"):
                qc.ColoringSystem.from_pairs(2, 0, horizontal, vertical)
    for row in ({2, 0}, frozenset({2, 0}), {2: 0, 0: 2}):
        with pytest.raises(qc.InputError, match="not a list of ordered rows"):
            qc.TriangleColoring.from_rows(2, [row, [1]])
    # nor is a set of rows read as bottom-up
    for rows in ({(0, 2), (1,)}, frozenset({(0, 2), (1,)})):
        with pytest.raises(qc.InputError, match="not a list of ordered rows"):
            qc.TriangleColoring.from_rows(2, rows)
    # every other iterable is still read in its own order
    assert qc.ColoringSystem.from_pairs(2, 0, [iter((1, 0))], []).h_pairs() == [(1, 0)]
    assert qc.TriangleColoring.from_rows(2, [(0, 2), range(1, 2)]) == qc.TriangleColoring((0, 1, 2))


def test_full_triangle_depth():
    assert [qc.full_triangle_depth(d) for d in range(5)] == [0, 2, 5, 9, 14]


# -- witnesses -------------------------------------------------------------------


def test_witness_problems_and_expansion():
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 1), (1, 0)], [(0, 0), (1, 1)])
    w = qc.PeriodicWitness(p=2, q=1, rows=((0, 1),))
    assert qc.check_witness(s, w) is None
    tri = w.expand(5)
    assert tri.depth == qc.full_triangle_depth(5)
    assert qc.check_triangle(s, tri) is None
    assert tri.rows()[:4] == [[0, 1, 0, 1, 0, 1], [0, 1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0]]
    # the table-driven unrolling against one decoded tile by tile
    for torus in (w, qc.PeriodicWitness(3, 2, ((0, 1, 2), (3, 4, 5))),
                  qc.PeriodicWitness(1, 3, ((7,), (8,), (9,)))):
        for d in (0, 1, 4, 9, 40):
            tiles = map(qc.tile_at, range(qc.full_triangle_depth(d) + 1))
            unrolled = tuple(torus.rows[y % torus.q][x % torus.p] for x, y in tiles)
            assert torus.expand(d).seq == unrolled, (torus, d)

    flipped = qc.PeriodicWitness(p=2, q=1, rows=((1, 0),))
    assert qc.check_witness(s, flipped).kind == "origin"
    torn = qc.PeriodicWitness(p=2, q=1, rows=((0, 0),))
    assert "not in H" in qc.check_witness(s, torn).message()

    # a witness that is no p-by-q grid with int periods >= 1 cannot be built
    for p, q, rows in (
        (0, 1, ()),
        (0, 1, ((),)),
        (2, 1, ((0,),)),
        (1, 2, ((0,),)),
        (2, 1, ((0, 1), (1, 0))),
        (True, True, ((0,),)),
        (1, False, ()),
        ("1", 1, ((0,),)),
        (1, "1", ((0,),)),
        (1.0, 1, ((0,),)),
        (1, 1, [(0,)]),
        (1, 1, ([0],)),
        (1, 1, (5,)),
        (1, 1, None),
    ):
        with pytest.raises(qc.InputError):
            qc.PeriodicWitness(p=p, q=q, rows=rows)
    # a color out of range is an input error of the check, not a rejection
    with pytest.raises(qc.InputError):
        qc.check_witness(s, qc.PeriodicWitness(p=2, q=1, rows=((0, 5),)))


def test_check_witness_agrees_with_brute_torus():
    # every origin-pinned grid: the unrolling up to diagonal p + q - 1 holds
    # the top-right cell's wrap pairs, which one diagonal fewer would miss
    rng = random.Random(5)
    shapes = [(p, q) for p in (1, 2, 3) for q in (1, 2, 3) if p * q <= 6]
    for _ in range(100):
        s = random_system(rng, rng.randint(1, 3))
        for p, q in shapes:
            tori = set(brute_torus_colorings(s, p, q))
            for rest in product(range(s.n), repeat=p * q - 1):
                cells = (s.origin,) + rest
                rows = tuple(cells[y * p : (y + 1) * p] for y in range(q))
                w = qc.PeriodicWitness(p=p, q=q, rows=rows)
                assert (qc.check_witness(s, w) is None) == (rows in tori), (s, w)


@given(system_strategy(max_colors=3))
@settings(max_examples=60, deadline=None)
def test_witness_search_agrees_with_brute_torus(s):
    found = qc.find_periodic_witness(s, qc.SearchBudget(period_cap=2))
    all_tori = [
        (p, q, rows)
        for p in (1, 2)
        for q in (1, 2)
        for rows in brute_torus_colorings(s, p, q)
    ]
    if found is None:
        assert all_tori == []
    else:
        assert qc.check_witness(s, found) is None
        assert (found.p, found.q, found.rows) in all_tori
