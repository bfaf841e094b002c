"""System values, bijections, canonical forms, triangles, witnesses."""

import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcolor as qc
from conftest import brute_canonicalize, brute_torus_colorings, random_system, system_strategy


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


def test_successor_masks_match_pairs():
    s = qc.ColoringSystem.from_pairs(3, 1, [(0, 2), (2, 1), (2, 2)], [(1, 0)])
    assert s.h_successors(0) == 0b100
    assert s.h_successors(1) == 0
    assert s.h_successors(2) == 0b110
    assert s.v_successors(1) == 0b001


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
        ({"h_mask": -1}, "horizontal mask -1 has bits outside the 3x3 pair grid"),
        ({"v_mask": 1 << 9}, "vertical mask 512 has bits outside the 3x3 pair grid"),
    ],
    ids=["n=0", "n=65", "origin=-1", "origin=n", "negative-mask", "stray-bit"],
)
def test_invalid_system_raises_at_construction(fields, message):
    valid = qc.ColoringSystem(n=3, origin=1, h_mask=0b101, v_mask=0b110)
    bad = {**vars(valid), **fields}
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


def test_apply_bijection_composes():
    s = qc.ColoringSystem.from_pairs(3, 2, [(0, 1), (2, 2)], [(1, 2)])
    p1 = (1, 2, 0)
    p2 = (2, 0, 1)
    composed = tuple(p2[p1[c]] for c in range(3))
    assert qc.apply_bijection(qc.apply_bijection(s, p1), p2) == qc.apply_bijection(s, composed)


@given(system_strategy(max_colors=4), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_canonical_form_invariant_under_renaming(s, rng):
    perm = list(range(s.n))
    rng.shuffle(perm)
    renamed = qc.apply_bijection(s, tuple(perm))
    assert qc.canonical_form(renamed) == qc.canonical_form(s)
    assert qc.canonical_id(renamed) == qc.canonical_id(s)
    assert qc.is_isomorphic(s, renamed)


@given(system_strategy(max_colors=4))
@settings(max_examples=150)
def test_canonicalize_returns_achieving_bijection(s):
    canon, perm = qc.canonicalize(s)
    assert (canon, perm) == brute_canonicalize(s)
    assert qc.apply_bijection(s, perm) == canon
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
    assert tri.max_x() == 1 and tri.max_y() == 2


@given(st.lists(st.integers(0, 9), min_size=1, max_size=60))
@settings(max_examples=200)
def test_triangle_roundtrip_any_length(seq):
    tri = qc.TriangleColoring(seq)
    assert tri.seq == tuple(seq)
    assert qc.TriangleColoring.from_rows(tri.depth, tri.rows()) == tri


def test_from_rows_rejects_wrong_domains():
    # depth 2 covers (0,0), (0,1), (1,0); a cell at (1,1) is off the staircase
    with pytest.raises(qc.InputError):
        qc.TriangleColoring.from_rows(2, [[1], [2, 3]])
    with pytest.raises(qc.InputError):
        qc.TriangleColoring.from_rows(1, [[1], [2], [3]])
    with pytest.raises(qc.InputError):
        qc.TriangleColoring(())


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
    for x in range(4):
        for y in range(4):
            assert w.color_at(x, y) == x % 2

    flipped = qc.PeriodicWitness(p=2, q=1, rows=((1, 0),))
    assert qc.check_witness(s, flipped).kind == "origin"
    torn = qc.PeriodicWitness(p=2, q=1, rows=((0, 0),))
    assert "not in H" in qc.check_witness(s, torn).message()

    # malformed witnesses are input errors, not rejections
    for bad in (
        qc.PeriodicWitness(p=0, q=1, rows=()),
        qc.PeriodicWitness(p=2, q=1, rows=((0,),)),
        qc.PeriodicWitness(p=1, q=2, rows=((0,),)),
        qc.PeriodicWitness(p=2, q=1, rows=((0, 5),)),
    ):
        with pytest.raises(qc.InputError):
            qc.check_witness(s, bad)


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
