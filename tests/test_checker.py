"""Acceptance checking: hand cases, the brute-force oracle, determinism."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcolor as qc
from conftest import brute_accepted, random_accepted_sequence, random_system, system_strategy

CHECKER_SYSTEM = qc.ColoringSystem.from_pairs(2, 0, [(0, 1), (1, 0)], [(0, 0), (1, 1)])


def test_origin_pinned():
    assert qc.check_sequence(CHECKER_SYSTEM, (0,)) is None
    v = qc.check_sequence(CHECKER_SYSTEM, (1,))
    assert v is not None and v.kind == "origin" and v.index == 0


def test_first_violation_reported_in_diagonal_order():
    # both tile 2 (H) and tile 1 (V) are wrong; tile 1 comes first
    v = qc.check_sequence(CHECKER_SYSTEM, (0, 1, 0))
    assert v is not None
    assert v.index == 1 and v.kind == "vertical"


def test_h_reported_before_v_on_same_tile():
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 0)], [(0, 0)])
    # tile 4 = (1, 1) colored 1 violates both relations; H wins the tie
    v = qc.check_sequence(s, (0, 0, 0, 0, 1))
    assert v is not None
    assert v.index == 4 and v.kind == "horizontal"
    assert v.tile == (1, 1)


def test_violation_message_names_tiles():
    v = qc.check_sequence(CHECKER_SYSTEM, (0, 1))
    assert v.kind == "vertical"
    assert "(0, 0)" in v.message() and "(0, 1)" in v.message()


def test_out_of_range_color_is_input_error_not_rejection():
    with pytest.raises(qc.InputError):
        qc.check_sequence(CHECKER_SYSTEM, (0, 2))
    with pytest.raises(qc.InputError):
        qc.check_sequence(CHECKER_SYSTEM, ())
    # bool is an int subclass, but True is no color
    with pytest.raises(qc.InputError):
        qc.check_sequence(CHECKER_SYSTEM, (0, True))
    # a triangle's colors are ints already; their range is checked as a
    # sequence's is, with the same message
    for seq in ((0, 1, 2), (0, -1, 1)):
        with pytest.raises(qc.InputError) as by_sequence:
            qc.check_sequence(CHECKER_SYSTEM, seq)
        with pytest.raises(qc.InputError) as by_triangle:
            qc.check_triangle(CHECKER_SYSTEM, qc.TriangleColoring(seq))
        assert str(by_triangle.value) == str(by_sequence.value)


def test_unordered_sequence_is_input_error_not_rejection():
    # a mapping's keys are in range, but its values are what a rejection
    # would judge; a set has no order; a non-iterable is no sequence
    for bad in ({0: 0, 1: 7}, {0: 0, 1: 1}, {0, 1}, frozenset({0}), 5, None):
        with pytest.raises(qc.InputError, match="not an ordered iterable"):
            qc.check_sequence(CHECKER_SYSTEM, bad)
    # any other ordered iterable is judged as the tuple of its items
    for seq in ((0, 0, 1), (0, 1, 0), (1,)):
        expected = qc.check_sequence(CHECKER_SYSTEM, seq)
        for given_as in (list(seq), iter(seq), (c for c in seq)):
            assert qc.check_sequence(CHECKER_SYSTEM, given_as) == expected
    with pytest.raises(qc.InputError, match="out of range"):
        qc.check_sequence(CHECKER_SYSTEM, iter((0, 2)))
    assert qc.check_sequence(CHECKER_SYSTEM, range(1)) is None


def test_example_triangle_accepted(example_system, example_triangle, example_sequence):
    assert qc.check_triangle(example_system, example_triangle) is None
    assert qc.check_sequence(example_system, example_sequence) is None


def test_triangle_and_sequence_checkers_agree(example_system, example_sequence):
    tri = qc.TriangleColoring(example_sequence)
    assert qc.check_triangle(example_system, tri) is None
    corrupted = list(example_sequence)
    corrupted[17] = (corrupted[17] + 1) % example_system.n
    v_seq = qc.check_sequence(example_system, tuple(corrupted))
    v_tri = qc.check_triangle(example_system, qc.TriangleColoring(corrupted))
    assert v_seq is not None and v_tri is not None
    assert (v_seq.kind, v_seq.index, v_seq.tile) == (v_tri.kind, v_tri.index, v_tri.tile)


@pytest.mark.parametrize(
    "depth, cells, message",
    [
        (2, [[0], [0]], "domain has 2 tiles, expected 3"),
        (1, [[0, 1]], "tile (0, 1) (diagonal index 1) missing from domain"),
        (-1, [], "depth -1 is negative"),
        (True, [[1], [2]], "depth True is not an int"),
        (1.0, [[1], [2]], "depth 1.0 is not an int"),
    ],
)
def test_check_triangle_rejects_a_wrong_domain(depth, cells, message):
    # cells are bottom-up rows, as in a triangle file.  A TriangleColoring is
    # a staircase by construction, so a wrong domain never reaches
    # check_triangle: from_rows rejects it.
    with pytest.raises(qc.InputError) as raised:
        qc.TriangleColoring.from_rows(depth, cells)
    assert str(raised.value) == message


@given(system_strategy(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_checker_matches_brute_oracle(s, rng):
    # mix accepted walks with arbitrary noise so both verdicts get exercised
    if rng.random() < 0.5:
        seq = random_accepted_sequence(rng, s, rng.randrange(1, 25))
    else:
        seq = tuple(rng.randrange(s.n) for _ in range(rng.randrange(1, 25)))
    assert (qc.check_sequence(s, seq) is None) == brute_accepted(s, seq)


@given(system_strategy(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_prefixes_of_accepted_stay_accepted(s, rng):
    seq = random_accepted_sequence(rng, s, rng.randrange(1, 30))
    assert qc.check_sequence(s, seq) is None
    for j in range(1, len(seq)):
        assert qc.check_sequence(s, seq[:j]) is None


def test_corruption_sweep_small_system():
    """Every single-tile corruption that breaks an in-domain pair must be
    caught; ones that break nothing must pass.  The reference predicate is
    the grid-walking oracle, not the incremental checker."""
    rng = random.Random(7)
    for _ in range(20):
        s = random_system(rng, 3)
        seq = random_accepted_sequence(rng, s, 12)
        for k in range(len(seq)):
            for wrong in range(s.n):
                if wrong == seq[k]:
                    continue
                mutated = seq[:k] + (wrong,) + seq[k + 1 :]
                verdict = qc.check_sequence(s, mutated) is None
                assert verdict == brute_accepted(s, mutated)
